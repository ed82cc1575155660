import json
import pickle
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from token_spectra.graphs import (
    Graph,
    GraphError,
    KiteSpec,
    add_edges,
    build_bipartite_extension,
    build_cut_clique_join,
    build_extended_cycle,
    build_kite,
    build_standard,
    build_superkite,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
    random_connected_gnp,
    random_tree,
    remove_edges,
    star_graph,
)

from helpers import (
    boundary_degree,
    edge_union,
    family_corpus,
    induced_subgraph,
    random_corpus,
    reference_canonical_edges,
    reference_components,
)

DATA = Path(__file__).parent / "data"

# (n, pairs) that Graph must reject whether the pairs come as tuples or as an array
MALFORMED = [
    (3, [(1, 1)]),  # self-loop
    (3, [(0, 1), (-1, 2)]),  # negative endpoint
    (3, [(0, 3)]),  # endpoint >= n
    (3, [(0, 1), (1, 2), (0, 1)]),  # duplicate
    (3, [(0, 1), (1, 2), (1, 0)]),  # reversed duplicate
    (3, [(0, 1, 2)]),  # triple, so shape (1, 3)
    (3, [(0,), (1,)]),  # singletons, so shape (2, 1)
]


def fingerprint_corpus() -> dict[str, Graph]:
    """Every standard family at n <= 6, one kite, one cut-clique join and tests/data/gnp12.el."""
    specs = ([("path", [n]) for n in range(1, 7)] + [("cycle", [n]) for n in range(3, 7)]
             + [("complete", [n]) for n in range(1, 7)] + [("star", [n]) for n in range(1, 6)]
             + [("complete_bipartite", [a, b]) for a in range(1, 6) for b in range(1, 7 - a)])
    out = {f"{f}:{','.join(map(str, p))}": build_standard(f, p) for f, p in specs}
    out["kite:cycle4,root0,s3,r3"] = build_kite(KiteSpec(head=cycle_graph(4), root=0, s=3, r=3))
    out["cut_clique:r2,path3,complete3"] = build_cut_clique_join(2, [path_graph(3), complete_graph(3)])
    out["gnp12.el"] = parse_edge_list((DATA / "gnp12.el").read_text())
    return out


class TestGraphType:
    def test_edges_canonical_sorted(self):
        g = Graph(4, [(3, 1), (0, 2), (2, 1)])
        assert g.edges == ((0, 2), (1, 2), (1, 3))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_hashable_and_equal(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_fingerprint_distinguishes(self):
        a = path_graph(4)
        b = cycle_graph(4)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == path_graph(4).fingerprint()

    def test_array_and_pairs_agree(self):
        rng = random.Random(3)
        for g in family_corpus(7) + random_corpus(10, seed=5):
            pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
            rng.shuffle(pairs)
            for other in (Graph(g.n, pairs), Graph(g.n, np.array(pairs, dtype=np.int64).reshape(-1, 2))):
                assert other == g and hash(other) == hash(g)
                assert other.edges == g.edges
                assert all(type(x) is int for e in other.edges for x in e)
                assert other.fingerprint() == g.fingerprint()

    def test_edge_array_is_read_only_copy(self):
        given_array = np.array([[2, 1], [0, 1]])
        g = Graph(3, given_array)
        assert g.edge_array.dtype == np.int64 and not g.edge_array.flags.writeable
        with pytest.raises(ValueError):
            g.edge_array[0, 0] = 2
        assert given_array.tolist() == [[2, 1], [0, 1]] and given_array.flags.writeable
        back = pickle.loads(pickle.dumps(g))
        assert back == g and not back.edge_array.flags.writeable

    @pytest.mark.parametrize("n,pairs", MALFORMED)
    @pytest.mark.parametrize("as_array", [False, True])
    def test_rejects_malformed(self, n, pairs, as_array):
        with pytest.raises(GraphError):
            Graph(n, np.array(pairs) if as_array else tuple(pairs))

    @pytest.mark.parametrize("edges", [[(0, 1), (2,)], np.arange(4), np.zeros((2, 2, 2), dtype=np.int64),
                                       np.array([[0.0, 1.0]]), [("0", "1")], [0, 1]])
    def test_rejects_ragged_or_non_integer_edges(self, edges):
        with pytest.raises(GraphError):
            Graph(3, edges)

    def test_fingerprints_pinned(self):
        pinned = json.loads((DATA / "fingerprints.json").read_text())
        assert {name: g.fingerprint() for name, g in fingerprint_corpus().items()} == pinned

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_canonical_array_matches_reference(self, n, data):
        # shuffled, flipped, as a list or as an array: one read-only int64 array, or the reference's
        # error on that same input, which names the first bad edge given or the least duplicate
        pairs = data.draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=12))
        order = data.draw(st.permutations(range(len(pairs))))
        flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        moved = [(v, u) if flip else (u, v) for (u, v), flip in zip((pairs[i] for i in order), flips)]
        forms = [pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2), moved, tuple(moved),
                 np.array(moved, dtype=np.int64).reshape(-1, 2), np.array(moved, dtype=np.int32).reshape(-1, 2)]
        arrays = []
        for given_edges in forms:
            try:
                expected = reference_canonical_edges(n, [(int(u), int(v)) for u, v in given_edges])
            except GraphError as exc:
                with pytest.raises(GraphError, match=f"^{re.escape(str(exc))}$"):
                    Graph(n, given_edges)
                continue
            g = Graph(n, given_edges)
            assert g.edges == expected
            assert g.edge_array.tolist() == [list(e) for e in expected]
            assert g.edge_array.dtype == np.int64 and not g.edge_array.flags.writeable
            arrays.append(g.edge_array)
        assert all(np.array_equal(arrays[0], other) for other in arrays)

    @given(st.integers(0, 9), st.data())
    @settings(max_examples=100, deadline=None)
    def test_components_match_reference(self, n, data):
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=12)) if pool else ())
        assert g.components() == reference_components(g)
        assert g.is_connected() == (len(reference_components(g)) <= 1)

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_edge_normalization(self, n, data):
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda t: t[0] != t[1]
                ),
                unique_by=lambda t: frozenset(t),
                max_size=6,
            )
        )
        g = Graph(n, pairs)
        assert list(g.edges) == sorted(g.edges)
        assert all(u < v for u, v in g.edges)


class TestStandardFamilies:
    def test_path_3(self):
        assert build_standard("path", [3]) == Graph(3, [(0, 1), (1, 2)])

    def test_cycle_3_equals_complete_3(self):
        assert build_standard("cycle", [3]) == build_standard("complete", [3])

    def test_k14_is_star(self):
        assert build_standard("complete_bipartite", [1, 4]) == star_graph(4)

    def test_family_sizes(self):
        for n in range(1, 9):
            assert path_graph(n).m == n - 1
            assert complete_graph(n).m == n * (n - 1) // 2
        for n in range(3, 9):
            assert cycle_graph(n).m == n
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                assert complete_bipartite_graph(n1, n2).m == n1 * n2

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            build_standard("cycle", [2])
        with pytest.raises(GraphError):
            build_standard("path", [0])
        with pytest.raises(GraphError):
            build_standard("complete_bipartite", [3])
        with pytest.raises(GraphError):
            build_standard("nonsense", [3])

    def test_deterministic(self):
        assert cycle_graph(7) == cycle_graph(7)
        assert complete_bipartite_graph(2, 3) == complete_bipartite_graph(2, 3)


class TestPerturbations:
    def test_add_edge_to_y(self, y_tree):
        g = add_edges(y_tree, [(0, 1)])
        assert g.edges == ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4))
        assert y_tree.m == 4  # input unchanged

    def test_p3_plus_edge_is_c3(self):
        assert add_edges(path_graph(3), [(0, 2)]) == cycle_graph(3)

    def test_add_existing_edge_fails(self):
        with pytest.raises(GraphError):
            add_edges(path_graph(3), [(0, 1)])

    def test_add_self_loop_fails(self):
        with pytest.raises(GraphError):
            add_edges(path_graph(3), [(1, 1)])

    @pytest.mark.parametrize("new, message", [
        ([(1, 0)], "duplicate edge (0, 1)"),
        ([(0, 2), (2, 0)], "duplicate edge (0, 2)"),
        ([(0, 3)], "edge (0, 3) out of range for n=3"),
        ([(0, 2), (1,)], "edges must be vertex pairs"),
        ([(0, 1, 2)], "edges must form an (m, 2) integer array"),
        (np.array([[0.0, 2.0]]), "edges must form an (m, 2) integer array"),
    ])
    def test_add_edges_messages(self, new, message):
        with pytest.raises(GraphError, match=re.escape(message)):
            add_edges(path_graph(3), new)

    def test_add_edges_builds_one_graph(self, monkeypatch):
        built = []
        init = Graph.__post_init__
        monkeypatch.setattr(Graph, "__post_init__", lambda g: built.append(g) or init(g))
        g = path_graph(4)
        built.clear()
        h = add_edges(g, [(0, 3)])
        assert len(built) == 1
        assert h == cycle_graph(4)

    def test_remove_edges(self):
        assert remove_edges(cycle_graph(3), [(0, 2)]) == path_graph(3)
        assert remove_edges(cycle_graph(4), [(3, 0), (1, 2)]) == Graph(4, [(0, 1), (2, 3)])
        assert remove_edges(path_graph(3), []) == path_graph(3)
        with pytest.raises(GraphError, match=r"edge \(0, 2\) not present"):
            remove_edges(path_graph(3), [(2, 0)])

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 1), (0, 1)], r"duplicate edge \(0, 1\)"),
        ([(0, 1), (1, 0)], r"duplicate edge \(0, 1\)"),
        ([(1, 1)], "self-loop at vertex 1"),
        ([(0, 4)], r"edge \(0, 4\) out of range for n=4"),
    ], ids=["twice", "reversed", "loop", "out-of-range"])
    def test_remove_edges_refuses_what_add_edges_refuses(self, pairs, message):
        with pytest.raises(GraphError, match=message):
            remove_edges(cycle_graph(4), pairs)
        with pytest.raises(GraphError, match=message):
            add_edges(Graph(4), pairs)

    def test_edge_union_identity(self):
        g = path_graph(4)
        assert edge_union(g, Graph(4)) == g

    def test_edge_union_p3_chord(self):
        assert edge_union(path_graph(3), Graph(3, [(0, 2)])) == cycle_graph(3)

    def test_edge_union_rejects_mismatch_and_overlap(self):
        with pytest.raises(GraphError):
            edge_union(path_graph(3), path_graph(4))
        with pytest.raises(GraphError):
            edge_union(path_graph(3), path_graph(3))

    def test_edge_union_recomposes_join(self):
        # split a clique join into internal-component edges vs the rest
        g = build_cut_clique_join(2, [complete_graph(2), complete_graph(2)])
        internal = Graph(g.n, [(2, 3), (4, 5)])
        rest = Graph(g.n, tuple(e for e in g.edges if e not in internal.edges))
        assert edge_union(internal, rest) == g
        assert internal.m + rest.m == g.m


class TestInducedAndBoundary:
    def test_c4_minus_vertex_is_p3(self):
        sub, index = induced_subgraph(cycle_graph(4), [1, 2, 3])
        assert sub == path_graph(3)
        assert index == {1: 0, 2: 1, 3: 2}

    def test_kite_head_restriction(self, c4_kite_spec):
        kite = build_kite(c4_kite_spec)
        sub, _ = induced_subgraph(kite, range(4))
        assert sub == cycle_graph(4)

    def test_empty_subset(self):
        sub, index = induced_subgraph(cycle_graph(4), [])
        assert sub == Graph(0)
        assert index == {}

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            induced_subgraph(cycle_graph(4), [4])
        with pytest.raises(GraphError):
            boundary_degree(cycle_graph(4), [4])

    def test_boundary_single_vertex_k5(self):
        assert boundary_degree(complete_graph(5), [0]) == 4

    def test_boundary_clique_join(self):
        r, comps = 2, [complete_graph(2), complete_graph(2)]
        g = build_cut_clique_join(r, comps)
        assert boundary_degree(g, range(r)) == r * (g.n - r)

    def test_boundary_all_vertices(self):
        assert boundary_degree(complete_graph(5), range(5)) == 0

    def test_boundary_complement_symmetry(self):
        rng = random.Random(5)
        for g in random_corpus(5, n_range=(3, 8), seed=9):
            for _ in range(20):
                vs = [v for v in range(g.n) if rng.random() < 0.5]
                comp = [v for v in range(g.n) if v not in vs]
                assert boundary_degree(g, vs) == boundary_degree(g, comp)


class TestKites:
    def test_c4_head_kite_shape(self, c4_kite_spec):
        kite = build_kite(c4_kite_spec)
        assert kite.n == 4 + 3 * 3
        assert kite.m == 4 + 3 * 3
        # path 2 is root, then labels 7, 8, 9
        assert c4_kite_spec.label(2, 1) == 7 and c4_kite_spec.label(2, 3) == 9
        assert kite.has_edge(0, 7) and kite.has_edge(7, 8) and kite.has_edge(8, 9)

    def test_counts_hold_for_many_specs(self):
        for head in (complete_graph(1), path_graph(3), cycle_graph(5)):
            for s in (2, 3, 4):
                for r in (1, 2, 3):
                    spec = KiteSpec(head=head, root=0, s=s, r=r)
                    kite = build_kite(spec)
                    assert kite.n == head.n + s * r
                    assert kite.m == head.m + s * r

    def test_two_pendant_paths_on_one_vertex(self):
        kite = build_kite(KiteSpec(head=complete_graph(1), root=0, s=2, r=1))
        assert kite == Graph(3, [(0, 1), (0, 2)])  # a 3-vertex path centered at 0

    def test_triangle_head_kite(self, k3_kite_spec):
        kite = build_kite(k3_kite_spec)
        assert kite.n == 12
        expected = Graph(
            12,
            [(0, 1), (0, 2), (1, 2),
             (0, 3), (3, 4), (4, 5),
             (0, 6), (6, 7), (7, 8),
             (0, 9), (9, 10), (10, 11)],
        )
        assert kite == expected
        assert k3_kite_spec.label(1, 3) == 5 and k3_kite_spec.label(2, 3) == 8

    def test_invalid_specs(self):
        with pytest.raises(GraphError):
            KiteSpec(head=path_graph(3), root=3, s=2, r=1)
        with pytest.raises(GraphError):
            KiteSpec(head=path_graph(3), root=0, s=1, r=1)
        with pytest.raises(GraphError):
            KiteSpec(head=path_graph(3), root=0, s=2, r=0)


class TestSuperkites:
    def test_path_supertail_equals_kite(self):
        for s in (2, 3):
            for r in (1, 2, 3):
                for root in (0, 2):
                    kite = build_kite(KiteSpec(head=cycle_graph(4), root=root, s=s, r=r))
                    sk = build_superkite(cycle_graph(4), root, path_graph(r + 1), 0, s)
                    assert sk == kite

    def test_single_edge_tree(self):
        sk = build_superkite(complete_graph(1), 0, path_graph(2), 0, 2)
        assert sk == Graph(3, [(0, 1), (0, 2)])

    def test_star_supertail_explicit(self):
        # two copies of a 2-leaf star rooted at its center, glued to a triangle
        tree = star_graph(2)
        sk = build_superkite(complete_graph(3), 0, tree, 0, 2)
        expected = Graph(
            7,
            [(0, 1), (0, 2), (1, 2),
             (0, 3), (0, 4),   # copy 1 leaves
             (0, 5), (0, 6)],  # copy 2 leaves
        )
        assert sk == expected

    def test_rejects_non_tree(self):
        with pytest.raises(GraphError):
            build_superkite(complete_graph(3), 0, cycle_graph(3), 0, 2)
        with pytest.raises(GraphError):
            build_superkite(complete_graph(3), 0, Graph(3, [(0, 1)]), 0, 2)


class TestCutCliqueJoin:
    def test_r1_two_singletons(self):
        g = build_cut_clique_join(1, [complete_graph(1), complete_graph(1)])
        assert g == Graph(3, [(0, 1), (0, 2)])

    def test_r1_four_singletons_is_star(self):
        g = build_cut_clique_join(1, [complete_graph(1)] * 4)
        assert g == star_graph(4)
        assert sum(0 in e for e in g.edges) == g.n - 1

    def test_r2_two_k2(self):
        g = build_cut_clique_join(2, [complete_graph(2), complete_graph(2)])
        assert g.n == 6
        assert g.m == 1 + 2 + 8
        assert boundary_degree(g, [0, 1]) == 8

    def test_too_few_components(self):
        with pytest.raises(GraphError):
            build_cut_clique_join(2, [complete_graph(2)])


class TestExtendedCycles:
    def test_valid_odd_chords(self):
        # (2, 3) is already a cycle edge, so the union absorbs it
        g = build_extended_cycle(5, [(1, 4), (2, 3)])
        assert g.m == 6
        assert g.has_edge(1, 4) and g.has_edge(2, 3)

    def test_invalid_chord_sum(self):
        with pytest.raises(GraphError):
            build_extended_cycle(5, [(1, 3)])

    def test_no_chords(self):
        assert build_extended_cycle(4, []) == cycle_graph(4)

    def test_even_n_both_nus(self):
        # (2, 3) is a cycle edge of the 6-cycle, so only (1, 4) is new
        g = build_extended_cycle(6, [(1, 4), (2, 3)], nu=5)
        assert g.m == 7
        g2 = build_extended_cycle(6, [(1, 5), (2, 4)], nu=6)
        assert g2.m == 8
        with pytest.raises(GraphError):
            build_extended_cycle(6, [(1, 4)], nu=4)

    def test_no_mixing_of_nus(self):
        with pytest.raises(GraphError):
            build_extended_cycle(6, [(1, 4), (2, 4)], nu=5)

    def test_cycle_edge_chord_absorbed(self):
        assert build_extended_cycle(6, [(0, 5)], nu=5) == cycle_graph(6)


class TestBipartiteExtensions:
    def test_plus_x_all_edges(self):
        g = build_bipartite_extension(2, 3, "plus_x", [(0, 1)])
        assert g.m == 6 + 1
        assert g.has_edge(0, 1)

    def test_star_y_small(self):
        g = build_bipartite_extension(2, 2, "star_y")
        # completing one side of K_{2,2} gives K_4 minus one edge
        assert g == remove_edges(complete_graph(4), [(0, 1)])

    def test_plus_x_empty(self):
        assert build_bipartite_extension(2, 3, "plus_x") == complete_bipartite_graph(2, 3)

    def test_edge_outside_side_rejected(self):
        with pytest.raises(GraphError):
            build_bipartite_extension(2, 3, "plus_x", [(0, 2)])

    def test_star_y_needs_two_in_x(self):
        with pytest.raises(GraphError):
            build_bipartite_extension(1, 3, "star_y")

    def test_sides_ordered(self):
        with pytest.raises(GraphError):
            build_bipartite_extension(3, 2, "plus_x")


class TestEdgeListFormat:
    def test_roundtrip(self):
        for g in family_corpus(7):
            assert parse_edge_list(format_edge_list(g)) == g

    def test_format_exact_text(self):
        assert format_edge_list(path_graph(3)) == "3 2\n0 1\n1 2\n"

    def test_header_comment(self):
        text = format_edge_list(path_graph(3), header="meta k=2")
        assert text.startswith("# meta k=2\n3 2\n")
        assert parse_edge_list(text) == path_graph(3)

    def test_rejects_duplicates_loops_and_order(self):
        with pytest.raises(GraphError):
            parse_edge_list("3 2\n0 1\n0 1\n")
        with pytest.raises(GraphError):
            parse_edge_list("3 1\n1 1\n")
        with pytest.raises(GraphError):
            parse_edge_list("3 1\n1 0\n")
        with pytest.raises(GraphError):
            parse_edge_list("3 2\n0 1\n")
        with pytest.raises(GraphError):
            parse_edge_list("")


class TestRandomInstances:
    def test_gnp_connected_and_seed_stable(self):
        a = random_connected_gnp(7, 0.4, random.Random(3))
        b = random_connected_gnp(7, 0.4, random.Random(3))
        assert a == b
        assert a.is_connected()

    def test_random_tree_is_tree(self):
        for seed in range(10):
            t = random_tree(8, random.Random(seed))
            assert t.m == 7
            assert t.is_connected()
