import random
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from token_spectra import tokens
from token_spectra.graphs import (
    Graph,
    GraphError,
    add_edges,
    complete_graph,
    parse_edge_list,
    path_graph,
    random_connected_gnp,
)
from token_spectra.spectra import algebraic_connectivity, laplacian
from token_spectra.tokens import CapExceededError, token_graph

from helpers import (
    SubsetCodec,
    binomial_lift,
    binomial_matrix,
    binomial_project,
    connected_class_representatives,
    edge_union,
    family_corpus,
    random_corpus,
    reference_token_edges,
)

DATA = Path(__file__).parent / "data"

# fingerprint() of token_graph(G, k).graph, taken from the builder that wrote each
# target subset out and sorted it; the arithmetic ranks must give the same bytes
PINNED_TOKEN_FINGERPRINTS = {
    ("gnp12.el", 2): "248182eb1ffc705a015e2be94de6c6e939e1453ea9ca7bcf28a80cb7a1330a8e",
    ("gnp12.el", 3): "8f2389f29f81cec2b1c0385191048395479feb878f2a0df21750d7e47026ea69",
    ("gnp12.el", 4): "09a3ca3734e428feaa588da2e032a31be8f45b2c99549c20f04c6ae6a2b85f42",
    ("gnp12.el", 5): "1ceba86e8787099b8f9775cbf12853c7be38f5c9b8f258842181d5014fbdb628",
    ("gnp12.el", 6): "863614e3af70f932ddbfd974079015207dc2b15c7eb7a40f7a30622807220364",
    ("gnp12.el", 7): "563b606d609e8c33c1ac648378fd3669d2d37e80615a5fa2bdbd4934e411932a",
    ("gnp12.el", 8): "c3674f67bf91e7580315077bb356f84c7efd7c2cb8ab5dd250ccd2b700612908",
    ("gnp12.el", 9): "ffb8ccb9cc03a1470e50e0a43fd355007b764b6630aabe020b3fcd7514a5bb64",
    ("gnp12.el", 10): "ad6adaff56664a6745a93bdf53715c12b022037de04acce0347e40627f7eb08a",
    ("gnp18.el", 4): "df26df164806d335e83e2ba0abd2f83163ae8fa5703e59f2bdbd790c4e65d86d",
}


class TestSubsetCodec:
    def test_extreme_ranks(self):
        c = SubsetCodec(5, 2)
        assert c.rank((0, 1)) == 0
        assert c.rank((3, 4)) == c.size - 1 == 9

    def test_rank_order_matches_colex_enumeration(self):
        c = SubsetCodec(6, 3)
        assert [c.rank(s) for s in c.subsets()] == list(range(c.size))

    def test_roundtrip_exhaustive_8_3(self):
        c = SubsetCodec(8, 3)
        for i in range(c.size):
            assert c.rank(c.unrank(i)) == i
        for s in combinations(range(8), 3):
            assert c.unrank(c.rank(s)) == s

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        c = SubsetCodec(n, k)
        i = data.draw(st.integers(0, c.size - 1))
        s = c.unrank(i)
        assert len(s) == k and c.rank(s) == i

    def test_wrong_cardinality(self):
        c = SubsetCodec(5, 2)
        with pytest.raises(GraphError):
            c.rank((0, 1, 2))
        with pytest.raises(GraphError):
            c.rank((1, 1))

    def test_out_of_range(self):
        c = SubsetCodec(5, 2)
        with pytest.raises(GraphError):
            c.rank((3, 5))
        with pytest.raises(GraphError):
            c.unrank(10)
        with pytest.raises(GraphError):
            SubsetCodec(5, 5)


class TestTokenGraph:
    def test_two_token_graph_of_y(self, y_tree):
        tg = token_graph(y_tree, 2)
        assert tg.graph.n == 10
        assert tg.graph.m == 12
        c = SubsetCodec(5, 2)
        assert tg.graph.has_edge(*sorted((c.rank((0, 1)), c.rank((0, 2)))))
        # the full drawn adjacency, written as subset pairs
        drawn = [
            ((0, 1), (0, 2)), ((0, 1), (1, 2)), ((1, 2), (1, 3)),
            ((0, 2), (0, 3)), ((0, 3), (2, 3)), ((2, 3), (1, 3)),
            ((1, 3), (1, 4)), ((2, 3), (2, 4)), ((0, 3), (0, 4)),
            ((2, 4), (0, 4)), ((2, 4), (1, 4)), ((2, 4), (3, 4)),
        ]
        expected = sorted(
            tuple(sorted((c.rank(a), c.rank(b)))) for a, b in drawn
        )
        assert list(tg.graph.edges) == expected

    def test_one_token_graph_is_base(self):
        for g in family_corpus(6):
            assert token_graph(g, 1).graph == g

    def test_token_graph_of_extended_y(self, y_tree):
        base = token_graph(y_tree, 2).graph
        extended = token_graph(add_edges(y_tree, [(0, 1)]), 2).graph
        c = SubsetCodec(5, 2)
        new_edges = set(extended.edges) - set(base.edges)
        expected = {
            tuple(sorted((c.rank((0, x)), c.rank((1, x))))) for x in (2, 3, 4)
        }
        assert new_edges == expected

    def test_cap(self):
        with pytest.raises(CapExceededError):
            token_graph(path_graph(30), 8, cap=1000)

    def test_memory_estimate_refuses_before_allocating(self, monkeypatch):
        # complete:12 with k = 3 makes 66 * C(11, 2) = 3630 candidate rows
        tokens._colex_subsets.cache_clear()  # the subset table is memoized; it must be built here
        started = []
        monkeypatch.setattr(tokens, "combinations", lambda *a: started.append(a))
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", 3629 * tokens.TOKEN_BYTES_PER_ROW)
        with pytest.raises(CapExceededError, match="3-token graph of 12 vertices needs about"):
            token_graph(complete_graph(12), 3)
        assert started == []
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", 3630 * tokens.TOKEN_BYTES_PER_ROW)
        with pytest.raises(TypeError):  # past the estimate, into the recorder
            token_graph(complete_graph(12), 3)
        assert len(started) == 1

    def test_tables_are_charged_before_they_are_built(self, monkeypatch):
        # one edge on 22 vertices with k = 11: C(21, 10) candidate rows (42 MB) but C(22, 11) x 11
        # table entries (the tables alone rose ru_maxrss by 361 MiB), so the tables set the charge
        tokens._colex_subsets.cache_clear()
        started = []
        monkeypatch.setattr(tokens, "combinations", lambda *a: started.append(a))
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", 200 * 2**20)
        assert tokens.TOKEN_BYTES_PER_ROW * comb(21, 10) < 200 * 2**20
        with pytest.raises(CapExceededError, match="11-token graph of 22 vertices needs about 0.463 GiB"):
            token_graph(Graph(22, [(0, 1)]), 11, cap=10**6)
        assert started == []

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range(self, y_tree, k):
        with pytest.raises(GraphError):
            token_graph(y_tree, k)

    @pytest.mark.parametrize("k", [1, 2999])
    def test_long_path_is_its_own_token_graph(self, k):
        # for k = n-1, vertex v is the complement of {n-1-v}
        assert token_graph(path_graph(3000), k).graph == path_graph(3000)

    @pytest.mark.parametrize("k", [3, 5])
    def test_token_edges_stay_an_array(self, k):
        # both sides of j = min(k, n - k); the tuple view is built only on demand
        tg = token_graph(path_graph(8), k)
        assert "edges" not in vars(tg.graph) and not tg.graph.edge_array.flags.writeable
        assert tg.graph.edges == reference_token_edges(path_graph(8), k)

    @pytest.mark.parametrize("name,k", list(PINNED_TOKEN_FINGERPRINTS))
    def test_fingerprints_pinned(self, name, k):
        g = parse_edge_list((DATA / name).read_text())
        assert token_graph(g, k).graph.fingerprint() == PINNED_TOKEN_FINGERPRINTS[name, k]

    def test_rank_moves_are_memoized_read_only(self):
        first = tokens._rank_moves(9, 4)
        assert tokens._rank_moves(9, 4) is first and tokens._rank_moves(9, 3) is not first
        assert first.shape == (8, comb(9, 4))
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = first[0, 0]
        # a token graph built from the memoized table equals one built on a fresh call
        g = random_connected_gnp(9, 0.5, random.Random(9))
        memoized = token_graph(g, 4).graph
        tokens._rank_moves.cache_clear()
        assert token_graph(g, 4).graph == memoized

    @pytest.mark.parametrize("n,j", [(2, 1), (5, 1), (6, 2), (7, 3), (8, 4), (9, 4)])
    def test_rank_moves_rank_every_move(self, n, j):
        # every move s_p -> b with b > s_p outside the row, against the codec's rank of the moved subset
        codec, moves, choose = SubsetCodec(n, j), tokens._rank_moves(n, j), tokens.choose_table(n, j)
        for r, row in enumerate(tokens._colex_subsets(n, j).tolist()):
            assert codec.rank(tuple(row)) == r
            for p, b in ((p, b) for p in range(j) for b in range(row[p] + 1, n) if b not in row):
                q = sum(s < b for s in row)
                moved = tuple(sorted(row[:p] + row[p + 1:] + [b]))
                assert moves[p, r] + moves[j - 1 + q, r] + choose[b, q] == codec.rank(moved)

    def test_serialization_header(self, y_tree):
        text = token_graph(y_tree, 2).to_edge_list_text()
        assert text.splitlines()[0] == "# token base_n=5 k=2 codec=colex"
        assert text.splitlines()[1] == "10 12"


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize(
        "corpus",
        [
            lambda: family_corpus(8),
            lambda: random_corpus(10, n_range=(4, 8), seed=8),
            lambda: [g for n in range(2, 7) for g in connected_class_representatives(n)],
            # j = min(k, n - k) reaches 5 on both sides of n/2
            lambda: [random_connected_gnp(n, 0.5, random.Random(n)) for n in (9, 10, 11)],
        ],
        ids=["families", "random", "connected-classes", "gnp-9-to-11"],
    )
    def test_edges_equal_per_edge_loop(self, corpus):
        for g in corpus():
            for k in range(1, g.n):
                assert token_graph(g, k).graph.edges == reference_token_edges(g, k)


class TestEdgeCountIdentity:
    def test_families(self):
        for g in family_corpus(8):
            for k in range(1, min(5, g.n)):
                tg = token_graph(g, k)
                assert tg.graph.m == g.m * comb(g.n - 2, k - 1)

    def test_random(self):
        for g in random_corpus(10, n_range=(4, 8), seed=2):
            for k in range(1, min(5, g.n)):
                assert token_graph(g, k).graph.m == g.m * comb(g.n - 2, k - 1)

    @pytest.mark.parametrize("k", [2, 6])  # 6 > 8/2 takes the complement side
    def test_an_edge_count_off_the_identity_raises(self, monkeypatch, k):
        # the rank's edge arrays lose their last edge: 41 of the 7 * C(6, 1) = 7 * C(6, 5) = 42
        real = tokens._token_edges
        monkeypatch.setattr(tokens, "_token_edges", lambda g, j: tuple(a[:-1] for a in real(g, j)))
        with pytest.raises(AssertionError, match=r"token edge count 41 != \|E\|\*C\(n-2,k-1\) = 42"):
            token_graph(path_graph(8), k)


class TestComplementSymmetry:
    def test_token_graphs_isomorphic_under_complement_codec(self):
        # mapping every subset to its complement is an explicit isomorphism
        for g in family_corpus(7) + random_corpus(6, n_range=(4, 7), seed=3):
            n = g.n
            for k in range(1, n):
                a = token_graph(g, k).graph
                b = token_graph(g, n - k).graph
                ca, cb = SubsetCodec(n, k), SubsetCodec(n, n - k)
                relabel = {}
                for s in ca.subsets():
                    comp = tuple(sorted(set(range(n)) - set(s)))
                    relabel[ca.rank(s)] = cb.rank(comp)
                mapped = sorted(
                    tuple(sorted((relabel[u], relabel[v]))) for u, v in a.edges
                )
                assert mapped == list(b.edges)


class TestDecomposition:
    def test_token_edges_split_over_edge_partition(self):
        rng = random.Random(4)
        for g in random_corpus(8, n_range=(4, 7), seed=5):
            if g.m < 2:
                continue
            for k in range(1, min(4, g.n)):
                cut = rng.randrange(1, g.m)
                g1 = Graph(g.n, g.edges[:cut])
                g2 = Graph(g.n, g.edges[cut:])
                whole = token_graph(edge_union(g1, g2), k).graph
                part1 = token_graph(g1, k).graph
                part2 = token_graph(g2, k).graph
                assert set(whole.edges) == set(part1.edges) | set(part2.edges)
                assert not set(part1.edges) & set(part2.edges)


class TestConnectivity:
    def test_connected_base_gives_connected_token_graph(self):
        for g in family_corpus(8) + random_corpus(8, n_range=(4, 8), seed=6):
            assert g.is_connected()
            for k in range(1, min(4, g.n)):
                assert token_graph(g, k).graph.is_connected()


class TestBinomialOperators:
    def test_lift_of_ones(self):
        c = SubsetCodec(6, 3)
        assert np.allclose(binomial_lift(c, np.ones(6)), 3.0)

    def test_lift_of_basis_vector_is_membership_indicator(self):
        c = SubsetCodec(6, 2)
        for j in range(6):
            e = np.zeros(6)
            e[j] = 1.0
            lifted = binomial_lift(c, e)
            for i, s in enumerate(c.subsets()):
                assert lifted[i] == (1.0 if j in s else 0.0)

    def test_lift_of_fiedler_vector_is_token_fiedler(self, y_tree):
        a, basis = algebraic_connectivity(y_tree)
        x = basis[:, 0]
        c = SubsetCodec(5, 2)
        lifted = binomial_lift(c, x)
        L2 = laplacian(token_graph(y_tree, 2).graph)
        resid = L2 @ lifted - a * lifted
        assert np.linalg.norm(resid) < 1e-9
        a2, _ = algebraic_connectivity(token_graph(y_tree, 2).graph)
        assert abs(a2 - a) < 1e-9

    def test_project_of_ones(self):
        c = SubsetCodec(6, 3)
        assert np.allclose(binomial_project(c, np.ones(c.size)), comb(5, 2))

    def test_project_lift_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for n in range(3, 9):
            for k in range(1, n):
                c = SubsetCodec(n, k)
                B = binomial_matrix(c)
                x = rng.standard_normal(n)
                assert np.allclose(binomial_lift(c, x), B @ x)
                w = rng.standard_normal(c.size)
                assert np.allclose(binomial_project(c, w), B.T @ w)
                assert np.allclose(binomial_project(c, binomial_lift(c, x)), B.T @ (B @ x))

    def test_projection_nullspace_witness_exists(self):
        c = SubsetCodec(4, 2)
        B = binomial_matrix(c)
        _, sing, vh = np.linalg.svd(B.T)
        null_dim = c.size - int((sing > 1e-12).sum())
        assert null_dim > 0
        w = vh[-1]
        assert np.linalg.norm(binomial_project(c, w)) < 1e-12

    def test_lift_intertwines_laplacians(self):
        # L(F_k) B = B L(G) exactly, and B has full column rank
        for g in family_corpus(7):
            for k in range(1, g.n):
                B = binomial_matrix(SubsetCodec(g.n, k)).astype(np.int64)
                Lk = laplacian(token_graph(g, k).graph)
                assert np.array_equal(Lk @ B, B @ laplacian(g))
                assert np.linalg.matrix_rank(B) == g.n

    def test_src_lift_matches_dense_oracle(self):
        # on both sides of j = min(k, n - k): k nonzeros per row, in colex order
        rng = np.random.default_rng(3)
        for n in range(2, 9):
            for k in range(1, n):
                B = tokens.lift(n, k)
                dense = binomial_matrix(SubsetCodec(n, k))
                assert B.dtype == float and B.shape == dense.shape and np.count_nonzero(B) == comb(n, k) * k
                assert np.array_equal(B, dense)
                x = rng.standard_normal(n)
                assert np.allclose(B @ x, dense @ x)

    def test_src_lift_intertwines_sparse_laplacians(self):
        from token_spectra.spectra import sparse_laplacian

        for g in family_corpus(7):
            for k in range(1, g.n):
                B = tokens.lift(g.n, k)
                lhs = sparse_laplacian(token_graph(g, k).graph) @ B
                assert np.array_equal(lhs, B @ laplacian(g))

    def test_length_mismatch(self):
        c = SubsetCodec(5, 2)
        with pytest.raises(GraphError):
            binomial_lift(c, np.ones(4))
        with pytest.raises(GraphError):
            binomial_project(c, np.ones(9))
