import itertools
import json
import random

import numpy as np
import pytest

from token_spectra import spectra, verify
from token_spectra.graphs import (
    Graph,
    GraphError,
    KiteSpec,
    add_edges,
    build_kite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from token_spectra.spectra import algebraic_connectivity, eig_sym, laplacian, theta
from token_spectra.tokens import CapExceededError
from token_spectra.verify import (
    CONTAIN_TOL,
    FAIL,
    PASS,
    PRECONDITION_UNMET,
    _symmetrizer_on_eigenspaces,
    check_alpha_token_equality,
    check_bipartite_extension,
    check_cut_clique,
    check_cut_vertex_split,
    check_edge_add_alpha_iff,
    check_interlacing,
    check_kite_alpha_theta_iff,
    check_kite_head_family,
    check_pendant_bound,
    check_spectral_containment,
    check_symmetrizer_commutation,
    check_tail_edges_preserve_alpha,
    check_theta_table,
)

from helpers import build_kite_symmetrizer, random_corpus


class TestCertificate:
    def test_schema_keys(self, y_tree):
        cert = check_alpha_token_equality(y_tree, 2)
        doc = cert.to_json_dict()
        assert set(doc) == {"check_id", "graph", "verdict", "witnesses", "tolerances", "runtime_ms"}
        assert set(doc["graph"]) == {"n", "edges_hash"}
        json.dumps(doc)  # must be serializable

    def test_deterministic_modulo_runtime(self, y_tree):
        a = check_alpha_token_equality(y_tree, 2).to_json_dict()
        b = check_alpha_token_equality(y_tree, 2).to_json_dict()
        a.pop("runtime_ms"), b.pop("runtime_ms")
        assert a == b

    def test_fail_certificates_carry_witnesses(self, monkeypatch):
        # alpha(F_2(P_5)) read 0.5 too high: a fail that no rounding decides
        real = verify.token_alpha
        monkeypatch.setattr(verify, "token_alpha",
                            lambda tg, base, lo, hi: (real(tg, base, lo, hi)[0] + 0.5, {}))
        cert = check_alpha_token_equality(path_graph(5), 2)
        assert cert.verdict == FAIL
        assert "difference" in cert.witnesses and "alpha_token" in cert.witnesses


class TestSpectralContainment:
    def test_y_exact(self, y_tree):
        cert = check_spectral_containment(y_tree, 2, mode="exact")
        assert cert.passed and cert.witnesses["quotient_degree"] == 5

    def test_k4_exact_quotient_degree(self):
        cert = check_spectral_containment(complete_graph(4), 2, mode="exact")
        assert cert.passed and cert.witnesses["quotient_degree"] == 2

    def test_k1_trivial(self, y_tree):
        cert = check_spectral_containment(y_tree, 1, mode="exact")
        assert cert.passed and cert.witnesses["quotient_degree"] == 0

    def test_float_mode(self, y_tree):
        cert = check_spectral_containment(y_tree, 2, mode="float")
        assert cert.passed and cert.witnesses["unmatched"] == []

    def test_cap(self):
        with pytest.raises(CapExceededError):
            check_spectral_containment(path_graph(30), 10, cap=100)


class TestAlphaTokenEquality:
    def test_extended_y(self, y_tree):
        cert = check_alpha_token_equality(add_edges(y_tree, [(0, 1)]), 2)
        assert cert.passed
        assert abs(cert.witnesses["alpha_base"] - 0.5188) < 5e-5

    def test_star_y_bipartite(self):
        from token_spectra.graphs import build_bipartite_extension

        g = build_bipartite_extension(2, 3, "star_y")
        cert = check_alpha_token_equality(g, 2)
        assert cert.passed
        assert abs(cert.witnesses["alpha_base"] - 3.0) < 1e-9

    def test_star_join(self):
        from token_spectra.graphs import build_cut_clique_join

        g = build_cut_clique_join(1, [complete_graph(1)] * 4)
        cert = check_alpha_token_equality(g, 2)
        assert cert.passed
        assert abs(cert.witnesses["alpha_base"] - 1.0) < 1e-9


class TestEdgeAddIff:
    def test_y_tree_equal_leaves(self, y_tree):
        cert = check_edge_add_alpha_iff(y_tree, 0, 1)
        assert cert.passed
        assert cert.witnesses["alpha_preserved"] and cert.witnesses["equal_pair_exists"]

    def test_path_end_chord(self):
        cert = check_edge_add_alpha_iff(path_graph(3), 0, 2)
        assert cert.passed
        assert not cert.witnesses["alpha_preserved"]
        assert abs(cert.witnesses["alpha_before"] - 1.0) < 1e-9
        assert abs(cert.witnesses["alpha_after"] - 3.0) < 1e-9

    def test_kite_level_edge_back_in(self, k3_kite_spec):
        # 12-vertex kite plus one level edge; re-adding the removed level edge
        # changes alpha, and no Fiedler vector equalizes the pair
        g = build_kite(k3_kite_spec)
        gp = add_edges(g, [(k3_kite_spec.label(1, 1), k3_kite_spec.label(3, 1))])
        u, v = k3_kite_spec.label(1, 3), k3_kite_spec.label(2, 3)
        cert = check_edge_add_alpha_iff(gp, u, v)
        assert cert.passed
        assert not cert.witnesses["alpha_preserved"]
        assert abs(cert.witnesses["alpha_before"] - 0.1981) < 5e-5
        assert abs(cert.witnesses["alpha_after"] - 0.2679) < 5e-5

    def test_existing_edge_rejected(self, y_tree):
        with pytest.raises(GraphError, match="edge \\(0, 2\\) already present"):
            check_edge_add_alpha_iff(y_tree, 0, 2)

    def test_bidirectional_agreement_random(self):
        rng = random.Random(23)
        count = 0
        for g in random_corpus(60, n_range=(4, 9), seed=24):
            non_edges = [
                (u, v) for u in range(g.n) for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            assert check_edge_add_alpha_iff(g, u, v).passed
            count += 1
        assert count >= 50


class TestTailEdges:
    def test_y_as_kite(self):
        # Y: 3-vertex path head rooted at its end, two pendant paths of length 1
        spec = KiteSpec(head=path_graph(3), root=0, s=2, r=1)
        cert = check_tail_edges_preserve_alpha(spec, [(3, 4)])
        assert cert.passed
        assert abs(cert.witnesses["alpha"] - 0.5188) < 5e-5
        assert abs(cert.witnesses["theta_r"] - 1.0) < 1e-9
        assert abs(cert.witnesses["alpha_after"] - cert.witnesses["alpha"]) < 1e-9

    def test_triangle_head_kite_hypothesis_fails(self, k3_kite_spec):
        cert = check_tail_edges_preserve_alpha(
            k3_kite_spec, [(k3_kite_spec.label(1, 3), k3_kite_spec.label(2, 3))]
        )
        assert cert.verdict == PRECONDITION_UNMET

    def test_star_center_rooted(self):
        # 3 pendant paths of length 1 on a single vertex: alpha = theta_1 = 1
        spec = KiteSpec(head=complete_graph(1), root=0, s=3, r=1)
        cert = check_tail_edges_preserve_alpha(spec, [(1, 2)])
        assert cert.verdict == PRECONDITION_UNMET
        assert abs(cert.witnesses["alpha"] - 1.0) < 1e-9

    def test_rejects_cross_level_edges(self, k3_kite_spec):
        with pytest.raises(GraphError):
            check_tail_edges_preserve_alpha(
                k3_kite_spec, [(k3_kite_spec.label(1, 1), k3_kite_spec.label(2, 2))]
            )
        with pytest.raises(GraphError):
            check_tail_edges_preserve_alpha(k3_kite_spec, [(0, k3_kite_spec.label(1, 1))])


class TestKiteIff:
    def test_six_vertex_head(self, six_head_kite):
        _, spec = six_head_kite
        cert = check_kite_alpha_theta_iff(spec)
        assert cert.passed
        assert cert.witnesses["alpha_equals_theta"] and cert.witnesses["head_bound_holds"]
        assert abs(cert.witnesses["head_submatrix_min_eig"] - 0.284) < 5e-4

    def test_trivial_head_spider(self):
        for s, r in ((2, 2), (3, 2), (3, 3)):
            cert = check_kite_alpha_theta_iff(KiteSpec(head=complete_graph(1), root=0, s=s, r=r))
            assert cert.passed
            assert cert.witnesses["head_submatrix_min_eig"] is None
            assert abs(cert.witnesses["alpha"] - theta(r, r)) < 1e-9

    def test_cycle_head(self, c4_kite_spec):
        cert = check_kite_alpha_theta_iff(c4_kite_spec)
        assert cert.passed

    def test_both_sides_false_case(self):
        # long head path keeps the submatrix eigenvalue below theta_1
        spec = KiteSpec(head=path_graph(6), root=0, s=2, r=1)
        cert = check_kite_alpha_theta_iff(spec)
        assert cert.passed
        assert not cert.witnesses["alpha_equals_theta"]
        assert not cert.witnesses["head_bound_holds"]


class TestSymmetrizer:
    def test_matrix_shape_small_case(self):
        # s = 2 makes the scaled symmetrizer a 0/1 matrix
        spec = KiteSpec(head=complete_graph(1), root=0, s=2, r=1)
        S = build_kite_symmetrizer(spec)
        assert S.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_level_rows_sum_to_scale(self, c4_kite_spec):
        S = build_kite_symmetrizer(c4_kite_spec)
        for j in range(1, 4):
            for i in range(2, 4):
                row = S[c4_kite_spec.label(i, j)]
                assert row.sum() == c4_kite_spec.s - 1

    def test_commutation_certificate(self, c4_kite_spec):
        cert = check_symmetrizer_commutation(c4_kite_spec)
        assert cert.passed
        assert cert.witnesses["commutes_exactly"]
        assert cert.witnesses["eigenspaces_stable"]
        assert cert.witnesses["missing_eigenvalues"] == []

    def test_small_exact_commutation(self):
        spec = KiteSpec(head=complete_graph(1), root=0, s=2, r=2)
        cert = check_symmetrizer_commutation(spec)
        assert cert.passed and cert.witnesses["commutes_exactly"]

    @pytest.mark.parametrize("head, root, s, r", [(cycle_graph(4), 0, 3, 3), (path_graph(3), 1, 4, 2),
                                                  (complete_graph(1), 0, 3, 1)])
    def test_edge_across_tail_paths_does_not_commute(self, monkeypatch, head, root, s, r):
        # an edge joining paths 1 and 2 at level 1 meets one vertex of U_1 but not the others,
        # whose rows S averages with its row
        spec = KiteSpec(head=head, root=root, s=s, r=r)
        kite = add_edges(build_kite(spec), [(spec.label(1, 1), spec.label(2, 1))])
        monkeypatch.setattr(verify, "build_kite", lambda sp: kite)
        cert = check_symmetrizer_commutation(spec)
        assert cert.witnesses["commutes_exactly"] is False
        assert cert.verdict == FAIL

    def test_commutation_matches_the_dense_products(self, monkeypatch):
        # kites and copies with one edge added across tail paths or from the head into a tail;
        # the integer products L (s-1)S and (s-1)S L of the dense oracle are exact
        outcomes = []
        for head in (path_graph(3), cycle_graph(4), star_graph(3), complete_graph(4), path_graph(5)):
            for root, s, r in itertools.product(range(head.n), (2, 3, 4), (1, 2, 3, 5)):
                spec = KiteSpec(head=head, root=root, s=s, r=r)
                kite = build_kite(spec)
                extras = [(spec.label(1, 1), spec.label(2, 1)), ((root + 1) % head.n, spec.label(2, r))]
                if s >= 3 and r >= 2:
                    extras.append((spec.label(2, 1), spec.label(s, r)))
                S2 = build_kite_symmetrizer(spec)
                for g in [kite, *(add_edges(kite, [e]) for e in extras)]:
                    L = laplacian(g)
                    monkeypatch.setattr(verify, "build_kite", lambda sp, g=g: g)
                    got = check_symmetrizer_commutation(spec).witnesses["commutes_exactly"]
                    assert got == np.array_equal(L @ S2, S2 @ L), (spec, g.edges)
                    outcomes.append(got)
        assert (outcomes.count(True), outcomes.count(False)) == (400, 440)

    @staticmethod
    def _on_eigenspaces_loop(spec_g, S, levels, tol):
        """_symmetrizer_on_eigenspaces with one mean per level, as a reference."""
        stable = some_nonzero_image = True
        for grp in spec_g.groups:
            basis = spec_g.vectors[:, grp]
            img = S @ basis
            if np.abs(img - basis @ (basis.T @ img)).max() > tol * max(1.0, float(spec_g.values[-1])):
                stable = False
            norms = np.linalg.norm(img, axis=0)
            if norms.max() <= tol:
                some_nonzero_image = False
            col = img[:, int(np.argmax(norms))]
            for level in levels:
                if np.abs(col[level] - col[level].mean()).max() > tol:
                    stable = False
        return stable, some_nonzero_image

    def test_eigenspace_test_matches_the_loop(self, c4_kite_spec, monkeypatch):
        unstable = 0
        for spec in [c4_kite_spec, KiteSpec(head=path_graph(3), root=1, s=4, r=2),
                     KiteSpec(head=star_graph(3), root=0, s=2, r=5)]:
            spec_g = eig_sym(laplacian(build_kite(spec)).astype(float))
            levels = np.array(spec.levels())
            S = build_kite_symmetrizer(spec) / (spec.s - 1)
            assert np.abs(verify._symmetrize(spec_g.vectors, levels) - S @ spec_g.vectors).max() <= 1e-15
            assert (_symmetrizer_on_eigenspaces(spec_g, levels, 1e-7)
                    == self._on_eigenspaces_loop(spec_g, S, spec.levels(), 1e-7))
            # the identity keeps every eigenspace, but a degenerate one's first basis
            # vector need not agree across the tail paths of a level
            for M in (S, np.eye(spec.n)):
                with monkeypatch.context() as m:
                    m.setattr(verify, "_symmetrize", lambda basis, levels, M=M: M @ basis)
                    got = _symmetrizer_on_eigenspaces(spec_g, levels, 1e-7)
                assert got == self._on_eigenspaces_loop(spec_g, M, spec.levels(), 1e-7)
                unstable += not got[0]
        assert unstable >= 1

    def test_missing_eigenvalues_match_the_scan(self, c4_kite_spec, monkeypatch):
        # a head-to-tail edge in place of the level edges moves some eigenvalues away
        monkeypatch.setattr(verify, "add_edges", lambda g, edges: add_edges(g, [(1, g.n - 1)]))
        w = check_symmetrizer_commutation(c4_kite_spec).witnesses
        loop = [val for val in w["distinct_eigenvalues"]
                if min(abs(val - x) for x in w["perturbed_spectrum"]) > CONTAIN_TOL]
        assert loop and w["missing_eigenvalues"] == loop

    def test_perturbed_spectrum_contains_distinct_values(self, c4_kite_spec):
        cert = check_symmetrizer_commutation(c4_kite_spec)
        distinct = cert.witnesses["distinct_eigenvalues"]
        perturbed = cert.witnesses["perturbed_spectrum"]
        for val in distinct:
            assert min(abs(val - x) for x in perturbed) <= 1e-3


class TestCutClique:
    def test_star_case(self):
        cert = check_cut_clique(1, [complete_graph(1)] * 4, k=2)
        assert cert.passed
        assert abs(cert.witnesses["alpha"] - 1.0) < 1e-9
        assert abs(cert.witnesses["alpha_token"] - 1.0) < 1e-7

    def test_r2_two_k2(self):
        cert = check_cut_clique(2, [complete_graph(2), complete_graph(2)], k=2)
        assert cert.passed and cert.witnesses["full_join"]
        assert abs(cert.witnesses["alpha"] - 2.0) < 1e-9

    def test_partial_join_records_gap(self):
        cert = check_cut_clique(
            2, [complete_graph(2), complete_graph(2)],
            removed_join_edges=[(0, 2)],
        )
        assert cert.passed
        assert cert.witnesses["gap"] > 1e-6
        assert cert.witnesses["bound_alpha_le_r"]
        assert not cert.witnesses["full_join"] and "alpha_token" not in cert.witnesses

    def test_partial_join_needs_removed_edges(self):
        with pytest.raises(GraphError, match=r"\(2, 3\) is not a clique-component join edge"):
            check_cut_clique(2, [complete_graph(2)] * 2, removed_join_edges=[(2, 3)])


class TestPendantBound:
    def test_path3(self):
        cert = check_pendant_bound(path_graph(3), 2)
        assert cert.passed

    def test_k4(self):
        cert = check_pendant_bound(complete_graph(4), 2)
        assert cert.passed
        assert abs(cert.witnesses["alpha_token_k"] - 4.0) < 1e-7

    def test_c5(self):
        assert check_pendant_bound(cycle_graph(5), 2).passed

    def test_k_range_enforced(self):
        with pytest.raises(GraphError):
            check_pendant_bound(path_graph(3), 3)


class TestInterlacingCheck:
    def test_y_tree(self, y_tree):
        assert check_interlacing(y_tree, 0, 1).passed

    def test_disjoint_edges_cross(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert check_interlacing(g, 1, 2).passed

    def test_k4_minus_edge(self):
        from token_spectra.graphs import remove_edges

        g = remove_edges(complete_graph(4), [(0, 1)])
        cert = check_interlacing(g, 0, 1)
        assert cert.passed
        assert abs(cert.witnesses["spectrum_before"][-1] - 4.0) < 1e-9
        assert abs(cert.witnesses["spectrum_after"][-1] - 4.0) < 1e-9

    def test_edge_already_present_is_refused(self, y_tree):
        u, v = y_tree.edges[0]
        with pytest.raises(GraphError, match=f"edge \\({u}, {v}\\) already present"):
            check_interlacing(y_tree, u, v)

    def test_both_kinds_of_violation_are_listed(self, monkeypatch):
        # spectra that no edge addition gives: w0[1] > w1[1] and w1[2] > w0[3]
        solves = iter([np.array([0.0, 2.0, 3.0, 4.0]), np.array([0.0, 1.0, 5.0, 6.0])])
        monkeypatch.setattr(verify, "laplacian_values", lambda g: next(solves))
        cert = check_interlacing(path_graph(4), 0, 3)
        assert cert.verdict == FAIL
        assert [(v["i"], v["kind"]) for v in cert.witnesses["violations"]] == [(1, "lower"), (2, "upper")]


class TestBipartiteExtension:
    def test_plus_x_one_edge(self):
        cert = check_bipartite_extension(2, 3, "plus_x", 2, x_edges=[(0, 1)])
        assert cert.passed
        assert cert.witnesses["expected"] == 2.0

    def test_star_y_2_2(self):
        cert = check_bipartite_extension(2, 2, "star_y", 2)
        assert cert.passed
        assert cert.witnesses["expected"] == 2.0

    def test_plain_star_k3(self):
        cert = check_bipartite_extension(1, 4, "plus_x", 3)
        assert cert.passed
        assert abs(cert.witnesses["alpha"] - 1.0) < 1e-9


class TestKiteHeadFamily:
    def test_cycle_head_five(self):
        cert = check_kite_head_family("cycle", s=3, r=3, h=5, k=2)
        assert cert.passed
        assert cert.witnesses["bridge_ok"]

    def test_cycle_head_too_large(self):
        cert = check_kite_head_family("cycle", s=2, r=1, h=4, k=2)
        assert cert.verdict == PRECONDITION_UNMET

    def test_cycle_head_with_perturbation(self):
        spec = KiteSpec(head=cycle_graph(5), root=0, s=3, r=3)
        cert = check_kite_head_family(
            "cycle", s=3, r=3, h=5, k=2,
            head_edges=[(1, 3)], tail_edges=[(spec.label(2, 1), spec.label(3, 1))],
        )
        assert cert.passed

    def test_bipartite_head_fig_style(self):
        cert = check_kite_head_family("bipartite", s=3, r=3, h1=2, h2=3, root_side=1, k=2)
        assert cert.passed
        lam = cert.witnesses["head_submatrix_min_eig"]
        assert abs(lam - cert.witnesses["closed_form"]) < 1e-9
        assert abs(lam - (5 - np.sqrt(13)) / 2) < 1e-9

    def test_bipartite_star_head_rooted_at_center(self):
        cert = check_kite_head_family("bipartite", s=2, r=3, h1=1, h2=3, root_side=1, k=2)
        assert cert.passed
        assert abs(cert.witnesses["closed_form"] - 1.0) < 1e-12

    def test_bipartite_hypothesis_failure(self):
        # deep tails push theta_r below the head eigenvalue requirement only
        # when the head value is small; root in the big side of a wide star
        cert = check_kite_head_family("bipartite", s=2, r=1, h1=1, h2=9, root_side=2, k=2)
        assert cert.verdict == PRECONDITION_UNMET

    @pytest.mark.parametrize("kw, keys", [
        (dict(variant="cycle", h=5), ["h", "head_submatrix_min_eig", "path_lambda2", "theta_r"]),
        (dict(variant="bipartite", h1=2, h2=3),
         ["h1", "h2", "root_side", "head_submatrix_min_eig", "closed_form", "theta_r"]),
    ])
    def test_bridge_witnesses_lead_in_order(self, kw, keys):
        witnesses = check_kite_head_family(s=3, r=3, k=2, **kw).witnesses
        assert list(witnesses)[:len(keys)] == keys
        assert "identity_exact" not in witnesses

    @pytest.mark.parametrize("kw", [dict(variant="cycle", h=5), dict(variant="bipartite", h1=2, h2=3)])
    def test_bridge_off_its_reference_fails(self, kw, monkeypatch):
        # the head submatrix eigenvalue read 1e-6 high, past BRIDGE_TOL; alpha still agrees
        real = verify._head_submatrix_min_eig
        monkeypatch.setattr(verify, "_head_submatrix_min_eig", lambda head, root: real(head, root) + 1e-6)
        cert = check_kite_head_family(s=3, r=3, k=2, **kw)
        assert cert.verdict == FAIL
        assert cert.witnesses["bridge_ok"] is False
        assert cert.witnesses["alpha_token"] == pytest.approx(cert.witnesses["alpha_perturbed"])

    @pytest.mark.parametrize("order", [3, 9])  # with r = 1 the hypothesis h <= 3 holds at 3, fails at 9
    @pytest.mark.parametrize("edges, message", [
        (dict(tail_edges=[(0, 1)]), "edge \\(0, 1\\) is not between tail vertices"),
        (dict(head_edges=[(0, -1)]), "head edge \\(0, -1\\) leaves the head"),
        (dict(head_edges=[(0, 1)]), "duplicate edge \\(0, 1\\)"),  # already in C_h
    ])
    def test_bad_edges_are_refused_before_any_solve(self, order, edges, message, monkeypatch):
        solves = []
        for name in ("submatrix_values", "laplacian_values", "_token_alpha"):
            monkeypatch.setattr(verify, name, lambda *a, name=name, **kw: solves.append(name))
        with pytest.raises(GraphError, match=message):
            check_kite_head_family("cycle", s=2, r=1, h=order, k=2, **edges)
        assert solves == []

    @pytest.mark.parametrize("kw, message", [
        (dict(variant="tree", h=5), "unknown variant 'tree'"),
        (dict(variant="cycle", h1=2, h2=3), "cycle variant needs h"),
        (dict(variant="bipartite", h1=2), "bipartite variant needs h1 and h2"),
        (dict(variant="bipartite", h=5, h2=3), "bipartite variant needs h1 and h2"),
        (dict(variant="bipartite", h1=2, h2=3, root_side=0), "root_side must be 1 or 2"),
        (dict(variant="bipartite", h1=2, h2=3, root_side=3), "root_side must be 1 or 2"),
    ])
    def test_bad_variant_arguments_are_refused_before_any_solve(self, kw, message, monkeypatch):
        solves = []
        for name in ("submatrix_values", "laplacian_values", "_token_alpha"):
            monkeypatch.setattr(verify, name, lambda *a, name=name, **kw: solves.append(name))
        with pytest.raises(GraphError, match=f"^{message}$"):
            check_kite_head_family(s=3, r=3, k=2, **kw)
        assert solves == []


class TestLevelEdgesRefusedBeforeAnySolve:
    """tail-edges and symmetrizer build the perturbed kite before their first solve, so an --add
    edge given twice is refused whatever the hypothesis, and no spectrum is computed."""

    @pytest.mark.parametrize("head, check, edges", [
        (complete_graph(1), check_tail_edges_preserve_alpha, [(1, 2), (1, 2)]),  # alpha = theta_1
        (path_graph(3), check_tail_edges_preserve_alpha, [(3, 4), (3, 4)]),
        (path_graph(3), check_symmetrizer_commutation, [(6, 9), (6, 9)]),
    ], ids=["tail-edges-unmet", "tail-edges", "symmetrizer"])
    def test_edge_given_twice(self, head, check, edges, monkeypatch):
        solves = []
        for name in ("laplacian_values", "eig_sym"):
            monkeypatch.setattr(verify, name, lambda *a, name=name, **kw: solves.append(name))
        spec = KiteSpec(head=head, root=0, s=3, r=3 if check is check_symmetrizer_commutation else 1)
        with pytest.raises(GraphError, match=f"duplicate edge \\({edges[0][0]}, {edges[0][1]}\\)"):
            check(spec, edges)
        assert solves == []


class TestPairRefusedBeforeAnySolve:
    @pytest.mark.parametrize("check", [check_edge_add_alpha_iff, check_interlacing])
    @pytest.mark.parametrize("u, v, message", [
        (2, 2, "self-loop at vertex 2"),
        (0, 7, "edge \\(0, 7\\) out of range for n=5"),
        (-1, 2, "out of range for n=5"),
    ])
    def test_loop_or_out_of_range_pair(self, check, u, v, message, monkeypatch):
        solves = []

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                solves.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(spectra, "eigenvalues")
        spy(np.linalg, "eigh")
        with pytest.raises(GraphError, match=message):
            check(path_graph(5), u, v)
        assert solves == []


class TestCutVertexSplit:
    def test_spider_equal_legs(self):
        g = build_kite(KiteSpec(head=complete_graph(1), root=0, s=3, r=2))
        cert = check_cut_vertex_split(g, 0)
        assert cert.passed
        assert abs(cert.witnesses["alpha"] - 0.3820) < 5e-5

    def test_path_off_center(self):
        cert = check_cut_vertex_split(path_graph(5), 1)
        assert cert.verdict == PRECONDITION_UNMET
        assert cert.witnesses["dichotomy_holds"]

    def test_star_center(self):
        cert = check_cut_vertex_split(star_graph(3), 0)
        assert cert.passed
        assert abs(cert.witnesses["alpha"] - 1.0) < 1e-9

    def test_non_cut_vertex_rejected(self):
        with pytest.raises(GraphError):
            check_cut_vertex_split(cycle_graph(4), 0)


class TestThetaTable:
    def test_all_rows(self):
        for r in range(1, 11):
            assert check_theta_table(r).passed


class TestSuperkiteInstances:
    def test_superkite_keeps_alpha_on_token_graph_after_head_edges(self):
        # non-complete head, tree supertail whose off-root submatrix eigenvalue
        # stays below the head's; adding a head chord must not break the
        # token-graph alpha equality
        from token_spectra.graphs import build_superkite

        tree = Graph(4, [(0, 1), (1, 2), (1, 3)])
        g = build_superkite(cycle_graph(4), 0, tree, 0, 2)
        assert g.n == 10
        g_plus = add_edges(g, [(1, 3)])
        cert = check_alpha_token_equality(g_plus, 2)
        assert cert.passed

    def test_superkite_alpha_matches_plain_kite_when_tail_is_path(self):
        from token_spectra.graphs import build_superkite

        sk = build_superkite(cycle_graph(4), 0, path_graph(4), 0, 3)
        kite = build_kite(KiteSpec(head=cycle_graph(4), root=0, s=3, r=3))
        a1, _ = algebraic_connectivity(sk)
        a2, _ = algebraic_connectivity(kite)
        assert abs(a1 - a2) < 1e-12


class TestCrossCheckTransfers:
    def test_alpha_preserving_edge_additions_transfer_to_token_graphs(self):
        # whenever alpha(G+uv) = alpha(G) and alpha(F_k(G)) = alpha(G),
        # the extended graph keeps alpha on its token graph too
        rng = random.Random(25)
        transfers = 0
        for g in random_corpus(40, n_range=(4, 7), seed=26):
            non_edges = [
                (u, v) for u in range(g.n) for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            iff_cert = check_edge_add_alpha_iff(g, u, v)
            assert iff_cert.passed
            if not iff_cert.witnesses["alpha_preserved"]:
                continue
            if not check_alpha_token_equality(g, 2).passed:
                continue
            assert check_alpha_token_equality(add_edges(g, [(u, v)]), 2).passed
            transfers += 1
        assert transfers >= 3

    def test_equal_entry_eigenvectors_transfer_eigenvalues(self):
        # an eigenvector with equal entries at u, v keeps its eigenvalue
        # when the edge uv is toggled
        from token_spectra.spectra import eig_sym, eigenspace_has_equal_pair, laplacian
        from token_spectra.graphs import remove_edges

        rng = random.Random(27)
        checked = 0
        for g in random_corpus(30, n_range=(4, 8), seed=28):
            u = rng.randrange(g.n)
            v = rng.randrange(g.n)
            if u == v:
                continue
            u, v = min(u, v), max(u, v)
            spec = eig_sym(laplacian(g))
            g2 = (
                remove_edges(g, [(u, v)]) if g.has_edge(u, v)
                else add_edges(g, [(u, v)])
            )
            w2 = eig_sym(laplacian(g2)).values
            for value, grp in zip(spec.distinct_values(), spec.groups):
                ok, _ = eigenspace_has_equal_pair(spec.vectors[:, grp], (u, v))
                if ok:
                    assert min(abs(value - x) for x in w2) < 1e-6 * max(1.0, abs(value))
                    checked += 1
        assert checked >= 20
