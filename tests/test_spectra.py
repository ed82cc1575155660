import math
import random
from pathlib import Path

import numpy as np
import pytest

from token_spectra import spectra
from token_spectra.exact import char_poly
from token_spectra.graphs import (
    Graph,
    GraphError,
    KiteSpec,
    add_edges,
    build_kite,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    parse_edge_list,
    path_graph,
    star_graph,
)
from token_spectra.spectra import (
    NumericalError,
    algebraic_connectivity,
    eig_sym,
    eigenspace_has_equal_pair,
    eigenvalues,
    fiedler_value,
    laplacian,
    laplacian_values,
    submatrix_values,
    theta,
)
from token_spectra.tokens import token_graph

from helpers import (
    count_roots_in_interval,
    family_corpus,
    principal_submatrix,
    random_corpus,
    rayleigh,
    reference_groups,
    reference_laplacian,
)

# 13-vertex kite with a 4-cycle head, written with level-major tail labels
# (all level-1 tail vertices first, then level 2, then level 3)
LEVEL_MAJOR_KITE = Graph(
    13,
    [(0, 1), (1, 2), (2, 3), (0, 3),
     (0, 4), (0, 5), (0, 6),
     (4, 7), (7, 10), (5, 8), (8, 11), (6, 9), (9, 12)],
)

LEVEL_MAJOR_KITE_LAPLACIAN = [
    [5, -1, 0, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, -1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 2, 0, 0, -1, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 2, 0, 0, -1, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 2, 0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, -1, 0, 0, 2, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, 2, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, 0, -1, 0, 0, 2, 0, 0, -1],
    [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 1],
]


class TestLaplacian:
    def test_k2(self):
        assert laplacian(complete_graph(2)).tolist() == [[1, -1], [-1, 1]]

    def test_empty_graph_is_zero(self):
        assert laplacian(Graph(3)).tolist() == [[0] * 3] * 3

    def test_13_vertex_kite_matrix(self):
        assert laplacian(LEVEL_MAJOR_KITE).tolist() == LEVEL_MAJOR_KITE_LAPLACIAN

    def test_row_sums_zero_and_trace(self):
        for g in family_corpus(8) + random_corpus(5, seed=11):
            L = laplacian(g)
            assert (L.sum(axis=1) == 0).all()
            assert L.diagonal().tolist() == [sum(v in e for e in g.edges) for v in range(g.n)]
            assert L.trace() == 2 * g.m
            spec = eig_sym(L)
            scale = max(1.0, float(spec.values[-1]))
            assert spec.values[0] <= 1e-9 * scale
            assert abs(spec.values.sum() - L.trace()) <= g.n * 1e-9 * scale


def _repeated_eigenvalue_token_graphs() -> list[Graph]:
    # K_n token graphs and C4-kite token graphs have eigenvalues of high
    # multiplicity; the largest here has N = C(15, 3) = 455 vertices
    kite = build_kite(KiteSpec(head=cycle_graph(4), root=0, s=3, r=3))
    out = [token_graph(complete_graph(n), k).graph for n in (5, 7, 9, 15) for k in (2, 3)]
    return out + [token_graph(kite, 2).graph, token_graph(kite, 3).graph]


REFERENCE_CORPUS = family_corpus(8) + random_corpus(12, n_range=(4, 12), seed=21) \
    + _repeated_eigenvalue_token_graphs()


def _mult(grp: slice) -> int:
    return grp.stop - grp.start


def _bits(x: float) -> str:
    return float(x).hex()


class TestMatchesReferenceLoops:
    """The whole-array Laplacian, sign rule and group cut give the loops' exact bits."""

    @pytest.mark.parametrize("index", range(len(REFERENCE_CORPUS)))
    def test_laplacian_and_spectrum_bitwise(self, index):
        g = REFERENCE_CORPUS[index]
        L = laplacian(g)
        ref = reference_laplacian(g)
        assert L.dtype == ref.dtype and L.shape == ref.shape
        assert L.tobytes() == ref.tobytes()

        spec = eig_sym(L)
        values, groups = reference_groups(ref)
        assert spec.values.tobytes() == values.tobytes()
        assert len(spec.groups) == len(groups)
        for mean, grp, (value, members, basis) in zip(spec.distinct_values(), spec.groups, groups):
            assert _bits(mean) == _bits(value)
            assert [_bits(x) for x in spec.values[grp]] == [_bits(x) for x in members]
            assert spec.vectors[:, grp].shape == basis.shape
            assert spec.vectors[:, grp].tobytes() == basis.tobytes()

    def test_corpus_has_repeated_eigenvalues(self):
        mults = [_mult(grp) for g in REFERENCE_CORPUS for grp in eig_sym(laplacian(g)).groups]
        assert max(mults) >= 10 and max(g.n for g in REFERENCE_CORPUS) == 455


class TestPrincipalSubmatrix:
    def test_pendant_path_submatrix_is_tridiagonal(self):
        for r in range(1, 6):
            sub = principal_submatrix(laplacian(path_graph(r + 1)), range(1, r + 1))
            expected = np.diag([2] * (r - 1) + [1]) + np.diag([-1] * (r - 1), 1) + np.diag([-1] * (r - 1), -1)
            assert (sub == expected).all()

    def test_keep_all_is_identity_op(self):
        L = laplacian(cycle_graph(5))
        assert (principal_submatrix(L, range(5)) == L).all()

    def test_cycle_submatrix_differs_from_path_laplacian(self):
        sub = principal_submatrix(laplacian(cycle_graph(4)), [1, 2, 3])
        LP = laplacian(path_graph(3))
        diff = sub - LP
        assert diff[0, 0] == 1 and diff[2, 2] == 1
        assert diff[1, 1] == 0 and (np.diag(np.diag(diff)) == diff).all()

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            principal_submatrix(laplacian(cycle_graph(4)), [4])


def _cut_vertex_components(g: Graph) -> list[list[tuple[int, ...]]]:
    """The components of g less v, for every cut vertex v, as check_cut_vertex_split finds them."""
    out = []
    for v in range(g.n):
        comps = [c for c in Graph(g.n, g.edge_array[(g.edge_array != v).all(axis=1)]).components() if c != (v,)]
        out += [comps] if len(comps) > 1 else []
    return out


class TestSubmatrixValues:
    """submatrix_values against the eigenvalues of the reference principal submatrix, bit for bit."""

    @staticmethod
    def _reference(g: Graph, parts) -> list[np.ndarray]:
        return [eigenvalues(principal_submatrix(laplacian(g), part).astype(float)) for part in parts]

    def _assert_same(self, g: Graph, parts) -> None:
        got, want = submatrix_values(g, parts), self._reference(g, parts)
        assert len(got) == len(want)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want)), (g.n, g.edges, parts)

    @pytest.mark.parametrize("corpus", ["family", "random"])
    def test_each_vertex_deleted_and_each_cut_vertex(self, corpus):
        graphs = family_corpus(7) if corpus == "family" else random_corpus(20, n_range=(4, 9), seed=27)
        cuts = 0
        for g in graphs:
            self._assert_same(g, [[i for i in range(g.n) if i != v] for v in range(g.n)])
            for comps in _cut_vertex_components(g):
                self._assert_same(g, comps)
                cuts += 1
        assert cuts > 0

    def test_unsorted_and_repeated_parts(self):
        g = random_corpus(1, n_range=(8, 8), seed=5)[0]
        parts = [[5, 1, 3, 1], (7, 0, 7, 0, 2), range(8), [4], []]
        self._assert_same(g, parts)
        assert [len(w) for w in submatrix_values(g, parts)] == [3, 3, 8, 1, 0]

    @pytest.mark.parametrize("part", [[0, 4], [-1, 2], [9, 4, -2]])
    def test_out_of_range_is_refused_before_any_work(self, part, monkeypatch):
        with pytest.raises(GraphError) as ref:
            principal_submatrix(laplacian(cycle_graph(4)), part)
        monkeypatch.setattr(spectra, "laplacian", lambda *a, **kw: pytest.fail("built L(g)"))
        with pytest.raises(GraphError) as got:
            submatrix_values(cycle_graph(4), [[1, 2], part])
        assert str(got.value) == str(ref.value)

    def test_blocks_are_float_and_solved_last_part_first(self, monkeypatch):
        solved, real = [], spectra.eigenvalues
        monkeypatch.setattr(spectra, "eigenvalues", lambda m: solved.append((m.shape, m.dtype)) or real(m))
        g = path_graph(7)
        values = submatrix_values(g, [[0], [1, 2], [3, 4, 5]])
        assert solved == [((3, 3), np.float64), ((2, 2), np.float64), ((1, 1), np.float64)]
        assert [len(w) for w in values] == [1, 2, 3]


class TestEigSym:
    def test_residual_above_its_bound_is_a_numerical_error(self, monkeypatch):
        # every eigenvalue read 1e-6 high: each residual is 1e-6, past 1e-9 * max(1, 4 + 1e-6)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (lambda w, q: (w + 1e-6, q))(*eigh(a)))
        with pytest.raises(NumericalError, match=r"^residual 1\.000e-06 exceeds bound 4\.000e-09$"):
            eig_sym(laplacian(complete_graph(4)))

    def test_no_convergence_is_a_numerical_error(self, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(NumericalError, match="eigensolver did not converge: forced"):
            eig_sym(laplacian(complete_graph(4)))

    def test_k4_spectrum_and_grouping(self):
        spec = eig_sym(laplacian(complete_graph(4)))
        assert np.allclose(spec.values, [0, 4, 4, 4], atol=1e-9)
        assert [_mult(grp) for grp in spec.groups] == [1, 3]

    def test_y_tree_alpha(self, y_tree):
        spec = eig_sym(laplacian(y_tree))
        assert abs(spec.values[1] - 0.5188056959) < 1e-9

    def test_kite_alpha_is_smallest_theta(self, c4_kite_spec):
        kite = build_kite(c4_kite_spec)
        spec = eig_sym(laplacian(kite))
        assert abs(spec.values[1] - theta(3, 3)) < 1e-9
        assert spec.group_of(1) == slice(1, 3)

    def test_basis_orthonormal_and_residual(self):
        for g in random_corpus(5, seed=12):
            L = laplacian(g).astype(float)
            spec = eig_sym(L)
            for grp in spec.groups:
                basis = spec.vectors[:, grp]
                gram = basis.T @ basis
                assert np.allclose(gram, np.eye(_mult(grp)), atol=1e-9)
                resid = L @ basis - basis * spec.values[grp]
                assert np.abs(resid).max() < 1e-8 * max(1.0, spec.values[-1])

    def test_multiplicities_sum_to_order(self):
        for g in family_corpus(7):
            spec = eig_sym(laplacian(g))
            assert sum(_mult(grp) for grp in spec.groups) == g.n
            assert [grp.start for grp in spec.groups[1:]] == [grp.stop for grp in spec.groups[:-1]]

    def test_sign_canonicalization_deterministic(self, y_tree):
        a = eig_sym(laplacian(y_tree))
        b = eig_sym(laplacian(y_tree))
        assert a.groups == b.groups and np.array_equal(a.vectors, b.vectors)
        for grp in a.groups:
            for col in a.vectors[:, grp].T:
                first = col[np.abs(col) > 1e-8][0]
                assert first > 0

    def test_rejects_nonsymmetric_and_nonfinite(self):
        with pytest.raises(GraphError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(GraphError):
            eig_sym(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_vectors_read_only(self, y_tree):
        spec = eig_sym(laplacian(y_tree))
        assert not spec.vectors.flags.writeable
        with pytest.raises(ValueError):
            spec.vectors[0, 0] = 1.0
        # algebraic_connectivity copies its group's columns instead, so the matrix can be freed
        _, basis = algebraic_connectivity(y_tree)
        assert basis.base is None and basis.tobytes() == spec.vectors[:, spec.group_of(1)].tobytes()

    def test_group_of_every_index(self):
        spec = eig_sym(laplacian(complete_bipartite_graph(2, 3)))  # 0, 2, 2, 3, 5
        assert spec.groups == (slice(0, 1), slice(1, 3), slice(3, 4), slice(4, 5))
        assert [spec.group_of(i) for i in range(5)] == [spec.groups[i] for i in (0, 1, 1, 2, 3)]
        assert spec.distinct_values() == [float(np.mean(spec.values[grp])) for grp in spec.groups]

    def test_empty_matrix(self):
        spec = eig_sym(np.empty((0, 0)))
        assert spec.values.size == 0 and spec.vectors.shape == (0, 0) and spec.groups == ()


class TestEigenvalues:
    """eigenvalues, the solve of checks that read no eigenvector, against eig_sym."""

    def test_matches_eig_sym(self):
        gnp12 = parse_edge_list((Path(__file__).parent / "data" / "gnp12.el").read_text())
        for g in [*family_corpus(7), gnp12]:
            lap = laplacian(g).astype(float)
            full = eig_sym(lap).values
            values = eigenvalues(lap)
            assert np.abs(values - full).max() <= 1e-12 * max(1.0, float(full[-1])), g.edges
            assert np.array_equal(laplacian_values(g), values)

    def test_no_convergence_is_a_numerical_error(self, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
        with pytest.raises(NumericalError, match="eigensolver did not converge: forced"):
            eigenvalues(np.eye(3))


class TestAlgebraicConnectivity:
    def test_y_tree_value_and_direction(self, y_tree):
        a, basis = algebraic_connectivity(y_tree)
        assert abs(a - 0.5188056959) < 1e-9
        assert basis.shape == (5, 1)
        v = basis[:, 0] / basis[4, 0]
        assert np.allclose(
            v, [-0.59696828, -0.59696828, -0.28725774, 0.48119430, 1.0], atol=1e-7
        )

    def test_complete_graph(self):
        for n in (3, 4, 6):
            a, basis = algebraic_connectivity(complete_graph(n))
            assert abs(a - n) < 1e-9
            assert basis.shape[1] == n - 1

    def test_disconnected_is_zero(self):
        g = Graph(4, [(0, 1), (2, 3)])
        a, _ = algebraic_connectivity(g)
        assert a == 0.0

    def test_single_vertex_errors(self):
        with pytest.raises(GraphError):
            algebraic_connectivity(Graph(1))

    def test_fiedler_value_is_the_returned_value(self):
        # the zero rule has one home: algebraic_connectivity reads it from fiedler_value
        disconnected = [Graph(4, [(0, 1), (2, 3)]), Graph(5, [(0, 1), (1, 2), (3, 4)]), Graph(3)]
        for g in family_corpus(6) + disconnected:
            value = fiedler_value(eig_sym(laplacian(g).astype(float)).values)
            assert _bits(value) == _bits(algebraic_connectivity(g)[0])
        assert all(fiedler_value(eig_sym(laplacian(g)).values) == 0.0 for g in disconnected)


class TestRayleigh:
    def test_fiedler_vector_gives_alpha(self, y_tree):
        a, basis = algebraic_connectivity(y_tree)
        val = rayleigh(laplacian(y_tree), basis[:, 0], edges=y_tree.edges)
        assert abs(val - a) < 1e-9

    def test_constant_vector_gives_zero(self):
        g = cycle_graph(5)
        assert abs(rayleigh(laplacian(g), np.ones(5), edges=g.edges)) < 1e-12

    def test_basis_vector_on_k2(self):
        assert rayleigh(laplacian(complete_graph(2)), [1.0, 0.0]) == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(GraphError):
            rayleigh(laplacian(complete_graph(2)), [0.0, 0.0])

    def test_upper_bounds_alpha_on_mean_zero_vectors(self):
        rng = np.random.default_rng(13)
        for g in random_corpus(5, seed=14):
            a, _ = algebraic_connectivity(g)
            for _ in range(5):
                x = rng.standard_normal(g.n)
                x -= x.mean()
                assert rayleigh(laplacian(g), x, edges=g.edges) >= a - 1e-9


class TestTheta:
    def test_first_value(self):
        assert abs(theta(1, 1) - 1.0) < 1e-12

    def test_r3_and_r10(self):
        assert abs(theta(3, 3) - 0.1981) < 5e-5
        assert abs(theta(10, 10) - 0.0223) < 5e-5

    def test_decreasing_in_k(self):
        for r in range(1, 12):
            vals = [theta(r, k) for k in range(1, r + 1)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range_errors(self):
        with pytest.raises(GraphError):
            theta(3, 0)
        with pytest.raises(GraphError):
            theta(3, 4)

    def test_matches_submatrix_spectrum_elementwise(self):
        for r in range(1, 13):
            sub = principal_submatrix(laplacian(path_graph(r + 1)), range(1, r + 1))
            eigs = eig_sym(sub).values
            closed = [theta(r, k) for k in range(r, 0, -1)]
            assert np.abs(np.array(closed) - eigs).max() < 1e-9


class TestEqualPairTest:
    def test_y_tree_symmetric_pair(self, y_tree):
        _, basis = algebraic_connectivity(y_tree)
        ok, wit = eigenspace_has_equal_pair(basis, (0, 1))
        assert ok
        assert abs(wit[0] - wit[1]) < 1e-12
        assert abs(abs(wit[0]) / np.abs(wit).max() - 0.59696828 / 1.0) < 1e-6

    def test_path_ends_not_equal(self):
        _, basis = algebraic_connectivity(path_graph(3))
        ok, wit = eigenspace_has_equal_pair(basis, (0, 2))
        assert not ok and wit is None

    def test_k4_any_pair(self):
        _, basis = algebraic_connectivity(complete_graph(4))
        for pair in ((0, 1), (1, 2), (2, 3)):
            ok, wit = eigenspace_has_equal_pair(basis, pair)
            assert ok
            assert abs(wit[pair[0]] - wit[pair[1]]) < 1e-9

    def test_witness_sign_is_canonical(self):
        # find a basis whose raw SVD witness starts negative, then check the
        # returned witness is exactly that vector flipped
        rng = np.random.default_rng(22)
        for _ in range(20):
            basis, _ = np.linalg.qr(rng.standard_normal((6, 3)))
            for b in (basis, -basis):
                rows = np.array([b[0, :] - b[1, :]])
                raw = b @ np.linalg.svd(rows)[2][-1]
                raw = raw / np.linalg.norm(raw)
                if raw[np.abs(raw) > 1e-8][0] < 0:
                    ok, wit = eigenspace_has_equal_pair(b, (0, 1))
                    assert ok and wit.tobytes() == (-raw).tobytes()
                    assert wit[np.abs(wit) > 1e-8][0] > 0
                    return
        pytest.fail("no basis with a negative raw witness")


class TestInterlacingAndSumBounds:
    def test_edge_addition_interlacing_random(self):
        rng = random.Random(15)
        for g in random_corpus(40, n_range=(4, 10), seed=16):
            non_edges = [
                (u, v) for u in range(g.n) for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            w0 = eig_sym(laplacian(g)).values
            w1 = eig_sym(laplacian(add_edges(g, [(u, v)]))).values
            bound = 1e-9 * max(1.0, w1[-1])
            assert all(w0[i] <= w1[i] + bound for i in range(g.n))
            assert all(w1[i] <= w0[i + 1] + bound for i in range(g.n - 1))

    def test_row_deletion_interlacing_random(self):
        rng = random.Random(17)
        for g in random_corpus(25, n_range=(3, 9), seed=18):
            L = laplacian(g)
            drop = rng.randrange(g.n)
            keep = [i for i in range(g.n) if i != drop]
            w = eig_sym(L).values
            wsub = eig_sym(principal_submatrix(L, keep)).values
            bound = 1e-9 * max(1.0, w[-1])
            for i in range(g.n - 1):
                assert w[i] <= wsub[i] + bound
                assert wsub[i] <= w[i + 1] + bound

    def test_sum_eigenvalue_bounds_random_pairs(self):
        for seed in range(12):
            g1 = random_corpus(1, n_range=(5, 5), seed=100 + seed)[0]
            g2 = random_corpus(1, n_range=(5, 5), seed=200 + seed)[0]
            m1, m2 = laplacian(g1), laplacian(g2)
            w1 = eig_sym(m1).values
            w2 = eig_sym(m2).values
            ws = eig_sym(m1 + m2).values
            bound = 1e-9 * max(1.0, ws[-1])
            for i in range(5):
                assert w1[i] + w2[0] <= ws[i] + bound
                assert ws[i] <= w1[i] + w2[-1] + bound


class TestFloatVsExactAgreement:
    def test_eigenvalues_are_roots_of_exact_char_poly(self):
        corpus = family_corpus(7) + random_corpus(4, n_range=(9, 12), seed=19)
        for g in corpus:
            p = char_poly(laplacian(g))
            spec = eig_sym(laplacian(g))
            for lam in spec.distinct_values():
                assert count_roots_in_interval(p, lam - 1e-6, lam + 1e-6) >= 1
