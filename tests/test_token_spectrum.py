"""The values-only route of alpha(F_k), the proof that alpha(F_k) lies in a
check's interval, and the exact lift check of float containment, against
the full eigensolver and the exact route.

spectra.checked_lift checks L(F_k) B = B L(G) exactly, L(F_k) B counted from
the token edges with no matrix of F_k, B the membership matrix of k-subsets,
and then that B^T B = C(n-2, k-1) I + C(n-2, k-2) J, so B has full column
rank; float containment is that one call.
The tests below check both identities, their guards and the verdicts they
give, against dense eigensolves of L(F_k).
token_alpha makes the same check once and hands B and F_k's degrees to its
routes. It first proves, within the interval a check accepts, lambda_2(L(F_k))
= alpha(G) by one Cholesky off range(B) (spectra._proved_alpha), and solves
only where the proof does not close: one values-only solve of L(F_k), whose
eigenvalues these tests cross-check, read through token_alpha with its other
routes handing over.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from token_spectra import spectra, tokens, verify
from token_spectra.exact import char_poly
from token_spectra.graphs import (
    Graph,
    build_bipartite_extension,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    parse_edge_list,
    path_graph,
    random_tree,
    star_graph,
)
from token_spectra.spectra import (
    NumericalError,
    algebraic_connectivity,
    checked_lift,
    eig_sym,
    fiedler_value,
    laplacian,
    sparse_laplacian,
    token_alpha,
)
from token_spectra.tokens import CapExceededError, TokenGraph, lift, token_graph
from token_spectra.verify import (
    check_alpha_token_equality,
    check_bipartite_extension,
    check_cut_clique,
    check_kite_head_family,
    check_pendant_bound,
    check_spectral_containment,
)

from helpers import connected_class_representatives, count_roots_in_interval, family_corpus, numpy_complement_exceeds

GNP12 = parse_edge_list((Path(__file__).parent / "data" / "gnp12.el").read_text())


@pytest.fixture(scope="module")
def corpus():
    return [g for n in range(2, 7) for g in connected_class_representatives(n)] + family_corpus(7)


def _base(g) -> spectra.Spectrum:
    """eig_sym(L(G)), as token_alpha takes it."""
    return eig_sym(laplacian(g).astype(float))


def _token_alpha(tg: TokenGraph, tol: float = 1e-7) -> tuple[float, dict]:
    """token_alpha with alpha-token's interval, alpha(G) +- tol * max(1, alpha(G)), from one solve of L(G)."""
    spectrum = _base(tg.base)
    a = fiedler_value(spectrum.values)
    return token_alpha(tg, spectrum, a - tol * max(1.0, a), a + tol * max(1.0, a))


EIGENVALUES = spectra.eigenvalues


def _token_values(tg: TokenGraph) -> np.ndarray:
    """The eigenvalues of L(F_k) from token_alpha's values-only solve, with the sparse route and the
    proof handing over; the alpha token_alpha returns is read from them."""
    solved = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectra, "_sparse_token_alpha", lambda *args: None)
        m.setattr(spectra, "_proved_alpha", lambda *args: None)
        m.setattr(spectra, "eigenvalues", lambda a: solved.append(EIGENVALUES(a)) or solved[-1])
        alpha, fields = token_alpha(tg, _base(tg.base), -np.inf, np.inf)
    assert len(solved) == 1 and alpha == fiedler_value(solved[0]) and fields == {}
    return solved[0]


def test_values_match_the_full_eigensolver(corpus):
    for g in corpus:
        for k in range(1, g.n):
            tg = token_graph(g, k)
            full = eig_sym(laplacian(tg.graph).astype(float)).values
            values = _token_values(tg)
            bound = 1e-9 * max(1.0, float(full[-1]))
            assert np.abs(values - full).max() <= bound, (g.edges, k)


def test_values_are_a_solve_of_the_checked_laplacian(monkeypatch):
    # the dense Laplacian of F_k is built once, by the values-only solve itself, at every order: the
    # check counts L(F_k) B with no matrix of F_k, and the CSR matrix of the sparse route, here from
    # N = 495, is not reused; eigvalsh sees the bits of laplacian(F_k) as floats
    built, real = [], spectra.laplacian
    monkeypatch.setattr(spectra, "laplacian", lambda g, *args: built.append(g) or real(g, *args))
    monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", 495)
    cases = [(g, k) for g in family_corpus(7) for k in range(1, g.n)] + [(GNP12, 4), (path_graph(12), 5)]
    for g, k in cases:
        tg = token_graph(g, k)
        built.clear()
        values = _token_values(tg)
        assert sum(h is tg.graph for h in built) == 1, (g.edges, k)
        assert np.array_equal(values, np.linalg.eigvalsh(real(tg.graph).astype(float))), (g.edges, k)
    assert [token_graph(g, k).graph.n for g, k in cases[-2:]] == [495, 792]


def test_float_and_exact_verdicts_agree(corpus):
    for g in corpus:
        for k in range(1, g.n):
            float_cert = check_spectral_containment(g, k, mode="float")
            exact_cert = check_spectral_containment(g, k, mode="exact")
            assert float_cert.verdict == exact_cert.verdict == "pass", (g.edges, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_corrupted_lift_raises(monkeypatch, k):
    # B with its rows in reverse order intertwines nothing on this graph
    real = tokens.lift
    monkeypatch.setattr(spectra, "lift", lambda n, k: real(n, k)[::-1])
    with pytest.raises(NumericalError, match="lifted residual .* exceeds bound"):
        check_spectral_containment(GNP12, k, mode="float")


def _within_distinct(points, values, bound) -> bool:
    """Does each of the ascending points lie within bound of its own one of the ascending values?

    For intervals of one width, matching in order finds such an assignment when one exists.
    """
    j = 0
    for p in points:
        while j < len(values) and values[j] < p - bound:
            j += 1
        if j == len(values) or values[j] > p + bound:
            return False
        j += 1
    return True


def _corrupted(tg: TokenGraph, edges: np.ndarray) -> TokenGraph:
    return TokenGraph(base=tg.base, k=tg.k, graph=Graph(tg.graph.n, edges))


def _lift_products(tg: TokenGraph) -> tuple[np.ndarray, np.ndarray]:
    """L(F_k) B, B = lift(n, k), as the product of the CSR Laplacian with B and as the dense int64 product."""
    b = lift(tg.base.n, tg.k)
    return sparse_laplacian(tg.graph) @ b, laplacian(tg.graph) @ b.astype(np.int64)


def _counted_product(tg: TokenGraph) -> np.ndarray:
    """checked_lift's L(F_k) B, counted from the token edges."""
    degree = np.bincount(tg.graph.edge_array.ravel(), minlength=tg.graph.n)
    return spectra._lift_product(tg, lift(tg.base.n, tg.k), degree)


# the (n, k) rungs of the dense-alpha benchmark, N = 105..1820
DENSE_RUNGS = [(15, 2), (16, 2), (10, 3), (17, 2), (18, 2), (11, 3), (19, 2), (20, 2), (10, 4), (12, 3), (10, 5),
               (13, 3), (11, 4), (14, 3), (15, 3), (11, 5), (12, 4), (16, 3), (17, 3), (13, 4), (14, 4), (16, 4)]


def _spy_laplacians(monkeypatch) -> list:
    """Record (name, graph) for every laplacian and sparse_laplacian that spectra builds."""
    built = []
    for name in ("laplacian", "sparse_laplacian"):
        def build(g, *args, _name=name, _real=getattr(spectra, name)):
            built.append((_name, g))
            return _real(g, *args)
        monkeypatch.setattr(spectra, name, build)
    return built


class TestLiftedCertificate:
    """checked_lift: L(F_k) B = B L(G), L(F_k) B counted from the token edges, then B^T B =
    C(n-2, k-1) I + C(n-2, k-2) J, exactly, so spec(L(G)) lies in spec(L(F_k)) with multiplicity."""

    def test_counted_product_equals_both_matrix_products(self):
        # every connected graph with n <= 7, family_corpus(7) and an edgeless graph at every k, and one
        # G(n, m) on each dense-alpha rung, whose larger orders count in more than one block of token edges
        rng = random.Random(31)
        graphs = [g for n in range(2, 8) for g in connected_class_representatives(n)]
        graphs += family_corpus(7) + [Graph(4, [])]
        cases = [(g, k) for g in graphs for k in range(1, g.n)] + [(_gnm(n, rng), k) for n, k in DENSE_RUNGS]
        blocks = []
        for g, k in cases:
            tg = token_graph(g, k)
            counted, (csr, dense) = _counted_product(tg), _lift_products(tg)
            assert counted.dtype == float and np.array_equal(counted, csr), (g.edges, k)
            assert np.array_equal(counted, dense), (g.edges, k)
            step = (2 * tg.graph.m + tg.graph.n * g.n) // (2 * k) + 1  # token edges a block, as counted
            blocks.append(-(-tg.graph.m // step))
        assert {0, 1, 2, 3} <= set(blocks)  # edgeless, one block and more

    @pytest.mark.parametrize("sparse_from", [spectra.SPARSE_MIN_ORDER, 0])  # 0: the CSR Laplacian at every order
    def test_counted_below_sparse_min_order_csr_from_it(self, monkeypatch, sparse_from):
        # below SPARSE_MIN_ORDER no Laplacian of F_k is built unless the values-only solve runs; from
        # there on, exactly one CSR Laplacian, for the sparse route alone: the check counts at every order
        monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", sparse_from)
        monkeypatch.setattr(spectra, "_sparse_token_alpha", lambda *args: None)
        solves, eigenvalues = [], spectra.eigenvalues
        monkeypatch.setattr(spectra, "eigenvalues", lambda a: solves.append(a.shape[0]) or eigenvalues(a))
        built = _spy_laplacians(monkeypatch)
        # GNP12 with k = 3 and 4: N = 220 and 495, proved; F_2(C_4) at tol 0 hands over to the values-only solve
        for g, k, tol in [(GNP12, 3, 1e-7), (GNP12, 4, 1e-7), (path_graph(6), 2, 1e-7), (C4, 2, 0.0),
                          (Graph(5, [(0, 1), (1, 2), (3, 4)]), 2, 1e-7)]:
            tg = token_graph(g, k)
            b, degree = checked_lift(tg)
            assert np.array_equal(b, lift(g.n, k)) and np.array_equal(degree, laplacian(tg.graph).diagonal())
            built.clear()
            solves.clear()
            _token_alpha(tg, tol)
            made = [name for name, h in built if h is tg.graph]
            csr = ["sparse_laplacian"] if tg.graph.n >= sparse_from else []
            assert made == csr + (["laplacian"] if solves == [tg.graph.n] else []), (g.edges, k)
            assert (solves == [tg.graph.n]) == (g is C4), (g.edges, k)

    def test_eigenvalues_lie_near_distinct_eigenvalues(self, corpus):
        for g in corpus:
            values = np.linalg.eigvalsh(laplacian(g).astype(float))
            for k in range(1, g.n):
                tg = token_graph(g, k)
                b, degree = checked_lift(tg)
                assert np.array_equal(b, lift(g.n, k))
                assert np.array_equal(degree, laplacian(tg.graph).diagonal())
                full = np.linalg.eigvalsh(laplacian(tg.graph).astype(float))
                assert _within_distinct(values, full, 1e-9 * max(1.0, float(full[-1]))), (g.edges, k)

    def test_disconnected_graph_matches_zero_at_full_multiplicity(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        values = np.linalg.eigvalsh(laplacian(g).astype(float))
        assert (np.abs(values) <= 1e-12).sum() == 2  # the two components
        for k in range(1, g.n):
            cert = check_spectral_containment(g, k, mode="float")
            assert cert.passed and cert.witnesses["unmatched"] == []
            assert check_spectral_containment(g, k, mode="exact").passed
            full = np.linalg.eigvalsh(laplacian(token_graph(g, k).graph).astype(float))
            assert _within_distinct(values, full, 1e-9 * max(1.0, float(full[-1])))

    @pytest.mark.parametrize("change", ["dropped", "redirected", "two-apart", "non-edge-swap"])
    def test_corrupted_token_graph_raises(self, monkeypatch, change):
        # each corrupted F_k (N = 66 and 220) goes through checked_lift, token_alpha below SPARSE_MIN_ORDER
        # and from it (SPARSE_MIN_ORDER = 0, where the check runs before Lanczos gets the CSR Laplacian),
        # and float containment
        for k in (2, 3):
            tg = token_graph(GNP12, k)
            edges, taken = tg.graph.edge_array.copy(), set(map(tuple, tg.graph.edge_array.tolist()))
            rank = {tuple(row): r for r, row in enumerate(tokens._colex_subsets(GNP12.n, k).tolist())}
            if change == "dropped":
                edges = edges[1:]
            elif change == "redirected":  # the first edge's far end moved to a vertex it is not adjacent to
                u, v = edges[0]
                edges[0, 1] = next(w for w in range(u + 1, tg.graph.n) if w != v and (u, w) not in taken)
            else:  # one edge more: between subsets two elements apart, or a swap a -> b with ab not in G
                s = tuple(range(k))
                t = (*range(k - 2), k, k + 1) if change == "two-apart" else None
                if t is None:
                    a, b = next((a, b) for a in range(k) for b in range(k, GNP12.n) if (a, b) not in GNP12.edges)
                    t = tuple(sorted(set(s) - {a} | {b}))
                assert len(set(s) ^ set(t)) == (4 if change == "two-apart" else 2)
                edges = np.vstack([edges, sorted((rank[s], rank[t]))])
            bad = _corrupted(tg, edges)
            assert bad.graph.m == tg.graph.m + (change in ("two-apart", "non-edge-swap")) - (change == "dropped")
            routes = [checked_lift, lambda bad: token_alpha(bad, _base(GNP12), *_accept(GNP12))]
            for sparse_from in (spectra.SPARSE_MIN_ORDER, 0):
                monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", sparse_from)
                for route in routes:
                    with pytest.raises(NumericalError, match="lifted residual .* exceeds bound"):
                        route(bad)
            monkeypatch.setattr(verify, "token_graph", lambda g, k, cap, _bad=bad: _bad)
            with pytest.raises(NumericalError, match="lifted residual .* exceeds bound"):
                check_spectral_containment(GNP12, k, mode="float")

    def test_nan_in_the_lift_raises(self, monkeypatch):
        # a NaN residual passes every comparison with a bound, so the check asks for an exact 0
        real = tokens.lift

        def nan_lift(n, k):
            b = real(n, k)
            b[0, 0] = np.nan
            return b

        monkeypatch.setattr(spectra, "lift", nan_lift)
        for k in (3, 4):  # N = 220 and 495
            with pytest.raises(NumericalError, match="lifted residual nan"):
                checked_lift(token_graph(GNP12, k))

    def test_dependent_lift_raises(self, monkeypatch):
        # two equal columns of B: on the edgeless graph L(F_k) B = B L(G) = 0 still holds, so only
        # checked_lift's check of B^T B sees it, and every caller raises its message
        real = tokens.lift
        monkeypatch.setattr(spectra, "lift", lambda n, k: real(n, k)[:, [0, 0, *range(2, n)]])
        g = Graph(4, [])
        tg = token_graph(g, 2)
        for call in (lambda: checked_lift(tg), lambda: token_alpha(tg, _base(g), *_accept(g)),
                     lambda: check_spectral_containment(g, 2, mode="float")):
            with pytest.raises(NumericalError, match="the lift is dependent: B\\^T B is not"):
                call()

    def test_corrupted_token_graph_fails_containment(self, monkeypatch):
        real = verify.token_graph
        monkeypatch.setattr(verify, "token_graph", lambda g, k, cap: _corrupted(
            real(g, k, cap), real(g, k, cap).graph.edge_array[1:]))
        with pytest.raises(NumericalError, match="lifted residual"):
            check_spectral_containment(GNP12, 3, mode="float")

    @pytest.mark.parametrize("name, order", [("gnp12.el", 495), ("gnp18.el", 3060)])
    def test_float_containment_imports_no_scipy(self, name, order):
        # k = 4: L(F_k) B is counted from the token edges, so no token matrix is formed and no scipy
        # module is imported, at any order
        data = Path(__file__).parent / "data" / name
        code = ("import sys; from pathlib import Path; from token_spectra.graphs import parse_edge_list;"
                "from token_spectra.verify import check_spectral_containment as contain;"
                f"c = contain(parse_edge_list(Path({str(data)!r}).read_text()), 4, mode='float');"
                f"assert c.passed and c.witnesses['token_vertices'] == {order};"
                "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        res = _run_python(code)
        assert res.returncode == 0, res.stderr

    def test_no_eigensolve_of_the_token_laplacian(self, monkeypatch):
        orders = []
        for name in ("eigh", "eigvalsh"):
            def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
                orders.append(a.shape[0])
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        for k in (2, 4, 6):
            assert check_spectral_containment(GNP12, k, mode="float").passed
        assert orders == []  # not even L(G) is solved


class TestTokenAlpha:
    """token_alpha's two dense paths, below SPARSE_MIN_ORDER and on the sparse route's handover,
    with the proof handing over too, so that the values-only solve answers."""

    @pytest.fixture(autouse=True)
    def no_proof(self, monkeypatch):
        monkeypatch.setattr(spectra, "_proved_alpha", lambda *args: None)

    @pytest.fixture
    def handover(self, monkeypatch):
        # every token graph takes the sparse route, where ARPACK fails at once and hands over to dense
        import scipy.sparse.linalg

        def fails(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("forced handover", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fails)

    def test_matches_the_full_eigensolver(self, corpus):
        for g in corpus:
            for k in range(1, g.n):
                tg = token_graph(g, k)
                full = eig_sym(laplacian(tg.graph).astype(float)).values
                value, fields = _token_alpha(tg)
                assert fields == {}
                assert abs(value - algebraic_connectivity(tg.graph)[0]) <= 1e-9 * max(1.0, float(full[-1]))

    def test_handover_reads_the_same_bits(self, handover):
        for g, k in [(GNP12, 3), (path_graph(7), 2), (path_graph(7), 3)]:
            tg = token_graph(g, k)
            assert _token_alpha(tg) == (fiedler_value(_token_values(tg)), {})

    @pytest.mark.parametrize("route", ["dense", "handover"])
    def test_corrupted_lift_raises(self, request, monkeypatch, route):
        if route == "handover":
            request.getfixturevalue("handover")
        real = tokens.lift
        monkeypatch.setattr(spectra, "lift", lambda n, k: real(n, k)[::-1])
        for k in (2, 3):
            tg = token_graph(GNP12, k)
            with pytest.raises(NumericalError, match="lifted residual .* exceeds bound"):
                _token_alpha(tg)

    @pytest.mark.parametrize("route", ["dense", "handover"])
    def test_no_eigenvectors_of_the_token_laplacian(self, request, monkeypatch, route):
        if route == "handover":
            request.getfixturevalue("handover")
        orders, eigh = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            orders.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        tg = token_graph(GNP12, 4)
        assert _token_alpha(tg)[0] > 0
        assert orders == [GNP12.n]  # only L(G), which the caller solves for every route


class TestMemoryCharge:
    """The values-only solve of token_alpha's dense paths is charged
    VALUES_BYTES_PER_N2, not the eigenvector route's rate; checked_lift, all of float
    containment's work, counts L(F_k) B within its charge per token edge and per entry
    of the N x n lift, and float containment forms no N x N array; the sparse route's
    CSR Laplacian is charged per token edge and per row before it is allocated."""

    G, K, N = path_graph(14), 4, 1001

    @pytest.fixture
    def values_only(self, monkeypatch):
        """The values-only solve's alpha, and token_alpha's dense branch with the proof handing over,
        each from building F_k on."""
        monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", self.N + 1)
        monkeypatch.setattr(spectra, "_proved_alpha", lambda *args: None)
        return [lambda: fiedler_value(_token_values(token_graph(self.G, self.K))),
                lambda: _token_alpha(token_graph(self.G, self.K))[0]]

    def test_runs_between_the_two_rates(self, monkeypatch, values_only):
        assert spectra.VALUES_BYTES_PER_N2 < 30 < spectra.DENSE_BYTES_PER_N2
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", 30 * self.N ** 2)
        for alpha in values_only:
            assert alpha() > 0

    def test_refuses_below_its_rate_before_allocating(self, monkeypatch, values_only):
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", spectra.VALUES_BYTES_PER_N2 * self.N ** 2 - 1)
        for alpha in values_only:
            tracemalloc.start()
            try:
                with pytest.raises(CapExceededError, match=f"dense Laplacian route at N = {self.N}"):
                    alpha()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < self.N ** 2  # the int64 Laplacian alone would take 8 N^2

    def test_certificate_refuses_below_its_estimate_before_allocating(self, monkeypatch):
        tg = token_graph(self.G, self.K)
        need = (spectra.LIFT_BYTES_PER_EDGE * tg.graph.m
                + spectra.LIFT_BYTES_PER_ROW_COLUMN * self.N * self.G.n)
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match=f"lift check at N = {self.N}"):
                checked_lift(tg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * self.N * self.G.n  # the lift alone would take 8 N n
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", need)
        assert check_spectral_containment(self.G, self.K, mode="float").passed
        # at the estimate the count runs, and numpy's traced peak stays within it
        tracemalloc.start()
        try:
            checked_lift(tg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * self.N * self.G.n < peak <= need

    def test_csr_refuses_below_its_estimate_before_allocating(self, monkeypatch):
        # F_6(K_13), N = 1716 >= SPARSE_MIN_ORDER: token_alpha checks the lift, then builds the CSR L(F_k)
        # for Lanczos, whose estimate is the larger here; with memory between the two the check runs
        # and the CSR matrix is refused before it is allocated
        tg = token_graph(complete_graph(13), 6)
        lift_need = spectra.LIFT_BYTES_PER_EDGE * tg.graph.m + spectra.LIFT_BYTES_PER_ROW_COLUMN * tg.graph.n * 13
        need = spectra.CSR_BYTES_PER_EDGE * tg.graph.m + spectra.CSR_BYTES_PER_ROW * tg.graph.n
        assert tg.graph.n == 1716 >= spectra.SPARSE_MIN_ORDER and lift_need < need
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", need - 1)
        checks = []
        monkeypatch.setattr(spectra, "checked_lift", lambda tg, _real=checked_lift: checks.append(tg) or _real(tg))
        with pytest.raises(CapExceededError, match="the CSR Laplacian at N = 1716"):
            _token_alpha(tg)
        assert checks == [tg]
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="the CSR Laplacian at N = 1716"):
                sparse_laplacian(tg.graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * tg.graph.m  # its float data alone would take 16 m
        # at the estimate the matrix is built, and numpy's traced peak stays within it
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", need)
        tracemalloc.start()
        try:
            assert sparse_laplacian(tg.graph).nnz == 2 * tg.graph.m + tg.graph.n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 24 * tg.graph.m < peak <= need

    def test_containment_forms_no_token_matrix(self):
        tracemalloc.start()
        try:
            assert check_spectral_containment(self.G, self.K, mode="float").passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.N ** 2


def _accept(g: Graph, tol: float = 1e-7) -> tuple[float, float]:
    """alpha-token's interval for alpha(F_k): alpha(G) +- tol * max(1, alpha(G))."""
    a = fiedler_value(_base(g).values)
    return a - tol * max(1.0, a), a + tol * max(1.0, a)


def _complement(tg: TokenGraph) -> tuple[float, np.ndarray | None]:
    """(mu, its unit eigenvector): the least eigenvalue of L(F_k) off range(B), by a dense
    eigh on an orthonormal basis of range(B)^perp; (inf, None) where that is {0}."""
    b = lift(tg.base.n, tg.k)
    q = np.linalg.svd(b)[0][:, tg.base.n:]
    if q.shape[1] == 0:
        return float("inf"), None
    w, v = np.linalg.eigh(q.T @ laplacian(tg.graph).astype(float) @ q)
    return float(w[0]), q @ v[:, 0]


def _exact_complement_rayleigh(tg: TokenGraph) -> Fraction:
    """The exact Rayleigh quotient of mu's eigenvector, projected off range(B) in integers;
    an upper bound on mu that involves no rounding."""
    n, k = tg.base.n, tg.k
    x = [Fraction(float(c)) for c in _complement(tg)[1]]
    den = max(c.denominator for c in x)
    ints = [int(c * den) for c in x]
    # B^T B = a I + c J, so (B^T B)^-1 = (I - c / (a + n c) J) / a; y = (a + n c) a x - B w is exact
    a, c = comb(n - 2, k - 1), comb(n - 2, k - 2) if k >= 2 else 0
    members = tokens._colex_subsets(n, k).tolist()
    bt = [0] * n
    for row, value in zip(members, ints):
        for j in row:
            bt[j] += value
    w = [(a + n * c) * t - c * sum(bt) for t in bt]
    y = [(a + n * c) * a * value - sum(w[j] for j in row) for row, value in zip(members, ints)]
    num = sum((y[u] - y[v]) ** 2 for u, v in tg.graph.edge_array.tolist())
    return Fraction(num, sum(v * v for v in y))


def _proof_inputs(tg: TokenGraph) -> tuple[np.ndarray, np.ndarray]:
    """The lift and the token degrees, as _proved_alpha hands them to _complement_exceeds."""
    b = lift(tg.base.n, tg.k)
    return b, laplacian(tg.graph).diagonal()


C4 = cycle_graph(4)
DOUBLE_ONLY = -math.inf  # a theta below every sigma: the gate skips the single-precision factor


class TestProvedAlpha:
    """token_alpha with a check's interval: mu > sigma > alpha(G) proved, so lambda_2(L(F_k)) =
    alpha(G); on failure sigma = lo; else the next route."""

    @pytest.fixture(scope="class")
    def every_small_graph(self):
        return [g for n in range(2, 8) for g in connected_class_representatives(n)]

    def test_closes_on_the_corpus(self, every_small_graph):
        self._closes(every_small_graph)  # every order is below THETA_MIN_ORDER: theta = inf, single first

    def test_closes_in_place_on_the_corpus(self, monkeypatch, every_small_graph):
        monkeypatch.setattr(spectra, "THETA_MIN_ORDER", 0)  # theta at every order, so the gate runs too
        self._closes([g for g in every_small_graph if g.n <= 6])

    def test_in_place_certificates_equal_numpys(self, monkeypatch, every_small_graph):
        # every proof runs in place, in single precision first (theta = inf below THETA_MIN_ORDER): the
        # alpha-token certificates are those of numpy's float64 Cholesky of the full matrix, runtime_ms aside
        cases = [(g, k) for g in every_small_graph + family_corpus(7) for k in range(1, g.n)]

        def certificates():
            return [{**check_alpha_token_equality(g, k).to_json_dict(), "runtime_ms": 0} for g, k in cases]

        with monkeypatch.context() as m:
            m.setattr(spectra, "_complement_exceeds", numpy_complement_exceeds)
            numpys = certificates()
        factored, real = [], spectra._potrf_in_place
        monkeypatch.setattr(spectra, "_potrf_in_place", lambda a: factored.append(a.dtype) or real(a))
        assert certificates() == numpys
        assert {np.dtype(np.float32), np.dtype(np.float64)} <= set(factored)

    @staticmethod
    def _closes(graphs):
        """The proof closes on every connected graph given, at every k, with dense eigh's mu above sigma."""
        fallbacks = 0
        for g in graphs:
            spectrum = _base(g)
            alpha = fiedler_value(spectrum.values)
            sigma = float(np.nextafter(alpha + 1e-8 * max(1.0, float(spectrum.values[-1])), np.inf))
            # sigma is above the exact alpha(G): the Sturm count of charpoly(L(G)) on (0, sigma] is not 0
            assert count_roots_in_interval(char_poly(laplacian(g)), 0, sigma) >= 1, g.edges
            for k in range(1, g.n):
                tg = token_graph(g, k)
                value, proved = token_alpha(tg, spectrum, *_accept(g))
                if "alpha_token_lower" in proved:  # F_2(C_4) alone, where mu = alpha
                    assert (g.n, g.m, k) == (4, 4, 2) and np.bincount(g.edge_array.ravel()).tolist() == [2] * 4
                    fallbacks += 1
                    continue
                assert value == alpha and proved == {"alpha_complement_lower": sigma}, (g.edges, k)
                assert _complement(tg)[0] > sigma, (g.edges, k)
                full = np.linalg.eigvalsh(laplacian(tg.graph).astype(float))
                assert abs(full[1] - value) <= 1e-9 * max(1.0, float(full[-1])), (g.edges, k)
        assert fallbacks == 1

    def test_c4_falls_back_to_lo(self):
        # F_2(C_4) has mu = alpha = 2, so mu > alpha cannot be proved, and mu > lo is
        tg = token_graph(C4, 2)
        assert _complement(tg)[0] == pytest.approx(2.0, abs=1e-12)
        lo, hi = _accept(C4)
        value, proved = token_alpha(tg, _base(C4), lo, hi)
        assert value == fiedler_value(_base(C4).values) and "alpha_complement" not in proved
        assert proved["alpha_complement_lower"] == proved["alpha_token_lower"] == lo
        assert 2.0 < proved["alpha_token_upper"] <= hi

    def test_no_complement_at_k_1_and_n_minus_1(self):
        for g in (GNP12, path_graph(7), C4):
            for k in (1, g.n - 1):
                tg = token_graph(g, k)
                assert _complement(tg) == (float("inf"), None)
                value, proved = token_alpha(tg, _base(g), *_accept(g))
                assert value == fiedler_value(_base(g).values) and set(proved) == {"alpha_complement_lower"}

    def test_sigma_above_mu_gives_no_proof(self):
        # theta = inf, so single precision is tried first, and double precision proves what single
        # precision cannot
        for g, k in [(GNP12, 3), (path_graph(7), 3), (complete_graph(6), 2), (C4, 2)]:
            tg = token_graph(g, k)
            mu = _complement(tg)[0]
            b, degree = _proof_inputs(tg)
            assert not spectra._complement_exceeds(tg, b, degree, mu + 1e-6 * max(1.0, mu), math.inf)
            assert spectra._complement_exceeds(tg, b, degree, mu - 1e-6 * max(1.0, mu), math.inf)

    def test_lower_end_above_lambda_2_falls_back(self):
        # on F_2(C_4), lambda_2 = mu = 2: with lo above it, neither sigma closes
        tg = token_graph(C4, 2)
        assert token_alpha(tg, _base(C4), 2.0 + 1e-6, 3.0) == (fiedler_value(_token_values(tg)), {})

    def test_upper_end_below_alpha_falls_back(self):
        # hi = alpha(G) lies below sigma, so the fallback sigma = lo would not place alpha(F_k) in [lo, hi]
        tg = token_graph(C4, 2)
        lo, _ = _accept(C4)
        assert token_alpha(tg, _base(C4), lo, 2.0)[1] == {}

    def test_rump_shift_is_needed(self, monkeypatch):
        # sigma above mu by a few ulps, which a float Cholesky without the shift c still factors;
        # path:11 with k = 4 gives such a sigma only when dpotrf runs threaded, path:12 with k = 3
        # and 4 give one with 1 or 2 BLAS threads
        found = 0
        for g, k in [(path_graph(10), 3), (path_graph(11), 4), (GNP12, 3), (path_graph(12), 3), (path_graph(12), 4)]:
            tg = token_graph(g, k)
            b, degree = _proof_inputs(tg)
            rq = _exact_complement_rayleigh(tg)
            for j in range(1, 40):
                sigma = float(rq) + j * np.spacing(float(rq))
                assert Fraction(sigma) > rq  # so mu < sigma: no proof may close
                with monkeypatch.context() as m:
                    m.setattr(spectra, "UNIT_ROUNDOFF", 0.0)  # c = 0
                    if not spectra._complement_exceeds(tg, b, degree, sigma, DOUBLE_ONLY):
                        continue
                found += 1
                assert not spectra._complement_exceeds(tg, b, degree, sigma, DOUBLE_ONLY)
        assert found

    def test_single_rump_shift_is_needed(self, monkeypatch):
        # sigma above mu by a few single-precision ulps, which spotrf still factors when its shift
        # is made without the single-precision unit roundoff; dpotrf fails, so only spotrf can close
        kernels = spectra._kernels()
        real = kernels["dpotrf"]
        found = 0
        for g, k in [(path_graph(7), 3), (path_graph(12), 3), (path_graph(12), 4)]:
            tg = token_graph(g, k)
            b, degree = _proof_inputs(tg)
            rq = _exact_complement_rayleigh(tg)
            for j in range(1, 10):
                sigma = float(rq) + j * float(np.spacing(np.float32(rq)))
                assert Fraction(sigma) > rq  # so mu < sigma: no proof may close
                with monkeypatch.context() as m:
                    m.setattr(spectra, "SINGLE_UNIT_ROUNDOFF", 0.0)
                    m.setitem(kernels, "dpotrf", lambda a: 1)
                    if not spectra._complement_exceeds(tg, b, degree, sigma, math.inf):
                        continue
                found += 1
                assert kernels["dpotrf"] is real
                assert not spectra._complement_exceeds(tg, b, degree, sigma, math.inf)
        assert found

    def test_dropped_token_edge_raises(self):
        for k in (2, 3, 4):  # N = 495 at k = 4, where the proof would close in single precision
            tg = token_graph(GNP12, k)
            with pytest.raises(NumericalError, match="lifted residual .* exceeds bound"):
                token_alpha(_corrupted(tg, tg.graph.edge_array[1:]), _base(GNP12), *_accept(GNP12))

    @pytest.mark.parametrize("corrupt", ["reversed rows", "swapped columns"])
    def test_corrupted_lift_raises(self, monkeypatch, corrupt):
        real = tokens.lift
        change = {"reversed rows": lambda b: b[::-1], "swapped columns": lambda b: b[:, [1, 0, *range(2, b.shape[1])]]}
        monkeypatch.setattr(spectra, "lift", lambda n, k: change[corrupt](real(n, k)))
        for k in (2, 3):
            with pytest.raises(NumericalError, match="lifted residual .* exceeds bound"):
                token_alpha(token_graph(GNP12, k), _base(GNP12), *_accept(GNP12))

    def test_failed_factorization_leaves_alpha_to_the_next_route(self, monkeypatch):
        monkeypatch.setitem(spectra._kernels(), "dpotrf", lambda a: 1)
        monkeypatch.setitem(spectra._kernels(), "spotrf", lambda a: 1)
        # N = 220 and 495 on spotrf then dpotrf, 1001 on dpotrf alone
        for g, k in [(GNP12, 3), (GNP12, 4), (path_graph(14), 4)]:
            tg = token_graph(g, k)
            assert tg.graph.n < spectra.SPARSE_MIN_ORDER  # so the values-only solve is next
            assert token_alpha(tg, _base(g), *_accept(g)) == (fiedler_value(_token_values(tg)), {})

    @staticmethod
    def _proof_peak(g: Graph, k: int) -> tuple[dict, int]:
        """_proved_alpha's fields on F_k(g), and tracemalloc's peak while it runs."""
        tg, spectrum = token_graph(g, k), _base(g)
        b, degree = checked_lift(tg)  # token_alpha's, made before the proof, as is theta
        theta = spectra._complement_rayleigh(tg, b, spectrum.vectors[:, 1])
        spectra._kernels()  # bound before tracing
        tracemalloc.start()
        try:
            proved = spectra._proved_alpha(tg, spectrum, b, degree, *_accept(g), theta)[1]
            return proved, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_token_matrix(self):
        # A and its factor share one N x N array: no copy for LAPACK, no second factor; on path:14,
        # mu - alpha is too small for single precision, so the gate keeps the factor in double
        n = 1001
        proved, peak = self._proof_peak(path_graph(14), 4)
        assert set(proved) == {"alpha_complement_lower"}
        assert 8 * n ** 2 < peak < 9 * n ** 2

    def test_one_single_precision_token_matrix(self):
        # G(12, 1/2) with k = 4: spotrf closes, on one N x N array of floats
        n = 495
        proved, peak = self._proof_peak(GNP12, 4)
        assert set(proved) == {"alpha_complement_lower"}
        assert 4 * n ** 2 < peak < 5 * n ** 2

    def test_dpotrf_runs_with_one_thread_above_15000(self, monkeypatch):
        # 16001 x 16001 and 15000 x 15000 views of one float or double: nothing of that order is
        # allocated or factored; spotrf gets dpotrf's guard, set in the OpenBLAS that numpy loads,
        # where 2 threads run first so that the switch shows under OPENBLAS_NUM_THREADS=1 too
        kernels = spectra._kernels()
        get, put = kernels["threads"]
        before, seen = get(), []
        for name in ("spotrf", "dpotrf"):
            monkeypatch.setitem(kernels, name, lambda a, _name=name: seen.append((_name, a.shape[0], get())) or 0)
        put(2)
        try:
            for dtype in (np.float32, np.float64):
                huge, large = (np.lib.stride_tricks.as_strided(np.ones(1, dtype), (n, n), (0, 0)) for n in (16001, 15000))
                assert spectra._potrf_in_place(huge) == 0 and spectra._potrf_in_place(large) == 0
            assert get() == 2
        finally:
            put(before)
        assert seen == [("spotrf", 16001, 1), ("spotrf", 15000, 2), ("dpotrf", 16001, 1), ("dpotrf", 15000, 2)]
        # where the library's thread switch is not found, the order above 15000 is refused: exit 3
        monkeypatch.setitem(kernels, "threads", None)
        for dtype in (np.float32, np.float64):
            huge, large = (np.lib.stride_tricks.as_strided(np.ones(1, dtype), (n, n), (0, 0)) for n in (16001, 15000))
            with pytest.raises(CapExceededError, match="N = 16001"):
                spectra._potrf_in_place(huge)
            assert spectra._potrf_in_place(large) == 0

    def test_disconnected_graph_reads_zero(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        for k in range(1, g.n):
            value, proved = token_alpha(token_graph(g, k), _base(g), *_accept(g))
            assert value == 0.0 and "alpha_complement_lower" in proved
            # F_k may have more components than G, so mu = 0, and lo < 0 holds unproved
            assert proved.get("alpha_token_lower", -1.0) < 0 or proved["alpha_complement_lower"] > 0

    def test_certificates_carry_the_bounds(self):
        certs = [check_alpha_token_equality(GNP12, 3),
                 check_kite_head_family("cycle", 2, 2, h=4, k=2),
                 check_bipartite_extension(2, 3, "plus_x", k=2, x_edges=[(0, 1)]),
                 check_cut_clique(1, [complete_graph(2), complete_graph(2)], k=2)]
        for cert in certs:
            w = cert.witnesses
            assert cert.passed and w["alpha_complement_lower"] > w["alpha_token"], cert.check
            assert "alpha_token_lower" not in w and "alpha_complement_least" not in w
        assert certs[0].witnesses["difference"] == 0.0
        # pendant-bound proves its three values, each in its base's interval, but keeps only the values
        assert not any(key.endswith(("lower", "upper")) for key in check_pendant_bound(GNP12, 3).witnesses)

    def test_tol_zero_keeps_the_values_only_certificate(self):
        # on F_2(C_4), mu = alpha, and at tol = 0 no interval is left for the fallback
        cert = check_alpha_token_equality(C4, 2, tol=0.0)
        assert "alpha_complement_lower" not in cert.witnesses
        assert cert.witnesses["alpha_token"] == fiedler_value(_token_values(token_graph(C4, 2)))

    def test_tol_zero_is_proved_outright(self):
        cert = check_alpha_token_equality(GNP12, 3, tol=0.0)
        assert cert.passed and cert.witnesses["difference"] == 0.0
        assert cert.witnesses["alpha_complement_lower"] > cert.witnesses["alpha_token"]

    def test_sweep_cells_import_no_scipy(self):
        # alpha-token, float containment and pendant-bound below SPARSE_MIN_ORDER: the pendant-bound
        # cell proves alpha on F_3 of path:12, N = 220, and float containment checks F_3 of path:10
        code = ("import sys; from token_spectra.verify import check_alpha_token_equality as alpha,"
                " check_spectral_containment as contain, check_pendant_bound as pendant;"
                "from token_spectra.graphs import path_graph;"
                "assert 'alpha_complement_lower' in alpha(path_graph(8), 3).witnesses;"
                "assert contain(path_graph(10), 3, mode='float').passed and pendant(path_graph(11), 3).passed;"
                "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        res = _run_python(code)
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("rate", [spectra.PROOF_BYTES_PER_N2 - 1, spectra.PROOF_BYTES_PER_N2])
    def test_memory_at_the_proofs_rate(self, monkeypatch, rate):
        # path:14 with k = 4, N = 1001: the proof is the cheapest dense route, so below its
        # rate alpha exits 3 (CapExceededError), and at it alpha is proved
        assert spectra.PROOF_BYTES_PER_N2 < spectra.VALUES_BYTES_PER_N2
        g, k, n = path_graph(14), 4, 1001
        monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", n + 1)
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", rate * n ** 2)
        tg = token_graph(g, k)
        if rate < spectra.PROOF_BYTES_PER_N2:
            with pytest.raises(CapExceededError, match=f"dense Laplacian route at N = {n}"):
                token_alpha(tg, _base(g), *_accept(g))
        else:
            assert set(token_alpha(tg, _base(g), *_accept(g))[1]) == {"alpha_complement_lower"}


def _gnm(n: int, rng: random.Random) -> Graph:
    """A connected G(n, m) with m = C(n, 2) // 2 + 1, as the dense-alpha benchmark draws its bases."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        g = Graph(n, rng.sample(pairs, comb(n, 2) // 2 + 1))
        if g.is_connected():
            return g


def _gate_table() -> list[tuple[str, Graph, int]]:
    """48 (family, G, k) with 300 <= C(n, k) < 1500: paths, cycles, stars, random trees, K_{5,9},
    K_12, a bipartite extension, and G(n, m) bases on dense-alpha's rungs in that range."""
    rng = random.Random(1)
    mid = [(11, 4), (12, 4), (15, 3), (17, 3), (13, 4), (14, 4), (12, 5), (13, 5)]
    dense = [(11, 4)] * 3 + [(14, 3)] * 3 + [(15, 3), (11, 5), (12, 4), (16, 3), (17, 3), (13, 4), (14, 4)]
    dense16 = parse_edge_list((Path(__file__).parent / "data" / "dense16_seed1.el").read_text())
    return ([("path", path_graph(n), k) for n, k in mid] + [("cycle", cycle_graph(n), k) for n, k in mid]
            + [("star", star_graph(n - 1), k) for n, k in [(12, 4), (13, 4), (14, 3), (15, 3), (16, 3)]]
            + [("tree", random_tree(n, rng), k) for n, k in [(12, 4), (13, 4), (14, 4), (15, 3), (16, 3), (17, 3)]]
            + [("K_5,9", complete_bipartite_graph(5, 9), k) for k in (3, 4)]
            + [("K_12", complete_graph(12), k) for k in (4, 5)]
            + [("bipartite-ext", build_bipartite_extension(5, 9, "plus_x", [(0, 1), (2, 3)]), k) for k in (3, 4)]
            + [("gnm", _gnm(n, rng), k) for n, k in dense] + [("gnm", dense16, 3), ("gnm", GNP12, 5)])


def _small_gate_table() -> list[tuple[str, Graph, int]]:
    """(family, G, k) with C(n, k) < 300, where theta = +inf: paths, cycles, stars, random trees, K_n,
    and one G(n, m) base on each of dense-alpha's rungs in that range."""
    rng = random.Random(1)
    orders = [(8, 3), (15, 2), (10, 3), (9, 4), (11, 3), (20, 2), (10, 4), (12, 3), (10, 5), (13, 3)]
    dense = [(15, 2), (16, 2), (10, 3), (17, 2), (18, 2), (11, 3), (19, 2), (20, 2), (10, 4), (12, 3), (10, 5), (13, 3)]
    return ([("path", path_graph(n), k) for n, k in orders] + [("cycle", cycle_graph(n), k) for n, k in orders]
            + [("star", star_graph(n - 1), k) for n, k in [(10, 3), (12, 3), (10, 5), (20, 2)]]
            + [("tree", random_tree(n, rng), k) for n, k in [(10, 3), (11, 3), (10, 4), (12, 3), (13, 3), (20, 2)]]
            + [("K_n", complete_graph(n), k) for n, k in [(8, 3), (10, 4), (12, 3), (20, 2)]]
            + [("gnm", _gnm(n, rng), k) for n, k in dense])


class TestSinglePrecisionGate:
    """The proof factors in single precision only where its shift c32 lies below theta - sigma, theta
    >= mu the quotient of _complement_rayleigh from THETA_MIN_ORDER on and +inf below it, and falls
    back to double precision where that factor is skipped or fails."""

    @staticmethod
    def _counts(monkeypatch, table) -> tuple[dict, list]:
        """token_alpha proves alpha on each (family, G, k) of table, with one proof each; per family,
        the single-precision factors, those that fell back and the double-precision ones, and the
        proofs whose single-precision factor the gate skipped."""
        proofs, factors, skipped = [], [], []
        exceeds, potrf = spectra._complement_exceeds, spectra._potrf_in_place

        def proof_spy(tg, b, degree, sigma, theta):
            start = len(factors)
            proofs.append(exceeds(tg, b, degree, sigma, theta))
            if all(itemsize == 8 for _, itemsize, _ in factors[start:]):
                skipped.append((tg, b, degree, sigma))
            return proofs[-1]

        def potrf_spy(a):
            factors.append((family, a.dtype.itemsize, potrf(a)))
            return factors[-1][2]

        with monkeypatch.context() as m:
            m.setattr(spectra, "_complement_exceeds", proof_spy)
            m.setattr(spectra, "_potrf_in_place", potrf_spy)
            for family, g, k in table:
                tg = token_graph(g, k)
                assert tg.graph.n < spectra.SPARSE_MIN_ORDER
                assert set(token_alpha(tg, _base(g), *_accept(g))[1]) == {"alpha_complement_lower"}, (family, g.edges, k)
        assert len(table) == len(proofs) and all(proofs)
        counts = {}
        for family, itemsize, info in factors:
            row = counts.setdefault(family, {"single": 0, "fell back": 0, "double": 0})
            row["single" if itemsize == 4 else "double"] += 1
            row["fell back"] += itemsize == 4 and info != 0
        return counts, skipped

    def test_counts_on_the_mid_order_table(self, monkeypatch):
        table = _gate_table()
        assert len(table) == 48 and all(spectra.THETA_MIN_ORDER <= comb(g.n, k) for _, g, k in table)
        counts, skipped = self._counts(monkeypatch, table)
        # "double" counts the proofs the gate skipped and those that fell back
        assert counts == {"path": {"single": 1, "fell back": 0, "double": 7},
                          "cycle": {"single": 5, "fell back": 2, "double": 5},
                          "star": {"single": 5, "fell back": 0, "double": 0},
                          "tree": {"single": 2, "fell back": 0, "double": 4},
                          "K_5,9": {"single": 2, "fell back": 0, "double": 0},
                          "K_12": {"single": 2, "fell back": 0, "double": 0},
                          "bipartite-ext": {"single": 2, "fell back": 0, "double": 0},
                          "gnm": {"single": 15, "fell back": 0, "double": 0}}
        # the gate lost nothing: forced past it, none of the 14 skipped proofs closes in single precision
        assert len(skipped) == 14
        monkeypatch.setitem(spectra._kernels(), "dpotrf", lambda a: 1)
        for tg, b, degree, sigma in skipped:
            assert not spectra._complement_exceeds(tg, b, degree, sigma, math.inf)

    def test_counts_below_the_theta_order(self, monkeypatch):
        # theta = +inf below THETA_MIN_ORDER, so every proof whose entries are exact in single precision
        # factors in single precision first; these counts measure the attempts that fall back
        table = _small_gate_table()
        assert len(table) == 46 and all(comb(g.n, k) < spectra.THETA_MIN_ORDER for _, g, k in table)
        counts, skipped = self._counts(monkeypatch, table)
        # every attempt closes: c32 grows with N, and below 300 it stays under mu - sigma on every base
        assert counts == {"path": {"single": 10, "fell back": 0, "double": 0},
                          "cycle": {"single": 10, "fell back": 0, "double": 0},
                          "star": {"single": 4, "fell back": 0, "double": 0},
                          "tree": {"single": 6, "fell back": 0, "double": 0},
                          "K_n": {"single": 4, "fell back": 0, "double": 0},
                          "gnm": {"single": 12, "fell back": 0, "double": 0}}
        assert skipped == []

    def test_no_complement_gives_an_infinite_theta(self):
        # k = 1 and n - 1: range(B) is all of R^N, so x projects to 0 and no factor is ruled out
        for g in (GNP12, path_graph(7), C4):
            for k in (1, g.n - 1):
                tg = token_graph(g, k)
                assert spectra._complement_rayleigh(tg, lift(g.n, k), _base(g).vectors[:, 1]) == math.inf

    def test_theta_bounds_mu(self):
        for g, k in [(GNP12, 3), (path_graph(9), 3), (cycle_graph(9), 4), (complete_graph(7), 3)]:
            tg = token_graph(g, k)
            theta = spectra._complement_rayleigh(tg, lift(g.n, k), _base(g).vectors[:, 1])
            mu = _complement(tg)[0]
            assert mu - 1e-9 * max(1.0, mu) <= theta < math.inf, (g.edges, k)

    def test_entries_exact_in_single_precision(self):
        # every entry s |S & T| - [ST an edge] of A, s a power of two, is exact in single precision
        # iff s - 1 and k s - 1 are; where not, the proof stays in double
        assert spectra._exact_in_single(2.0 ** -5, 4) and spectra._exact_in_single(1.0, 9)
        assert spectra._exact_in_single(2.0 ** 21, 8)  # k s - 1 = 2^24 - 1
        assert not spectra._exact_in_single(2.0 ** 22, 8)  # k s - 1 = 2^25 - 1
        assert spectra._exact_in_single(2.0 ** -24, 4)  # s - 1 = -(1 - 2^-24)
        assert not spectra._exact_in_single(2.0 ** -25, 4)  # s - 1 = -(1 - 2^-25)
        assert not spectra._exact_in_single(2.0 ** -26, 4)  # though k s - 1 = -(1 - 2^-24) is exact
        factored, real = [], spectra._potrf_in_place
        with pytest.MonkeyPatch.context() as m:
            m.setattr(spectra, "_exact_in_single", lambda s, k: False)
            m.setattr(spectra, "_potrf_in_place", lambda a: factored.append(a.dtype.itemsize) or real(a))
            tg = token_graph(GNP12, 4)  # N = 495, where single precision closes
            assert set(token_alpha(tg, _base(GNP12), *_accept(GNP12))[1]) == {"alpha_complement_lower"}
        assert factored == [8]


def _run_python(code: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that imports token_spectra from this checkout."""
    path = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


class TestKernels:
    """spectra._kernels: ?syrk and ?potrf bound from numpy's OpenBLAS, against scipy.linalg's wrappers
    of the same routines, which also serve where that library is not found."""

    @pytest.mark.parametrize("n", [1, 7, 64, 300])
    @pytest.mark.parametrize("prefix", ["s", "d"])
    def test_potrf_equals_lapacks(self, n, prefix):
        # info is scipy's ?potrf's; the lower factor is bit for bit spotrf's from scipy's OpenBLAS, and
        # dpotrf's from numpy.linalg.cholesky, which calls it in the library _kernels binds (scipy's
        # OpenBLAS 0.3.30 rounds dpotrf's lower factor otherwise in the last bits)
        from scipy.linalg import lapack

        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, n + 2))
        dtype = np.float32 if prefix == "s" else np.float64
        for name, a in [("positive definite", x @ x.T + np.eye(n)), ("indefinite", x @ x.T - 2 * np.eye(n))]:
            a = np.asfortranarray(a, dtype)
            if name == "indefinite":
                a[n // 2, n // 2] = -1.0  # a negative pivot by row n // 2 at the latest
            ours, theirs = a.copy(order="F"), a.copy(order="F")
            info = spectra._kernels()[prefix + "potrf"](ours)
            factor, want = getattr(lapack, prefix + "potrf")(theirs, lower=1, overwrite_a=0, clean=0)
            assert info == want and (info == 0) == (name == "positive definite"), (name, info)
            if prefix == "s":
                assert np.array_equal(ours, factor), name
            elif info == 0:
                assert np.array_equal(np.tril(ours), np.linalg.cholesky(a)), name

    @pytest.mark.parametrize("prefix", ["s", "d"])
    def test_syrk_triangle_equals_scipys(self, prefix):
        from scipy.linalg import blas

        for n, k in [(5, 1), (7, 3), (12, 4), (16, 4)]:
            b = lift(n, k)
            ours = spectra._kernels()[prefix + "syrk"](0.5, b)
            want = getattr(blas, prefix + "syrk")(0.5, b.T, trans=1, lower=1)
            assert ours.flags.f_contiguous and ours.dtype == want.dtype and ours.shape == (len(b), len(b))
            assert np.array_equal(np.tril(ours), np.tril(want)), (n, k)

    def test_potrf_refuses_what_it_cannot_factor_in_place(self):
        kernels = spectra._kernels()
        for prefix, dtype in [("s", np.float32), ("d", np.float64)]:
            for a in [np.eye(3, dtype=dtype), np.eye(3, dtype=np.float64 if prefix == "s" else np.float32, order="F"),
                      np.eye(4, dtype=dtype, order="F")[:, :3], np.empty((0, 0), dtype, order="F")]:
                with pytest.raises(ValueError, match="square Fortran-ordered"):
                    kernels[prefix + "potrf"](a)

    def test_scipys_wrappers_serve_without_numpys_openblas(self, monkeypatch):
        # the same certificates, runtime_ms aside: single precision closes on G(12, 1/2) with k = 3 and 4,
        # the gate keeps path:12 with k = 4 in double, single falls back on cycle:13 with k = 4, and
        # F_2(C_4) falls back to lo
        import scipy.linalg.lapack

        cases = [(GNP12, 3), (GNP12, 4), (path_graph(12), 4), (cycle_graph(13), 4), (C4, 2)]

        def certificates():
            return [{**check_alpha_token_equality(g, k).to_json_dict(), "runtime_ms": 0} for g, k in cases]

        bound, factored, real = certificates(), [], scipy.linalg.lapack.dpotrf
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda a, **kwargs: factored.append(len(a)) or real(a, **kwargs))
        monkeypatch.setattr(np, "__file__", str(Path("/nonexistent") / "numpy" / "__init__.py"))
        spectra._kernels.cache_clear()
        try:
            assert spectra._kernels()["threads"] is None
            assert certificates() == bound
        finally:
            spectra._kernels.cache_clear()  # bound again from numpy's OpenBLAS once np.__file__ is restored
        assert factored  # scipy's dpotrf served

    def test_a_mid_order_proof_imports_no_scipy_linalg(self):
        # gnp12.el with k = 4 (N = 495): checked_lift counts L(F_k) B, and the proof binds numpy's
        # OpenBLAS, so no scipy module is imported at all
        data = Path(__file__).parent / "data" / "gnp12.el"
        code = ("import sys; from pathlib import Path; from token_spectra.graphs import parse_edge_list;"
                "from token_spectra.verify import check_alpha_token_equality as alpha;"
                f"w = alpha(parse_edge_list(Path({str(data)!r}).read_text()), 4).witnesses;"
                "assert w['alpha_complement_lower'] > w['alpha_token'] and w['difference'] == 0.0;"
                "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        res = _run_python(code)
        assert res.returncode == 0, res.stderr


def _with_pendant(g: Graph) -> Graph:
    return Graph(g.n + 1, g.edges + ((0, g.n),))


class TestPendantBound:
    """pendant-bound passes each of its token alphas the interval around alpha of its own
    base graph, G or G + pendant, each solved once; the values-only route is the oracle."""

    CASES = [(g, k) for g in family_corpus(7) for k in range(2, (g.n + 1) // 2 + 1)]
    KEYS = ("alpha_token_augmented", "alpha_token_km1", "alpha_token_k")

    @staticmethod
    def _oracle(g: Graph, k: int) -> tuple[float, float, float]:
        # three values-only solves, as pendant-bound made before it passed intervals
        return tuple(fiedler_value(_token_values(token_graph(x, j)))
                     for x, j in ((_with_pendant(g), k), (g, k - 1), (g, k)))

    def _assert_matches(self, cert, g, k):
        oracle = self._oracle(g, k)
        bound = min(oracle[1:]) + 1.0
        assert cert.passed == (oracle[0] <= bound + 1e-7 * max(1.0, bound)), (g.edges, k)
        for key, want in zip(self.KEYS, oracle):
            assert abs(cert.witnesses[key] - want) <= 1e-9 * max(1.0, abs(want)), (g.edges, k, key)

    def test_matches_the_values_only_oracle(self, monkeypatch):
        proofs = []
        real = spectra._proved_alpha

        def spy(*args):
            proofs.append(real(*args))
            return proofs[-1]

        monkeypatch.setattr(spectra, "_proved_alpha", spy)
        for g, k in self.CASES:
            cert = check_pendant_bound(g, k)
            self._assert_matches(cert, g, k)
            # the certificate keeps its keys: what was proved is not reported
            assert set(cert.witnesses) == {*self.KEYS, "k", "bound", "pendant_attached_to"}
        assert len(proofs) == sum(3 if k > 2 else 2 for _, k in self.CASES)
        assert all(proved is not None for proved in proofs)

    def test_k2_reads_alpha_of_g(self):
        for g, k in self.CASES:
            if k == 2:
                assert check_pendant_bound(g, 2).witnesses["alpha_token_km1"] == fiedler_value(_base(g).values)

    def test_one_solve_of_each_base(self, monkeypatch):
        orders, eigh = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            orders.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        for k in (2, 3):
            orders.clear()
            assert check_pendant_bound(GNP12, k).passed
            assert sorted(orders) == [GNP12.n, GNP12.n + 1]

    def test_without_the_proof_the_values_only_route_decides(self, monkeypatch):
        verdicts = {(g.edges, k): check_pendant_bound(g, k).verdict for g, k in self.CASES}
        solved = []

        def spy(*args):
            solved.append(args)
            return EIGENVALUES(*args)

        monkeypatch.setattr(spectra, "_complement_exceeds", lambda *args: False)
        monkeypatch.setattr(spectra, "eigenvalues", spy)  # the values-only solve of token_alpha
        for g, k in self.CASES:
            solved.clear()
            cert = check_pendant_bound(g, k)
            assert len(solved) == (3 if k > 2 else 2)
            assert cert.verdict == verdicts[(g.edges, k)]
            self._assert_matches(cert, g, k)
