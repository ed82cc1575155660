"""The sparse route to alpha(F_k(G)) against the dense oracle.

The private _sparse_token_alpha is called directly with the base graph's
spectrum, the L(F_k) that checked_lift checked and token_alpha's theta,
whatever the order, so no option is needed to reach it. eigsh sees the
operator with I added, so its raw values are the route's values plus 1.
Where it hands over (returns None), token_alpha answers: those tests patch SPARSE_MIN_ORDER to 0, so
that every token graph goes through the sparse route first, and patch the
proof to hand over too, so that the values-only solve decides, as it does
wherever neither route closes. token_alpha's threshold, its one lift check
per decision, and the witness keys each route puts in a certificate, are
tested on their own.
"""

import math
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

from token_spectra import spectra, tokens
from token_spectra.graphs import (
    Graph,
    build_bipartite_extension,
    complete_graph,
    cycle_graph,
    parse_edge_list,
    path_graph,
    random_tree,
    star_graph,
)
from token_spectra.spectra import (
    _sparse_token_alpha,
    algebraic_connectivity,
    checked_lift,
    eig_sym,
    fiedler_value,
    laplacian,
    sparse_laplacian,
    token_alpha,
)
from token_spectra.tokens import CapExceededError, token_graph
from token_spectra.verify import (
    check_alpha_token_equality,
    check_bipartite_extension,
    check_cut_clique,
    check_kite_head_family,
    check_pendant_bound,
)

from helpers import family_corpus, random_corpus

DATA = Path(__file__).parent / "data"
GNP12 = parse_edge_list((DATA / "gnp12.el").read_text())
GNP18 = parse_edge_list((DATA / "gnp18.el").read_text())


def _spy_solves(monkeypatch) -> list:
    """Record every eigsh call of the sparse route as (least value, its vector, the Rayleigh
    quotients of the operator, as it stands at the call, at the vectors of the earlier calls)."""
    import scipy.sparse.linalg

    solves, eigsh = [], scipy.sparse.linalg.eigsh

    def spy(op, k, **kw):
        before = [vec @ op.matvec(vec) for _, vec, _ in solves]
        vals, vecs = eigsh(op, k, **kw)
        solves.append((float(vals[0]), vecs[:, 0], before))
        return vals, vecs

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return solves


def _spectrum(tg):
    """eig_sym(L(G)) for tg's base graph G, as token_alpha takes it."""
    return eig_sym(laplacian(tg.base).astype(float))


def _base(tg):
    """eig_sym(L(G)).values for tg's base graph G, as token_alpha passes them to the sparse route."""
    return _spectrum(tg).values


def _route_args(tg):
    """(spectrum, L(F_k), theta), as token_alpha passes them to the sparse route: L(F_k) from
    checked_lift, theta from _complement_rayleigh from SCIPY_MIN_ORDER on and +inf below it."""
    spectrum, (b, lap) = _spectrum(tg), checked_lift(tg)
    if tg.graph.n < spectra.SCIPY_MIN_ORDER:
        return spectrum, lap, math.inf
    return spectrum, lap, spectra._complement_rayleigh(tg, b, spectrum.vectors[:, 1])


def _sparse(tg):
    """_sparse_token_alpha on the arguments token_alpha passes it."""
    return _sparse_token_alpha(tg, *_route_args(tg))


def _scale(lap) -> float:
    """max(1, Delta + 1), Delta F_k's largest degree, read off L(F_k)."""
    return max(1.0, float(lap.diagonal().max()) + 1.0)


def _shift(lap, theta: float) -> float:
    """The route's shift c = min(2 max(1, Delta + 1), 2 theta + 1)."""
    return min(2.0 * _scale(lap), 2.0 * theta + 1.0)


def _dense(tg) -> float:
    """alpha(F_k) by token_alpha's values-only solve, with the sparse route and the proof handing over."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectra, "_sparse_token_alpha", lambda *args: None)
        m.setattr(spectra, "_proved_alpha", lambda *args: None)
        return token_alpha(tg, _spectrum(tg), -np.inf, np.inf)[0]


def _token_alpha(tg, tol: float = 1e-7):
    """token_alpha with alpha-token's interval, alpha(G) +- tol * max(1, alpha(G))."""
    spectrum = _spectrum(tg)
    a = fiedler_value(spectrum.values)
    return token_alpha(tg, spectrum, a - tol * max(1.0, a), a + tol * max(1.0, a))


def _mu(answer) -> float | None:
    """The sparse route's mu in a route's answer (alpha, fields); None where another route answered."""
    return answer[1].get("alpha_complement")


@pytest.fixture
def sparse_first(monkeypatch):
    """Every token graph takes the sparse route in token_alpha; where it hands over, so does the
    proof, and the values-only solve answers."""
    monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", 0)
    monkeypatch.setattr(spectra, "_proved_alpha", lambda *args: None)


def _agrees(tg, value: float) -> bool:
    """value is the dense route's alpha within resid_tol * max(1, lambda_max)."""
    w = eig_sym(laplacian(tg.graph).astype(float)).values
    return abs(value - w[1]) <= spectra.DEFAULT_RESID_TOL * max(1.0, float(w[-1]))


class TestAgainstDense:
    def test_every_corpus_instance(self, sparse_first):
        # token graphs of at most 2000 vertices; GNP12 is covered below
        sparse = 0
        for g in [*family_corpus(8), *random_corpus(12, n_range=(6, 10), seed=5)]:
            for k in range(1, g.n):
                tg = token_graph(g, k)
                value, fields = _token_alpha(tg)
                mu = fields.get("alpha_complement")
                assert _agrees(tg, value), (g, k)
                if mu is None:
                    assert _sparse(tg) is None
                else:
                    sparse += 1
                    assert value == min(algebraic_connectivity(g)[0], mu) or value == 0.0
        # 53 instances leave ARPACK room off range(B), and 46 of them took the sparse route when
        # this was written; K_{3,4} and the star on 8 vertices fall back, as their mu has a
        # multiplicity of at least 4, so four solves find four copies in one group
        assert sparse >= 44

    def test_both_sides_of_j(self):
        # F_k and F_{n-k} are isomorphic by complementing every subset
        for k in (3, 4, 5):
            tgs = [token_graph(GNP12, j) for j in (k, 12 - k)]
            low, high = (_sparse(tg) for tg in tgs)
            assert _mu(low) is not None and _mu(high) is not None
            assert abs(low[0] - high[0]) <= 1e-9 and abs(_mu(low) - _mu(high)) <= 1e-8
            assert _agrees(token_graph(GNP12, 12 - k), high[0])

    def test_gnp_at_n_1001(self):
        g = random_corpus(1, n_range=(14, 14), seed=2)[0]
        tg = token_graph(g, 4)
        value, fields = _sparse(tg)
        assert fields["alpha_complement"] is not None and _agrees(tg, value)

    def test_disconnected_base_gives_zero(self):
        g = Graph(10, [*cycle_graph(5).edges, *((u + 5, v + 5) for u, v in cycle_graph(5).edges)])
        for k in (2, 3, 7):
            tg = token_graph(g, k)
            value, fields = _sparse(tg)
            assert value == 0.0 and fields["alpha_complement"] is not None

    @pytest.mark.parametrize("n, k", [(5, 2), (6, 3), (7, 2), (7, 3), (8, 3), (9, 4)])
    def test_complete_graph_falls_back(self, sparse_first, n, k):
        # mu = 2(n - 1) has multiplicity C(n, 2) - n, beyond every block that fits at this order
        tg = token_graph(complete_graph(n), k)
        value, fields = _token_alpha(tg)
        assert fields == {} and _sparse(tg) is None
        assert value == _dense(tg)
        assert abs(value - n) <= 1e-9 * n

    def test_one_group_hands_over_to_dense(self, monkeypatch, sparse_first):
        # star on 9 vertices, k = 4: mu = 2 has a multiplicity above 4, so the route hands over
        # once it holds four copies in one group, and runs no fifth solve
        solves = _spy_solves(monkeypatch)
        tg = token_graph(star_graph(8), 4)
        value, fields = _token_alpha(tg)
        assert len(solves) == spectra.SPARSE_BLOCKS == 4 and fields == {}
        assert max(abs(value - 3.0) for value, _, _ in solves) <= 1e-9 * 9  # eigsh's values carry the 1
        assert value == _dense(tg)
        assert _sparse(tg) is None

    def test_copies_grow_one_solve_at_a_time(self, monkeypatch):
        # C_8 with k = 3: mu is double, so the second solve finds its second copy and the third
        # closes above it; each solve's operator lifts every copy found before it to the shift or
        # above, and eigsh's values carry the 1 that the operator adds
        solves = _spy_solves(monkeypatch)
        tg = token_graph(cycle_graph(8), 3)
        spectrum, lap, theta = _route_args(tg)
        value, fields = _sparse_token_alpha(tg, spectrum, lap, theta)
        mu = fields["alpha_complement"]
        values = [value - 1.0 for value, _, _ in solves]
        assert len(solves) == 3 and _agrees(tg, value)
        assert values[0] == mu and abs(values[1] - mu) <= 1e-9 and values[2] - mu > 0.1
        shift = _shift(lap, theta)
        assert theta == math.inf and shift == 2 * (int(np.bincount(tg.graph.edge_array.ravel()).max()) + 1)
        for j, (value, before) in enumerate(zip(values, (before for _, _, before in solves))):
            assert len(before) == j and value < shift
            assert all(q - 1.0 >= shift for q in before)

    def test_solves_per_answer(self, monkeypatch):
        # a simple mu takes one solve and one more that closes above it; complete:14 with k = 5
        # (N = 2002), whose mu = 26 is highly degenerate, takes four and hands over; F_2(P_7), with
        # 14 vectors off range(B), leaves ARPACK too little room and hands over before any solve
        solves = _spy_solves(monkeypatch)
        assert _sparse(token_graph(path_graph(7), 2)) is None and solves == []
        assert _mu(_sparse(token_graph(GNP12, 5))) is not None and len(solves) == 2
        solves.clear()
        assert _sparse(token_graph(complete_graph(14), 5)) is None and len(solves) == 4

    def test_a_solve_below_mu_hands_over(self, monkeypatch, sparse_first):
        # path:9 with k = 3 (N = 84), with eigsh returning the second, the least, then the third
        # eigenpair of L(F_k) off range(B), each value plus the operator's 1: the second solve lies far
        # below mu, so the first missed a lower value, and the route hands over instead of answering
        # with the higher mu
        import scipy.sparse.linalg

        tg = token_graph(path_graph(9), 3)
        b, lap = checked_lift(tg)
        w, q = np.linalg.eigh(lap + 100.0 * b @ np.linalg.solve(b.T @ b, b.T))  # range(B) lifted by 100
        assert np.allclose(w[:3], [0.25330, 0.40148, 0.57331], atol=1e-5)
        assert abs(fiedler_value(_base(tg)) - 0.12061) <= 1e-5
        solves = []

        def eigsh(op, k, **kw):
            i = [1, 0, 2][len(solves)]
            solves.append(i)
            return w[[i]] + 1.0, q[:, [i]]

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
        assert _sparse(tg) is None and solves == [1, 0]
        solves.clear()
        value, fields = _token_alpha(tg)
        assert fields == {} and solves == [1, 0] and value == _dense(tg)

    @pytest.mark.parametrize("fault", ["at-the-shift", "residual"])
    def test_a_solve_that_fails_its_check_hands_over(self, monkeypatch, sparse_first, fault):
        # path:9 with k = 3 (N = 84), with eigsh's first answer the least eigenvector of L(F_k) off
        # range(B), but its value read at the shift, here above the whole spectrum, or 1e-6 high, past
        # the residual bound (each plus the operator's 1): the route hands over after that one solve,
        # and the values-only solve answers
        import scipy.sparse.linalg

        tg = token_graph(path_graph(9), 3)
        b, lap = checked_lift(tg)
        w, q = np.linalg.eigh(lap + 100.0 * b @ np.linalg.solve(b.T @ b, b.T))  # range(B) lifted by 100
        scale = max(1.0, float(lap.diagonal().max()) + 1.0)
        value = 2.0 * scale if fault == "at-the-shift" else w[0] + 1e-6  # theta = inf below SCIPY_MIN_ORDER
        assert np.linalg.norm(lap @ q[:, 0] - w[0] * q[:, 0]) <= spectra.DEFAULT_RESID_TOL * scale
        solves = []

        def eigsh(op, k, **kw):
            solves.append(k)
            return np.array([value + 1.0]), q[:, [0]]

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
        assert _sparse(tg) is None and solves == [1]
        solves.clear()
        answer, fields = _token_alpha(tg)
        assert fields == {} and solves == [1] and answer == _dense(tg)

    def test_no_convergence_falls_back_to_dense(self, monkeypatch, sparse_first):
        # one restart is too few: ARPACK raises ArpackNoConvergence, and the route hands over
        monkeypatch.setattr(spectra, "SPARSE_MAXITER", 1)
        tg = token_graph(GNP12, 5)
        value, fields = _token_alpha(tg)
        assert fields == {} and _sparse(tg) is None
        assert value == _dense(tg)

    def test_fallback_that_does_not_fit_raises(self, monkeypatch, sparse_first):
        tg = token_graph(GNP12, 4)  # N = 495
        dense_need = spectra.VALUES_BYTES_PER_N2 * tg.graph.n ** 2
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", dense_need - 1)
        assert _mu(_token_alpha(tg)) is not None
        monkeypatch.setattr(spectra, "SPARSE_MAXITER", 1)
        assert _sparse(tg) is None
        with pytest.raises(CapExceededError, match="dense Laplacian route at N = 495"):
            _token_alpha(tg)

    def test_memory_estimate_refuses_before_allocating(self, monkeypatch):
        tg = token_graph(GNP12, 4)
        args = _route_args(tg)
        solves = _spy_solves(monkeypatch)
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", spectra.SPARSE_BYTES_PER_ROW * 495 - 1)
        with pytest.raises(CapExceededError, match="sparse route at N = 495"):
            _sparse_token_alpha(tg, *args)
        assert solves == []

    def test_same_result_on_repeat(self):
        tg = token_graph(GNP12, 4)
        assert _sparse(tg) == _sparse(tg)


def _eigsh_calls(monkeypatch) -> list:
    """Record every eigsh call of the sparse route as (tol, c), c read off the operator at the
    all-ones vector: it lies in range(B) and in the kernel of L(F_k), and U is orthogonal to range(B),
    so the operator maps it to c + 1 times itself."""
    import scipy.sparse.linalg

    calls, eigsh = [], scipy.sparse.linalg.eigsh

    def spy(op, k, **kw):
        ones = np.ones(op.shape[0])
        calls.append((kw["tol"], float(ones @ op.matvec(ones)) / ones.size - 1.0))
        return eigsh(op, k, **kw)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return calls


class TestShiftAndStop:
    """range(B) and U are shifted by c = min(2 max(1, Delta + 1), 2 theta + 1), and ARPACK stops at
    tol (value + 1) with tol (c + 1) <= bound / 2, whatever mu is."""

    @pytest.mark.parametrize("g, k", [(GNP12, 5), (path_graph(16), 4), (complete_graph(25), 2)],
                             ids=["gnp12-k5", "path16-k4", "complete25-k2"])
    def test_shift_is_capped_by_theta(self, monkeypatch, g, k):
        # with token_alpha's theta, c = 2 theta + 1 on G(12, 1/2) and path:16, inside the spectrum;
        # K_25 with k = 2 has mu = 48 > Delta + 1/2 = 46.5, so c stays 2 (Delta + 1); with theta = inf,
        # c is 2 (Delta + 1) on all three
        tg = token_graph(g, k)
        spectrum, lap, theta = _route_args(tg)
        assert theta < math.inf
        for t in (theta, math.inf):
            calls = _eigsh_calls(monkeypatch)
            _sparse_token_alpha(tg, spectrum, lap, t)
            assert calls and all(abs(c - _shift(lap, t)) <= 1e-12 * c for _, c in calls)
        capped = _shift(lap, theta) == 2.0 * theta + 1.0
        assert capped == (g.n != 25) and (not capped or _shift(lap, theta) < 2.0 * _scale(lap))

    def test_shift_where_theta_is_infinite(self, monkeypatch, sparse_first):
        # below SCIPY_MIN_ORDER token_alpha passes theta = inf, and c = 2 max(1, Delta + 1)
        for g, k in [(cycle_graph(8), 3), (path_graph(9), 3), (GNP12, 3), (star_graph(8), 4)]:
            tg = token_graph(g, k)
            assert tg.graph.n < spectra.SCIPY_MIN_ORDER
            calls = _eigsh_calls(monkeypatch)
            _token_alpha(tg)
            lap = laplacian(tg.graph)
            assert calls and all(abs(c - 2.0 * _scale(lap)) <= 1e-12 * c for _, c in calls), (g.edges, k)

    def test_every_call_stops_within_half_the_bound(self, monkeypatch, sparse_first):
        # tol (c + 1) <= bound / 2 on every call, bound = DEFAULT_RESID_TOL max(1, Delta + 1)
        cases = [(path_graph(16), 4), (path_graph(120), 2), (GNP12, 5), (cycle_graph(8), 3), (star_graph(8), 4),
                 (complete_graph(14), 5), *((g, g.n // 2) for g in family_corpus(8) if g.n >= 4)]
        calls = _eigsh_calls(monkeypatch)
        for g, k in cases:
            start = len(calls)
            _token_alpha(tg := token_graph(g, k))
            bound = spectra.DEFAULT_RESID_TOL * _scale(sparse_laplacian(tg.graph))
            assert all(tol * (c + 1.0) <= bound / 2 * (1 + 1e-12) for tol, c in calls[start:]), (g.edges, k)
        assert len(calls) >= 30

    @pytest.mark.parametrize("first", [True, False], ids=["first-solve", "later-solve"])
    @pytest.mark.parametrize("offset", [0.0, -0.5, 1.0, -2.0], ids=["at-c", "within-the-gap", "above-c", "below-the-gap"])
    def test_a_solve_at_the_shift(self, monkeypatch, first, offset):
        # path:9 with k = 3 (N = 84) and its own theta, so c = 2 theta + 1 lies inside the spectrum.
        # eigsh answers at c + offset gaps with the all-ones vector of range(B), first or after mu's
        # eigenvector: a first solve there hands over, a later one within the gap of c or above it
        # answers with mu unchecked, and one two gaps below c is checked, fails, and hands over
        import scipy.sparse.linalg

        tg = token_graph(path_graph(9), 3)
        spectrum, (b, lap) = _spectrum(tg), checked_lift(tg)
        theta = spectra._complement_rayleigh(tg, b, spectrum.vectors[:, 1])
        c, gap = _shift(lap, theta), spectra.DEFAULT_GROUP_TOL * _scale(lap)
        w, q = np.linalg.eigh(lap + 100.0 * b @ np.linalg.solve(b.T @ b, b.T))  # range(B) lifted by 100
        assert c == 2 * theta + 1 < np.linalg.eigvalsh(lap.astype(float))[-1]
        ones = np.ones((tg.graph.n, 1)) / math.sqrt(tg.graph.n)
        answers = [(np.array([c + offset * gap + 1.0]), ones)]
        if not first:
            answers.insert(0, (w[:1] + 1.0, q[:, :1]))
        solves = []

        def eigsh(op, k, **kw):
            solves.append(k)
            return answers[len(solves) - 1]

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
        answer = _sparse_token_alpha(tg, spectrum, lap, theta)
        assert len(solves) == len(answers)
        if first or offset < -1:
            assert answer is None
        else:
            mu = float(w[0] + 1.0) - 1.0  # as the route reads it off eigsh's value
            assert answer == (fiedler_value(spectrum.values), {"alpha_complement": mu,
                                                               "alpha_complement_least": "not certified"})

    def test_tiny_mu_on_a_path(self, monkeypatch):
        # path:120 with k = 2, N = 7140, mu = 1.38e-3: ARPACK's stopping test is relative, and the
        # added I keeps it near half the bound; the route answers, its vector's residual against
        # L(F_k) is within the bound, and mu and alpha agree with the dense route's (pinned below)
        tg = token_graph(path_graph(120), 2)
        solves = _spy_solves(monkeypatch)
        spectrum, lap, theta = _route_args(tg)
        value, fields = _sparse_token_alpha(tg, spectrum, lap, theta)
        bound = spectra.DEFAULT_RESID_TOL * _scale(lap)
        mu, vec = fields["alpha_complement"], solves[0][1]
        assert len(solves) == 2 and mu == solves[0][0] - 1.0
        assert np.linalg.norm(lap @ vec - mu * vec) <= bound
        assert abs(mu - PATH120_K2_DENSE[1]) <= bound and abs(value - PATH120_K2_DENSE[0]) <= bound


# lambda_2 and lambda_3 of L(F_2(P_120)), N = 7140, from LAPACK's dsyevr (scipy.linalg.eigvalsh with
# subset_by_index) on the dense matrix: lambda_2 = alpha(P_120), lambda_3 = mu, the least eigenvalue
# off range(B). The solve took 20 s and 0.8 GiB, too much for every test run, so the values are pinned.
PATH120_K2_DENSE = (0.0006853500488853979, 0.0013763798582000241)


class TestSparseLaplacian:
    def test_matches_dense(self):
        for g in [*family_corpus(7), GNP12, Graph(4, [(0, 1)])]:
            L = sparse_laplacian(g)
            assert L.format == "csr"
            assert np.array_equal(L.toarray(), laplacian(g))

    def test_same_arrays_as_scipys_coo_build(self):
        # filled straight from the edge array, the CSR arrays are those scipy makes from COO
        # triplets, entry for entry and in the same order within each row
        from scipy.sparse import csr_array

        def from_triplets(g):
            u, v = g.edge_array.T
            diag = np.arange(g.n)
            data = np.concatenate((np.full(2 * g.m, -1.0), np.bincount(g.edge_array.ravel(), minlength=g.n)))
            rows, cols = np.concatenate((u, v, diag)), np.concatenate((v, u, diag))
            return csr_array((data, (rows, cols)), shape=(g.n, g.n))

        bases = [*family_corpus(8), *random_corpus(12, n_range=(6, 10), seed=5), Graph(4, [(0, 1)]), Graph(1)]
        graphs = [*bases, *(token_graph(g, k).graph for g in bases for k in range(1, g.n)),
                  token_graph(GNP18, 9).graph]
        for g in graphs:
            got, want = sparse_laplacian(g), from_triplets(g)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (g.n, g.m, name)


def _parity_instances():
    """The instances on which Lanczos was compared with the LOBPCG ladder it replaced: (id, G, k)."""
    dense = [(f"dense16-seed{seed}", parse_edge_list((DATA / f"dense16_seed{seed}.el").read_text()), 4)
             for seed in (1, 2, 3)]
    rng = random.Random(7)
    trees = [(f"tree{n}", random_tree(n, rng), 5) for n in (14, 15, 16)]
    return [*dense, *trees, ("cycle16", cycle_graph(16), 4), ("cycle15", cycle_graph(15), 6),
            ("star14", star_graph(13), 5), ("complete14", complete_graph(14), 5),
            ("bipartite-5-9", build_bipartite_extension(5, 9, "plus_x", [(0, 1), (2, 3)]), 7),
            ("bipartite-4-12", build_bipartite_extension(4, 12, "plus_x", [(0, 1)]), 4),
            ("bipartite-5-10-star", build_bipartite_extension(5, 10, "star_y"), 5),
            ("gnp18-k5", GNP18, 5), ("gnp18-k9", GNP18, 9)]


# mu from the LOBPCG ladder (blocks 4, 8, 16, 32) on each instance, None where it handed over
LOBPCG_MU = {
    "dense16-seed1": 7.561489087109318, "dense16-seed2": 5.710931557228022, "dense16-seed3": 6.407230528728862,
    "tree14": 0.17900393637458606, "tree15": 0.20791736719655138, "tree16": 0.18878805235272544,
    "cycle16": 0.28039058500854236, "cycle15": 0.3162292350099829, "star14": None, "complete14": None,
    "bipartite-5-9": None, "bipartite-4-12": None, "bipartite-5-10-star": None,
    "gnp18-k5": 8.045771581303574, "gnp18-k9": 8.045771581303573,
}


PARITY = _parity_instances()


@pytest.mark.parametrize("name, g, k", PARITY, ids=[name for name, *_ in PARITY])
def test_answers_where_lobpcg_answered(name, g, k):
    # N = 1820..48620: the route answers where the LOBPCG ladder answered, with its mu within the
    # residual bound, and hands over where the ladder handed over
    tg = token_graph(g, k)
    spectrum, lap, theta = _route_args(tg)
    answer = _sparse_token_alpha(tg, spectrum, lap, theta)
    assert tg.graph.n >= spectra.SPARSE_MIN_ORDER
    if LOBPCG_MU[name] is None:
        assert answer is None
    else:
        bound = spectra.DEFAULT_RESID_TOL * (float(lap.diagonal().max()) + 1)
        assert abs(_mu(answer) - LOBPCG_MU[name]) <= bound


class TestTokenAlpha:
    def test_dense_below_threshold_is_bitwise(self, monkeypatch):
        # with the proof handing over, the values-only solve answers, and adds no fields
        monkeypatch.setattr(spectra, "_proved_alpha", lambda *args: None)
        for g, k in [(GNP12, 4), (path_graph(9), 3), (cycle_graph(8), 4)]:
            tg = token_graph(g, k)
            assert tg.graph.n < spectra.SPARSE_MIN_ORDER
            assert _token_alpha(tg) == (_dense(tg), {})

    def test_sparse_from_threshold(self, monkeypatch):
        tg = token_graph(GNP12, 4)
        monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", tg.graph.n)
        assert _token_alpha(tg) == _sparse(tg)
        assert _mu(_token_alpha(tg)) is not None

    def test_sparse_route_runs_first_from_the_threshold_only(self, monkeypatch):
        # below SPARSE_MIN_ORDER the proof, then the values-only solve; from it on, Lanczos before both
        calls, sparse, proof = [], spectra._sparse_token_alpha, spectra._proved_alpha
        monkeypatch.setattr(spectra, "_sparse_token_alpha", lambda *args: calls.append("sparse") or sparse(*args))
        monkeypatch.setattr(spectra, "_proved_alpha", lambda *args: calls.append("proof") or proof(*args))
        for g, k in [(GNP12, 4), (path_graph(14), 4), (path_graph(15), 4)]:  # N = 495, 1001 and 1365
            calls.clear()
            tg = token_graph(g, k)
            assert tg.graph.n < spectra.SPARSE_MIN_ORDER
            assert "alpha_complement_lower" in _token_alpha(tg)[1] and calls == ["proof"]
        # complete:14 with k = 5, N = 2002: mu is degenerate, so Lanczos hands over to the proof
        tg = token_graph(complete_graph(14), 5)
        calls.clear()
        assert tg.graph.n >= spectra.SPARSE_MIN_ORDER
        assert "alpha_complement_lower" in _token_alpha(tg)[1] and calls == ["sparse", "proof"]
        calls.clear()
        assert _mu(_token_alpha(token_graph(path_graph(16), 4))) is not None and calls == ["sparse"]  # N = 1820

    @pytest.mark.parametrize("g, k, tol, routes, field", [
        (path_graph(16), 4, 1e-7, ["sparse"], "alpha_complement"),  # N = 1820: Lanczos answers
        (star_graph(13), 5, 1e-7, ["sparse", "proof"], "alpha_complement_lower"),  # N = 2002: mu is degenerate
        (cycle_graph(4), 2, 0.0, ["proof"], None),  # N = 6: at tol 0 the proof hands over to the values-only solve
    ], ids=["sparse", "sparse-then-proof", "proof-then-values"])
    def test_one_lift_per_decision(self, monkeypatch, g, k, tol, routes, field):
        # token_alpha checks L(F_k) B = B L(G) once: one lift, one Laplacian of F_k, and every route
        # receives those same objects (the sparse route L(F_k) alone: it applies B from its k-subsets)
        built, received = [], []
        for name in ("lift", "laplacian", "sparse_laplacian"):
            def build(*args, _name=name, _real=getattr(spectra, name)):
                built.append((_name, args[0], out := _real(*args)))
                return out
            monkeypatch.setattr(spectra, name, build)
        def sparse_spy(tg, spectrum, lap, theta, _real=spectra._sparse_token_alpha):
            received.append(("sparse", None, lap))
            return _real(tg, spectrum, lap, theta)

        def proof_spy(tg, spectrum, b, lap, *rest, _real=spectra._proved_alpha):
            received.append(("proof", b, lap))
            return _real(tg, spectrum, b, lap, *rest)

        monkeypatch.setattr(spectra, "_sparse_token_alpha", sparse_spy)
        monkeypatch.setattr(spectra, "_proved_alpha", proof_spy)
        cert = check_alpha_token_equality(g, k, tol=tol)
        order = comb(g.n, k)
        lifts = [out for name, _, out in built if name == "lift"]
        laplacians = [(name, out) for name, h, out in built if name != "lift" and h.n == order]
        made_by = "laplacian" if order < spectra.SCIPY_MIN_ORDER else "sparse_laplacian"
        assert len(lifts) == 1 and [name for name, _ in laplacians] == [made_by]
        assert [name for name, *_ in received] == routes
        assert all((b is None or b is lifts[0]) and lap is laplacians[0][1] for _, b, lap in received)
        assert all((b is None) == (name == "sparse") for name, b, _ in received)
        keys = {"alpha_complement", "alpha_complement_lower"} & set(cert.witnesses)
        assert keys == ({field} if field else set())
        assert cert.verdict == ("fail" if field is None else "pass")  # C_4 at tol 0 fails, as it always has

    def test_each_solve_is_charged_before_it_allocates(self, monkeypatch):
        # path:16 with k = 4, N = 1820: each of the two solves is charged SPARSE_BYTES_PER_ROW per row
        # before it runs, so memory one byte short refuses the first solve before it is allocated
        tg = token_graph(path_graph(16), 4)
        args = _route_args(tg)
        need = spectra.SPARSE_BYTES_PER_ROW * tg.graph.n
        charges, charge, solves = [], spectra.require_memory, _spy_solves(monkeypatch)

        def spy(nbytes, what):  # each charge with the number of solves run before it
            charges.append((nbytes, len(solves)))
            charge(nbytes, what)

        monkeypatch.setattr(spectra, "require_memory", spy)
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", need)
        assert _mu(_sparse_token_alpha(tg, *args)) is not None
        assert charges == [(need, 0), (need, 1)] and len(solves) == 2
        charges.clear()
        solves.clear()
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", need - 1)
        with pytest.raises(CapExceededError, match=f"the sparse route at N = {tg.graph.n} needs about"):
            _sparse_token_alpha(tg, *args)
        assert charges == [(need, 0)] and solves == []

    def test_certificates_name_mu_only_from_the_sparse_route(self, monkeypatch):
        g = random_corpus(1, n_range=(10, 10), seed=4)[0]
        dense = check_alpha_token_equality(g, 4)
        assert "alpha_complement" not in dense.witnesses
        pendant = check_pendant_bound(g, 4)
        assert not any(key.startswith("alpha_complement") for key in pendant.witnesses)
        monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", 100)  # the proof follows the sparse route
        sparse = check_alpha_token_equality(g, 4)
        assert sparse.verdict == dense.verdict == "pass"
        assert sparse.witnesses["alpha_complement"] > sparse.witnesses["alpha_token"]
        assert abs(sparse.witnesses["alpha_token"] - dense.witnesses["alpha_token"]) <= 1e-9 * 40
        # pendant-bound: F_4 of the augmented graph (330) and of g (210) go sparse, F_3 of g (120) does too
        keys = {key for key in check_pendant_bound(g, 4).witnesses if key.startswith("alpha_complement")}
        assert keys == {"alpha_complement_augmented", "alpha_complement_km1", "alpha_complement_k",
                        "alpha_complement_least"}
        # the sparse route does not certify that mu is least, and the certificate says so
        assert sparse.witnesses["alpha_complement_least"] == "not certified"


# the witness keys of each token check, in the order certificates list them, when the proof, Lanczos
# or the values-only solve answers for every alpha(F_k) of the check
KITE = ["h", "head_submatrix_min_eig", "path_lambda2", "theta_r", "alpha_perturbed", "alpha_token", "k",
        "added_edges"]
CUT = ["r", "k", "n", "alpha", "full_join", "bound_alpha_le_r", "alpha_token"]
PENDANT = ["k", "alpha_token_augmented", "alpha_token_km1", "alpha_token_k", "bound", "pendant_attached_to"]
ROUTE_KEYS = {
    "alpha-token": (["k", "alpha_base", "alpha_token", "difference"], []),
    "kite-head": (KITE, ["bridge_ok"]),
    "bipartite-ext": (["mode", "k", "expected", "alpha", "alpha_token"], []),
    "cut-clique": (CUT, []),
}
ROUTE_FIELDS = {"proof": ["alpha_complement_lower"], "sparse": ["alpha_complement", "alpha_complement_least"],
                "values": []}
ROUTE_CHECKS = {
    "alpha-token": lambda: check_alpha_token_equality(GNP12, 3),
    "kite-head": lambda: check_kite_head_family("cycle", 2, 2, h=4, k=2),
    "bipartite-ext": lambda: check_bipartite_extension(3, 5, "plus_x", k=3, x_edges=[(0, 1)]),
    "cut-clique": lambda: check_cut_clique(2, [cycle_graph(4), path_graph(3)], k=2),
    "pendant-bound": lambda: check_pendant_bound(GNP12, 3),
}


class TestRouteFields:
    """Each route's fields land where the check puts them. The route is forced by letting every token
    graph reach the sparse route and patching the other two routes to hand over."""

    @pytest.mark.parametrize("route", ["proof", "sparse", "values"])
    @pytest.mark.parametrize("check", list(ROUTE_CHECKS))
    def test_keys_in_order(self, monkeypatch, check, route):
        monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", 0)
        if route != "sparse":
            monkeypatch.setattr(spectra, "_sparse_token_alpha", lambda *args: None)
        elif check == "bipartite-ext":
            # Y's symmetry makes mu degenerate on every bipartite extension, so Lanczos never closes there;
            # a route with the sparse route's fields stands in for it
            monkeypatch.setattr(spectra, "_sparse_token_alpha", lambda tg, spectrum, lap, theta: (
                fiedler_value(spectrum.values), {"alpha_complement": 9.0, "alpha_complement_least": "not certified"}))
        if route != "proof":
            monkeypatch.setattr(spectra, "_proved_alpha", lambda *args: None)
        cert = ROUTE_CHECKS[check]()
        assert cert.passed
        if check == "pendant-bound":  # the three mu of Lanczos, and none of the proof's bounds
            mus = ["alpha_complement_augmented", "alpha_complement_km1", "alpha_complement_k", "alpha_complement_least"]
            assert list(cert.witnesses) == PENDANT + (mus if route == "sparse" else [])
            return
        head, tail = ROUTE_KEYS[check]
        assert list(cert.witnesses) == head + ROUTE_FIELDS[route] + tail

    def test_fallback_bounds_in_order(self):
        # F_2(C_4) has mu = alpha, so the proof falls back to sigma = lo and adds the interval it proved
        assert list(check_alpha_token_equality(cycle_graph(4), 2).witnesses)[4:] == [
            "alpha_complement_lower", "alpha_token_lower", "alpha_token_upper"]

    def test_pendant_bound_keeps_the_mu_of_each_sparse_answer(self):
        # gnp18.el with k = 4: F_4 of g + pendant (N = 3876) and of g (3060) take the sparse route;
        # F_3 of g (816) is proved, and the proof's bound is not kept
        cert = check_pendant_bound(parse_edge_list((DATA / "gnp18.el").read_text()), 4)
        assert cert.passed and list(cert.witnesses) == PENDANT + [
            "alpha_complement_augmented", "alpha_complement_k", "alpha_complement_least"]
        assert cert.witnesses["alpha_complement_least"] == "not certified"


def test_package_import_leaves_scipy_out():
    # scipy is imported inside the sparse route only, so it never reaches start-up time
    code = "import sys, token_spectra.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    path = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
