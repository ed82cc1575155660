"""The sparse route to alpha(F_k(G)) against the dense oracle.

The private _sparse_token_alpha is called directly with the base graph's
spectrum, whatever the order, so no option is needed to reach it. Where it
hands over (returns None), token_alpha answers: those tests patch
SPARSE_MIN_ORDER to 0, so that every token graph goes through the sparse
route first. token_alpha's threshold is tested on its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from token_spectra import spectra, tokens
from token_spectra.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    parse_edge_list,
    path_graph,
    star_graph,
)
from token_spectra.spectra import (
    _sparse_token_alpha,
    algebraic_connectivity,
    eig_sym,
    fiedler_value,
    laplacian,
    sparse_laplacian,
    token_alpha,
    token_spectrum,
)
from token_spectra.tokens import CapExceededError, token_graph
from token_spectra.verify import check_alpha_token_equality, check_pendant_bound

from helpers import family_corpus, random_corpus

DATA = Path(__file__).parent / "data"
GNP12 = parse_edge_list((DATA / "gnp12.el").read_text())


def _spy_block_sizes(monkeypatch, short=frozenset()) -> list:
    """Record the block size of every lobpcg call; blocks of a size in short get one iteration."""
    import scipy.sparse.linalg

    sizes, lobpcg = [], scipy.sparse.linalg.lobpcg

    def spy(a, x, **kw):
        sizes.append(x.shape[1])
        return lobpcg(a, x, **{**kw, "maxiter": 1} if x.shape[1] in short else kw)

    monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", spy)
    return sizes


def _base(tg):
    """eig_sym(L(G)) for tg's base graph G, as token_alpha passes it to the routes."""
    return eig_sym(laplacian(tg.base).astype(float))


def _dense(tg) -> float:
    """alpha(F_k) by the dense route: one values-only solve, certified by G's lifted eigenpairs."""
    return fiedler_value(token_spectrum(tg))


@pytest.fixture
def sparse_first(monkeypatch):
    """Every token graph takes the sparse route in token_alpha, which answers where it hands over."""
    monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", 0)


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
                value, mu, _ = token_alpha(tg)
                assert _agrees(tg, value), (g, k)
                if mu is None:
                    assert _sparse_token_alpha(tg, _base(tg)) is None
                else:
                    sparse += 1
                    assert value == min(algebraic_connectivity(g)[0], mu) or value == 0.0
        # 53 instances have room for a block of 4, and 46 of them took the sparse route when
        # this was written; K_{3,4} and the star on 8 vertices fall back, as their mu has a
        # multiplicity of at least 4 and the first block converges to one group
        assert sparse >= 44

    def test_both_sides_of_j(self):
        # F_k and F_{n-k} are isomorphic by complementing every subset
        for k in (3, 4, 5):
            tgs = [token_graph(GNP12, j) for j in (k, 12 - k)]
            low, high = (_sparse_token_alpha(tg, _base(tg)) for tg in tgs)
            assert low[1] is not None and high[1] is not None
            assert abs(low[0] - high[0]) <= 1e-9 and abs(low[1] - high[1]) <= 1e-8
            assert _agrees(token_graph(GNP12, 12 - k), high[0])

    def test_gnp_at_n_1001(self):
        g = random_corpus(1, n_range=(14, 14), seed=2)[0]
        tg = token_graph(g, 4)
        value, mu, _ = _sparse_token_alpha(tg, _base(tg))
        assert mu is not None and _agrees(tg, value)

    def test_disconnected_base_gives_zero(self):
        g = Graph(10, [*cycle_graph(5).edges, *((u + 5, v + 5) for u, v in cycle_graph(5).edges)])
        for k in (2, 3, 7):
            tg = token_graph(g, k)
            value, mu, _ = _sparse_token_alpha(tg, _base(tg))
            assert value == 0.0 and mu is not None

    @pytest.mark.parametrize("n, k", [(5, 2), (6, 3), (7, 2), (7, 3), (8, 3), (9, 4)])
    def test_complete_graph_falls_back(self, sparse_first, n, k):
        # mu = 2(n - 1) has multiplicity C(n, 2) - n, beyond every block that fits at this order
        tg = token_graph(complete_graph(n), k)
        value, mu, _ = token_alpha(tg)
        assert mu is None and _sparse_token_alpha(tg, _base(tg)) is None
        assert value == _dense(tg)
        assert abs(value - n) <= 1e-9 * n

    def test_one_group_hands_over_to_dense(self, monkeypatch, sparse_first):
        # star on 9 vertices, k = 4: mu = 2 has a multiplicity above 4, so the first block
        # converges to one group and no larger block is tried
        sizes = _spy_block_sizes(monkeypatch)
        tg = token_graph(star_graph(8), 4)
        value, mu, _ = token_alpha(tg)
        assert sizes == [4] and mu is None
        assert value == _dense(tg)
        assert _sparse_token_alpha(tg, _base(tg)) is None

    def test_unconverged_block_grows(self, monkeypatch):
        # the block of 4 is cut short, so its residuals fail and a block of 8 decides
        sizes = _spy_block_sizes(monkeypatch, short={4})
        tg = token_graph(GNP12, 5)
        value, mu, _ = _sparse_token_alpha(tg, _base(tg))
        assert sizes == [4, 8] and mu is not None and _agrees(tg, value)

    def test_no_convergence_falls_back_to_dense(self, monkeypatch, sparse_first):
        monkeypatch.setattr(spectra, "SPARSE_MAXITER", 1)
        tg = token_graph(GNP12, 5)
        value, mu, _ = token_alpha(tg)
        assert mu is None and _sparse_token_alpha(tg, _base(tg)) is None
        assert value == _dense(tg)

    def test_fallback_that_does_not_fit_raises(self, monkeypatch, sparse_first):
        tg = token_graph(GNP12, 4)  # N = 495
        dense_need = spectra.VALUES_BYTES_PER_N2 * tg.graph.n ** 2
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", dense_need - 1)
        assert token_alpha(tg)[1] is not None
        monkeypatch.setattr(spectra, "SPARSE_MAXITER", 1)
        assert _sparse_token_alpha(tg, _base(tg)) is None
        with pytest.raises(CapExceededError, match="dense Laplacian route at N = 495"):
            token_alpha(tg)

    def test_memory_estimate_refuses_before_allocating(self, monkeypatch):
        tg = token_graph(GNP12, 4)
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", 10**6)
        with pytest.raises(CapExceededError, match="sparse route at N = 495"):
            _sparse_token_alpha(tg, _base(tg))

    def test_same_result_on_repeat(self):
        tg = token_graph(GNP12, 4)
        assert _sparse_token_alpha(tg, _base(tg)) == _sparse_token_alpha(tg, _base(tg))


class TestSparseLaplacian:
    def test_matches_dense(self):
        for g in [*family_corpus(7), GNP12, Graph(4, [(0, 1)])]:
            L = sparse_laplacian(g)
            assert L.format == "csr"
            assert np.array_equal(L.toarray(), laplacian(g))


class TestTokenAlpha:
    def test_dense_below_threshold_is_bitwise(self):
        for g, k in [(GNP12, 4), (path_graph(9), 3), (cycle_graph(8), 4)]:
            tg = token_graph(g, k)
            assert tg.graph.n < spectra.SPARSE_MIN_ORDER
            assert token_alpha(tg) == (_dense(tg), None, None)

    def test_sparse_from_threshold(self, monkeypatch):
        tg = token_graph(GNP12, 4)
        monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", tg.graph.n)
        assert token_alpha(tg) == _sparse_token_alpha(tg, _base(tg))
        assert token_alpha(tg)[1] is not None

    def test_certificates_name_mu_only_from_the_sparse_route(self, monkeypatch):
        g = random_corpus(1, n_range=(10, 10), seed=4)[0]
        dense = check_alpha_token_equality(g, 4)
        assert "alpha_complement" not in dense.witnesses
        pendant = check_pendant_bound(g, 4)
        assert not any(key.startswith("alpha_complement") for key in pendant.witnesses)
        monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", 100)
        monkeypatch.setattr(spectra, "PROOF_FIRST_MAX_ORDER", 100)  # the proof follows the sparse route
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


def test_package_import_leaves_scipy_out():
    # scipy is imported inside the sparse route only, so it never reaches start-up time
    code = "import sys, token_spectra.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    path = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
