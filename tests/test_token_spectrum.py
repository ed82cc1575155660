"""The values-only route of float containment and of alpha(F_k) against the
full eigensolver and the exact route.

spectra.token_spectrum reads only eigenvalues of L(F_k) and certifies them
by lifting every eigenpair of L(G) through the membership matrix B; these
tests cross-check its values, its verdicts and its guard, and the alpha
that token_alpha's dense paths read from it.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from token_spectra import spectra, tokens
from token_spectra.graphs import parse_edge_list, path_graph
from token_spectra.spectra import (
    NumericalError,
    Spectrum,
    algebraic_connectivity,
    eig_sym,
    fiedler_value,
    laplacian,
    token_alpha,
    token_spectrum,
)
from token_spectra.tokens import CapExceededError, token_graph
from token_spectra.verify import check_spectral_containment

from helpers import connected_class_representatives, family_corpus

GNP12 = parse_edge_list((Path(__file__).parent / "data" / "gnp12.el").read_text())


@pytest.fixture(scope="module")
def corpus():
    return [g for n in range(2, 7) for g in connected_class_representatives(n)] + family_corpus(7)


def _base(g) -> Spectrum:
    return eig_sym(laplacian(g).astype(float))


def test_values_match_the_full_eigensolver(corpus):
    for g in corpus:
        for k in range(1, g.n):
            tg = token_graph(g, k)
            full = eig_sym(laplacian(tg.graph).astype(float)).values
            values = token_spectrum(tg, _base(g))
            bound = 1e-9 * max(1.0, float(full[-1]))
            assert np.abs(values - full).max() <= bound, (g.edges, k)


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


def test_every_lifted_eigenpair_is_checked():
    # one eigenvector of L(G) moved off its eigenspace by 1e-3 along the first vertex
    g = path_graph(6)
    tg = token_graph(g, 2)
    base = _base(g)
    assert token_spectrum(tg, base) is not None
    for i in range(g.n):
        vectors = base.vectors.copy()
        vectors[0, i] += 1e-3
        with pytest.raises(NumericalError, match="lifted residual"):
            token_spectrum(tg, Spectrum(base.values, vectors, base.groups))


class TestTokenAlpha:
    """token_alpha's two dense paths, below SPARSE_MIN_ORDER and on the sparse route's handover."""

    @pytest.fixture
    def handover(self, monkeypatch):
        # every token graph takes the sparse route, where LOBPCG fails at once and hands over to dense
        import scipy.sparse.linalg

        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("forced handover")

        monkeypatch.setattr(spectra, "SPARSE_MIN_ORDER", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", fails)

    def test_matches_the_full_eigensolver(self, corpus):
        for g in corpus:
            for k in range(1, g.n):
                tg = token_graph(g, k)
                full = eig_sym(laplacian(tg.graph).astype(float)).values
                value, mu = token_alpha(tg)
                assert mu is None
                assert abs(value - algebraic_connectivity(tg.graph)[0]) <= 1e-9 * max(1.0, float(full[-1]))

    def test_handover_reads_the_same_bits(self, handover):
        for g, k in [(GNP12, 3), (path_graph(7), 2), (path_graph(7), 3)]:
            tg = token_graph(g, k)
            assert token_alpha(tg) == (fiedler_value(token_spectrum(tg, _base(g))), None)

    @pytest.mark.parametrize("route", ["dense", "handover"])
    def test_corrupted_lift_raises(self, request, monkeypatch, route):
        if route == "handover":
            request.getfixturevalue("handover")
        real = tokens.lift
        monkeypatch.setattr(spectra, "lift", lambda n, k: real(n, k)[::-1])
        for k in (2, 3):
            tg = token_graph(GNP12, k)
            with pytest.raises(NumericalError, match="lifted residual .* exceeds bound"):
                token_alpha(tg)

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
        assert token_alpha(tg)[0] > 0
        assert orders == [GNP12.n]  # only L(G), whose eigenpairs certify the values of L(F_k)


class TestMemoryCharge:
    """The values-only route is charged VALUES_BYTES_PER_N2, not the eigenvector route's rate."""

    G, K, N = path_graph(14), 4, 1001

    def test_runs_between_the_two_rates(self, monkeypatch):
        assert spectra.VALUES_BYTES_PER_N2 < 30 < spectra.DENSE_BYTES_PER_N2
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", 30 * self.N ** 2)
        assert check_spectral_containment(self.G, self.K, mode="float").passed

    def test_refuses_below_its_rate_before_allocating(self, monkeypatch):
        monkeypatch.setattr(tokens, "PHYSICAL_MEMORY", spectra.VALUES_BYTES_PER_N2 * self.N ** 2 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match=f"dense Laplacian route at N = {self.N}"):
                check_spectral_containment(self.G, self.K, mode="float")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.N ** 2  # the int64 Laplacian alone would take 8 N^2
