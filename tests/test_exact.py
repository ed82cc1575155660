import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from token_spectra import exact, verify
from token_spectra.exact import (
    IntPoly,
    char_poly,
    poly_divides,
    token_char_polys,
    token_layers,
)
from token_spectra.graphs import (
    Graph,
    GraphError,
    build_bipartite_extension,
    build_cut_clique_join,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_gnp,
)
from token_spectra.spectra import laplacian
from token_spectra.tokens import DEFAULT_CAP, CapExceededError, token_graph
from token_spectra.verify import check_spectral_containment

from helpers import (
    ONE,
    closed_form_gstar_poly,
    connected_class_representatives,
    count_roots_in_interval,
    derivative,
    evaluate,
    family_corpus,
    from_json_list,
    full_route_containment,
    int_det,
    poly_add,
    poly_pow,
    poly_sub,
    principal_submatrix,
    random_corpus,
    reference_char_poly,
    x_minus,
)


class TestIntPoly:
    def test_canonical_form(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == (0,)
        assert IntPoly(()).coeffs == (0,)
        assert IntPoly.zero().degree == -1

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntPoly((1.5, 2))

    def test_arithmetic(self):
        p = IntPoly((1, 1))      # 1 + x
        q = IntPoly((-1, 1))     # -1 + x
        assert (p * q).coeffs == (-1, 0, 1)
        assert poly_add(p, q).coeffs == (0, 2)
        assert poly_sub(p, p).is_zero
        assert poly_pow(p, 3).coeffs == (1, 3, 3, 1)

    def test_evaluate_exact(self):
        p = IntPoly((0, -2, 1))
        assert evaluate(p, 2) == 0
        assert evaluate(p, Fraction(1, 2)) == Fraction(-3, 4)

    def test_derivative(self):
        assert derivative(IntPoly((5, 3, 0, 2))).coeffs == (3, 0, 6)

    def test_json_roundtrip(self):
        p = IntPoly((10**40, -3, 1))
        assert from_json_list(p.to_json_list()) == p


class TestCharPoly:
    def test_k2(self):
        assert char_poly(laplacian(complete_graph(2))) == IntPoly((0, -2, 1))

    def test_monic_and_degree(self):
        for g in family_corpus(7):
            p = char_poly(laplacian(g))
            assert p.is_monic
            assert p.degree == g.n
            assert evaluate(p, 0) == 0

    def test_completed_side_bipartite_spectra(self):
        # completing side X: eigenvalues {0, n1^(n2-1), n^(n1)}
        # completing side Y: eigenvalues {0, n2^(n1-1), n^(n2)}
        for n1, n2 in ((2, 2), (2, 3), (3, 4)):
            n = n1 + n2
            gx = build_bipartite_extension(
                n1, n2, "plus_x",
                [(a, b) for a in range(n1) for b in range(a + 1, n1)],
            )
            expected_x = IntPoly((0, 1)) * poly_pow(x_minus(n1), n2 - 1) * poly_pow(x_minus(n), n1)
            assert char_poly(laplacian(gx)) == expected_x
            gy = build_bipartite_extension(n1, n2, "star_y")
            expected_y = IntPoly((0, 1)) * poly_pow(x_minus(n2), n1 - 1) * poly_pow(x_minus(n), n2)
            assert char_poly(laplacian(gy)) == expected_y

    def test_small_join_factorization(self):
        g = build_cut_clique_join(1, [complete_graph(2), complete_graph(2)])
        expected = (
            IntPoly((0, 1)) * x_minus(1)
            * poly_pow(x_minus(3), 2) * x_minus(5)
        )
        assert char_poly(laplacian(g)) == expected

    def test_rejects_non_integer_matrix(self):
        with pytest.raises(ValueError):
            char_poly(np.array([[0.5, 0.0], [0.0, 0.5]]))

    def test_accepts_integral_float_matrix(self):
        assert char_poly(np.array([[1.0, -1.0], [-1.0, 1.0]])) == IntPoly((0, -2, 1))


def _token_laplacians(graphs, ks=(2, 3)):
    return [laplacian(token_graph(g, k).graph) for g in graphs for k in ks if k < g.n]


def _primes_for(m):
    a = exact._as_int_matrix(m)
    return exact._primes(exact._prime_bits(a.shape[0]), exact._coefficient_bound(a))


def _random_matrices(count, seed, lo=-9, hi=10):
    rng = np.random.default_rng(seed)
    return [rng.integers(lo, hi, size=(n, n)) for n in rng.integers(2, 12, size=count)]


# an entry below the subdiagonal is nonzero where the subdiagonal is zero,
# so the reduction must swap rows and columns in every prime
PIVOT_SWAP = np.array([[1, 2, 3, 4], [0, 5, 6, 7], [3, 8, 9, 1], [2, 4, 6, 8]])
# upper Hessenberg already, with a zero on the subdiagonal: nothing to eliminate
SPLIT_HESSENBERG = np.array([[1, 2, 3, 4], [5, 6, 7, 8], [0, 0, 9, 1], [0, 0, 2, 3]])
# a strictly upper triangular matrix conjugated by a unimodular one: nilpotent, not triangular
_S = np.array([[1, 0, 0, 0], [2, 1, 0, 0], [-1, 3, 1, 0], [4, -2, 5, 1]])
_S_INV = np.round(np.linalg.inv(_S)).astype(np.int64)
NILPOTENT = _S @ np.array([[0, 3, -1, 2], [0, 0, 4, 5], [0, 0, 0, -6], [0, 0, 0, 0]]) @ _S_INV
LARGE_ENTRIES = np.random.default_rng(41).integers(-10**6, 10**6, size=(9, 9))

EQUIVALENCE_CORPORA = {
    "class_token_laplacians": lambda: _token_laplacians(
        [g for n in range(2, 7) for g in connected_class_representatives(n)]),
    "family_laplacians": lambda: [laplacian(g) for g in family_corpus(7)],
    "family_token_laplacians": lambda: _token_laplacians(family_corpus(7)),
    "random_laplacians": lambda: [laplacian(g) for g in random_corpus(12, n_range=(4, 9), seed=42)],
    "principal_submatrices": lambda: [
        principal_submatrix(laplacian(g), range(i, g.n, 2))
        for g in family_corpus(7) + random_corpus(6, seed=43) for i in (0, 1)],
    "random_non_symmetric": lambda: _random_matrices(40, seed=44),
    "special": lambda: [
        PIVOT_SWAP, SPLIT_HESSENBERG, NILPOTENT, LARGE_ENTRIES,
        np.zeros((0, 0), dtype=np.int64), np.array([[-7]]), np.array([[0]]),
        np.zeros((5, 5), dtype=np.int64), np.eye(6, dtype=np.int64)],
}


class TestMatchesReference:
    """The multimodular char_poly against the Faddeev-LeVerrier oracle."""

    @pytest.mark.parametrize("corpus", sorted(EQUIVALENCE_CORPORA))
    def test_equals_faddeev_leverrier(self, corpus):
        mats = EQUIVALENCE_CORPORA[corpus]()
        assert mats
        for m in mats:
            assert char_poly(m) == reference_char_poly(m), m.tolist()

    def test_special_cases(self):
        assert char_poly(np.zeros((0, 0), dtype=np.int64)) == ONE
        assert char_poly(np.array([[-7]])) == x_minus(-7)
        assert char_poly(NILPOTENT) == IntPoly((0,) * 4 + (1,))
        assert np.any(NILPOTENT[np.tril_indices(4, -2)] != 0)
        blocks = char_poly(SPLIT_HESSENBERG[:2, :2]) * char_poly(SPLIT_HESSENBERG[2:, 2:])
        assert char_poly(SPLIT_HESSENBERG) == blocks

    def test_batched_matrices_of_mixed_order(self):
        # orders 0 to 56 share batches; 56 takes 28-bit primes, order 4 takes 30-bit ones
        mats = EQUIVALENCE_CORPORA["special"]() + _random_matrices(10, seed=50) + [
            laplacian(token_graph(complete_graph(8), 3).graph)]
        assert {exact._prime_bits(len(m)) for m in mats} >= {28, 30}
        assert exact.char_polys(mats) == [reference_char_poly(m) for m in mats]

    def test_large_entries_need_many_primes(self):
        assert len(_primes_for(LARGE_ENTRIES)) >= 5
        assert char_poly(LARGE_ENTRIES) == reference_char_poly(LARGE_ENTRIES)

    def test_entries_near_2_to_the_40_bound_rows_in_python_integers(self):
        # 3 * (2^40)^2 >= 2^63, so _coefficient_bound squares the rows in Python integers
        big = 1 << 40
        m = np.array([[big + 3, -big, 7], [-big, big - 5, -(big + 1)], [7, -(big + 1), big]], dtype=np.int64)
        assert 3 * int(np.abs(m).max()) ** 2 >= 1 << 63
        bound = math.prod(1 + math.isqrt(s) + (math.isqrt(s) ** 2 < s) for s in
                          (sum(int(x) ** 2 for x in row) for row in m.tolist()))
        assert exact._coefficient_bound(m) == bound
        assert char_poly(m) == reference_char_poly(m)

    def test_rejects_entries_beyond_int64(self):
        with pytest.raises(ValueError):
            char_poly(np.array([[2.0 ** 70]]))


def _sparse_matrices(count, seed):
    """Random integer matrices, mostly zero, so that pivots need swaps and columns get skipped."""
    rng = np.random.default_rng(seed)
    out = []
    for n in rng.integers(3, 40, size=count):
        m = rng.integers(-4, 5, size=(n, n))
        m[rng.random((n, n)) < 0.75] = 0
        out.append(m)
    return out


class TestHeldRows:
    """Row eliminations held back as a rank-t update give the same polynomial."""

    @pytest.mark.parametrize("defer", [1, 2, 3, 7, 32])
    @pytest.mark.parametrize("corpus", ["sparse", "random_non_symmetric", "special", "family_token_laplacians"])
    def test_equals_faddeev_leverrier(self, monkeypatch, defer, corpus):
        monkeypatch.setattr(exact, "_DEFER", defer)
        mats = _sparse_matrices(12, seed=46) if corpus == "sparse" else EQUIVALENCE_CORPORA[corpus]()
        for m in mats:
            assert char_poly(m) == reference_char_poly(m), m.tolist()

    def test_wide_matrices_hold_rows_by_default(self, monkeypatch):
        rng = np.random.default_rng(48)
        sparse = rng.integers(-3, 4, size=(120, 120)) * (rng.random((120, 120)) < 0.05)
        mats = [laplacian(token_graph(random_connected_gnp(9, 0.5, random.Random(47)), 4).graph),
                sparse, rng.integers(-3, 4, size=(100, 100))]
        held = [char_poly(m) for m in mats]
        monkeypatch.setattr(exact, "_DEFER", 1)
        assert held == [char_poly(m) for m in mats]


class TestMultimodularInvariants:
    @pytest.mark.parametrize("n", [1, 126, 2048, 2049, 200_000])
    def test_no_int64_overflow(self, n):
        primes = exact._primes(exact._prime_bits(n), 1 << 400)
        assert len(primes) > 1 and len(set(primes)) == len(primes)
        for p in primes:
            assert exact._is_prime(p)
            assert n * (p - 1) ** 2 < 1 << 63

    @pytest.mark.parametrize("m", [
        LARGE_ENTRIES, NILPOTENT, PIVOT_SWAP,
        laplacian(complete_graph(6)),
        laplacian(token_graph(complete_graph(7), 3).graph),
    ], ids=["large", "nilpotent", "pivot", "K6", "F3(K7)"])
    def test_prime_product_exceeds_twice_the_coefficients(self, m):
        largest = max(abs(c) for c in reference_char_poly(m).coeffs)
        assert exact._coefficient_bound(exact._as_int_matrix(m)) >= largest
        assert math.prod(_primes_for(m)) > 2 * largest

    def test_bound_rounds_each_row_norm_up(self):
        assert exact._coefficient_bound(np.array([[1, 1], [1, 1]])) == 9
        assert exact._coefficient_bound(np.array([[3, 4], [0, 0]])) == 6
        for m in _random_matrices(20, seed=45, lo=-10**6, hi=10**6):
            norms = np.linalg.norm(m.astype(float), axis=1)
            assert exact._coefficient_bound(m) >= math.prod(1 + norms) * (1 - 1e-9)

    def test_corrupted_residue_changes_the_output(self, monkeypatch):
        m = laplacian(token_graph(complete_graph(6), 3).graph)
        primes = _primes_for(m)
        assert len(primes) > 1
        expected = reference_char_poly(m)
        real = exact._char_poly_mod
        for target in primes:
            def corrupt(a, batch, target=target):
                out = real(a, batch)
                if target in batch:
                    i = batch.index(target)
                    out[i, 1] = (out[i, 1] + 1) % target
                return out

            monkeypatch.setattr(exact, "_char_poly_mod", corrupt)
            assert char_poly(m) != expected, target
        monkeypatch.setattr(exact, "_char_poly_mod", real)
        assert char_poly(m) == expected


class TestPolyDivides:
    def test_self_division(self):
        p = IntPoly((0, -2, 1))
        ok, quot = poly_divides(p, p)
        assert ok and quot == ONE

    def test_non_divisor_has_remainder_witness(self):
        ok, rem = poly_divides(IntPoly((0, -2, 1)), IntPoly((0, 0, 0, 1)))
        assert not ok and not rem.is_zero

    def test_token_containment_for_y(self, y_tree):
        p = char_poly(laplacian(y_tree))
        q = char_poly(laplacian(token_graph(y_tree, 2).graph))
        ok, quot = poly_divides(p, q)
        assert ok and quot.degree == 10 - 5

    def test_k4_token_quotient_degree(self):
        g = complete_graph(4)
        p = char_poly(laplacian(g))
        q = char_poly(laplacian(token_graph(g, 2).graph))
        ok, quot = poly_divides(p, q)
        assert ok and quot.degree == 2

    def test_k1_token_trivial(self):
        for g in family_corpus(6):
            p = char_poly(laplacian(g))
            q = char_poly(laplacian(token_graph(g, 1).graph))
            ok, quot = poly_divides(p, q)
            assert ok and quot == ONE

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            poly_divides(IntPoly.zero(), IntPoly((1, 1)))

    def test_division_consistency(self):
        p = IntPoly((2, 0, 1))
        q = IntPoly((1, 1)) * p
        ok, quot = poly_divides(p, q)
        assert ok and quot == IntPoly((1, 1))
        ok2, rem = poly_divides(p, poly_add(q, IntPoly((1,))))
        assert not ok2 and rem == IntPoly((1,))


    def test_exact_containment_fail_carries_the_remainder(self, monkeypatch, y_tree):
        # q = p (x^2 + 2) + (3 - 5x + x^4): p is monic of degree 5, so that quartic is the one remainder
        p = char_poly(laplacian(y_tree))
        remainder = IntPoly((3, -5, 0, 0, 1))
        monkeypatch.setattr(verify, "token_char_polys", lambda g, k, cap: (
            p, poly_add(p * IntPoly((2, 0, 1)), remainder)))
        cert = check_spectral_containment(y_tree, 2, mode="exact")
        assert cert.verdict == "fail"
        assert cert.witnesses["remainder"] == ["3", "-5", "0", "0", "1"]
        assert "quotient" not in cert.witnesses and "quotient_degree" not in cert.witnesses


class TestClosedFormJoinPolynomial:
    def test_smallest_case(self):
        assert closed_form_gstar_poly(1, 1, 1).coeffs == (0, 3, -4, 1)

    def test_2_2_1(self):
        expected = (
            IntPoly((0, 1)) * x_minus(1)
            * poly_pow(x_minus(3), 1) * poly_pow(x_minus(3), 1) * x_minus(5)
        )
        assert closed_form_gstar_poly(2, 2, 1) == expected

    def test_matches_constructed_join_on_grid(self):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                for r in range(1, 4):
                    g = build_cut_clique_join(r, [complete_graph(n1), complete_graph(n2)])
                    assert char_poly(laplacian(g)) == closed_form_gstar_poly(n1, n2, r)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            closed_form_gstar_poly(0, 1, 1)
        with pytest.raises(ValueError):
            closed_form_gstar_poly(1, 1, 0)


class TestCyclePathIdentity:
    def test_small_cases(self):
        # x * charpoly(L(C_h) less one vertex) == charpoly(L(P_h)) for every h >= 3: the bridge
        # of kite-head's cycle variant, which compares the submatrix with lambda_2(P_h)
        for h in range(3, 13):
            sub = principal_submatrix(laplacian(cycle_graph(h)), range(1, h))
            assert IntPoly((0, 1)) * char_poly(sub) == char_poly(laplacian(path_graph(h)))


class TestSpanningTreeCoefficient:
    def test_linear_coefficient_counts_spanning_trees(self):
        # coefficient of x is (-1)^(n-1) * n * (spanning tree count)
        for g in family_corpus(8) + random_corpus(6, n_range=(4, 9), seed=21):
            if not g.is_connected():
                continue
            p = char_poly(laplacian(g))
            cofactor = [row[1:] for row in laplacian(g).tolist()[1:]]
            trees = int_det(cofactor)
            assert p.coeffs[1] == (-1) ** (g.n - 1) * g.n * trees


class TestPathSpectrumFormula:
    def test_roots_match_cosine_values(self):
        for length in range(2, 10):
            p = char_poly(laplacian(path_graph(length)))
            for k in range(length):
                tau = 2.0 - 2.0 * math.cos(k * math.pi / length)
                assert count_roots_in_interval(p, tau - 1e-9, tau + 1e-9) == 1


class TestSturm:
    def test_counts_on_simple_poly(self):
        p = IntPoly((0, -2, 1))  # roots 0 and 2
        assert count_roots_in_interval(p, -1, 3) == 2
        assert count_roots_in_interval(p, Fraction(1, 2), 3) == 1
        assert count_roots_in_interval(p, 3, 10) == 0

    def test_counts_distinct_roots_with_multiplicity(self):
        p = poly_pow(x_minus(2), 3) * x_minus(5)
        assert count_roots_in_interval(p, 1, 3) == 1
        assert count_roots_in_interval(p, 1, 6) == 2

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            count_roots_in_interval(IntPoly.zero(), 0, 1)


class TestIntDet:
    def test_identity_and_singular(self):
        assert int_det([[1, 0], [0, 1]]) == 1
        assert int_det([[1, 1], [1, 1]]) == 0

    def test_needs_pivot_swap(self):
        assert int_det([[0, 1], [1, 0]]) == -1

    def test_matches_numpy_on_random_int_matrices(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            m = rng.integers(-4, 5, size=(6, 6))
            expected = round(float(np.linalg.det(m.astype(float))))
            assert int_det(m) == expected


LAYER_CORPORA = {
    # criterion 07's exhaustive corpus, every k
    "classes_n_le_6": lambda: [g for n in range(2, 7) for g in connected_class_representatives(n)],
    "families_7": lambda: family_corpus(7),
    "disconnected": lambda: [
        Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5))),
        Graph(7, ((0, 1), (1, 2), (2, 3), (4, 5))),
        Graph(5, ((0, 1), (2, 3))),
        Graph(4, ()),
    ],
    "random_8_9": lambda: random_corpus(6, n_range=(8, 9), seed=61),
}


class TestLayers:
    """charpoly(L(F_k)) as the product of the two-row Specht layers."""

    @pytest.mark.parametrize("corpus", sorted(LAYER_CORPORA))
    def test_product_equals_full_char_poly(self, corpus):
        graphs = LAYER_CORPORA[corpus]()
        assert graphs
        for g in graphs:
            for k in range(1, g.n):  # k and n - k, and the single layer at k = 1, n - 1
                p, q = token_char_polys(g, k)
                assert q == char_poly(laplacian(token_graph(g, k).graph)), (g.n, g.edges, k)
                assert p == char_poly(laplacian(g))

    def test_n10_k5(self):
        tg = token_graph(random_connected_gnp(10, 0.5, random.Random(105)), 5)
        assert tg.graph.n == 252
        assert token_char_polys(tg.base, 5)[1] == char_poly(laplacian(tg.graph))

    def test_dimensions(self):
        for n in range(2, 12):
            g = random_connected_gnp(n, 0.5, random.Random(n))
            for k in range(1, n):
                j = min(k, n - k)
                dims = [len(m) for m in token_layers(g, k)]
                assert dims == [math.comb(n, h) - math.comb(n, h - 1) for h in range(1, j + 1)]
                assert 1 + sum(dims) == math.comb(n, k)

    @pytest.mark.parametrize("g", family_corpus(8) + random_corpus(4, n_range=(6, 9), seed=62),
                             ids=lambda g: f"n{g.n}m{g.m}")
    def test_layers_do_not_depend_on_k(self, g):
        # M_h from F_h, and from F_(n-h) read in reversed colex order, as complementing
        # every subset maps one onto the other; token_layers gives it at every k
        direct = {}
        for h in range(1, g.n // 2 + 1):
            direct[h] = exact.layer_matrix(g.n, h, token_graph(g, h).graph.edge_array)
            other = token_graph(g, g.n - h).graph
            assert np.array_equal(exact.layer_matrix(g.n, h, other.n - 1 - other.edge_array), direct[h]), h
        for k in range(1, g.n):
            for h, m in enumerate(token_layers(g, k), start=1):
                assert np.array_equal(m, direct[h]), (k, h)

    @pytest.mark.parametrize("corpus", ["families_7", "disconnected", "random_8_9"])
    def test_trivial_and_first_layer_give_the_base_polynomial(self, corpus):
        for g in LAYER_CORPORA[corpus]():
            first = exact.layer_matrix(g.n, 1, g.edge_array)
            assert IntPoly((0, 1)) * char_poly(first) == char_poly(laplacian(g))

    def test_base_polynomial_is_not_taken_from_the_layers(self, monkeypatch):
        g = random_connected_gnp(7, 0.5, random.Random(71))
        real = exact.token_layers
        monkeypatch.setattr(exact, "token_layers", lambda g, k, cap: [m + 1 for m in real(g, k, cap)])
        p, q = token_char_polys(g, 3)
        assert p == char_poly(laplacian(g))
        assert not poly_divides(p, q)[0]

    def test_each_token_graph_is_built_once_and_never_past_n_over_2(self, monkeypatch):
        orders = []
        real = exact.token_graph
        monkeypatch.setattr(exact, "token_graph", lambda g, h, cap: orders.append(h) or real(g, h, cap))
        monkeypatch.setattr(verify, "token_graph", lambda *a, **kw: pytest.fail("the exact route built F_k"))
        for n in (8, 9):
            g = random_connected_gnp(n, 0.5, random.Random(90 + n))
            for k in range(1, n):
                orders.clear()
                assert check_spectral_containment(g, k).passed
                assert orders == list(range(2, min(k, n - k) + 1)), (n, k)

    @pytest.mark.parametrize("route", [token_layers, token_char_polys,
                                       lambda g, k, cap=DEFAULT_CAP: check_spectral_containment(g, k, cap=cap)])
    def test_refusals_where_no_token_graph_is_built(self, route):
        # at k = 1 and k = n - 1, j = 1 and only G itself is read
        g = path_graph(5)
        for k in (1, 4):
            with pytest.raises(CapExceededError, match="^token graph would have 5 vertices, cap is 4$"):
                route(g, k, 4)
        for k in (0, 5):
            with pytest.raises(GraphError, match=f"^need 1 <= k <= n-1, got n=5 k={k}$"):
                route(g, k)

    def test_k1_quotient_is_one(self):
        for g in family_corpus(6):
            for k in (1, g.n - 1):
                assert len(token_layers(g, k)) == 1
                cert = check_spectral_containment(g, k)
                assert cert.passed
                assert (cert.witnesses["quotient_degree"], cert.witnesses["quotient"]) == (0, ["1"])

    def test_polytabloids_are_memoized_read_only(self):
        first = exact._standard_polytabloids(7, 3)
        assert exact._standard_polytabloids(7, 3) is first
        for array in first:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        # a layer built from the memoized arrays equals one built on a fresh call
        exact._standard_polytabloids.cache_clear()
        edges = token_graph(complete_graph(7), 3).graph.edge_array
        fresh = exact.layer_matrix(7, 3, edges)
        assert np.array_equal(exact.layer_matrix(7, 3, edges), fresh)


def _corrupt_one_entry(monkeypatch, delta):
    real = exact._back_substitute

    def corrupt(upper, rhs, level):
        m = real(upper, rhs, level)
        m[len(m) // 2, len(m) // 3] += delta
        return m

    monkeypatch.setattr(exact, "_back_substitute", corrupt)


class TestLayerCertificate:
    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (7, 2), (7, 5), (9, 4)])
    def test_corrupted_layer_raises(self, monkeypatch, n, k):
        g = random_connected_gnp(n, 0.5, random.Random(n * k))
        assert check_spectral_containment(g, k).passed
        _corrupt_one_entry(monkeypatch, 1)
        with pytest.raises(AssertionError, match="L\\(F_h\\) K != K M_h"):
            check_spectral_containment(g, k)

    def test_overflow_guard(self, monkeypatch):
        _corrupt_one_entry(monkeypatch, 1 << 62)
        with pytest.raises(AssertionError, match="overflow"):
            token_layers(complete_graph(5), 2)

    def test_dimension_check(self, monkeypatch):
        real = exact._standard_polytabloids

        def one_short(n, h):
            level, rank, down, sign = real(n, h)
            return level[:-1], rank[:-1], down[:-1], sign

        monkeypatch.setattr(exact, "_standard_polytabloids", one_short)
        with pytest.raises(AssertionError, match="standard polytabloids"):
            token_layers(complete_graph(5), 2)

    @pytest.mark.parametrize("n,h", [(4, 1), (6, 2), (7, 3), (8, 4)])
    def test_unsigned_sums_leave_the_kernel_of_the_down_map(self, monkeypatch, n, h):
        real = exact._standard_polytabloids
        monkeypatch.setattr(exact, "_standard_polytabloids",
                            lambda n, h: (*real(n, h)[:3], np.ones(1 << h, dtype=np.int64)))
        edges = token_graph(complete_graph(n), h).graph.edge_array
        with pytest.raises(AssertionError, match="down map"):
            exact.layer_matrix(n, h, edges)

    @pytest.mark.parametrize("n,h", [(4, 1), (7, 3)])
    def test_negated_polytabloids_break_the_unit_diagonal(self, monkeypatch, n, h):
        real = exact._standard_polytabloids
        monkeypatch.setattr(exact, "_standard_polytabloids", lambda n, h: (*real(n, h)[:3], -real(n, h)[3]))
        edges = token_graph(complete_graph(n), h).graph.edge_array
        with pytest.raises(AssertionError, match="diagonal"):
            exact.layer_matrix(n, h, edges)

    @pytest.mark.parametrize("n,h", [(6, 2), (7, 3), (8, 4)])
    def test_a_repeated_polytabloid_breaks_the_triangle(self, monkeypatch, n, h):
        # the span is still invariant, and in the kernel of the down map, but one dimension short
        real = exact._standard_polytabloids

        def repeated(n, h):
            level, rank, down, sign = real(n, h)
            rank, down = rank.copy(), down.copy()  # real's arrays are memoized and read-only
            rank[-1], down[-1] = rank[0], down[0]
            return level, rank, down, sign

        monkeypatch.setattr(exact, "_standard_polytabloids", repeated)
        g = random_connected_gnp(n, 0.5, random.Random(n))
        with pytest.raises(AssertionError, match="standard sets"):
            exact.layer_matrix(n, h, token_graph(g, h).graph.edge_array)


class TestSameCertificatesAsTheFullRoute:
    def test_seeded_corpus(self):
        rng = random.Random(63)
        cases = [(random_connected_gnp(9, 0.5, rng), 4)]
        cases += [(g, k) for g in random_corpus(12, n_range=(4, 8), seed=64) for k in range(1, g.n)]
        cases += [(Graph(6, ((0, 1), (1, 2), (3, 4))), k) for k in range(1, 6)]
        for g, k in cases:
            cert = check_spectral_containment(g, k).to_json_dict()
            del cert["runtime_ms"]
            assert json.dumps(cert) == json.dumps(full_route_containment(g, k)), (g.edges, k)
