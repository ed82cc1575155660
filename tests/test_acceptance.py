"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every frozen constant below was independently recomputed before being
pinned: closed forms where they exist, eigen-equation consistency for
vectors, exact integer arithmetic for polynomial identities.
"""

import random
import time
from itertools import combinations

import numpy as np

from token_spectra.exact import IntPoly, char_poly, poly_divides
from token_spectra.graphs import (
    Graph,
    KiteSpec,
    add_edges,
    build_bipartite_extension,
    build_kite,
    complete_graph,
    path_graph,
    random_connected_gnp,
    remove_edges,
)
from token_spectra.spectra import (
    algebraic_connectivity,
    eig_sym,
    eigenspace_has_equal_pair,
    laplacian,
    theta,
)
from token_spectra.tokens import token_graph
from token_spectra.verify import (
    check_cut_clique,
    check_edge_add_alpha_iff,
    check_interlacing,
    check_pendant_bound,
    check_spectral_containment,
)

from helpers import (
    CONNECTED_CLASS_COUNTS,
    SubsetCodec,
    binomial_matrix,
    build_kite_symmetrizer,
    connected_class_representatives,
    poly_pow,
    principal_submatrix,
    x_minus,
)

Y_TREE = Graph(5, [(0, 2), (1, 2), (2, 3), (3, 4)])

# Fiedler direction of the Y-shaped tree, normalized to last entry 1;
# each entry is pinned by the eigen-equations and the zero-sum property.
Y_FIEDLER_DIRECTION = np.array([-0.59696828, -0.59696828, -0.28725774, 0.48119430, 1.0])

THETA_TABLE = (1.0, 0.3820, 0.1981, 0.1206, 0.0810, 0.0581, 0.0437, 0.0341, 0.0273, 0.0223)


def _report(num: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {label}: PASS{suffix}")


def test_criterion_01_y_tree_alpha_and_fiedler_direction():
    t0 = time.perf_counter()
    alpha, basis = algebraic_connectivity(Y_TREE)
    elapsed = time.perf_counter() - t0
    assert abs(alpha - 0.5188) <= 5e-5
    assert basis.shape[1] == 1
    v = basis[:, 0]
    ref = Y_FIEDLER_DIRECTION / np.linalg.norm(Y_FIEDLER_DIRECTION)
    cosine = abs(float(v @ ref))
    assert cosine >= 1 - 1e-6
    assert elapsed < 1.0
    _report(1, "tree alpha and Fiedler direction", f"alpha={alpha:.6f} cosine={cosine:.9f}")


def test_criterion_02_token_alpha_equality_of_extended_tree():
    t0 = time.perf_counter()
    alpha_y, _ = algebraic_connectivity(Y_TREE)
    extended = add_edges(Y_TREE, [(0, 1)])
    alpha_ext, _ = algebraic_connectivity(extended)
    alpha_token, _ = algebraic_connectivity(token_graph(extended, 2).graph)
    elapsed = time.perf_counter() - t0
    scale = max(1.0, abs(alpha_y))
    assert abs(alpha_ext - alpha_y) <= 1e-7 * scale
    assert abs(alpha_token - alpha_ext) <= 1e-7 * scale
    assert elapsed < 1.0
    _report(2, "token alpha equality after edge addition", f"alpha={alpha_token:.6f}")


def test_criterion_03_theta_table_reproduction():
    worst_table = 0.0
    worst_submatrix = 0.0
    for r in range(1, 11):
        value = theta(r, r)
        worst_table = max(worst_table, abs(value - THETA_TABLE[r - 1]))
        assert abs(value - THETA_TABLE[r - 1]) <= 5e-5
        sub = principal_submatrix(laplacian(path_graph(r + 1)), range(1, r + 1))
        lam1 = float(eig_sym(sub).values[0])
        worst_submatrix = max(worst_submatrix, abs(value - lam1))
        assert abs(value - lam1) <= 1e-9
    _report(3, "closed-form table r=1..10",
            f"max table err={worst_table:.2e}, max submatrix err={worst_submatrix:.2e}")


def test_criterion_04_triangle_head_kite_counterexample_values():
    spec = KiteSpec(head=complete_graph(3), root=0, s=3, r=3)
    g = build_kite(spec)
    level1 = (spec.label(1, 1), spec.label(3, 1))
    level3 = (spec.label(1, 3), spec.label(2, 3))
    g_plus = add_edges(g, [level1, level3])
    alpha_plus, _ = algebraic_connectivity(g_plus)
    alpha_minus, _ = algebraic_connectivity(remove_edges(g_plus, [level3]))
    assert abs(alpha_plus - 0.2679) <= 5e-5
    assert abs(alpha_minus - 0.1981) <= 5e-5
    _report(4, "perturbed triangle-head kite values",
            f"alpha+={alpha_plus:.6f}, alpha-={alpha_minus:.6f}")


def test_criterion_05_kite_symmetrizer_example():
    spec = KiteSpec(head=Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), root=0, s=3, r=3)
    kite = build_kite(spec)

    alpha, _ = algebraic_connectivity(kite)
    # alpha here is exactly theta_3: the head submatrix eigenvalue 0.586
    # clears the tail threshold
    assert abs(alpha - 0.19806) <= 5e-5
    assert abs(alpha - theta(3, 3)) <= 1e-9

    L = laplacian(kite)
    S2 = build_kite_symmetrizer(spec)  # 2S for s = 3
    assert np.array_equal(L @ S2, S2 @ L)

    # reference Fiedler vector and its symmetrized image, written in
    # level-major tail order: all level-1 vertices, then level 2, then 3
    y_reference = [0, 0, 0, 0, -0.44504, 0, 0.44504, -0.80193, 0, 0.80193, -1, 0, 1]
    x_reference = [0, 0, 0, 0, -0.44504, 0.22252, 0.22252,
                   -0.80193, 0.40096, 0.40096, -1, 0.5, 0.5]

    def to_path_major(vec):
        out = np.zeros(13)
        out[:4] = vec[:4]
        for i in range(1, 4):
            for j in range(1, 4):
                out[spec.label(i, j)] = vec[4 + (j - 1) * 3 + (i - 1)]
        return out

    y = to_path_major(y_reference)
    x_expected = to_path_major(x_reference)
    # y is a Fiedler vector up to its 5-decimal rounding
    assert np.abs(L @ y - theta(3, 3) * y).max() <= 5e-4
    x = (S2 @ y) / 2.0
    per_entry = np.abs(x - x_expected).max()
    assert per_entry <= 5e-5

    spec_g = eig_sym(L)
    g_plus = add_edges(kite, [(spec.label(2, j), spec.label(3, j)) for j in range(1, 4)])
    spec_plus = eig_sym(laplacian(g_plus))
    worst = 0.0
    for val in spec_g.distinct_values():
        nearest = min(abs(val - x) for x in spec_plus.values)
        worst = max(worst, nearest)
        assert nearest <= 1e-3
    _report(5, "kite symmetrizer example",
            f"alpha={alpha:.6f}, S.y err={per_entry:.2e}, containment err={worst:.2e}")


def test_criterion_06_perturbed_head_submatrix_values():
    head = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    spec = KiteSpec(head=head, root=0, s=2, r=3)
    kite = build_kite(spec)
    keep = range(1, 6)

    lam_head = float(eig_sym(principal_submatrix(laplacian(head), keep)).values[0])
    assert abs(lam_head - 0.284) <= 5e-4

    perturbed = add_edges(kite, [(0, 2), (0, 3), (2, 5), (3, 5)])
    lam_plus = float(eig_sym(principal_submatrix(laplacian(perturbed), keep)).values[0])
    assert abs(lam_plus - 0.747) <= 5e-4
    assert lam_plus > lam_head
    _report(6, "perturbed head submatrix eigenvalues",
            f"0.284 -> {lam_head:.6f}, 0.747 -> {lam_plus:.6f}")


def test_criterion_07_exact_containment_sweep():
    t0 = time.perf_counter()
    checked = 0
    for n in range(3, 7):
        reps = connected_class_representatives(n)
        assert len(reps) == CONNECTED_CLASS_COUNTS[n]
        for g in reps:
            for k in (2, 3):
                if k > g.n - 1:
                    continue
                cert = check_spectral_containment(g, k, mode="exact")
                assert cert.passed, (n, g.edges, k, cert.witnesses)
                checked += 1

    rng = random.Random(777)
    seen: set = set()
    while len(seen) < 200:
        g = random_connected_gnp(7, rng.uniform(0.25, 0.75), rng)
        if g.edges in seen:
            continue
        seen.add(g.edges)
        for k in (2, 3):
            cert = check_spectral_containment(g, k, mode="exact")
            assert cert.passed, (g.edges, k, cert.witnesses)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _report(7, "exact containment sweep", f"{checked} divisibility checks in {elapsed:.1f}s")


def test_criterion_08_completed_side_bipartite_char_polys():
    count = 0
    for n1 in range(2, 6):
        for n2 in range(n1, 6):
            n = n1 + n2
            gx = build_bipartite_extension(
                n1, n2, "plus_x", list(combinations(range(n1), 2))
            )
            expected_x = (
                IntPoly((0, 1)) * poly_pow(x_minus(n1), n2 - 1) * poly_pow(x_minus(n), n1)
            )
            assert char_poly(laplacian(gx)) == expected_x
            gy = build_bipartite_extension(n1, n2, "star_y")
            expected_y = (
                IntPoly((0, 1)) * poly_pow(x_minus(n2), n1 - 1) * poly_pow(x_minus(n), n2)
            )
            assert char_poly(laplacian(gy)) == expected_y
            count += 2
    _report(8, "closed-form bipartite spectra", f"{count} exact polynomial identities")


def test_criterion_09_cut_clique_suite():
    menus = {
        "singletons": lambda r: [complete_graph(1)] * max(2, 5 - r),
        "pairs": lambda r: [complete_graph(2), complete_graph(2)],
        "mixed_paths": lambda r: [path_graph(2), path_graph(3)],
    }
    results = []
    for r in (1, 2, 3):
        for name, make in menus.items():
            cert = check_cut_clique(r, make(r), k=2)
            assert cert.passed, (r, name, cert.witnesses)
            assert abs(cert.witnesses["alpha"] - r) <= 1e-7 * max(1, r)
            assert abs(cert.witnesses["alpha_token"] - r) <= 1e-7 * max(1, r)
            results.append((r, name))
    _report(9, "cut-clique joins", f"{len(results)} instances, r in 1..3")


def test_criterion_10_random_property_suites():
    t0 = time.perf_counter()
    instances = 500

    def random_graph(rng, lo=4, hi=9):
        return random_connected_gnp(rng.randint(lo, hi), rng.uniform(0.3, 0.7), rng)

    def random_non_edge(rng, g):
        non_edges = [
            (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
        ]
        return rng.choice(non_edges) if non_edges else None

    rng = random.Random(3001)
    done = 0
    while done < instances:
        g = random_graph(rng, hi=10)
        pair = random_non_edge(rng, g)
        if pair is None:
            continue
        assert check_interlacing(g, *pair).passed
        done += 1

    rng = random.Random(3002)
    done = 0
    while done < instances:
        g = random_graph(rng)
        pair = random_non_edge(rng, g)
        if pair is None:
            continue
        assert check_edge_add_alpha_iff(g, *pair).passed
        done += 1

    # eigenvalue transfer under edge toggles, across the whole spectrum
    rng = random.Random(3003)
    done = 0
    while done < instances:
        g = random_graph(rng, lo=4, hi=8)
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        spec = eig_sym(laplacian(g))
        toggled = (
            remove_edges(g, [(u, v)]) if g.has_edge(u, v) else add_edges(g, [(u, v)])
        )
        w2 = eig_sym(laplacian(toggled)).values
        for value, grp in zip(spec.distinct_values(), spec.groups):
            ok, _ = eigenspace_has_equal_pair(spec.vectors[:, grp], (u, v))
            if ok and done < instances:
                nearest = min(abs(value - x) for x in w2)
                assert nearest <= 1e-6 * max(1.0, abs(value))
                done += 1

    rng = random.Random(3004)
    done = 0
    while done < instances:
        g = random_graph(rng, lo=4, hi=8)
        k = 2 if g.n < 6 else rng.choice((2, 3))
        assert check_pendant_bound(g, k).passed
        done += 1

    # vectors annihilated by the projection restrict to zero-sum vectors on
    # both the subsets through a vertex and those avoiding it
    rng = random.Random(3005)
    np_rng = np.random.default_rng(3005)
    done = 0
    while done < instances:
        g = random_graph(rng, lo=4, hi=7)
        k = rng.choice([kk for kk in (2, 3) if kk <= g.n - 1])
        codec = SubsetCodec(g.n, k)
        B = binomial_matrix(codec)
        _, sing, vh = np.linalg.svd(B.T)
        rank = int((sing > 1e-10).sum())
        null_basis = vh[rank:]
        if null_basis.shape[0] == 0:
            continue
        w = null_basis.T @ np_rng.standard_normal(null_basis.shape[0])
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            continue
        v = rng.randrange(g.n)
        through = sum(
            w[i] for i, s in enumerate(codec.subsets()) if v in s
        )
        avoiding = sum(
            w[i] for i, s in enumerate(codec.subsets()) if v not in s
        )
        assert abs(through) <= 1e-9 * norm * codec.size
        assert abs(avoiding) <= 1e-9 * norm * codec.size
        done += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(10, "random property suites", f"5 x {instances} instances in {elapsed:.1f}s")
