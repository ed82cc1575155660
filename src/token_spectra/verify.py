"""Instance checks that turn spectral statements into machine-readable verdicts.

Every check computes both sides of one identity or implication on a
concrete graph and returns a Certificate: verdict, the quantities
compared, and the tolerances used. Mathematical failure is data (verdict
"fail"), never an exception; only malformed inputs raise. A check whose
hypothesis does not hold on the instance reports "precondition_unmet"
instead of claiming anything.

Vertices in witnesses are reported both 0-indexed (internal labels) and
1-indexed, since figure labels conventionally start at 1.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import combinations
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from .exact import poly_divides, token_char_polys
from .graphs import (
    Graph,
    GraphError,
    KiteSpec,
    add_edges,
    build_bipartite_extension,
    build_cut_clique_join,
    build_kite,
    complete_bipartite_graph,
    cycle_graph,
    path_graph,
    remove_edges,
)
from .spectra import (
    PAIR_TOL,
    Spectrum,
    algebraic_connectivity,
    checked_lift,
    eig_sym,
    eigenspace_has_equal_pair,
    fiedler_value,
    laplacian,
    laplacian_values,
    submatrix_values,
    theta,
    token_alpha,
)
from .tokens import DEFAULT_CAP, token_graph, token_order

DEFAULT_ALPHA_TOL = 1e-7
CONTAIN_TOL = 1e-3  # how far a kite eigenvalue may move under U_j level edges
BRIDGE_TOL = 1e-9  # kite-head: submatrix eigenvalue against its closed form

PASS = "pass"
FAIL = "fail"
PRECONDITION_UNMET = "precondition_unmet"


@dataclass(frozen=True)
class Certificate:
    """Verdict of one theorem-instance check, with witnesses and tolerances."""

    check_id: str
    graph: dict
    verdict: str
    witnesses: dict
    tolerances: dict
    runtime_ms: int

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def to_json_dict(self) -> dict:
        return asdict(self)


def _graph_field(g: Graph | None) -> dict:
    if g is None:
        return {"n": 0, "edges_hash": ""}
    return {"n": g.n, "edges_hash": g.fingerprint()}


def _finish(check_id, g, verdict, witnesses, tolerances, t0) -> Certificate:
    return Certificate(
        check_id=check_id,
        graph=_graph_field(g),
        verdict=verdict,
        witnesses=witnesses,
        tolerances=tolerances,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _pair_witness(u: int, v: int) -> dict:
    return {"u": u, "v": v, "u_one_based": u + 1, "v_one_based": v + 1}


def _token_alpha(g: Graph, k: int, cap: int, tol: float, target: float | None = None,
                 spectrum: Spectrum | None = None) -> tuple[float, float, dict]:
    """(alpha(G), *token_alpha(F_k(G), spectrum, target +- tol * max(1, |target|))), spectrum the one
    eigensolve of L(G), made here unless given; target is alpha(G) unless given."""
    tg = token_graph(g, k, cap=cap)
    spectrum = eig_sym(laplacian(g).astype(float)) if spectrum is None else spectrum
    a = fiedler_value(spectrum.values)
    target = a if target is None else target
    half = tol * max(1.0, abs(target))
    return (a, *token_alpha(tg, spectrum, target - half, target + half))


# ---------------------------------------------------------------------------
# token-graph checks


def check_spectral_containment(
    g: Graph,
    k: int,
    mode: str = "exact",
    cap: int = DEFAULT_CAP,
) -> Certificate:
    """Every Laplacian eigenvalue of g appears in the spectrum of its k-token graph.

    Exact mode decides divisibility of characteristic polynomials over the
    integers. Float mode solves nothing: spectra.checked_lift checks
    L(F_k) B = B L(G) and B^T B = C(n-2, k-1) I + C(n-2, k-2) J exactly, so
    spec(G) lies in spec(F_k) with multiplicity and no tolerance enters.
    NumericalError where either identity fails, so unmatched is always empty.
    """
    if mode not in ("exact", "float"):
        raise GraphError(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    witnesses: dict = {"k": k, "token_vertices": token_order(g.n, k, cap), "mode": mode}
    if mode == "exact":
        p, q = token_char_polys(g, k, cap)
        divides, result = poly_divides(p, q)
        if divides:
            witnesses["quotient_degree"] = result.degree
            witnesses["quotient"] = result.to_json_list()
        else:
            witnesses["remainder"] = result.to_json_list()
        verdict = PASS if divides else FAIL
        return _finish("containment", g, verdict, witnesses, {"mode": "exact"}, t0)

    checked_lift(token_graph(g, k, cap=cap))
    witnesses["unmatched"] = []
    return _finish("containment", g, PASS, witnesses, {}, t0)


def check_alpha_token_equality(
    g: Graph, k: int, tol: float = DEFAULT_ALPHA_TOL, cap: int = DEFAULT_CAP
) -> Certificate:
    """Algebraic connectivity of g equals that of its k-token graph."""
    t0 = time.perf_counter()
    a_base, a_token, fields = _token_alpha(g, k, cap, tol)
    ok = abs(a_token - a_base) <= tol * max(1.0, abs(a_base))
    witnesses = {
        "k": k,
        "alpha_base": a_base,
        "alpha_token": a_token,
        "difference": a_token - a_base,
        **fields,
    }
    return _finish("alpha-token", g, PASS if ok else FAIL, witnesses, {"tol": tol}, t0)


# ---------------------------------------------------------------------------
# edge perturbation checks


def check_edge_add_alpha_iff(
    g: Graph,
    u: int,
    v: int,
    tol: float = DEFAULT_ALPHA_TOL,
) -> Certificate:
    """Adding uv preserves the algebraic connectivity iff some vector in the
    full Fiedler eigenspace takes equal values at u and v.

    Both sides are computed independently and the check passes when they
    agree, validating the equivalence on this instance in both directions.
    """
    if g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) already present")
    t0 = time.perf_counter()
    gp = add_edges(g, [(u, v)])  # refuses a loop or an out-of-range pair before any solve
    a0, basis = algebraic_connectivity(g)
    a1 = fiedler_value(laplacian_values(gp))
    lhs = abs(a1 - a0) <= tol * max(1.0, abs(a0))
    rhs, wit = eigenspace_has_equal_pair(basis, (u, v))
    witnesses = {
        "pair": _pair_witness(u, v),
        "alpha_before": a0,
        "alpha_after": a1,
        "alpha_preserved": lhs,
        "equal_pair_exists": rhs,
        "eigenspace_dim": int(basis.shape[1]),
    }
    if wit is not None:
        witnesses["witness_vector"] = [float(x) for x in wit]
    verdict = PASS if lhs == rhs else FAIL
    return _finish(
        "edge-add-iff", g, verdict, witnesses, {"tol": tol, "pair_tol": PAIR_TOL}, t0
    )


def check_interlacing(g: Graph, u: int, v: int, tol: float = DEFAULT_ALPHA_TOL) -> Certificate:
    """Laplacian eigenvalues of g and g + uv interlace."""
    if g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) already present")
    t0 = time.perf_counter()
    gp = add_edges(g, [(u, v)])  # refuses a loop or an out-of-range pair before any solve
    w0 = laplacian_values(g)
    w1 = laplacian_values(gp)
    bound = tol * max(1.0, float(w1[-1]))
    violations = []
    for i in range(g.n):
        if w0[i] > w1[i] + bound:
            violations.append({"i": i, "kind": "lower", "before": float(w0[i]), "after": float(w1[i])})
        if i + 1 < g.n and w1[i] > w0[i + 1] + bound:
            violations.append({"i": i, "kind": "upper", "after": float(w1[i]), "next_before": float(w0[i + 1])})
    witnesses = {
        "pair": _pair_witness(u, v),
        "violations": violations,
        "spectrum_before": [float(x) for x in w0],
        "spectrum_after": [float(x) for x in w1],
    }
    verdict = PASS if not violations else FAIL
    return _finish("interlacing", g, verdict, witnesses, {"tol": tol}, t0)


def check_pendant_bound(
    g: Graph, k: int, tol: float = DEFAULT_ALPHA_TOL, cap: int = DEFAULT_CAP
) -> Certificate:
    """Attaching a pendant vertex raises the token algebraic connectivity by at most 1.

    The pendant is attached to vertex 0 so the instance is reproducible.
    Requires 2 <= k <= n/2 where n counts the pendant-augmented graph.
    Each token alpha is passed the interval around alpha of its own base
    graph, G or G + pendant, each solved once. At k = 2, F_1(G) is G, so
    alpha_token_km1 is alpha(G).
    """
    n_aug = g.n + 1
    if not (2 <= k <= n_aug / 2):
        raise GraphError(f"need 2 <= k <= {n_aug / 2} (augmented order / 2), got k={k}")
    t0 = time.perf_counter()
    token_order(n_aug, k, cap)  # the largest of the three token graphs, refused before any solve
    h = Graph(n_aug, g.edges + ((0, g.n),))
    spectrum = eig_sym(laplacian(g).astype(float))
    _, a_h, fields_h = _token_alpha(h, k, cap, tol)
    if k == 2:
        a_km1, fields_km1 = fiedler_value(spectrum.values), {}
    else:
        _, a_km1, fields_km1 = _token_alpha(g, k - 1, cap, tol, spectrum=spectrum)
    _, a_k, fields_k = _token_alpha(g, k, cap, tol, spectrum=spectrum)
    bound = min(a_km1 + 1.0, a_k + 1.0)
    ok = a_h <= bound + tol * max(1.0, bound)
    witnesses = {
        "k": k,
        "alpha_token_augmented": a_h,
        "alpha_token_km1": a_km1,
        "alpha_token_k": a_k,
        "bound": bound,
        "pendant_attached_to": _pair_witness(0, g.n),
    }
    # each mu of the sparse route, under its token graph's name; what the proof proved is not kept
    mus = {f"alpha_complement_{name}": fields["alpha_complement"] for name, fields in
           (("augmented", fields_h), ("km1", fields_km1), ("k", fields_k)) if "alpha_complement" in fields}
    witnesses.update(mus)
    if mus:
        witnesses["alpha_complement_least"] = "not certified"
    return _finish("pendant-bound", g, PASS if ok else FAIL, witnesses, {"tol": tol}, t0)


# ---------------------------------------------------------------------------
# kite machinery


def _validate_level_edges(
    spec: KiteSpec, edges: Iterable[tuple[int, int]], min_path: int
) -> list[tuple[int, int]]:
    # edges must join tail vertices on one level j, with path indices >= min_path
    where = {spec.label(i, j): (i, j) for i in range(1, spec.s + 1) for j in range(1, spec.r + 1)}
    out = []
    for u, v in edges:
        if u not in where or v not in where:
            raise GraphError(f"edge ({u}, {v}) is not between tail vertices")
        (iu, ju), (iv, jv) = where[u], where[v]
        if ju != jv:
            raise GraphError(f"edge ({u}, {v}) joins different tail levels {ju} and {jv}")
        if iu < min_path or iv < min_path:
            raise GraphError(
                f"edge ({u}, {v}) touches path {min(iu, iv)}, allowed paths start at {min_path}"
            )
        out.append((u, v))
    return out


def check_tail_edges_preserve_alpha(
    spec: KiteSpec,
    added_edges: Sequence[tuple[int, int]],
    tol: float = DEFAULT_ALPHA_TOL,
) -> Certificate:
    """Adding edges inside tail levels preserves alpha, provided alpha != theta_r.

    When alpha equals theta_r within tolerance the hypothesis fails and the
    verdict is precondition_unmet: no claim is made either way.
    """
    t0 = time.perf_counter()
    g = build_kite(spec)
    edges = _validate_level_edges(spec, added_edges, min_path=1)
    gp = add_edges(g, edges)  # refuses an edge given twice before any solve
    a0 = fiedler_value(laplacian_values(g))
    th = theta(spec.r, spec.r)
    witnesses = {
        "alpha": a0,
        "theta_r": th,
        "added_edges": [_pair_witness(u, v) for u, v in edges],
    }
    if _close(a0, th, tol):
        return _finish(
            "tail-edges", g, PRECONDITION_UNMET, witnesses, {"tol": tol}, t0
        )
    a1 = fiedler_value(laplacian_values(gp))
    witnesses["alpha_after"] = a1
    ok = abs(a1 - a0) <= tol * max(1.0, abs(a0))
    return _finish("tail-edges", g, PASS if ok else FAIL, witnesses, {"tol": tol}, t0)


def _head_submatrix_min_eig(head: Graph, root: int) -> float | None:
    """Smallest eigenvalue of the head Laplacian restricted away from the root, from
    spectra.submatrix_values.

    None for a single-vertex head: the submatrix is empty and every bound
    on its eigenvalues holds vacuously.
    """
    if head.n == 1:
        return None
    return float(submatrix_values(head, [[i for i in range(head.n) if i != root]])[0][0])


def check_kite_alpha_theta_iff(spec: KiteSpec, tol: float = DEFAULT_ALPHA_TOL) -> Certificate:
    """alpha equals theta_r exactly when the head submatrix eigenvalue is >= theta_r.

    Both sides are evaluated independently; the certificate passes iff they
    agree on this kite.
    """
    t0 = time.perf_counter()
    g = build_kite(spec)
    a = fiedler_value(laplacian_values(g))
    th = theta(spec.r, spec.r)
    lam = _head_submatrix_min_eig(spec.head, spec.root)
    lhs = _close(a, th, tol)
    rhs = True if lam is None else lam >= th - tol * max(1.0, th)
    witnesses = {
        "alpha": a,
        "theta_r": th,
        "alpha_equals_theta": lhs,
        "head_submatrix_min_eig": lam,
        "head_bound_holds": rhs,
    }
    verdict = PASS if lhs == rhs else FAIL
    return _finish("kite-iff", g, verdict, witnesses, {"tol": tol}, t0)


def _symmetrize(basis: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """S @ basis for the kite symmetrizer S, in O(N d): the identity off the
    levels (rows of levels), and on each level the mean of its rows."""
    img = basis.copy()
    img[levels] = basis[levels].mean(axis=1, keepdims=True)
    return img


def _symmetrizer_on_eigenspaces(spec_g: Spectrum, levels: np.ndarray, tol: float) -> tuple[bool, bool]:
    """Does the symmetrizer map every eigenspace into itself, with the tail coordinates of
    each eigenspace's largest image equal per level (row of levels); and is every image nonzero?"""
    stable = True
    some_nonzero_image = True
    for grp in spec_g.groups:
        basis = spec_g.vectors[:, grp]
        img = _symmetrize(basis, levels)
        # containment in the eigenspace: projection onto the complement vanishes
        out_of_space = img - basis @ (basis.T @ img)
        if np.abs(out_of_space).max() > tol * max(1.0, float(spec_g.values[-1])):
            stable = False
        norms = np.linalg.norm(img, axis=0)
        if norms.max() <= tol:
            some_nonzero_image = False
        tails = img[levels, int(np.argmax(norms))]
        if np.abs(tails - tails.mean(axis=1, keepdims=True)).max() > tol:
            stable = False
    return stable, some_nonzero_image


def check_symmetrizer_commutation(
    spec: KiteSpec,
    uj_edges: Sequence[tuple[int, int]] | None = None,
    tol: float = DEFAULT_ALPHA_TOL,
) -> Certificate:
    """The kite Laplacian commutes with its symmetrizer S, exactly.

    S and L are symmetric, so (S L)^T = L S, and S L = L S iff S L, formed
    by _symmetrize, is symmetric. Also verifies the consequences: S maps
    every eigenspace into itself with some nonzero image whose tail
    coordinates agree per level, and every distinct eigenvalue of the kite
    persists in the graph perturbed by edges inside the U_j levels (within
    CONTAIN_TOL).
    """
    t0 = time.perf_counter()
    g = build_kite(spec)
    if uj_edges is None:
        edges = [e for level in spec.levels() for e in combinations(level, 2)]
    else:
        edges = _validate_level_edges(spec, uj_edges, min_path=2)
    gp = add_edges(g, edges)  # refuses an edge given twice before any solve
    lap = laplacian(g).astype(float)
    levels = np.array(spec.levels())
    # each entry of S L is an integer or fl(integer / (s - 1)): equal exact values give
    # equal floats, and unequal ones differ by at least 1 / (s - 1), far above rounding
    img = _symmetrize(lap, levels)
    commutes = bool(np.array_equal(img, img.T))
    del img  # only the Laplacian stays alive through eigh

    spec_g = eig_sym(lap)
    del lap
    stable, some_nonzero_image = _symmetrizer_on_eigenspaces(spec_g, levels, tol)
    distinct = spec_g.distinct_values()
    del spec_g  # freed before the perturbed graph's eigensolve

    perturbed = laplacian_values(gp)
    # the nearest perturbed eigenvalue to each distinct one is a neighbour of its insertion point
    ends = np.clip(np.searchsorted(perturbed, distinct) - [[1], [0]], 0, g.n - 1)
    nearest = np.abs(np.array(distinct) - perturbed[ends]).min(axis=0)
    missing = [val for val, d in zip(distinct, nearest) if d > CONTAIN_TOL]

    witnesses = {
        "commutes_exactly": commutes,
        "eigenspaces_stable": stable,
        "nonzero_symmetrized_image": some_nonzero_image,
        "distinct_eigenvalues": distinct,
        "perturbed_spectrum": [float(x) for x in perturbed],
        "missing_eigenvalues": missing,
        "added_edges": [_pair_witness(u, v) for u, v in edges],
    }
    ok = commutes and stable and some_nonzero_image and not missing
    return _finish(
        "symmetrizer", g, PASS if ok else FAIL, witnesses,
        {"tol": tol, "contain_tol": CONTAIN_TOL}, t0,
    )


def check_kite_head_family(
    variant: str,
    s: int,
    r: int,
    h: int | None = None,
    h1: int | None = None,
    h2: int | None = None,
    root_side: int = 1,
    head_edges: Sequence[tuple[int, int]] = (),
    tail_edges: Sequence[tuple[int, int]] = (),
    k: int = 2,
    tol: float = DEFAULT_ALPHA_TOL,
    cap: int = DEFAULT_CAP,
) -> Certificate:
    """Kites with cycle or complete-bipartite heads keep alpha on their token graphs.

    Each variant gives a head, its root, a hypothesis and a reference value
    for the bridge: the least eigenvalue of the head Laplacian with the root
    deleted must lie within BRIDGE_TOL of the reference. cycle variant: head
    C_h rooted at 0, hypothesis h <= 2r + 1, reference lambda_2(P_h), since
    x * charpoly(L(C_h) less a vertex) == charpoly(L(P_h)). bipartite
    variant: head K_{h1,h2} rooted in side root_side, reference
    (h - sqrt(h^2 - 4m)) / 2 where m is the size of the side opposite the
    root, and the hypothesis asks that value to be >= theta_r. Extra edges
    are refused before any solve. The perturbed kite (optional extra head
    edges plus U_j level edges) must then satisfy alpha(G+) == alpha(F_k(G+)).
    """
    t0 = time.perf_counter()
    if variant == "cycle":
        if h is None:
            raise GraphError("cycle variant needs h")
        head = cycle_graph(h)
        root = 0
        witnesses = {"h": h}

        def bridge(th: float) -> tuple[str, float, bool]:
            return "path_lambda2", float(laplacian_values(path_graph(h))[1]), h <= 2 * r + 1
    elif variant == "bipartite":
        if h1 is None or h2 is None:
            raise GraphError("bipartite variant needs h1 and h2")
        if root_side not in (1, 2):
            raise GraphError("root_side must be 1 or 2")
        head = complete_bipartite_graph(h1, h2)
        root = 0 if root_side == 1 else h1
        witnesses = {
            "h1": h1,
            "h2": h2,
            "root_side": root_side,
        }

        def bridge(th: float) -> tuple[str, float, bool]:
            h_total = h1 + h2
            opposite = h2 if root_side == 1 else h1
            closed_form = (h_total - sqrt(h_total * h_total - 4 * opposite)) / 2.0
            return "closed_form", closed_form, closed_form >= th - tol * max(1.0, th)
    else:
        raise GraphError(f"unknown variant {variant!r}")

    spec = KiteSpec(head=head, root=root, s=s, r=r)
    g = build_kite(spec)
    extra = _validate_level_edges(spec, tail_edges, min_path=2)
    for u, v in head_edges:
        if not (0 <= u < head.n and 0 <= v < head.n):
            raise GraphError(f"head edge ({u}, {v}) leaves the head")
        extra.append((u, v))
    gp = add_edges(g, extra) if extra else g  # refuses an edge given twice or already present
    th = theta(r, r)  # theta_r and each variant's bridge wait for the checks above: r >= 1, and no solve first
    name, reference, hypothesis = bridge(th)
    lam = _head_submatrix_min_eig(head, root)
    bridge_ok = abs(lam - reference) <= BRIDGE_TOL
    witnesses.update({"head_submatrix_min_eig": lam, name: reference, "theta_r": th})
    if not hypothesis:
        return _finish("kite-head", g, PRECONDITION_UNMET, witnesses, {"tol": tol}, t0)

    a_gp, a_token, fields = _token_alpha(gp, k, cap, tol)
    alpha_ok = abs(a_token - a_gp) <= tol * max(1.0, abs(a_gp))
    witnesses.update(
        {
            "alpha_perturbed": a_gp,
            "alpha_token": a_token,
            "k": k,
            "added_edges": [_pair_witness(u, v) for u, v in extra],
            **fields,
        }
    )
    verdict = PASS if (bridge_ok and alpha_ok) else FAIL
    witnesses["bridge_ok"] = bridge_ok
    return _finish("kite-head", g, verdict, witnesses, {"tol": tol, "num_tol": BRIDGE_TOL}, t0)


def check_cut_vertex_split(g: Graph, cut_vertex: int, tol: float = DEFAULT_ALPHA_TOL) -> Certificate:
    """At a cut vertex, equal smallest submatrix eigenvalues pin down alpha.

    The Laplacian restricted to each component of g minus the cut vertex
    gives one eigenvalue per component, each block's least, all from one
    spectra.submatrix_values call; if the two smallest agree, alpha
    must equal them. Otherwise the verdict is precondition_unmet and the
    dichotomy alpha < second-smallest is asserted instead.
    """
    if not (0 <= cut_vertex < g.n):
        raise GraphError(f"vertex {cut_vertex} out of range")
    t0 = time.perf_counter()
    sub_all = Graph(g.n, g.edge_array[(g.edge_array != cut_vertex).all(axis=1)])
    comps = [c for c in sub_all.components() if c != (cut_vertex,)]
    if len(comps) < 2:
        raise GraphError(f"vertex {cut_vertex} is not a cut vertex")
    lam1s = sorted(float(values[0]) for values in submatrix_values(g, comps))
    a = fiedler_value(laplacian_values(g))
    witnesses = {
        "cut_vertex": {"index": cut_vertex, "one_based": cut_vertex + 1},
        "alpha": a,
        "component_min_eigs": lam1s,
    }
    if _close(lam1s[0], lam1s[1], tol):
        ok = _close(a, lam1s[0], tol)
        return _finish("cut-vertex-split", g, PASS if ok else FAIL, witnesses, {"tol": tol}, t0)
    dichotomy = a <= lam1s[1] + tol * max(1.0, lam1s[1])
    witnesses["dichotomy_holds"] = dichotomy
    verdict = PRECONDITION_UNMET if dichotomy else FAIL
    return _finish("cut-vertex-split", g, verdict, witnesses, {"tol": tol}, t0)


# ---------------------------------------------------------------------------
# bipartite extensions and cut cliques


def check_bipartite_extension(
    n1: int,
    n2: int,
    mode: str,
    k: int = 2,
    x_edges: Sequence[tuple[int, int]] = (),
    tol: float = DEFAULT_ALPHA_TOL,
    cap: int = DEFAULT_CAP,
) -> Certificate:
    """Extended complete bipartite graphs keep alpha on their token graphs.

    Adding edges inside the smaller side leaves alpha at n1; completing the
    larger side leaves it at n2.
    """
    t0 = time.perf_counter()
    g = build_bipartite_extension(n1, n2, mode, x_edges)
    expected = float(n1 if mode == "plus_x" else n2)
    a, a_token, fields = _token_alpha(g, k, cap, tol, expected)
    ok = _close(a, expected, tol) and _close(a_token, expected, tol)
    witnesses = {
        "mode": mode,
        "k": k,
        "expected": expected,
        "alpha": a,
        "alpha_token": a_token,
        **fields,
    }
    return _finish("bipartite-ext", g, PASS if ok else FAIL, witnesses, {"tol": tol}, t0)


def check_cut_clique(
    r: int,
    components: Sequence[Graph],
    k: int = 2,
    removed_join_edges: Sequence[tuple[int, int]] = (),
    tol: float = DEFAULT_ALPHA_TOL,
    cap: int = DEFAULT_CAP,
) -> Certificate:
    """A cut clique bounds alpha by r; a full join attains it, on the token graph too.

    With the full join, alpha(G) = alpha(F_k(G)) = r is asserted. With join
    edges removed the inequality is strict, but no quantitative margin is
    available, so only alpha <= r is asserted and the gap is recorded.
    """
    t0 = time.perf_counter()
    g = build_cut_clique_join(r, components)
    for u, v in removed_join_edges:
        if not (min(u, v) < r <= max(u, v)):
            raise GraphError(f"({u}, {v}) is not a clique-component join edge")
    full_join = not removed_join_edges
    if full_join:
        a, a_token, fields = _token_alpha(g, k, cap, tol, float(r))
    else:
        g = remove_edges(g, removed_join_edges)
        a = fiedler_value(laplacian_values(g))
    bound_ok = a <= r + tol * max(1.0, float(r))
    witnesses = {
        "r": r,
        "k": k,
        "n": g.n,
        "alpha": a,
        "full_join": full_join,
        "bound_alpha_le_r": bound_ok,
    }
    if not full_join:
        witnesses["gap"] = float(r) - a
        verdict = PASS if bound_ok else FAIL
        return _finish("cut-clique", g, verdict, witnesses, {"tol": tol}, t0)
    witnesses.update(alpha_token=a_token, **fields)
    ok = bound_ok and _close(a, float(r), tol) and _close(a_token, float(r), tol)
    return _finish("cut-clique", g, PASS if ok else FAIL, witnesses, {"tol": tol}, t0)


# ---------------------------------------------------------------------------
# closed-form table


def check_theta_table(r: int, tol: float = 1e-9) -> Certificate:
    """Closed-form theta values match the pendant-path submatrix spectrum.

    theta(r, k) for k = r..1 must equal the ascending eigenvalues of the
    path principal submatrix elementwise within tol.
    """
    if r < 1:
        raise GraphError(f"need r >= 1, got {r}")
    t0 = time.perf_counter()
    (eigs,) = submatrix_values(path_graph(r + 1), [range(1, r + 1)])
    closed = [theta(r, k) for k in range(r, 0, -1)]
    err = max(abs(float(e) - c) for e, c in zip(eigs, closed))
    witnesses = {
        "r": r,
        "closed_form": closed,
        "submatrix_eigs": [float(x) for x in eigs],
        "max_error": err,
    }
    verdict = PASS if err <= tol else FAIL
    return _finish("theta-table", None, verdict, witnesses, {"tol": tol}, t0)
