"""Shared test utilities: instance corpora, graph-class enumeration, and
reference routines that only the tests use (the per-edge canonical edge
tuple and depth-first components the graph type replaced, graph restrictions, the
Rayleigh quotient, fraction-free determinants, a closed-form join
polynomial, the colex subset codec with the per-edge token-graph loop
and the binomial lift built on it, the per-edge Laplacian and
per-eigenvalue grouping loops the spectra module replaced, the
Faddeev-LeVerrier characteristic polynomial the exact module replaced,
the exact containment check on the whole token Laplacian, which the
layered route replaced, the integer-polynomial operations and Sturm
root count that only the tests call, the dense kite symmetrizer that
the commutation check replaced, the principal submatrix that
spectra.submatrix_values replaced, and the proof's float64 Cholesky of the
full matrix by GEMM and numpy.linalg.cholesky, which the in-place factor
replaced)."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import comb, frexp, ldexp
from typing import Iterable, Iterator, Sequence

import numpy as np

from token_spectra.exact import IntPoly, char_poly, poly_divides
from token_spectra.graphs import (
    Graph,
    GraphError,
    KiteSpec,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_gnp,
    random_tree,
    star_graph,
)
from token_spectra.spectra import DEFAULT_GROUP_TOL, NumericalError, _rump_shift, laplacian
from token_spectra.tokens import CapExceededError, TokenGraph, token_graph

# known counts of connected graphs up to isomorphism, indexed by n
CONNECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def connected_class_representatives(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices.

    Canonical form of a labeled graph is the minimum edge-set bitmask over
    all vertex permutations; the remapping runs vectorized over every mask
    at once, 7 bits at a time, which keeps n = 6 (32768 masks x 720
    permutations) fast. From n = 7 on, the masks are those of each class on
    n - 1 vertices with a new vertex joined to a nonempty subset: every
    connected graph has a vertex, a leaf of a spanning tree, whose removal
    leaves it connected.
    """
    edge_list = list(combinations(range(n), 2))
    m = len(edge_list)
    eidx = {e: i for i, e in enumerate(edge_list)}
    if n <= 6:
        masks = np.arange(1 << m, dtype=np.int64)
    else:
        smaller = [sum(1 << eidx[e] for e in g.edges) for g in connected_class_representatives(n - 1)]
        joins = [sum(1 << eidx[(v, n - 1)] for v in range(n - 1) if (s >> v) & 1) for s in range(1, 1 << (n - 1))]
        masks = np.add.outer(np.array(smaller, dtype=np.int64), np.array(joins, dtype=np.int64)).ravel()
    canon = masks.copy()
    # a permutation maps each 7-bit chunk of a mask through a 128-entry table
    bits = (np.arange(128)[:, None] >> np.arange(7)) & 1
    for perm in permutations(range(n)):
        table = np.array([eidx[tuple(sorted((perm[u], perm[v])))] for u, v in edge_list], dtype=np.int64)
        remapped = np.zeros_like(masks)
        for c in range(0, m, 7):
            chunk = table[c:c + 7]
            remapped |= (bits[:, :len(chunk)] @ (np.int64(1) << chunk))[(masks >> c) & 127]
        np.minimum(canon, remapped, out=canon)
    reps = np.unique(canon)
    out = []
    for mask in reps.tolist():
        edges = tuple(edge_list[b] for b in range(m) if (mask >> b) & 1)
        g = Graph(n, edges)
        if g.is_connected():
            out.append(g)
    return out


def family_corpus(max_n: int = 8) -> list[Graph]:
    """Deterministic mix of standard families up to max_n vertices."""
    out: list[Graph] = []
    for n in range(2, max_n + 1):
        out.append(path_graph(n))
    for n in range(3, max_n + 1):
        out.append(cycle_graph(n))
    for n in range(2, min(max_n, 6) + 1):
        out.append(complete_graph(n))
    for n1 in range(1, 4):
        for n2 in range(n1, 5):
            if n1 + n2 <= max_n:
                out.append(complete_bipartite_graph(n1, n2))
    out.append(star_graph(max_n - 1))
    return out


def random_corpus(count: int, n_range=(4, 8), seed: int = 0, p: float = 0.5) -> list[Graph]:
    rng = random.Random(seed)
    lo, hi = n_range
    return [
        random_connected_gnp(rng.randint(lo, hi), p, rng) for _ in range(count)
    ]


def random_tree_corpus(count: int, n_range=(3, 8), seed: int = 1) -> list[Graph]:
    rng = random.Random(seed)
    lo, hi = n_range
    return [random_tree(rng.randint(lo, hi), rng) for _ in range(count)]


def edge_union(g1: Graph, g2: Graph) -> Graph:
    """Union of two edge-disjoint graphs on the same vertex set."""
    if g1.n != g2.n:
        raise GraphError(f"vertex count mismatch: {g1.n} != {g2.n}")
    overlap = set(g1.edges) & set(g2.edges)
    if overlap:
        raise GraphError(f"edge sets overlap: {sorted(overlap)[:3]}")
    return Graph(g1.n, g1.edges + g2.edges)


def induced_subgraph(g: Graph, vs: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on vs, relabeled 0..|vs|-1 in ascending vertex order.

    Returns the relabeled graph and the old-to-new index map.
    """
    vset = sorted(set(vs))
    for v in vset:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(vset)}
    edges = tuple(
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    )
    return Graph(len(vset), edges), index


def boundary_degree(g: Graph, vs: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in vs."""
    vset = set(vs)
    for v in vset:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range")
    return sum(1 for u, v in g.edges if (u in vset) != (v in vset))


def rayleigh(m: np.ndarray, x: Sequence[float], edges: Iterable[tuple[int, int]] | None = None) -> float:
    """Quadratic form ratio x'Mx / x'x.

    When edges are passed (Laplacian case) the value is recomputed as the
    edge sum of squared differences and the two routes are cross-checked.
    """
    a = np.asarray(m, dtype=float)
    v = np.asarray(x, dtype=float)
    if v.shape != (a.shape[0],):
        raise GraphError(f"vector length {v.shape} does not match order {a.shape[0]}")
    den = float(v @ v)
    if den == 0.0:
        raise GraphError("Rayleigh quotient of the zero vector")
    val = float(v @ (a @ v)) / den
    if edges is not None:
        edge_val = sum((v[u] - v[w]) ** 2 for u, w in edges) / den
        if abs(val - edge_val) > 1e-9 * max(1.0, abs(val)):
            raise NumericalError(
                f"Rayleigh routes disagree: {val!r} vs {edge_val!r}"
            )
    return val


ONE = IntPoly((1,))


def poly_add(p: IntPoly, q: IntPoly) -> IntPoly:
    a, b = (p.coeffs, q.coeffs) if len(p.coeffs) >= len(q.coeffs) else (q.coeffs, p.coeffs)
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return IntPoly(tuple(out))


def poly_sub(p: IntPoly, q: IntPoly) -> IntPoly:
    return poly_add(p, IntPoly(tuple(-c for c in q.coeffs)))


def x_minus(a: int) -> IntPoly:
    """The polynomial x - a."""
    return IntPoly((-a, 1))


def poly_pow(p: IntPoly, e: int) -> IntPoly:
    """p ** e by repeated squaring."""
    if e < 0:
        raise ValueError("negative power")
    out = ONE
    while e:
        if e & 1:
            out = out * p
        p = p * p
        e >>= 1
    return out


def evaluate(p: IntPoly, x):
    """Horner evaluation; exact for int or Fraction arguments."""
    acc = x * 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def derivative(p: IntPoly) -> IntPoly:
    if p.degree <= 0:
        return IntPoly.zero()
    return IntPoly(tuple(i * c for i, c in enumerate(p.coeffs) if i > 0))


def from_json_list(items: Sequence[str]) -> IntPoly:
    """The inverse of IntPoly.to_json_list."""
    return IntPoly(tuple(int(s) for s in items))


def _sign_variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for coeffs in chain:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        if acc != 0:
            signs.append(1 if acc > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in_interval(p: IntPoly, lo, hi) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Sturm chain over exact rationals; lo and hi may be ints, Fractions, or
    floats (floats are converted exactly).
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no root count")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if p.degree == 0:
        return 0
    chain = [[Fraction(c) for c in p.coeffs]]
    chain.append([Fraction(c) for c in derivative(p).coeffs])
    while True:
        a, b = chain[-2], chain[-1]
        if len(b) == 1 and b[0] == 0:
            chain.pop()
            break
        rem = list(a)
        while len(rem) >= len(b) and any(c != 0 for c in rem):
            if rem[-1] == 0:
                rem.pop()
                continue
            factor = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            for i, c in enumerate(b):
                rem[shift + i] -= factor * c
            rem.pop()
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
        if not rem:
            rem = [Fraction(0)]
        if len(rem) == 1 and rem[0] == 0:
            break
        chain.append([-c for c in rem])
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def closed_form_gstar_poly(n1: int, n2: int, r: int) -> IntPoly:
    """Expand x(x-r)(x-r-n1)^(n1-1)(x-r-n2)^(n2-1)(x-n)^r with n = n1+n2+r."""
    if n1 < 1 or n2 < 1 or r < 1:
        raise ValueError("need n1, n2, r >= 1")
    n = n1 + n2 + r
    out = IntPoly((0, 1)) * x_minus(r)
    out = out * poly_pow(x_minus(r + n1), n1 - 1)
    out = out * poly_pow(x_minus(r + n2), n2 - 1)
    out = out * poly_pow(x_minus(n), r)
    return out


def int_det(m) -> int:
    """Exact determinant of a square integer matrix via fraction-free elimination."""
    a = [[int(x) for x in row] for row in np.asarray(m).tolist()]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q, rem = divmod(num, prev)
                if rem != 0:
                    raise AssertionError("fraction-free elimination division failed")
                a[i][j] = q
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reference_char_poly(m) -> IntPoly:
    """det(xI - M) over Python integers by the Faddeev-LeVerrier recurrence.

    Monic of degree n. The trace division at step k must be exact; a
    failure there indicates corrupted input and raises immediately.
    Laplacians are sparse, so the matrix products walk the nonzero
    entries of the input rather than all n^2 of them.
    """
    a = [[int(x) for x in row] for row in np.asarray(m).tolist()]
    n = len(a)
    if n == 0:
        return ONE
    rows = [[(j, v) for j, v in enumerate(row) if v != 0] for row in a]
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    c = [0] * (n + 1)
    c[n] = 1
    for k in range(1, n + 1):
        prod = []
        for i in range(n):
            acc = [0] * n
            for j, v in rows[i]:
                mrow = mat[j]
                if v == 1:
                    for t in range(n):
                        acc[t] += mrow[t]
                elif v == -1:
                    for t in range(n):
                        acc[t] -= mrow[t]
                else:
                    for t in range(n):
                        acc[t] += v * mrow[t]
            prod.append(acc)
        tr = sum(prod[i][i] for i in range(n))
        if tr % k != 0:
            raise AssertionError(f"trace {tr} not divisible by {k}")
        ck = -(tr // k)
        c[n - k] = ck
        for i in range(n):
            prod[i][i] += ck
        mat = prod
    return IntPoly(tuple(c))


def _colex(n: int, k: int) -> Iterator[tuple[int, ...]]:
    # yields all k-subsets of range(n) in colexicographic (rank) order
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in _colex(top, k - 1):
            yield rest + (top,)


@dataclass(frozen=True)
class SubsetCodec:
    """Bijection between k-subsets of [0, n) and ranks [0, C(n, k))."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n - 1:
            raise GraphError(f"need 1 <= k <= n-1, got n={self.n} k={self.k}")

    @property
    def size(self) -> int:
        return comb(self.n, self.k)

    @cached_property
    def _choose(self) -> tuple[tuple[int, ...], ...]:
        # Pascal table choose[m][j] for m <= n, j <= k (Python ints, no overflow)
        table = []
        for m in range(self.n + 1):
            row = [comb(m, j) for j in range(self.k + 1)]
            table.append(tuple(row))
        return tuple(table)

    def rank(self, subset: Sequence[int]) -> int:
        """Colex rank: sum of C(s_j, j+1) over the sorted elements."""
        s = sorted(subset)
        if len(s) != self.k:
            raise GraphError(f"subset has {len(s)} elements, expected {self.k}")
        if any(a == b for a, b in zip(s, s[1:])):
            raise GraphError(f"repeated element in subset {subset}")
        if s and not (0 <= s[0] and s[-1] < self.n):
            raise GraphError(f"subset {subset} out of range for n={self.n}")
        choose = self._choose
        return sum(choose[v][j + 1] for j, v in enumerate(s))

    def unrank(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.size:
            raise GraphError(f"rank {i} out of range [0, {self.size})")
        choose = self._choose
        rem = i
        out = []
        m = self.n
        for j in range(self.k, 0, -1):
            m -= 1
            while choose[m][j] > rem:
                m -= 1
            out.append(m)
            rem -= choose[m][j]
        return tuple(reversed(out))

    def subsets(self) -> Iterator[tuple[int, ...]]:
        """All k-subsets in rank order."""
        return _colex(self.n, self.k)


def reference_token_edges(g: Graph, k: int) -> tuple[tuple[int, int], ...]:
    """Sorted k-token edges of g, one codec rank per edge end.

    Iterates over base edges (u, v) and (k-1)-subsets of the remaining
    vertices; the loop token_graph replaced, kept as its oracle.
    """
    codec = SubsetCodec(g.n, k)
    edges = []
    for u, v in g.edges:
        rest = [w for w in range(g.n) if w != u and w != v]
        for s in combinations(rest, k - 1):
            a = codec.rank(s + (u,))
            b = codec.rank(s + (v,))
            edges.append((a, b) if a < b else (b, a))
    return tuple(sorted(edges))


def binomial_lift(codec: SubsetCodec, x: Sequence[float]) -> np.ndarray:
    """Lift a base-graph vector: output at rank(A) is the sum of x over A."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (codec.n,):
        raise GraphError(f"vector has length {vec.shape}, expected {codec.n}")
    vals = vec.tolist()
    out = np.empty(codec.size)
    for i, subset in enumerate(codec.subsets()):
        out[i] = sum(vals[a] for a in subset)
    return out


def binomial_project(codec: SubsetCodec, w: Sequence[float]) -> np.ndarray:
    """Project a token-graph vector: entry j sums w over subsets containing j."""
    vec = np.asarray(w, dtype=float)
    if vec.shape != (codec.size,):
        raise GraphError(f"vector has length {vec.shape}, expected {codec.size}")
    out = np.zeros(codec.n)
    for i, subset in enumerate(codec.subsets()):
        wi = vec[i]
        for a in subset:
            out[a] += wi
    return out


def binomial_matrix(codec: SubsetCodec, max_size: int = 100_000) -> np.ndarray:
    """Dense C(n,k) x n 0/1 subset-membership matrix, for small instances only."""
    if codec.size > max_size:
        raise CapExceededError(f"refusing to materialize a {codec.size} x {codec.n} matrix")
    out = np.zeros((codec.size, codec.n))
    for i, subset in enumerate(codec.subsets()):
        out[i, list(subset)] = 1.0
    return out


def reference_canonical_edges(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sorted (u, v) pairs with u < v, canonicalized one edge at a time.

    Raises GraphError on a self-loop, an endpoint outside [0, n) or an edge
    given twice, in either orientation.
    """
    canon = []
    for u, v in pairs:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        canon.append((u, v) if u < v else (v, u))
    canon.sort()
    for a, b in zip(canon, canon[1:]):
        if a == b:
            raise GraphError(f"duplicate edge {a}")
    return tuple(canon)


def reference_components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components by depth-first search over adjacency sets, in order of smallest member."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[int] = set()
    out = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return out


def principal_submatrix(m: np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Rows and columns restricted to keep, ordered by ascending index."""
    m = np.asarray(m)
    order = m.shape[0]
    idx = sorted(set(keep))
    for v in idx:
        if not (0 <= v < order):
            raise GraphError(f"index {v} out of range [0, {order})")
    return m[np.ix_(idx, idx)]


def reference_laplacian(g: Graph) -> np.ndarray:
    """Degree diagonal minus adjacency, filled one edge at a time."""
    L = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        L[u, u] += 1
        L[v, v] += 1
        L[u, v] -= 1
        L[v, u] -= 1
    return L


def reference_canonical_signs(basis: np.ndarray) -> np.ndarray:
    """Copy of basis with each column flipped so its first entry of magnitude > 1e-8 is positive."""
    out = basis.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-8)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def reference_groups(m: np.ndarray, group_tol: float = DEFAULT_GROUP_TOL):
    """eigh of m, then eigenvalue groups closed one gap at a time.

    Returns the eigenvalues and one (value, members, basis) triple per group.
    """
    w, q = np.linalg.eigh(np.asarray(m, dtype=float))
    gap_bound = group_tol * max(1.0, float(np.abs(w).max()))
    groups = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > gap_bound:
            members = tuple(float(x) for x in w[start:i])
            basis = reference_canonical_signs(q[:, start:i])
            groups.append((float(np.mean(w[start:i])), members, basis))
            start = i
    return w, groups


def full_route_containment(g: Graph, k: int) -> dict:
    """The exact containment certificate, less runtime_ms, as the full-polynomial route built it.

    charpoly(L(F_k)) comes from the whole C(n, k) x C(n, k) token Laplacian,
    then charpoly(L(G)) divides it.
    """
    tg = token_graph(g, k)
    divides, result = poly_divides(char_poly(laplacian(g)), char_poly(laplacian(tg.graph)))
    witnesses: dict = {"k": k, "token_vertices": tg.graph.n, "mode": "exact"}
    if divides:
        witnesses["quotient_degree"] = result.degree
        witnesses["quotient"] = result.to_json_list()
    else:
        witnesses["remainder"] = result.to_json_list()
    return {"check_id": "containment", "graph": {"n": g.n, "edges_hash": g.fingerprint()},
            "verdict": "pass" if divides else "fail", "witnesses": witnesses,
            "tolerances": {"mode": "exact"}}


def build_kite_symmetrizer(spec: KiteSpec) -> np.ndarray:
    """Integer symmetrizer (s-1) * S for a kite.

    S is the identity on head vertices and on path 1, and averages each
    level's remaining tail vertices: entries 1/(s-1) on U_j x U_j where
    U_j holds the level-j vertices of paths 2..s. Returned scaled by
    (s-1) so all entries are integers.
    """
    m = np.zeros((spec.n, spec.n), dtype=np.int64)
    fixed = [*range(spec.head.n), *(spec.label(1, j) for j in range(1, spec.r + 1))]
    m[fixed, fixed] = spec.s - 1
    for level in spec.levels():
        m[np.ix_(level, level)] = 1
    return m


def numpy_complement_exceeds(tg: TokenGraph, b: np.ndarray, degree: np.ndarray, sigma: float, theta: float) -> bool:
    """spectra._complement_exceeds in double precision alone, on the full matrix: A = s b b^T by one
    GEMM, the token edges subtracted on both sides, the diagonal less sigma and the float64 Rump shift,
    factored by numpy.linalg.cholesky with its own copies. theta, the single-precision gate, is unused."""
    n, k = tg.graph.n, tg.k
    s = ldexp(1.0, frexp((sigma + 1.0) / comb(tg.base.n - 2, k - 1))[1])
    top = float(degree.max()) + s * k
    a = np.matmul(b, b.T, out=np.empty((n, n)))
    a *= s
    u, v = tg.graph.edge_array.T
    a[u, v] -= 1.0
    a[v, u] -= 1.0
    a[np.diag_indices(n)] = (degree + s * k) - (sigma + _rump_shift(tg, s, top, sigma, np.float64))
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True
