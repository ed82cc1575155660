"""Dense Laplacian spectra with explicit eigenspace grouping, a sparse Lanczos
route to the algebraic connectivity of large token graphs, an exact check of
the lift B (L(F_k) B = B L(G), with the dense or the CSR Laplacian of F_k, and
B^T B = a I + c J), which is float containment and which token_alpha makes once
for all its routes, and a proof, by one Cholesky, that alpha(F_k) = alpha(G):
in single precision first where an upper bound on the complement's least
eigenvalue leaves room for its rounding, else in double precision. The same
bound, made once per decision, caps the shift of range(B) in the Lanczos route.

The dense eigensolver is LAPACK's symmetric solver reached through
numpy; this module adds the contracts the verification layer depends on:
ascending eigenvalues, clustering into eigenspace groups at a relative gap
tolerance, a residual check on every eigenvector, and sign-canonicalized
eigenvectors so repeated runs produce identical output. A Spectrum's
groups are slices into its values and its read-only eigenvector columns.

Grouping matters because several checks quantify over the *whole*
eigenspace of the algebraic connectivity: a single computed eigenvector is
not enough when that eigenvalue is degenerate.

The proof needs a number above the true alpha(G). eig_sym returns pairs
(w_i, q_i) of L(G) with residuals at most rho = DEFAULT_RESID_TOL * scale,
scale = max(1, max |w|), and LAPACK keeps Q orthonormal to eta = O(n u).
By Courant-Fischer on span(q_0, q_1), alpha(G) <= (w_1 + 1.5 rho + eta
scale) / (1 - eta), and fiedler_value reads 0 only for |w_1| <= rho. So
alpha + 10 rho exceeds alpha(G) while eta < 3e-9, far above O(n u). The
gate of the single-precision factor also reads q_1, a Fiedler vector of G;
its rounding decides only which precision runs, never what is proved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import Graph, GraphError
from .tokens import CapExceededError, TokenGraph, _colex_subsets, lift, require_memory

DEFAULT_RESID_TOL = 1e-9
DEFAULT_GROUP_TOL = 1e-8
PAIR_TOL = 1e-7  # rank cut of eigenspace_has_equal_pair, relative to the largest singular value


class NumericalError(RuntimeError):
    """Eigensolver failed to converge or violated a residual bound."""


# Peak bytes per N^2 of the dense route: ru_maxrss less the RSS before
# algebraic_connectivity on 5-token graphs of paths, N = 2002..4368: 41.7 to 42.1.
# The peak is inside eigh, with the float matrix, its eigenvectors and LAPACK's work.
DENSE_BYTES_PER_N2 = 44
# Peak bytes per N^2 of token_alpha's values-only solve, measured the same way on 5-token graphs
# of paths, N = 2002 and 4368: 16.1 and 16.1. It holds the float Laplacian and
# eigvalsh's copy of it; the CSR or int64 matrix it was made from is freed before.
# laplacian_values, the solve of checks that read no eigenvector, holds the same: interlacing's
# two solves on paths read 16.3 and 16.2 at N = 3000 and 4000 (24.0, one block more, at 2000).
# So do submatrix_values' solves, theta-table's and the kite head's: 16.1 to 16.3 on paths, cycles and
# K_3000, N = 2000..4000. token_alpha pays it where its other routes do not answer.
VALUES_BYTES_PER_N2 = 18
# Peak bytes per N^2 of _proved_alpha: ru_maxrss less the RSS before it, in a fresh process, on
# 4- and 5-token graphs of paths, cycles, K_13, tests/data/gnp12.el and gnp18.el. In place, one
# N x N array: 11.8 at N = 715, 9.1 at 3060, 8.4 at 8568; 0.38 to 0.61 MiB, none above 2, at N = 105..286.
PROOF_BYTES_PER_N2 = 12
# From this order on, checked_lift applies the CSR Laplacian and token_alpha computes theta; below it,
# numpy alone, so a sweep cell imports no scipy (0.3 s). checked_lift, CSR / dense, median over 5
# G(n, 1/2), 1 BLAS thread: 0.11 / 0.03 ms at N = 15, 0.16 / 0.09 at 165, 0.22 / 0.60 at 286.
SCIPY_MIN_ORDER = 300
# scipy's OpenBLAS 0.3.30 dpotrf segfaulted with 2 threads at N = 16000 and 20000, not at 15000;
# spotrf, and both in the OpenBLAS that _kernels binds, get the same guard
POTRF_THREADED_MAX_ORDER = 15000
# unit roundoffs and underflow units (least positive subnormals) of double and single precision
UNIT_ROUNDOFF, UNDERFLOW = 2.0 ** -53, 2.0 ** -1074
SINGLE_UNIT_ROUNDOFF, SINGLE_UNDERFLOW = 2.0 ** -24, 2.0 ** -149
# Peak bytes of checked_lift per token edge and per entry of the N x n lift: ru_maxrss less the RSS
# before it, in a fresh process with scipy.sparse imported and the token graph loaded from disk, on
# 12 token graphs of paths, cycles, stars, complete graphs and tests/data/gnp18.el, N = 495..125970.
# A fit gives 36 and 27; these rates cover every case above 2 MiB by 1.11 (complete graphs) to 1.60.
# The dense Laplacian below SCIPY_MIN_ORDER is charged by laplacian, at VALUES_BYTES_PER_N2.
LIFT_BYTES_PER_EDGE = 44
LIFT_BYTES_PER_ROW_COLUMN = 40

# token_alpha tries the sparse route before the proof from this order on, and never below it.
# Best of 3, 1 BLAS thread, G(n, C(n,2)//2 + 1), proof / Lanczos: 17 / 20 ms at N = 1001,
# 43 / 21 at 1365, 68 / 25 at 1820 (LOBPCG, which the threshold was set against: 42, 55, 60).
SPARSE_MIN_ORDER = 1500
# Copies of mu the sparse route finds, one Lanczos solve each, before it hands over, and ARPACK's
# restarts per solve
SPARSE_BLOCKS = 4
SPARSE_MAXITER = 500
# Peak bytes per token vertex of one Lanczos solve, copies included: ru_maxrss less the RSS before
# the sparse route, in a fresh process with B and L(F_k) loaded from disk, on 18 token graphs of
# paths, cycles, trees, stars, complete graphs and gnp18.el, N = 1820..48620: 262 to 444 in every
# case above 2 MiB, the top where a third or fourth solve runs; 522 at N = 2002 (1.0 MiB).
SPARSE_BYTES_PER_ROW = 512


def laplacian(g: Graph, bytes_per_n2: int = DENSE_BYTES_PER_N2) -> np.ndarray:
    """Degree diagonal minus adjacency, as an exact integer matrix.

    Refused with CapExceededError, before allocating, when the caller's
    route, at bytes_per_n2 bytes per entry, would not fit in memory.
    """
    require_memory(bytes_per_n2 * g.n * g.n, f"the dense Laplacian route at N = {g.n}")
    L = np.zeros((g.n, g.n), dtype=np.int64)
    u, v = g.edge_array.T
    L[u, v] = -1
    L[v, u] = -1
    L[np.diag_indices(g.n)] = -L.sum(axis=1)
    return L


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs of a symmetric matrix, grouped into eigenspaces.

    For each slice grp in groups, values[grp] are the group's members and
    vectors[:, grp] an orthonormal basis of its eigenspace.
    """

    values: np.ndarray  # ascending
    vectors: np.ndarray  # (order, order), read-only; column i belongs to values[i]
    groups: tuple[slice, ...]

    def group_of(self, index: int) -> slice:
        """The group containing the index-th smallest eigenvalue."""
        return next(grp for grp in self.groups if index < grp.stop)

    def distinct_values(self) -> list[float]:
        """Each group's representative, the mean of its members."""
        return [float(np.mean(self.values[grp])) for grp in self.groups]


def _canonical_signs(vectors: np.ndarray) -> None:
    """Flip, in place, each unit column whose first entry above 1e-8 in magnitude is negative."""
    big = np.abs(vectors) > 1e-8
    lead = vectors[big.argmax(axis=0), np.arange(vectors.shape[1])]
    vectors *= np.where(lead < 0, -1.0, 1.0)


def eig_sym(
    m: np.ndarray,
    resid_tol: float = DEFAULT_RESID_TOL,
    group_tol: float = DEFAULT_GROUP_TOL,
) -> Spectrum:
    """Full symmetric eigendecomposition with eigenvalue grouping.

    Eigenvalues whose consecutive gap is at most group_tol * max(1, |m|)
    land in one group; every returned basis vector must satisfy
    ||m q - lambda q|| <= resid_tol * max(1, lambda_max) or the call fails.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphError(f"matrix shape {a.shape} is not square")
    if not np.isfinite(a).all():
        raise GraphError("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise GraphError("matrix is not symmetric")
    n = a.shape[0]
    if n == 0:
        return Spectrum(np.empty(0), np.empty((0, 0)), ())
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc

    scale = max(1.0, float(np.abs(w).max()))
    resid_bound = resid_tol * scale
    resid = np.linalg.norm(a @ q - q * w, axis=0)
    if resid.max() > resid_bound:
        raise NumericalError(
            f"residual {resid.max():.3e} exceeds bound {resid_bound:.3e}"
        )

    _canonical_signs(q)
    q.flags.writeable = False
    cuts = (np.flatnonzero(np.diff(w) > group_tol * scale) + 1).tolist()
    groups = tuple(slice(s, e) for s, e in zip([0, *cuts], [*cuts, n]))
    return Spectrum(values=w, vectors=q, groups=groups)


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric float matrix m from LAPACK's values-only solver,
    for callers that read no eigenvector; NumericalError where it does not converge."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc


def laplacian_values(g: Graph) -> np.ndarray:
    """Ascending Laplacian eigenvalues of g from eigenvalues, charged VALUES_BYTES_PER_N2."""
    return eigenvalues(laplacian(g, VALUES_BYTES_PER_N2).astype(float))  # the int64 matrix is freed first


def submatrix_values(g: Graph, parts: Iterable[Iterable[int]]) -> list[np.ndarray]:
    """Ascending eigenvalues of L(g) on each vertex set in parts, in parts' order: rows in ascending
    vertex order, a repeated vertex counted once; GraphError for a vertex outside g, before any work.

    One float L(g), charged VALUES_BYTES_PER_N2, gives every block and is freed before the first
    solve by eigenvalues; each solve holds only the blocks not yet solved.
    """
    keeps = [sorted(set(part)) for part in parts]
    if bad := [v for keep in keeps for v in keep if not 0 <= v < g.n]:
        raise GraphError(f"index {bad[0]} out of range [0, {g.n})")
    lap = laplacian(g, VALUES_BYTES_PER_N2).astype(float)  # the int64 matrix is freed first
    blocks = [lap[np.ix_(keep, keep)] for keep in keeps]
    del lap
    return [eigenvalues(blocks.pop()) for _ in keeps][::-1]


def fiedler_value(values: np.ndarray) -> float:
    """values[1] of an ascending Laplacian spectrum, set to exactly 0 (a disconnected
    graph) when within DEFAULT_RESID_TOL * max(1, max |values|) of it."""
    value = float(values[1])
    scale = max(1.0, float(np.abs(values).max()))
    return 0.0 if abs(value) <= DEFAULT_RESID_TOL * scale else value


def algebraic_connectivity(g: Graph) -> tuple[float, np.ndarray]:
    """Second-smallest Laplacian eigenvalue and an orthonormal basis of its eigenspace.

    For a disconnected graph the value is exactly 0 (see fiedler_value). A
    single vertex has no second eigenvalue, so n >= 2 is required.
    """
    if g.n < 2:
        raise GraphError("algebraic connectivity needs n >= 2")
    spec = eig_sym(laplacian(g).astype(float))  # frees the int64 matrix before eigh
    # a copy, so that the caller's basis does not keep the whole N x N matrix alive
    return fiedler_value(spec.values), spec.vectors[:, spec.group_of(1)].copy()


def sparse_laplacian(g: Graph):
    """Degree diagonal minus adjacency, as a scipy CSR float matrix, filled from the sorted edge
    array: row v holds its lower neighbours (edges by v, then u), its diagonal, then its upper ones."""
    from scipy.sparse import csr_array

    u, v = g.edge_array.T
    upper, lower = np.bincount(u, minlength=g.n), np.bincount(v, minlength=g.n)
    indptr = np.zeros(g.n + 1, dtype=np.int32 if 2 * g.m + g.n < 2**31 else np.int64)
    np.cumsum(upper + lower + 1, out=indptr[1:])
    indices, data = np.empty(indptr[-1], dtype=indptr.dtype), np.full(indptr[-1], -1.0)
    diag = indptr[:-1] + lower
    indices[diag], data[diag] = np.arange(g.n), upper + lower
    indices[np.arange(g.m) + np.repeat(diag + 1 - (np.cumsum(upper) - upper), upper)] = v
    indices[np.arange(g.m) + np.repeat(indptr[:-1] - (np.cumsum(lower) - lower), lower)] = u[np.argsort(v * g.n + u)]
    return csr_array((data, indices, indptr), shape=(g.n, g.n))


def token_alpha(tg: TokenGraph, spectrum: Spectrum, lo: float, hi: float) -> tuple[float, dict]:
    """Algebraic connectivity of tg's token graph, as (alpha, fields), from spectrum = eig_sym(L(G)) and
    the interval [lo, hi] that the caller's check accepts; fields are the witnesses the route adds.

    checked_lift checks B's two identities once, and every route works with
    that B and L(F_k). Below SPARSE_MIN_ORDER token vertices, _proved_alpha
    runs, then the values-only solve; from there on, _sparse_token_alpha
    runs before both. Each of the first two answers or hands over (None).
    The proof adds its bounds, Lanczos its mu, and the values-only solve
    nothing; it frees B and the int64 or CSR L(F_k) before its solve. From
    SCIPY_MIN_ORDER on, theta = _complement_rayleigh, an upper bound on mu
    from a Fiedler vector of G, spectrum.vectors[:, 1], is computed once for
    both routes: it gates the proof's single-precision factor and caps the
    Lanczos shift; below that order it is +inf, and every proof tries single precision first.
    """
    b, lap = checked_lift(tg)
    theta = _complement_rayleigh(tg, b, spectrum.vectors[:, 1]) if tg.graph.n >= SCIPY_MIN_ORDER else math.inf
    answer = tg.graph.n >= SPARSE_MIN_ORDER and _sparse_token_alpha(tg, spectrum, lap, theta)
    answer = answer or _proved_alpha(tg, spectrum, b, lap, lo, hi, theta)
    if answer:
        return answer
    require_memory(VALUES_BYTES_PER_N2 * tg.graph.n ** 2, f"the dense Laplacian route at N = {tg.graph.n}")
    del b
    lap = lap.astype(float) if isinstance(lap, np.ndarray) else lap.toarray()  # frees the int64 or CSR matrix
    return fiedler_value(eigenvalues(lap)), {}


def _proved_alpha(tg: TokenGraph, spectrum: Spectrum, b: np.ndarray, lap, lo: float, hi: float,
                  theta: float) -> tuple[float, dict] | None:
    """(alpha(G), fields) once one Cholesky pins lambda_2(L(F_k)) down, else None.

    b and lap are the B and L(F_k) of which checked_lift has shown L(F_k) B =
    B L(G), and F_k's degrees are read off lap. So lambda_2(L(F_k)) =
    min(alpha(G), mu), mu the least eigenvalue off range(B). upper = alpha
    + 10 rho exceeds the true alpha(G) (module docstring). If mu > upper is
    proved, lambda_2 = alpha(G) and fields = {alpha_complement_lower: upper}.
    Otherwise (F_2(C_4) has mu = alpha), if upper <= hi, mu > lo (free for lo
    < 0) gives lo < lambda_2 <= upper, and fields = {alpha_complement_lower:
    lo, alpha_token_lower: lo, alpha_token_upper: upper}. None where neither
    closes or the proof does not fit in memory. theta >= mu, from token_alpha,
    gates the single-precision factor.
    """
    g, values = tg.graph, spectrum.values
    try:  # a proof that does not fit in memory leaves alpha to the next route
        require_memory(PROOF_BYTES_PER_N2 * g.n * g.n, f"the proof at N = {g.n}")
    except CapExceededError:
        return None
    degree = lap.diagonal()
    alpha = fiedler_value(values)
    upper = math.nextafter(alpha + 10 * DEFAULT_RESID_TOL * max(1.0, float(np.abs(values).max())), math.inf)
    if _complement_exceeds(tg, b, degree, upper, theta):
        return alpha, {"alpha_complement_lower": upper}
    if lo < upper <= hi and (lo < 0 or _complement_exceeds(tg, b, degree, lo, theta)):
        return alpha, {"alpha_complement_lower": lo, "alpha_token_lower": lo, "alpha_token_upper": upper}
    return None


def _complement_rayleigh(tg: TokenGraph, b: np.ndarray, f: np.ndarray) -> float:
    """theta >= mu, the least eigenvalue of L = L(F_k) off range(b): L's Rayleigh quotient at x_S =
    sum over i < j in S of f_i f_j, f a Fiedler vector of G, projected off range(b); +inf where x
    projects to 0, as at k = 1 and n - 1, where range(b) is everything.

    L leaves range(b) and its complement invariant, so any nonzero vector of the complement has a
    quotient of at least mu. b is the checked lift, B^T B = a I + c J, so the projection takes the
    closed form (B^T B)^-1 = (I - c / (a + n c) J) / a. O(N n + |E(F_k)|). token_alpha makes it once
    per decision: it gates the proof's single-precision factor, which proves the same either way,
    and caps the Lanczos shift at 2 theta + 1, which needs only theta >= mu up to rounding.
    """
    n, k = tg.base.n, tg.k
    if tg.graph.n == n:
        return math.inf
    a, c = math.comb(n - 2, k - 1), math.comb(n - 2, k - 2)
    total = b @ f
    x = (total * total - b @ (f * f)) / 2
    y = x @ b
    y -= c / (a + n * c) * y.sum()
    x -= b @ (y / a)
    norm = float(x @ x)
    u, v = tg.graph.edge_array.T
    return float(np.square(x[u] - x[v]).sum()) / norm if norm > 0 else math.inf


def _complement_exceeds(tg: TokenGraph, b: np.ndarray, degree: np.ndarray, sigma: float, theta: float) -> bool:
    """Does every eigenvalue mu of L = L(F_k) off range(b) exceed sigma >= 0? True only when proved.

    b is the checked lift, degree F_k's degrees, theta >= mu. b b^T = (|S &
    T|) commutes with L, vanishes off range(b), and is at least C(n-2,
    k-1), the least eigenvalue of b^T b, on it. With s a power of two, s
    C(n-2, k-1) > sigma + 1, A = L + s b b^T is exact, and A - sigma I is
    positive definite iff mu > sigma. M = fl(A - s' I), s' = fl(sigma + c)
    (_rump_shift), rounds only its diagonal. If floating-point Cholesky of M
    succeeds, A - sigma I is positive definite (S. M. Rump, Verification of
    positive definiteness, BIT 46 (2006) 433-452; Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3).

    At every order, ?syrk writes only the lower triangle of s b b^T, which
    OpenBLAS factors faster than the upper one, into the Fortran-ordered
    array that ?potrf factors in place (_kernels); the token edges go into
    it too. The factor runs first in single precision, where every entry
    s |S & T| - [ST an edge] is exact (_exact_in_single), and only where its
    shift c32 < theta - sigma: otherwise mu - sigma <= c32 and it cannot
    close. Where it is skipped or fails, the same matrix is built and
    factored in double precision. One N x N array is held at a time.
    """
    k = tg.k
    s = math.ldexp(1.0, math.frexp((sigma + 1.0) / math.comb(tg.base.n - 2, k - 1))[1])
    top = float(degree.max()) + s * k
    c32 = _rump_shift(tg, s, top, sigma, np.float32)
    if c32 < theta - sigma and _exact_in_single(s, k) and _factors(tg, b, degree, s, sigma + c32, np.float32):
        return True
    return _factors(tg, b, degree, s, sigma + _rump_shift(tg, s, top, sigma, np.float64), np.float64)


def _rump_shift(tg: TokenGraph, s: float, top: float, sigma: float, dtype) -> float:
    """The shift c of _complement_exceeds for a factor in dtype, float32 or float64, with top = Delta
    + s k the largest diagonal entry of A; u and eta are dtype's unit roundoff and underflow unit.

    Rump's bound: gamma / (1 - gamma) tr(M) + 4 N (2 (N + 1) + top) eta,
    gamma = gamma_{N+1}, tr(M) <= 2|E| + N s k. Each diagonal entry rounds
    by r |A_ii - s'| <= r (top + sigma + c): to double (r = UNIT_ROUNDOFF),
    then to single (r = u + 2 UNIT_ROUNDOFF in all), and s' - sigma >= c -
    UNIT_ROUNDOFF (sigma + c). c covers the three, and the factor 1 + 2^-40
    the rounding of c itself.
    """
    single = dtype == np.float32
    u, eta = (SINGLE_UNIT_ROUNDOFF, SINGLE_UNDERFLOW) if single else (UNIT_ROUNDOFF, UNDERFLOW)
    r = u + 2 * UNIT_ROUNDOFF if single else UNIT_ROUNDOFF
    n = tg.graph.n
    gamma = (n + 1) * u / (1 - (n + 1) * u)
    rump = gamma / (1 - gamma) * (2 * tg.graph.m + n * s * tg.k) + 4 * n * (2 * (n + 1) + top) * eta
    return (rump + r * top + (r + UNIT_ROUNDOFF) * sigma) / (1 - r - UNIT_ROUNDOFF) * (1 + 2.0 ** -40)


def _exact_in_single(s: float, k: int) -> bool:
    """Is every off-diagonal entry s j - e of A, 0 <= j < k and e in {0, 1}, exact in single precision?
    For s a power of two, that holds iff s - 1 and k s - 1 are."""
    return all(float(np.float32(x)) == x for x in (s - 1.0, k * s - 1.0))


def _factors(tg: TokenGraph, b: np.ndarray, degree: np.ndarray, s: float, shift: float, dtype) -> bool:
    """Does ?potrf factor the lower triangle of A - shift I, made in dtype by ?syrk from b, in place?"""
    a = _kernels()["ssyrk" if dtype == np.float32 else "dsyrk"](s, b)  # s b b^T, lower triangle
    u, v = tg.graph.edge_array.T  # u < v
    a[v, u] -= 1.0
    np.fill_diagonal(a, (degree + s * tg.k) - shift)
    return _potrf_in_place(a) == 0


def _potrf_in_place(a: np.ndarray) -> int:
    """LAPACK's info from _kernels' spotrf or dpotrf, by a's dtype, on the Fortran-ordered a, factored in
    place; above POTRF_THREADED_MAX_ORDER with 1 thread, or CapExceededError where there is no switch."""
    kernels = _kernels()
    potrf = kernels["spotrf" if a.dtype == np.float32 else "dpotrf"]
    if a.shape[0] <= POTRF_THREADED_MAX_ORDER:
        return potrf(a)
    if kernels["threads"] is None:
        raise CapExceededError(f"the proof at N = {a.shape[0]} needs 1 thread in numpy's OpenBLAS, which was not found")
    get, put = kernels["threads"]
    threads = get()
    put(1)
    try:
        return potrf(a)
    finally:
        put(threads)


@functools.cache
def _kernels() -> dict:
    """The proof's kernels by LAPACK name, bound on first use: ssyrk and dsyrk, (s, b) -> the lower
    triangle of s b b^T, b C-ordered N x n, in a new Fortran-ordered array; spotrf and dpotrf, a ->
    LAPACK's info, the lower triangle of the Fortran-ordered a factored in place; threads, the (get,
    set) switch of their thread count, or None. ctypes binds them from the ILP64 OpenBLAS that numpy's
    wheel loads (numpy.libs) through CBLAS and LAPACKE, which take scalars by value, so no scipy is
    imported; where that library or a symbol is missing, scipy.linalg's wrappers serve, with no switch.
    """
    import ctypes
    from pathlib import Path

    names = ["scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_", "scipy_cblas_ssyrk64_",
             "scipy_cblas_dsyrk64_", "scipy_LAPACKE_spotrf_work64_", "scipy_LAPACKE_dpotrf_work64_"]
    libs = [ctypes.CDLL(str(path)) for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")]
    lib = next((lib for lib in libs if all(hasattr(lib, name) for name in names)), None)
    if lib is None:
        from scipy.linalg import blas, lapack

        return {"threads": None, "ssyrk": lambda s, b: blas.ssyrk(s, b.T, trans=1, lower=1),
                "dsyrk": lambda s, b: blas.dsyrk(s, b.T, trans=1, lower=1),
                "spotrf": lambda a: lapack.spotrf(a, lower=1, clean=0, overwrite_a=1)[1],
                "dpotrf": lambda a: lapack.dpotrf(a, lower=1, clean=0, overwrite_a=1)[1]}
    get, put = getattr(lib, names[0]), getattr(lib, names[1])
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    kernels, i64, ptr = {"threads": (get, put)}, ctypes.c_int64, ctypes.c_void_p
    for p, dtype, real in (("s", np.float32, ctypes.c_float), ("d", np.float64, ctypes.c_double)):
        syrk, potrf = getattr(lib, f"scipy_cblas_{p}syrk64_"), getattr(lib, f"scipy_LAPACKE_{p}potrf_work64_")
        syrk.argtypes, syrk.restype = [ctypes.c_int] * 3 + [i64, i64, real, ptr, i64, real, ptr, i64], None
        potrf.argtypes, potrf.restype = [ctypes.c_int, ctypes.c_char, i64, ptr, i64], i64

        def run_syrk(s, b, syrk=syrk, dtype=dtype):
            bt = np.ascontiguousarray(b, dtype)  # N x n in C order: b^T in Fortran order, leading dimension n
            (order, n), a = bt.shape, np.empty((len(bt), len(bt)), dtype, order="F")
            syrk(102, 122, 112, order, n, s, bt.ctypes.data, n, 0.0, a.ctypes.data, order)  # column-major, lower, A^T A
            return a

        def run_potrf(a, potrf=potrf, dtype=dtype):
            if not (a.dtype == dtype and a.flags.f_contiguous and a.ndim == 2 and a.shape[0] == a.shape[1] > 0):
                raise ValueError(f"?potrf needs a square Fortran-ordered {np.dtype(dtype)} array")
            return potrf(102, b"L", len(a), a.ctypes.data, len(a))

        kernels[p + "syrk"], kernels[p + "potrf"] = run_syrk, run_potrf
    return kernels


def checked_lift(tg: TokenGraph):
    """(B, L(F_k)), B = lift(n, k), once L(F_k) B = B L(G), with that L(F_k), and then B^T B =
    C(n-2, k-1) I + C(n-2, k-2) J are checked exactly.

    B^T B's least eigenvalue C(n-2, k-1) is at least 1, so B maps each eigenspace of L(G)
    one-to-one into that of L(F_k) for the same value: spec(L(G)) lies in spec(L(F_k)) with
    multiplicity. L(F_k) is the dense int64 laplacian below SCIPY_MIN_ORDER and
    sparse_laplacian from there on, where L(F_k) B takes O(|E(F_k)| n) with no N x N matrix.
    Every entry is a small integer, exact in float64, so each identity holds exactly or not at
    all: NumericalError where one does not; CapExceededError, before B, where it does not fit.
    """
    g, n = tg.graph, tg.base.n
    require_memory(LIFT_BYTES_PER_EDGE * g.m + LIFT_BYTES_PER_ROW_COLUMN * g.n * n,
                   f"the lift check at N = {g.n}")
    lap = laplacian(g, VALUES_BYTES_PER_N2) if g.n < SCIPY_MIN_ORDER else sparse_laplacian(g)
    b = lift(n, tg.k)
    lb = lap @ b
    lb -= b @ laplacian(tg.base)
    resid = np.abs(lb, out=lb).max()
    if resid:  # also when NaN got in
        raise NumericalError(f"lifted residual {resid:.3g} of L(F_k) B = B L(G) exceeds bound 0")
    gram = math.comb(n - 2, tg.k - 1) * np.eye(n) + (math.comb(n - 2, tg.k - 2) if tg.k > 1 else 0)
    if not np.array_equal(b.T @ b, gram):
        raise NumericalError("the lift is dependent: B^T B is not C(n-2, k-1) I + C(n-2, k-2) J")
    return b, lap


def _sparse_token_alpha(tg: TokenGraph, spectrum: Spectrum, lap, theta: float) -> tuple[float, dict] | None:
    """(alpha(F_k), fields) with alpha(F_k) = min(alpha(G), mu), mu the least eigenvalue of
    L(F_k) on range(B)^perp, from spectrum = eig_sym(L(G)) and theta >= mu; None where it hands over.

    lap is the L(F_k) of which checked_lift has shown L(F_k) B = B L(G) and B^T B = C(n-2, k-1) I
    + C(n-2, k-2) J for B = lift(n, k), so range(B) carries the spectrum of L(G) and its complement
    the rest. ARPACK's Lanczos (eigsh, which="SA", fixed-seed start) finds the least eigenvalue of
    L(F_k) + c (B (B^T B)^-1 B^T + U U^T) + I, less the 1, U the copies of mu found so far, B applied
    as CSR from its rows, the k-subsets of _colex_subsets(n, k): O(N k) a product. c = min(2 max(1,
    Delta + 1), 2 theta + 1) >= mu + 1, Delta F_k's largest degree. Each solve finds one copy: one
    Krylov vector does not see multiplicity. ARPACK stops at a residual of tol (value + 1), so tol =
    bound / (2 (c + 1)) stops each value below c within half of bound = DEFAULT_RESID_TOL * max(1,
    Delta + 1) (never looser than eig_sym's, as Delta + 1 <= lambda_max), however small mu is. The
    first value must lie below c, and each its residual against lap within bound. The route answers
    once a value lies more than gap = DEFAULT_GROUP_TOL * max(1, Delta + 1) above mu, the first, or a
    later one within gap of c or above: a shifted vector's, unchecked, as every eigenvalue off
    range(B) and U then exceeds mu + 1 - gap. It hands over once a value lies more than gap below
    mu, once it holds SPARSE_BLOCKS copies in one group, where a check fails, where ARPACK stops at
    SPARSE_MAXITER restarts, or where the order leaves too few vectors off range(B) for its basis.
    Each solve is charged before it allocates (CapExceededError).

    Unlike the proof, this route does not certify that mu is the least eigenvalue off
    range(B): Lanczos could miss a lower one, which would make min(alpha(G), mu) read
    alpha(G). So fields = {alpha_complement: mu, alpha_complement_least: "not certified"}.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n, k, order = tg.base.n, tg.k, tg.graph.n
    if order - n < 5 * SPARSE_BLOCKS:  # too few vectors off range(B) for ARPACK's Lanczos basis
        return None
    scale = max(1.0, float(lap.diagonal().max()) + 1.0)  # Grone-Merris: Delta + 1 <= lambda_max
    bound, gap, shift = DEFAULT_RESID_TOL * scale, DEFAULT_GROUP_TOL * scale, min(2.0 * scale, 2.0 * theta + 1.0)
    a, c = math.comb(n - 2, k - 1), math.comb(n - 2, k - 2)  # (B^T B)^-1 = (I - c / (a + n c) J) / a
    members = _colex_subsets(n, k)  # B's rows: B in CSR, k ones a row, and B^T its CSC transpose
    index = np.int32 if members.size < 2**31 else np.int64
    sparse_b = csr_array((np.ones(members.size), np.asarray(members, dtype=index, order="C").ravel(),
                          np.arange(0, members.size + 1, k, dtype=index)), shape=(order, n))
    sparse_bt, copies = sparse_b.T, np.empty((order, SPARSE_BLOCKS), order="F")
    rng = np.random.default_rng(0)

    def deflated(x):  # U by einsum, not BLAS: a threaded gemv in each step ran 2-3 times as slow on 2 threads
        y = sparse_bt @ x
        y -= c / (a + n * c) * y.sum()
        found = copies[:, :held]
        lifted = sparse_b @ (y / a) + np.einsum("ij,j->i", found, np.einsum("ij,i->j", found, x))
        return lap @ x + x + shift * lifted

    for held in range(SPARSE_BLOCKS):
        require_memory(SPARSE_BYTES_PER_ROW * order, f"the sparse route at N = {order}")
        try:
            vals, vecs = eigsh(LinearOperator((order, order), matvec=deflated, dtype=float), 1, which="SA",
                               v0=rng.standard_normal(order), tol=bound / (2 * (shift + 1)), maxiter=SPARSE_MAXITER)
        except ArpackNoConvergence:
            return None
        value, vec = float(vals[0]) - 1.0, vecs[:, 0]
        mu = value if held == 0 else mu
        shifted = held > 0 and value >= shift - gap  # c >= mu + 1: no eigenvalue off range(B) and U lies near mu
        if not shifted and (not value < shift or np.linalg.norm(lap @ vec - value * vec) > bound or mu - value > gap):
            return None  # a check failed, or the first solve missed a lower value
        if shifted or value - mu > gap:
            value = min(fiedler_value(spectrum.values), mu)
            fields = {"alpha_complement": mu, "alpha_complement_least": "not certified"}
            return (0.0 if abs(value) <= bound else value), fields
        copies[:, held] = vec
    return None


def theta(r: int, k: int) -> float:
    """Eigenvalue 2 + 2cos(2k pi / (2r+1)) of the pendant-path principal submatrix.

    Decreasing in k; k = r gives the smallest one.
    """
    if not 1 <= k <= r:
        raise GraphError(f"need 1 <= k <= r, got k={k} r={r}")
    return 2.0 + 2.0 * math.cos(2.0 * k * math.pi / (2 * r + 1))


def eigenspace_has_equal_pair(basis: np.ndarray, pair: tuple[int, int]) -> tuple[bool, np.ndarray | None]:
    """Does some nonzero vector in span(basis) take equal values at both vertices of pair?

    Decided by the rank of the constraint row restricted to the basis: a
    solution exists iff the rank is below the basis dimension. Returns a
    unit witness vector when one exists.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2:
        raise GraphError("basis must be a 2-d array of column vectors")
    d = basis.shape[1]
    if d == 0:
        return False, None
    u, v = pair
    _, sing, vh = np.linalg.svd(basis[[u]] - basis[[v]])
    rank = int((sing > PAIR_TOL * max(1.0, float(sing[0]))).sum())
    if rank >= d:
        return False, None
    witness = basis @ vh[-1]
    witness = witness / np.linalg.norm(witness)
    _canonical_signs(witness[:, None])
    return True, witness
