"""Dense Laplacian spectra with explicit eigenspace grouping, and a sparse
route to the algebraic connectivity of large token graphs.

The dense eigensolver is LAPACK's symmetric solver reached through
numpy; this module adds the contracts the verification layer depends on:
ascending eigenvalues, clustering into eigenspace groups at a relative gap
tolerance, a residual check on every eigenvector, and sign-canonicalized
eigenvectors so repeated runs produce identical output. A Spectrum's
groups are slices into its values and its read-only eigenvector columns.

Grouping matters because several checks quantify over the *whole*
eigenspace of the algebraic connectivity: a single computed eigenvector is
not enough when that eigenvalue is degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import Graph, GraphError
from .tokens import TokenGraph, lift, require_memory

DEFAULT_RESID_TOL = 1e-9
DEFAULT_GROUP_TOL = 1e-8
PAIR_TOL = 1e-7  # rank cut of eigenspace_has_equal_pair, relative to the largest singular value


class NumericalError(RuntimeError):
    """Eigensolver failed to converge or violated a residual bound."""


# Peak bytes per N^2 of the dense route: ru_maxrss less the RSS before
# algebraic_connectivity on 5-token graphs of paths, N = 2002..4368: 41.7 to 42.1.
# The peak is inside eigh, with the float matrix, its eigenvectors and LAPACK's work.
DENSE_BYTES_PER_N2 = 44
# Peak bytes per N^2 of token_spectrum, measured the same way on 5-token graphs of
# paths, N = 2002 and 4368: 16.2 and 16.1. It holds the float Laplacian and
# eigvalsh's copy of it; the int64 matrix it was made from is freed before.
VALUES_BYTES_PER_N2 = 18

# token graphs of at least this order take the sparse route in token_alpha.
# Against the dense route's eigvalsh, best of 3 with 1 BLAS thread: on
# G(n, C(n,2)//2 + 1) graphs sparse was as fast at N = 495 and 2.6x faster at
# N = 924 (39 against 99 ms); on paths dense was 1.5x faster at N = 792 and
# sparse 1.2x faster at N = 924. Below this order the dense route takes at
# most about 0.1 s and certifies alpha, which the sparse route does not.
SPARSE_MIN_ORDER = 1000
# LOBPCG block sizes, tried in turn while a block's residuals stay above the
# bound; the least eigenvalue off range(B) is simple on most graphs
SPARSE_BLOCKS = (4, 8, 16, 32)
SPARSE_MAXITER = 500
# Peak bytes of the sparse route, by tracemalloc on token graphs of G(16, 0.5)
# and paths, N = 1001..18564: about 26 per Laplacian nonzero, and 113 per row
# for each column of the LOBPCG block at every block size; the dense lift,
# 8 per row for each base vertex, is counted at the block's rate.
SPARSE_BYTES_PER_NONZERO = 32
SPARSE_BYTES_PER_ROW_COLUMN = 120


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


def principal_submatrix(m: np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Rows and columns restricted to keep, ordered by ascending index."""
    m = np.asarray(m)
    order = m.shape[0]
    idx = sorted(set(keep))
    for v in idx:
        if not (0 <= v < order):
            raise GraphError(f"index {v} out of range [0, {order})")
    return m[np.ix_(idx, idx)]


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
    """Degree diagonal minus adjacency, as a scipy CSR float matrix."""
    from scipy.sparse import csr_array

    u, v = g.edge_array.T
    diag = np.arange(g.n)
    data = np.concatenate((np.full(2 * g.m, -1.0), np.bincount(g.edge_array.ravel(), minlength=g.n)))
    return csr_array((data, (np.concatenate((u, v, diag)), np.concatenate((v, u, diag)))), shape=(g.n, g.n))


def token_alpha(tg: TokenGraph) -> tuple[float, float | None]:
    """Algebraic connectivity of tg's token graph, and mu when the sparse route gave it.

    Below SPARSE_MIN_ORDER token vertices alpha is fiedler_value of
    token_spectrum: the eigenvalues of L(F_k) from one values-only solve,
    certified by the eigenpairs of L(G) lifted through B, and mu is None.
    From there on, see _sparse_token_alpha.
    """
    if tg.graph.n < SPARSE_MIN_ORDER:
        return fiedler_value(token_spectrum(tg, eig_sym(laplacian(tg.base).astype(float)))), None
    return _sparse_token_alpha(tg)


def token_spectrum(tg: TokenGraph, base: Spectrum) -> np.ndarray:
    """Ascending eigenvalues of L(F_k) from one values-only solve, certified by base = eig_sym(L(G)).

    Each eigenvector v of L(G) lifts to x = B v, B = lift(n, k), an
    eigenvector of L(F_k) for v's eigenvalue lambda since L(F_k) B = B L(G).
    NumericalError unless every lifted pair has ||L(F_k) x - lambda x|| / ||x||
    <= DEFAULT_RESID_TOL * max(1, max |values|). B^T B = c I + c' J keeps the
    lifts of a connected G orthogonal, so by the residual theorem (Parlett,
    The Symmetric Eigenvalue Problem, ch. 11) each eigenvalue of L(G), with
    its multiplicity, lies within a small multiple of that bound of spec(L(F_k)).
    """
    lap = laplacian(tg.graph, VALUES_BYTES_PER_N2).astype(float)  # the int64 matrix is freed before eigvalsh
    try:
        values = np.linalg.eigvalsh(lap)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    x = lift(tg.base.n, tg.k) @ base.vectors
    resid = np.linalg.norm(lap @ x - x * base.values, axis=0) / np.linalg.norm(x, axis=0)
    bound = DEFAULT_RESID_TOL * max(1.0, float(np.abs(values).max()))
    if resid.max() > bound:
        raise NumericalError(f"lifted residual {resid.max():.3g} exceeds bound {bound:.3g}")
    return values


def _sparse_token_alpha(tg: TokenGraph) -> tuple[float, float | None]:
    """alpha(F_k) = min(alpha(G), mu), mu the least eigenvalue of L(F_k) on range(B)^perp.

    B is the lift of G's vertices to k-subsets. L(F_k) B = B L(G) with B of
    full column rank, so range(B) carries the spectrum of L(G) and its
    orthogonal complement the rest. LOBPCG, constrained to that complement
    by Y = B, finds mu from a fixed-seed block with a Jacobi preconditioner.

    A block is accepted when every Ritz residual is at most
    DEFAULT_RESID_TOL * max(1, Delta + 1), Delta the largest degree of
    F_k (Delta + 1 <= lambda_max when there is an edge, so the bound is never
    looser than eig_sym's), and the lowest group of Ritz values, split at
    gaps above DEFAULT_GROUP_TOL * max(1, Delta + 1), closes below the last
    one. A block whose residuals are too large gives way to the next of
    SPARSE_BLOCKS. A block whose residuals pass but whose Ritz values form
    one group shows that mu has at least that multiplicity; no block size is
    known to close it, so the dense route decides, as it does when no block
    is accepted or the next is too large for LOBPCG at this order. Then mu
    is None, and alpha is read from values only, from token_spectrum,
    certified by the eigenpairs of L(G) lifted through B; CapExceededError
    is raised when that solve does not fit in memory.

    Unlike the dense route, this one does not certify that mu is the least
    eigenvalue off range(B): LOBPCG could settle on a higher cluster, which
    would make min(alpha(G), mu) read alpha(G). Certificates say so.
    """
    import warnings

    from scipy.sparse import diags_array
    from scipy.sparse.linalg import lobpcg

    g, n = tg.graph, tg.base.n
    order = g.n
    require_memory(SPARSE_BYTES_PER_NONZERO * (2 * g.m + order)
                   + SPARSE_BYTES_PER_ROW_COLUMN * order * (SPARSE_BLOCKS[-1] + n),
                   f"the sparse route at N = {order}")
    base = eig_sym(laplacian(tg.base).astype(float))
    a_base = fiedler_value(base.values)
    lap = sparse_laplacian(g)
    degree = lap.diagonal()
    y = lift(n, tg.k)
    jacobi = diags_array(1.0 / np.maximum(degree, 1.0))
    scale = max(1.0, float(degree.max()) + 1.0)  # Grone-Merris: Delta + 1 <= lambda_max
    bound = DEFAULT_RESID_TOL * scale
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lobpcg warns when it stops short; the residuals below decide
        for size in SPARSE_BLOCKS:
            if order - n < 5 * size:  # lobpcg takes no constraints on smaller problems
                break
            try:
                vals, vecs = lobpcg(lap, rng.standard_normal((order, size)), M=jacobi, Y=y,
                                    tol=bound / 2, maxiter=SPARSE_MAXITER, largest=False)
            except np.linalg.LinAlgError:
                break
            rank = np.argsort(vals)
            vals, vecs = vals[rank], vecs[:, rank]
            resid = np.linalg.norm(lap @ vecs - vecs * vals, axis=0) / np.linalg.norm(vecs, axis=0)
            if resid.max() > bound:
                continue
            if not (np.diff(vals) > DEFAULT_GROUP_TOL * scale).any():
                break
            mu = float(vals[0])
            value = min(a_base, mu)
            return (0.0 if abs(value) <= bound else value), mu
    return fiedler_value(token_spectrum(tg, base)), None


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
