"""Exact integer characteristic polynomials and polynomial certificates.

Nothing in this module touches floating point: characteristic polynomials
are exact integers, and divisibility is decided by exact long division.
Spectral containment decided here is binary, not tolerance-dependent,
which is what makes it certificate-grade.

The characteristic polynomial is computed by a multimodular route. By
Hadamard's inequality on each principal minor, every coefficient of
det(xI - M) is at most prod_j (1 + ||row j||_2) in absolute value, for any
integer matrix. Primes are taken, largest first below 2**b with
b = (63 - n.bit_length()) // 2, until their product exceeds twice that
bound; then n * (p - 1)**2 < 2**63, so no int64 dot product or outer
product can overflow. For each prime, an int64 copy of M is reduced to
upper Hessenberg form mod p, whose characteristic polynomial follows from
a short recurrence; reductions are deferred as far as that headroom
allows. The residues are combined by the Chinese remainder theorem over
Python integers and lifted to the symmetric range, which gives the
coefficients exactly (Cohen, A Course in Computational Algebraic Number
Theory, section 2.2). Faddeev-LeVerrier over Python integers, which this
replaced, stays in the tests as the oracle.

The characteristic polynomial of a k-token Laplacian is a product of
small layer polynomials. L(F_k) = sum over edges uv of (I - tau_uv) lies
in the group algebra of S_n, and for j = min(k, n - k) the permutation
module on k-subsets splits into the two-row Specht modules S^(n-h, h),
h = 0..j, each once (James, The Representation Theory of the Symmetric
Groups, LNM 682). So charpoly(L(F_k)) = prod_h chi_h, where chi_h is the
characteristic polynomial of L(F_h) on S^(n-h, h), of degree
C(n, h) - C(n, h - 1), and depends on G and h only. So ``token_layers``
takes G and k, and builds the h-token graph F_h once for each
h = 2..min(k, n - k); F_1 is G itself, and F_k is never formed.
``layer_matrix`` finds that action as an integer matrix M_h on the
standard polytabloids K and certifies it exactly: K is unit upper
triangular at the standard sets, so its columns are independent; the down
map to (h - 1)-subsets kills them, and there are C(n, h) - C(n, h - 1), so
they span S^(n-h, h); and L(F_h) K == K M_h on every row. Containment still divides this product by
charpoly(L(G)), computed on its own from L(G): chi_0 chi_1 equals it in
theory, and the division checks that, as the full polynomial was checked
before.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt
from typing import Sequence

import numpy as np

from .graphs import Graph
from .spectra import laplacian
from .tokens import DEFAULT_CAP, choose_table, require_memory, token_graph, token_order


@dataclass(frozen=True)
class IntPoly:
    """Integer-coefficient polynomial, coefficients ascending by degree.

    Canonical form: no trailing zero coefficients; the zero polynomial is
    the single coefficient (0,).
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        cs = []
        for c in self.coeffs:
            if not isinstance(c, (int, np.integer)) or isinstance(c, bool):
                raise ValueError(f"coefficient {c!r} is not an integer")
            cs.append(int(c))
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls((0,))

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return -1 if self.is_zero else len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return self.leading == 1 and not self.is_zero

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    def to_json_list(self) -> list[str]:
        """Decimal strings, ascending degree (coefficients can be huge)."""
        return [str(c) for c in self.coeffs]


def _as_int_matrix(m) -> np.ndarray:
    """m as a square int64 array; ValueError if it is not square, integral or in range."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix shape {a.shape} is not square")
    if a.dtype == np.int64:
        return a
    if a.size and not np.issubdtype(a.dtype, np.integer):
        if not np.all(a == np.round(a)):
            raise ValueError("matrix entries must be integers")
    with np.errstate(invalid="ignore"):
        out = a.astype(np.int64)
    if not np.array_equal(out, a):
        raise ValueError("matrix entries must fit in int64")
    return out


def _coefficient_bound(a: np.ndarray) -> int:
    """An integer bound on |coefficient| of det(xI - A): prod_j (1 + ||row j||_2).

    The coefficient of x^(n-k) is a signed sum of the k x k principal
    minors, each at most the product of its rows' norms (Hadamard), and
    the sum of those products over all k-subsets of rows is at most the
    full product. Each norm is rounded up to an integer.
    """
    n = a.shape[0]
    top = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    if n * top * top >= 1 << 63:
        squares = [sum(x * x for x in row) for row in a.tolist()]
    else:
        squares = np.einsum("ij,ij->i", a, a).tolist()
    out = 1
    for s in squares:
        r = isqrt(s)
        out *= 2 + r if r * r < s else 1 + r
    return out


def _prime_bits(n: int) -> int:
    """Bit size of the primes for order n: then n * (p - 1)**2 < 2**63.

    No dot product of n residues, and no residue minus a product of two,
    can overflow int64.
    """
    return (63 - n.bit_length()) // 2


_PRIMES: dict[int, list[int]] = {}


def _is_prime(p: int) -> bool:
    """Trial division, for p >= 3."""
    return p % 2 != 0 and all(p % d for d in range(3, isqrt(p) + 1, 2))


def _primes(bits: int, bound: int) -> list[int]:
    """The largest primes below 2**bits, descending, until their product exceeds 2 * bound.

    Found by trial division on first use and cached per bit size.
    """
    found = _PRIMES.setdefault(bits, [])
    product, count = 1, 0
    while product <= 2 * bound:
        if count == len(found):
            p = found[-1] - 2 if found else (1 << bits) - 1
            while not _is_prime(p):
                p -= 2
            found.append(p)
        product *= found[count]
        count += 1
    return found[:count]


# entries of the (primes, n, n) int64 array one batch reduces at once. About
# 0.5 MB stays in the CPU cache: at n = 252 one array for all 34 primes took
# twice as long as one prime at a time, while at n = 126 batches of 4 to 8
# primes beat one at a time by a quarter.
_BATCH_ENTRIES = 1 << 16

# elimination steps held back as one rank-t update. An int64 product costs
# about 1 ns per term, a reduction about 5 ns per entry: with rank-32 updates
# one prime at n = 462 took 0.23 s, against 0.49 s for rank-1 updates each reduced.
_DEFER = 32


def _char_poly_mod(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """det(xI - A) modulo each prime: a (len(primes), n + 1) array, ascending degree.

    A is one n x n matrix, or a stack of len(primes) of them, one per prime.
    Each copy is reduced to upper Hessenberg form by similarity mod its
    prime: a nonzero entry below the subdiagonal is swapped onto it (rows
    and columns alike), the rows under it are eliminated, and the inverse
    column operation is applied. The characteristic polynomial then follows
    from the Hessenberg recurrence
    p_m = (x - h[m-1, m-1]) p_(m-1) - sum_i h[i-1, m-1] h[i, i-1] ... h[m-1, m-2] p_(i-1).

    Reductions are deferred as far as the headroom of _prime_bits allows:
    every stored entry is a residue in [0, p), and no intermediate exceeds
    (p - 1) + n (p - 1)**2 < 2**63 in absolute value. The row eliminations
    of up to _DEFER steps are held as a rank-t update F R, applied with one
    product and one reduction. Until then a column c > j + 1 of the current
    matrix is h[:, c] - F R[:, c], and each step reads its pivot row and its
    column operation through that form.
    """
    n, count = a.shape[-1], len(primes)
    ps = np.array(primes, dtype=np.int64)
    p2, p3 = ps[:, None], ps[:, None, None]
    h = a % p3
    fs = np.zeros((count, n, _DEFER), dtype=np.int64)  # F: the multipliers of each held step
    rs = np.zeros((count, _DEFER, n), dtype=np.int64)  # R: its pivot row
    t, first = 0, 0  # held steps; rows above first hold none

    def release(c: int) -> None:
        """Apply the held steps to the columns c.., which makes h current."""
        block = h[:, first:, c:]
        block -= np.matmul(fs[:, first:, :t], rs[:, :t, c:])
        block %= p3
        fs[:, :, :t] = 0

    for j in range(n - 2):
        # columns <= j of h are current
        col = h[:, j + 1:, j]
        if not col[:, 1:].any():
            if t:
                release(j + 1)
                t, first = 0, j + 3
            continue
        if not col[:, 0].all():  # a zero on the subdiagonal: swap the first nonzero below onto it
            r = (col != 0).argmax(axis=1)
            q = np.flatnonzero(r)
            rq = r[q] + j + 1
            for x in (h, fs):
                x[q, rq], x[q, j + 1] = x[q, j + 1], x[q, rq]
            for x in (h, rs):
                x[q, :, rq], x[q, :, j + 1] = x[q, :, j + 1], x[q, :, rq]
        inv = np.array([pow(v, -1, p) if v else 0 for v, p in zip(col[:, 0].tolist(), primes)], dtype=np.int64)
        f = np.ones((count, n - j - 1, 1), dtype=np.int64)  # 1, then the multipliers f of rows j+2..
        f[:, 1:, 0] = col[:, 1:] * inv[:, None] % p2
        col[:, 1:] = 0
        pivot = h[:, j + 1, j + 1:]
        if t:
            pivot = (pivot - np.matmul(fs[:, j + 1, None, :t], rs[:, :t, j + 1:])[:, 0]) % p2
        rs[:, t, j + 1:] = pivot
        fs[:, j + 2:, t] = f[:, 1:, 0]
        t += 1
        # column j+1 plus the columns j+2.. weighted by f, all after this step's rows
        g = np.matmul(rs[:, :t, j + 1:], f) % p3
        h[:, :, j + 1, None] = (np.matmul(h[:, :, j + 1:], f) - np.matmul(fs[:, :, :t], g)) % p3
        if t == _DEFER or j == n - 3:
            release(j + 2)
            t, first = 0, j + 3
    # coef[:, i, c] = h[i, c] h[i+1, i] ... h[c, c-1] for i <= c, the weight of p_i in p_(c+1)
    coef = np.zeros_like(h)
    coef[:, np.arange(n), np.arange(n)] = 1
    for c in range(1, n):
        coef[:, :c, c] = coef[:, :c, c - 1] * h[:, c, c - 1, None] % p2
    coef *= h
    coef %= p3
    polys = np.zeros((count, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    for m in range(1, n + 1):
        row = polys[:, m, :m + 1]
        row[:, 1:] = polys[:, m - 1, :m]
        row[:, :-1] -= np.matmul(coef[:, None, :m, m - 1], polys[:, :m, :m])[:, 0]
        row %= p2
    return polys[:, n]


def char_poly(m) -> IntPoly:
    """det(xI - M) with exact integer coefficients, by a multimodular route.

    Monic of degree n. The coefficients are computed modulo enough
    word-size primes that their product exceeds twice the Hadamard bound
    of ``_coefficient_bound``, combined by the Chinese remainder theorem,
    and lifted to the symmetric range.
    """
    return char_polys([m])[0]


def char_polys(mats: Sequence) -> list[IntPoly]:
    """``char_poly`` of each matrix, with the (matrix, prime) pairs of all of them in shared batches.

    A batch pads its matrices with zero rows and columns to its largest
    order D, which multiplies each polynomial by x^(D - n) and leaves the
    int64 bounds of each prime as they were: a padded entry adds only zero
    terms. Small matrices then share each numpy call of the reduction.
    """
    arrays = [_as_int_matrix(m) for m in mats]
    jobs = sorted(((len(a), i, p) for i, a in enumerate(arrays)
                   for p in _primes(_prime_bits(len(a)), _coefficient_bound(a))), key=lambda job: -job[0])
    found: list[list[tuple[int, list[int]]]] = [[] for _ in arrays]
    start = 0
    while start < len(jobs):
        size = jobs[start][0]
        batch = jobs[start:start + max(1, _BATCH_ENTRIES // max(1, size * size))]
        h = np.zeros((len(batch), size, size), dtype=np.int64)
        for b, (n, i, _) in enumerate(batch):
            h[b, :n, :n] = arrays[i]
        for (n, i, p), residues in zip(batch, _char_poly_mod(h, [p for _, _, p in batch]).tolist()):
            found[i].append((p, residues[size - n:]))
        start += len(batch)
    out = []
    for residues in found:
        coeffs, modulus = [0] * len(residues[0][1]), 1
        for p, rs in residues:
            inv = pow(modulus, -1, p)
            coeffs = [c + modulus * ((r - c) * inv % p) for c, r in zip(coeffs, rs)]
            modulus *= p
        out.append(IntPoly(tuple(c - modulus if 2 * c > modulus else c for c in coeffs)))
    return out


# memoized, as read-only arrays, as tokens memoizes its tables: a sweep takes the layers
# of many graphs of a few (n, h), and layer_matrix still certifies each use
@lru_cache(maxsize=32)
def _standard_polytabloids(n: int, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The standard polytabloids of shape (n - h, h), as signed sums of h-subsets.

    A standard tableau is fixed by its second row b_1 < ... < b_h with
    a_i < b_i, where a is the sorted complement of b; that is b_i >= 2i - 1
    counting from 1. Its polytabloid prod_i (1 - (a_i b_i)) {b} has a term
    for each set I of columns: b with b_i replaced by a_i for i in I, with
    sign (-1)^|I|. Each replacement lowers the sum, so sorted by (sum b, b)
    the standard rows of the polytabloids are unit upper triangular.

    Returns (level, rank, down, sign): the sums of the standard sets in that
    order, the (d, 2**h) colex ranks of each polytabloid's terms (term 0 is
    b itself), the (d, 2**h, h) colex ranks of each term less one of its
    elements, and the 2**h signs.
    """
    b = np.array([s for s in combinations(range(n), h) if all(x > 2 * i for i, x in enumerate(s))]).reshape(-1, h)
    b = b[np.argsort(b.sum(axis=1), kind="stable")]
    free = np.ones((len(b), n), dtype=bool)
    free[np.arange(len(b))[:, None], b] = False
    a = np.nonzero(free)[1].reshape(len(b), n - h)[:, :h]
    swap = (np.arange(1 << h)[:, None] >> np.arange(h) & 1).astype(bool)  # term t swaps the columns of its bits
    terms = np.where(swap, a[:, None], b[:, None])
    terms.sort(axis=2)
    choose = choose_table(n, h)
    place = choose[terms, np.arange(1, h + 1)]  # the colex term of each element in its place
    lower = choose[terms, np.arange(h)]  # and one place down
    # less element i, the elements before it keep their places and those after move down one
    down = np.cumsum(place - lower, axis=2) - place + lower.sum(axis=2, keepdims=True)
    out = b.sum(axis=1), place.sum(axis=2), down, 1 - 2 * (swap.sum(axis=1) % 2)
    for array in out:
        array.flags.writeable = False
    return out


def _back_substitute(upper: np.ndarray, rhs: np.ndarray, level: np.ndarray) -> np.ndarray:
    """m with (I + upper) m = rhs, for upper strictly upper triangular over levels.

    An entry of upper links a row only to rows of a higher level, so the
    rows of one level are solved together, top level first.
    """
    m = rhs.copy()
    rows = np.flatnonzero(upper.any(axis=1))
    if not rows.size:
        return m
    cuts = [0, *(np.flatnonzero(np.diff(level[rows])) + 1).tolist(), len(rows)]
    for lo, hi in reversed(list(zip(cuts, cuts[1:]))):
        grp = rows[lo:hi]
        m[grp] -= upper[grp] @ m
    return m


# entries of one scatter of token edges into L(F_h) K, which bounds its temporaries
_SCATTER_ENTRIES = 1 << 16


def layer_matrix(n: int, h: int, edges: np.ndarray) -> np.ndarray:
    """The integer matrix M_h of L(F_h) on the Specht module S^(n-h, h), 1 <= h <= n/2.

    edges is the (m, 2) edge array of the h-token graph F_h in colex ranks.
    K is the C(n, h) x d matrix whose columns are the standard polytabloids,
    and L(F_h) K is the degree times K minus a scatter along the token
    edges. Its rows at the standard sets equal K_std M_h, with K_std unit
    upper triangular, so M_h follows by integer back-substitution, one level
    of sum b at a time from the top: no entry of K_std links two sets of
    the same level.

    The result is certified, or AssertionError. K_std has a unit diagonal
    and links each row only to rows of a higher level, so the columns of K
    are independent. The down map D, which sends an h-subset to the sum of
    its (h - 1)-subsets, has D K == 0. And d == C(n, h) - C(n, h - 1). For
    h <= n/2, D is onto, and in characteristic 0 its kernel is S^(n-h, h)
    (James, kernel intersection theorem), so K is a basis of it. Last,
    L(F_h) K == K M_h on every one of the C(n, h) rows, exactly in int64.
    """
    size = comb(n, h)
    level, rank, down, sign = _standard_polytabloids(n, h)
    std, d = rank[:, 0], len(rank)
    if d != size - comb(n, h - 1):
        raise AssertionError(f"layer {h} of n = {n} has {d} standard polytabloids, "
                             f"not C(n,h) - C(n,h-1) = {size - comb(n, h - 1)}")
    cols = np.arange(d)
    k = np.zeros((size, d), dtype=np.int64)
    k[rank, cols[:, None]] = sign
    # with every term in its own entry, D K is the sum over the terms' (h - 1)-subsets
    dk = np.zeros((comb(n, h - 1), d), dtype=np.int64)
    np.add.at(dk, (down, cols[:, None, None]), sign[:, None])
    if np.count_nonzero(k) != rank.size or dk.any():
        raise AssertionError(f"layer {h}: the polytabloids are not in the kernel of the down map")
    upper = k[std]
    if not (upper[cols, cols] == 1).all():
        raise AssertionError(f"layer {h}: K at the standard sets has a diagonal entry other than 1")
    upper[cols, cols] = 0
    if upper[level[:, None] >= level].any():
        raise AssertionError(f"layer {h}: K at the standard sets links two rows not in increasing level")
    ends = np.concatenate((edges, edges[:, ::-1]))  # (set, neighbour), both ways
    lk = np.bincount(ends[:, 0], minlength=size)[:, None] * k
    step = max(1, _SCATTER_ENTRIES // d)
    for part in (ends[lo:lo + step] for lo in range(0, len(ends), step)):
        np.subtract.at(lk.reshape(-1), (part[:, :1] * d + cols).ravel(), k[part[:, 1]].ravel())
    m = _back_substitute(upper, lk[std], level)
    # each entry of K M_h sums d terms, each at most max|M_h|
    top = int(np.abs(m).max(initial=0)) * d
    if top >= 1 << 63:
        raise AssertionError(f"layer {h}: K M_h could overflow int64 (bound {top})")
    if not np.array_equal(k @ m, lk):
        raise AssertionError(f"layer {h}: L(F_h) K != K M_h")
    return m


def token_layers(g: Graph, k: int, cap: int = DEFAULT_CAP) -> list[np.ndarray]:
    """The layer matrices M_1, ..., M_j of the k-token graph of g, j = min(k, n - k).

    M_h depends on g and h only, so the h-token graph F_h is built for
    h = 2..j, each once, and F_1 is g itself: the k-token graph is never
    built. Raises, before any work, GraphError unless 1 <= k <= n - 1, and
    CapExceededError when C(n, k) exceeds the vertex cap or the largest
    layer would not fit in physical memory. The dimensions, with 1 for the
    trivial layer, must sum to C(n, k).
    """
    n, j = g.n, min(k, g.n - k)
    size = token_order(n, k, cap)
    # a layer holds K, L(F_h) K and K M_h, C(n, h) x d each, D K, C(n, h - 1) x d,
    # three int64 arrays of one scatter chunk, and for its characteristic
    # polynomial about six d x d. Measured by ru_maxrss, at n = 12..14: 36 to
    # 45 bytes per C(n, h) d for a layer, 40 per d^2 for its polynomial alone.
    dims = [(comb(n, h), comb(n, h - 1), comb(n, h) - comb(n, h - 1)) for h in range(1, j + 1)]
    require_memory(max(8 * (3 * rows * d + below * d + 6 * d * d) for rows, below, d in dims)
                   + 24 * _SCATTER_ENTRIES, f"the exact route on the {k}-token graph of {n} vertices")
    layers = [layer_matrix(n, h, (g if h == 1 else token_graph(g, h, cap).graph).edge_array)
              for h in range(1, j + 1)]
    dim = 1 + sum(len(m) for m in layers)
    if dim != size:
        raise AssertionError(f"layer dimensions sum to {dim}, not C(n, k) = {size}")
    return layers


def token_char_polys(g: Graph, k: int, cap: int = DEFAULT_CAP) -> tuple[IntPoly, IntPoly]:
    """(charpoly(L(G)), charpoly(L(F_k))) for g = G and its k-token graph F_k.

    The first comes from L(G) alone; it only shares the batches of primes
    of the layers, which on small graphs saves the numpy calls of a
    reduction of its own. The second is the product of the layer polynomials chi_h, h = 0..min(k, n - k):
    chi_0 = x, as every I - tau_uv vanishes on the constant functions, and
    chi_h = charpoly(M_h) for h >= 1 (see ``token_layers``).
    """
    layers = token_layers(g, k, cap)
    p, *chis = char_polys([laplacian(g), *layers])
    q = IntPoly((0, 1))
    for chi in chis:
        q = q * chi
    return p, q


def poly_divides(p: IntPoly, q: IntPoly) -> tuple[bool, IntPoly]:
    """Does p divide q exactly over the integers?

    Returns (True, quotient) or (False, remainder). p must be monic, which
    every characteristic polynomial is; that keeps the long division
    integral throughout.
    """
    if p.is_zero:
        raise ValueError("division by the zero polynomial")
    if not p.is_monic:
        raise ValueError("divisor must be monic")
    if q.is_zero:
        return True, IntPoly.zero()
    if q.degree < p.degree:
        return False, q
    rem = list(q.coeffs)
    dp = p.degree
    quot = [0] * (q.degree - dp + 1)
    for shift in range(q.degree - dp, -1, -1):
        factor = rem[shift + dp]
        if factor == 0:
            continue
        quot[shift] = factor
        for i, pc in enumerate(p.coeffs):
            rem[shift + i] -= factor * pc
    remainder = IntPoly(tuple(rem[:dp]) if dp > 0 else (0,))
    if remainder.is_zero:
        return True, IntPoly(tuple(quot))
    return False, remainder

