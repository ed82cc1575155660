"""Exact integer characteristic polynomials and polynomial certificates.

Nothing in this module touches floating point: characteristic polynomials
are exact integers, divisibility is decided by exact long division, and
counting real roots in an interval uses a Sturm chain over rationals.
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
a short recurrence. The residues are combined by the Chinese remainder
theorem over Python integers and lifted to the symmetric range, which
gives the coefficients exactly (Cohen, A Course in Computational Algebraic
Number Theory, section 2.2). Faddeev-LeVerrier over Python integers, which
this replaced, stays in the tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

import numpy as np


class OperationCancelled(RuntimeError):
    """A cooperative cancellation token was triggered mid-computation."""


@dataclass
class CancelToken:
    """Cooperative cancellation flag checked by long-running exact routines."""

    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True

    def check(self) -> None:
        if self.cancelled:
            raise OperationCancelled("computation cancelled")


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

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x_minus(cls, a: int) -> "IntPoly":
        return cls((-a, 1))

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

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

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

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative power")
        out = IntPoly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def evaluate(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        if self.degree <= 0:
            return IntPoly.zero()
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def to_json_list(self) -> list[str]:
        """Decimal strings, ascending degree (coefficients can be huge)."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json_list(cls, items: Sequence[str]) -> "IntPoly":
        return cls(tuple(int(s) for s in items))


def _as_int_matrix(m) -> np.ndarray:
    """m as a square int64 array; ValueError if it is not square, integral or in range."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix shape {a.shape} is not square")
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


def _char_poly_mod(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """det(xI - A) modulo each prime: a (len(primes), n + 1) array, ascending degree.

    Each copy of A is reduced to upper Hessenberg form by similarity mod its
    prime: a nonzero entry below the subdiagonal is swapped onto it (rows
    and columns alike), then the entries under it are eliminated. The
    characteristic polynomial then follows from the Hessenberg recurrence
    p_m = (x - h[m-1, m-1]) p_(m-1) - sum_i h[i-1, m-1] h[i, i-1] ... h[m-1, m-2] p_(i-1).
    """
    n = a.shape[0]
    ps = np.array(primes, dtype=np.int64)
    p2, p3 = ps[:, None], ps[:, None, None]
    h = a[None] % p3
    batch = np.arange(len(primes))
    for j in range(n - 2):
        below = h[:, j + 1:, j] != 0
        if not below[:, 1:].any():
            continue
        r = j + 1 + below.argmax(axis=1)
        swap = r != j + 1
        if swap.any():
            q, rq = batch[swap], r[swap]
            rows = h[q, rq, :]
            h[q, rq, :] = h[q, j + 1, :]
            h[q, j + 1, :] = rows
            cols = h[q, :, rq]
            h[q, :, rq] = h[q, :, j + 1]
            h[q, :, j + 1] = cols
        pivots = h[:, j + 1, j].tolist()
        inv = np.array([pow(v, -1, p) if v else 0 for v, p in zip(pivots, primes)], dtype=np.int64)
        f = h[:, j + 2:, j] * inv[:, None] % p2
        h[:, j + 2:, j + 1:] -= f[:, :, None] * h[:, j + 1, None, j + 1:]
        h[:, j + 2:, j + 1:] %= p3
        h[:, j + 2:, j] = 0
        h[:, :, j + 1] += np.matmul(h[:, :, j + 2:], f[:, :, None])[:, :, 0] % p2
        h[:, :, j + 1] %= p2
    polys = np.zeros((len(primes), n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    weights = np.zeros((len(primes), 0), dtype=np.int64)  # h[i, i-1] ... h[m-1, m-2] for i < m
    for m in range(1, n + 1):
        row = polys[:, m]
        row[:, 1:] = polys[:, m - 1, :-1]
        row -= h[:, m - 1, m - 1, None] * polys[:, m - 1]
        if m > 1:
            sub = h[:, m - 1, m - 2, None]
            weights = np.concatenate((weights * sub % p2, sub), axis=1)
            w = h[:, :m - 1, m - 1] * weights % p2
            row -= np.matmul(w[:, None, :], polys[:, :m - 1])[:, 0] % p2
        row %= p2
    return polys[:, n]


def char_poly(m, cancel: CancelToken | None = None) -> IntPoly:
    """det(xI - M) with exact integer coefficients, by a multimodular route.

    Monic of degree n. The coefficients are computed modulo enough
    word-size primes that their product exceeds twice the Hadamard bound
    of ``_coefficient_bound``, combined by the Chinese remainder theorem,
    and lifted to the symmetric range. ``cancel`` is checked before each
    batch of primes.
    """
    a = _as_int_matrix(m)
    n = a.shape[0]
    primes = _primes(_prime_bits(n), _coefficient_bound(a))
    coeffs, modulus = [0] * (n + 1), 1
    step = max(1, _BATCH_ENTRIES // max(1, n * n))
    for start in range(0, len(primes), step):
        if cancel is not None:
            cancel.check()
        batch = primes[start:start + step]
        for p, residues in zip(batch, _char_poly_mod(a, batch).tolist()):
            inv = pow(modulus, -1, p)
            coeffs = [c + modulus * ((r - c) * inv % p) for c, r in zip(coeffs, residues)]
            modulus *= p
    return IntPoly(tuple(c - modulus if 2 * c > modulus else c for c in coeffs))


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


def cycle_path_identity_check(h: int) -> bool:
    """Exact identity x * charpoly(cycle minus one vertex) == charpoly(path).

    Both sides are taken on h vertices: the left factor is the principal
    submatrix of the cycle Laplacian with one vertex deleted, the right
    side the full path Laplacian. Holds for every h >= 3; a False return
    means an implementation bug, not a mathematical discovery.
    """
    if h < 3:
        raise ValueError("need h >= 3")
    from .graphs import cycle_graph, path_graph
    from .spectra import laplacian, principal_submatrix

    sub = principal_submatrix(laplacian(cycle_graph(h)), range(1, h))
    lhs = IntPoly((0, 1)) * char_poly(sub)
    rhs = char_poly(laplacian(path_graph(h)))
    return lhs == rhs


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
    chain.append([Fraction(c) for c in p.derivative().coeffs])
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
