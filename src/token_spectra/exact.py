"""Exact integer characteristic polynomials and polynomial certificates.

Nothing in this module touches floating point: characteristic polynomials
are computed over Python's arbitrary-precision integers, divisibility is
decided by exact long division, and counting real roots in an interval
uses a Sturm chain over rationals. Spectral containment decided here is
binary, not tolerance-dependent, which is what makes it certificate-grade.

The characteristic polynomial uses the Faddeev-LeVerrier recurrence; the
division by k at step k is exact for integer matrices and is asserted on
every coefficient. Laplacians are sparse, so the matrix products walk the
nonzero entries of the input rather than all n^2 of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _as_int_rows(m) -> list[list[int]]:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix shape {a.shape} is not square")
    if a.size and not np.issubdtype(a.dtype, np.integer):
        if not np.all(a == np.round(a)):
            raise ValueError("matrix entries must be integers")
    return [[int(x) for x in row] for row in a.tolist()]


def char_poly(m, cancel: CancelToken | None = None) -> IntPoly:
    """det(xI - M) with exact integer coefficients (Faddeev-LeVerrier).

    Monic of degree n. The trace division at step k must be exact; a
    failure there indicates corrupted input and raises immediately.
    """
    a = _as_int_rows(m)
    n = len(a)
    if n == 0:
        return IntPoly.one()
    rows = [[(j, v) for j, v in enumerate(row) if v != 0] for row in a]
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    c = [0] * (n + 1)
    c[n] = 1
    for k in range(1, n + 1):
        if cancel is not None:
            cancel.check()
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
