"""Correctness gate: expected verdicts and exact witnesses for every cell.

Every check the benchmark runs states a theorem, so every expected verdict
is "pass", with one exception: see ``edge_add_tie``. Exact containment
cells also carry expected witnesses: the token vertex count C(n, k), the
quotient degree C(n, k) - n, and a digest of the quotient coefficients.
The digest comes from an independent route: characteristic polynomials by
Hessenberg reduction modulo word-size primes, combined by the Chinese
remainder theorem, then exact long division. It shares no code with the
package's Faddeev-LeVerrier route.
"""

from __future__ import annotations

import hashlib
import math
from itertools import combinations

import numpy as np

PRIME_BITS = 26  # products of two residues stay below 2**52, sums of 2**11 below 2**63


def _is_prime(p: int) -> bool:
    if p % 2 == 0:
        return p == 2
    return all(p % d for d in range(3, math.isqrt(p) + 1, 2))


def _primes(count: int) -> list[int]:
    out, p = [], (1 << PRIME_BITS) - 1
    while len(out) < count:
        if _is_prime(p):
            out.append(p)
        p -= 2
    return out


def laplacian(n: int, edges) -> np.ndarray:
    out = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        out[u, v] = out[v, u] = -1
    out[np.diag_indices(n)] = -out.sum(axis=1)
    return out


def token_laplacian(n: int, edges, k: int) -> np.ndarray:
    """Laplacian of the k-token graph, built from the definition in any vertex order."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    subsets = [frozenset(s) for s in combinations(range(n), k)]
    index = {s: i for i, s in enumerate(subsets)}
    out = np.zeros((len(subsets), len(subsets)), dtype=np.int64)
    for i, s in enumerate(subsets):
        for a in s:
            for b in adj[a] - s:
                out[i, index[(s - {a}) | {b}]] = -1
    out[np.diag_indices(len(subsets))] = -out.sum(axis=1)
    return out


def _charpoly_mod(a: np.ndarray, p: int) -> list[int]:
    """det(xI - A) mod p, ascending coefficients, via Hessenberg reduction."""
    a = a % p
    n = a.shape[0]
    for j in range(n - 2):
        nz = np.nonzero(a[j + 1:, j])[0]
        if nz.size == 0:
            continue
        r = j + 1 + int(nz[0])
        if r != j + 1:
            a[[r, j + 1], :] = a[[j + 1, r], :]
            a[:, [r, j + 1]] = a[:, [j + 1, r]]
        inv = pow(int(a[j + 1, j]), -1, p)
        f = (a[j + 2:, j] * inv) % p
        a[j + 2:, :] = (a[j + 2:, :] - np.outer(f, a[j + 1, :])) % p
        a[:, j + 1] = (a[:, j + 1] + a[:, j + 2:] @ f) % p
    h = a.tolist()
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for m in range(1, n + 1):
        # p_m = (x - h[m-1][m-1]) p_{m-1} - sum_i h[i-1][m-1] * prod_{j=i..m-1} h[j][j-1] * p_{i-1}
        weights = np.zeros(m - 1, dtype=np.int64)
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = prod * h[i][i - 1] % p
            weights[i - 1] = h[i - 1][m - 1] * prod % p
        row = np.zeros(n + 1, dtype=np.int64)
        row[1:] = polys[m - 1, :-1]
        row = (row - h[m - 1][m - 1] * polys[m - 1]) % p
        if m > 1:
            row = (row - weights @ polys[: m - 1]) % p
        polys[m] = row
    return polys[n].tolist()


def charpoly_exact(laplacian: np.ndarray) -> list[int]:
    """Integer characteristic polynomial of a Laplacian by the multimodular route."""
    a = np.asarray(laplacian, dtype=np.int64)
    n = a.shape[0]
    # eigenvalues lie in [0, 2 * max degree], so |coefficient| <= (1 + 2 max degree)^n
    spread = 1 + 2 * int(np.abs(np.diag(a)).max(initial=0))
    bits = n * math.log2(spread) + 2
    primes = _primes(int(bits // (PRIME_BITS - 1)) + 2)
    coeffs = [0] * (n + 1)
    modulus = 1
    for p in primes:
        residues = _charpoly_mod(a.copy(), p)
        inv = pow(modulus % p, -1, p)
        coeffs = [c + modulus * (((r - c) * inv) % p) for c, r in zip(coeffs, residues)]
        modulus *= p
    return [c - modulus if c > modulus // 2 else c for c in coeffs]


def divide_exact(q: list[int], p: list[int]) -> list[int]:
    """Quotient of q by the monic p; raises when the remainder is not zero."""
    rem = list(q)
    dp = len(p) - 1
    quot = [0] * (len(q) - dp)
    for shift in range(len(quot) - 1, -1, -1):
        factor = rem[shift + dp]
        quot[shift] = factor
        for i, c in enumerate(p):
            rem[shift + i] -= factor * c
    if any(rem[:dp]):
        raise ArithmeticError("characteristic polynomial of G does not divide that of F_k(G)")
    return quot


def edge_add_tie(n: int, edges, u: int, v: int, tol: float = 1e-7) -> bool:
    """Does the edge-add-iff check's tolerance, not the theorem, decide this instance?

    The theorem: adding uv keeps alpha iff some Fiedler vector takes equal
    values at u and v. The check decides the first side by
    |alpha change| <= tol * max(1, alpha) and the second by a rank test at
    the same tol. The change in alpha shrinks like (x_u - x_v)^2, so a pair
    with x_u - x_v between about tol and sqrt(tol) passes the first test
    and fails the second: the check then says "fail" although the theorem
    holds. This recomputes both tests with numpy's own eigensolver and
    reports whether they disagree; such a cell may end either way.
    """
    l0 = laplacian(n, edges).astype(float)
    l1 = l0.copy()
    l1[[u, v], [u, v]] += 1.0
    l1[[u, v], [v, u]] -= 1.0
    w0, q0 = np.linalg.eigh(l0)
    a0, a1 = w0[1], np.linalg.eigvalsh(l1)[1]
    alpha_kept = abs(a1 - a0) <= tol * max(1.0, abs(a0))
    group = np.abs(w0 - a0) <= 1e-8 * max(1.0, float(np.abs(w0).max()))
    diff = float(np.linalg.norm(q0[u, group] - q0[v, group]))
    equal_pair = int(group.sum()) > 1 or diff <= tol * max(1.0, diff)
    return bool(alpha_kept != equal_pair)


def digest(coeffs) -> str:
    return hashlib.sha256(",".join(str(int(c)) for c in coeffs).encode()).hexdigest()


def observed(cert) -> dict:
    """The fields of a certificate the gate compares."""
    w = cert.witnesses
    out = {"verdict": cert.verdict}
    if "token_vertices" in w:
        out["token_vertices"] = w["token_vertices"]
    if w.get("mode") == "exact":
        out["quotient_degree"] = w.get("quotient_degree")
        out["quotient_digest"] = digest(w.get("quotient", ()))
    return out


def mismatches(seen: dict | None, expected: dict) -> list[str]:
    """Expected fields that the observed record lacks or contradicts; None means the cell raised.

    An expected value given as a tuple lists every value that is accepted.
    """
    if seen is None:
        return ["raised"]
    return [key for key, val in expected.items()
            if (seen.get(key) not in val if isinstance(val, tuple) else seen.get(key) != val)]


def self_test(records: list[tuple[dict | None, dict]]) -> bool:
    """A deliberately wrong expectation must be counted as a mismatch.

    Takes the first clean record and the first clean exact record, flips
    the expected verdict of one and the expected quotient digest of the
    other, and requires both to be caught.
    """
    clean = [(s, e) for s, e in records if s is not None and not mismatches(s, e)]
    if not clean:
        return False
    seen, exp = clean[0]
    if not mismatches(seen, {**exp, "verdict": "pass" if seen["verdict"] != "pass" else "fail"}):
        return False
    for seen, exp in clean:
        if "quotient_digest" in exp:
            wrong = {**exp, "quotient_digest": digest([0])}
            return bool(mismatches(seen, wrong))
    return True
