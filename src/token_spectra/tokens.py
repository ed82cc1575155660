"""k-token graphs, with vertices labeled by colex subset rank.

A vertex of the k-token graph stands for a k-subset of the base graph's
vertices; two subsets are adjacent exactly when their symmetric difference
is an edge of the base graph. The subset s_0 < ... < s_{k-1} has the colex
rank sum_j C(s_j, j+1), in [0, C(n, k)).

Complementing every subset maps the k-token graph onto the (n-k)-token
graph and reverses colex order, so the graph is built for j = min(k, n-k)
in one vectorized pass over the C(n, j) x j subset table: each subset, each
of its elements a and each base edge (a, b) with b > a outside it give one
token edge, to the subset with a swapped for b, which has the larger rank.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .graphs import Graph, GraphError, format_edge_list

DEFAULT_CAP = 200_000

# Peak bytes per candidate row, of which there are |E| * C(n-1, j-1): ru_maxrss
# less the RSS before token_graph, on paths, cycles and complete graphs with 104k
# to 1.8M rows and j = 2..10: 62 to 102.
TOKEN_BYTES_PER_ROW = 112
# None where os.sysconf is missing (Windows): the estimates go unchecked there
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if hasattr(os, "sysconf") else None


class CapExceededError(RuntimeError):
    """A token graph would exceed the vertex cap, or a computation the physical memory."""


def require_memory(nbytes: int, what: str) -> None:
    """Raise CapExceededError when an estimated nbytes exceeds the physical memory."""
    if PHYSICAL_MEMORY is not None and nbytes > PHYSICAL_MEMORY:
        raise CapExceededError(f"{what} needs about {nbytes / 2**30:.3g} GiB, "
                               f"physical memory is {PHYSICAL_MEMORY / 2**30:.3g} GiB")


@dataclass(frozen=True)
class TokenGraph:
    """A base graph together with its k-token graph."""

    base: Graph
    k: int
    graph: Graph

    def to_edge_list_text(self) -> str:
        header = f"token base_n={self.base.n} k={self.k} codec=colex"
        return format_edge_list(self.graph, header=header)


# choose_table and _colex_subsets are memoized, as read-only arrays: a sweep builds
# many token graphs of a few (n, j), and their fixed numpy overhead dominated there
@lru_cache(maxsize=32)
def choose_table(n: int, j: int) -> np.ndarray:
    """choose[m, i] = C(m, i) for m <= n, i <= j, so the colex rank of a row s is choose[s, 1..j].sum().

    No entry exceeds C(n, j) when j <= n/2.
    """
    choose = np.zeros((n + 1, j + 1), dtype=np.int64)
    choose[:, 0] = 1
    for i in range(1, j + 1):
        choose[1:, i] = np.cumsum(choose[:-1, i - 1])
    choose.flags.writeable = False
    return choose


@lru_cache(maxsize=32)
def _colex_subsets(n: int, j: int) -> np.ndarray:
    """The C(n, j) x j table of j-subsets of range(n), each sorted, rows in colex order.

    Colex order is lexicographic order on the subsets written in descending
    order, read backwards; so no sort is needed.
    """
    flat = chain.from_iterable(combinations(range(n - 1, -1, -1), j))
    table = np.fromiter(flat, dtype=np.int64, count=comb(n, j) * j).reshape(-1, j)[::-1, ::-1]
    table.flags.writeable = False
    return table


def lift(n: int, k: int) -> np.ndarray:
    """The C(n, k) x n membership matrix B of k-subsets in colex order, as a dense float array.

    Row i has a 1 in each column of the i-th k-subset. B intertwines the
    Laplacians, L(F_k) B = B L(G), and has full column rank for 1 <= k < n.
    """
    members = _colex_subsets(n, k)
    out = np.zeros((len(members), n))
    out[np.arange(len(members))[:, None], members] = 1.0
    return out


def token_order(n: int, k: int, cap: int = DEFAULT_CAP) -> int:
    """C(n, k), the k-token graph's order; GraphError unless 1 <= k <= n - 1, CapExceededError past the cap."""
    if not 1 <= k <= n - 1:
        raise GraphError(f"need 1 <= k <= n-1, got n={n} k={k}")
    size = comb(n, k)
    if size > cap:
        raise CapExceededError(f"token graph would have {size} vertices, cap is {cap}")
    return size


def _token_edges(g: Graph, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Colex ranks (source, target), source < target, of the j-token graph's edges."""
    n = g.n
    subsets = _colex_subsets(n, j)
    choose = choose_table(n, j)
    # base edges are sorted pairs (a, b) with a < b, so the neighbours of a
    # above a are head[first[a]:first[a + 1]]
    tail, head = g.edge_array.T
    first = np.searchsorted(tail, np.arange(n + 1))
    a = subsets.ravel()
    deg = first[a + 1] - first[a]
    # one candidate row per (subset, position of a in it, neighbour b of a above a)
    source, pos = np.divmod(np.repeat(np.arange(a.size), deg), j)
    b = head[np.arange(deg.sum()) + np.repeat(first[a] - (np.cumsum(deg) - deg), deg)]
    # b must lie outside the source subset; tested, and the rank summed, one
    # column at a time, so that only the rows kept are ever gathered whole
    free = np.ones(b.size, dtype=bool)
    for column in subsets.T:
        free &= column[source] != b
    source, pos, b = source[free], pos[free], b[free]
    rows = subsets[source]
    rows[np.arange(b.size), pos] = b
    rows.sort(axis=1)
    target = choose[rows[:, 0], 1]
    for i in range(1, j):
        target += choose[rows[:, i], i + 1]
    return source, target


def token_graph(g: Graph, k: int, cap: int = DEFAULT_CAP) -> TokenGraph:
    """Build the k-token graph of g.

    Work and memory are O(j * |E| * C(n-1, j-1)), under 2j per token edge.
    Raises CapExceededError past the vertex cap or the physical memory.
    """
    n = g.n
    size = token_order(n, k, cap)
    j = min(k, n - k)
    require_memory(TOKEN_BYTES_PER_ROW * g.m * comb(n - 1, j - 1), f"the {k}-token graph of {n} vertices")
    edges = np.column_stack(_token_edges(g, j))
    if j < k:  # complementing reverses colex order; Graph orients each edge
        edges = size - 1 - edges
    tg = Graph(size, edges)
    expected = g.m * comb(g.n - 2, k - 1)
    if tg.m != expected:
        raise AssertionError(f"token edge count {tg.m} != |E|*C(n-2,k-1) = {expected}")
    return TokenGraph(base=g, k=k, graph=tg)
