"""k-token graphs, with vertices labeled by colex subset rank.

A vertex of the k-token graph stands for a k-subset of the base graph's
vertices; two subsets are adjacent exactly when their symmetric difference
is an edge of the base graph. The subset s_0 < ... < s_{k-1} has the colex
rank sum_j C(s_j, j+1), in [0, C(n, k)).

Complementing every subset maps the k-token graph onto the (n-k)-token
graph and reverses colex order, so the graph is built for j = min(k, n-k)
in one vectorized pass over the C(n, j) x j subset table: each subset, each
of its elements a and each base edge (a, b) with b > a outside it give one
token edge, to the subset with a swapped for b, which has the larger rank,
reached from the source's rank by arithmetic (_rank_moves), with no sort.
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

# Peak bytes per candidate row, of which there are |E| * C(n-1, j-1): ru_maxrss less the RSS
# before token_graph, in fresh processes, on paths, cycles and complete graphs with 104k to 1.8M
# rows and j = 2..10: 51 to 112, the top on paths with j = 2, 3, whose (n, j) tables outweigh the rows.
TOKEN_BYTES_PER_ROW = 120
# Peak bytes per entry of the C(n, j) x j tables (_colex_subsets, _rank_moves), measured the same way on
# one base edge, which makes few rows, n = 14..1000, j = 2..11, 1.2 to 361 MiB: 49 to 61.4.
TOKEN_BYTES_PER_TABLE_ENTRY = 64
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


# choose_table, _colex_subsets and _rank_moves are memoized, as read-only arrays: a
# sweep builds many token graphs of a few (n, j), and their fixed numpy overhead dominated there
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
    order, read backwards; so no sort is needed. Stored by column, as _token_edges reads it.
    """
    flat = chain.from_iterable(combinations(range(n - 1, -1, -1), j))
    table = np.asfortranarray(np.fromiter(flat, dtype=np.int64, count=comb(n, j) * j).reshape(-1, j)[::-1, ::-1])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _rank_moves(n: int, j: int) -> np.ndarray:
    """The 2j x C(n, j) table that ranks each move s_p -> b > s_p in a row r of _colex_subsets(n, j).

    If b is not in the row and q of its elements lie below b, the moved row has rank
    moves[p, r] + moves[j - 1 + q, r] + C(b, q): r - C(s_p, p + 1) + C(b, q), plus D[q - 1] - D[p] for
    the elements in between, each one place lower, where D[t] sums C(s_i, i) - C(s_i, i + 1) over i <= t.
    """
    subsets, choose, place = _colex_subsets(n, j).T, choose_table(n, j), np.arange(j)[:, None]
    prefix = np.cumsum(choose[subsets, place] - choose[subsets, place + 1], axis=0)
    moves = np.concatenate((np.arange(subsets.shape[1]) - choose[subsets, place + 1] - prefix, prefix))
    moves.flags.writeable = False
    return moves


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
    subsets, moves, choose = _colex_subsets(g.n, j), _rank_moves(g.n, j), choose_table(g.n, j)
    size = len(subsets)
    # base edges are sorted pairs (a, b), a < b: the neighbours of a above a are head[first[a]:first[a + 1]]
    head = g.edge_array[:, 1]
    first = g.edge_array[:, 0].searchsorted(np.arange(g.n + 1))
    a = subsets.T.ravel()  # entry p * size + r is s_p of row r
    deg = (first[1:] - first[:-1])[a]
    # one candidate move per (p, r, neighbour b of s_p above it), in order of p
    move = np.arange(a.size).repeat(deg)
    b = head[np.arange(move.size) + (first[a + 1] - deg.cumsum()).repeat(deg)]
    del deg  # as column below: both go before the filter, where the peak is
    source = move - move // size * size
    # b must lie outside the row, and q = j less its elements above b, all past s_p: column t reads moves with p < t
    free, q = np.ones(b.size, dtype=bool), np.full(b.size, j)
    for t, end in zip(range(1, j), move.searchsorted(np.arange(size, a.size, size))):
        column = subsets[:, t][source[:end]]
        free[:end] &= column != b[:end]
        q[:end] -= column > b[:end]
        del column
    keep = free.nonzero()[0]
    source, move = source[keep], move[keep]
    b, q = b[keep], q[keep]
    return source, moves.take(move) + moves.take((j - 1 + q) * size + source) + choose.take(b * (j + 1) + q)


def token_graph(g: Graph, k: int, cap: int = DEFAULT_CAP) -> TokenGraph:
    """Build the k-token graph of g.

    There are |E| * C(n-1, j-1) candidate rows, under 2 per token edge; each costs O(j) work
    and O(1) memory, on top of the (n, j) tables, O(j * C(n, j)), which the rank reads. The
    larger of the two is charged. Raises CapExceededError past the vertex cap or the physical memory.
    """
    n = g.n
    size = token_order(n, k, cap)
    j = min(k, n - k)
    require_memory(max(TOKEN_BYTES_PER_ROW * g.m * comb(n - 1, j - 1), TOKEN_BYTES_PER_TABLE_ENTRY * size * j),
                   f"the {k}-token graph of {n} vertices")
    edges = np.column_stack(_token_edges(g, j))
    if j < k:  # complementing reverses colex order; Graph orients each edge
        np.subtract(size - 1, edges, out=edges)
    tg = Graph(size, edges)
    if tg.m != (expected := g.m * comb(g.n - 2, k - 1)):
        raise AssertionError(f"token edge count {tg.m} != |E|*C(n-2,k-1) = {expected}")
    return TokenGraph(base=g, k=k, graph=tg)
