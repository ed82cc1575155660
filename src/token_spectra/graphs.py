"""Immutable graphs over integer vertices, plus every family constructor.

Vertices are labeled 0..n-1. A graph stores its edges once, as a sorted,
read-only (m, 2) int64 array of pairs (u, v) with u < v, so equality,
hashing, and serialized output are all canonical; `edges` is the same list
as a tuple of Python int pairs, derived on first use. Graphs are values:
perturbing operations return new graphs and never mutate their input,
which makes everything safe to share across threads and to memoize.

Labeling conventions are fixed so that the same parameters always produce
the same labeled graph: joins put the clique first, kites put the head
first, bipartite constructions put side X first.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Malformed graph, edge, or constructor parameter."""


Edge = tuple[int, int]


def _first(pairs: np.ndarray, bad: np.ndarray) -> Edge:
    """The first pair whose flag is set, as Python ints, for an error message."""
    return tuple(pairs[np.argmax(bad)].tolist())


def _pair_array(edges) -> np.ndarray:
    """Vertex pairs, or an array of them, as an (m, 2) integer array; GraphError when they are neither."""
    if not isinstance(edges, np.ndarray):
        try:
            cols = tuple(zip(*edges, strict=True))
        except (TypeError, ValueError) as exc:
            raise GraphError(f"edges must be vertex pairs: {exc}") from exc
        edges = np.array(cols).T if cols else np.empty((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
        raise GraphError(f"edges must form an (m, 2) integer array, got {edges.dtype} of shape {edges.shape}")
    return edges


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with a canonical sorted edge array.

    edge_array takes any sequence of vertex pairs, or an (m, 2) integer
    array, in any order and orientation; it is stored canonical.
    """

    n: int
    edge_array: np.ndarray = ()

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= n < 2**31:  # so that the keys u * n + v below fit in int64
            raise GraphError(f"vertex count must be in [0, 2**31), got {n}")
        edges = _pair_array(self.edge_array)
        u, v = edges.astype(np.int64, copy=False).T
        pairs = np.empty((len(edges), 2), dtype=np.int64)
        lo, hi = np.minimum(u, v, out=pairs[:, 0]), np.maximum(u, v, out=pairs[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if np.count_nonzero(bad):
            u, v = _first(edges, bad)
            raise GraphError(f"self-loop at vertex {u}" if u == v else f"edge ({u}, {v}) out of range for n={n}")
        key = lo * n + hi
        order = key.argsort(kind="stable")
        key, pairs = key[order], pairs.take(order, axis=0)
        dup = key[1:] == key[:-1]
        if np.count_nonzero(dup):
            raise GraphError(f"duplicate edge {_first(pairs, dup)}")
        pairs.flags.writeable = False
        object.__setattr__(self, "edge_array", pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        return hash((self.n, self.edge_array.tobytes()))

    def __setstate__(self, state: dict) -> None:
        # unpickling restores the array writeable
        state["edge_array"].flags.writeable = False
        self.__dict__.update(state)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edge array as a tuple of Python int pairs."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @property
    def m(self) -> int:
        return len(self.edge_array)

    def has_edge(self, u: int, v: int) -> bool:
        e = (u, v) if u < v else (v, u)
        i = bisect.bisect_left(self.edges, e)
        return i < self.m and self.edges[i] == e

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, in order of smallest member."""
        # union-find whose roots are the smallest vertex of their tree, so root[x] <= x
        root = list(range(self.n))
        for u, v in self.edge_array.tolist():
            while u != root[u]:
                root[u] = u = root[root[u]]
            while v != root[v]:
                root[v] = v = root[root[v]]
            if u < v:
                root[v] = u
            elif v < u:
                root[u] = v
        comps: dict[int, list[int]] = {}
        for x in range(self.n):
            root[x] = root[root[x]]  # root[x] <= x, and every smaller vertex already points at its root
            comps.setdefault(root[x], []).append(x)
        return [tuple(c) for c in comps.values()]

    def fingerprint(self) -> str:
        """SHA-256 of the canonical edge-list serialization."""
        return hashlib.sha256(format_edge_list(self).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# standard families


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph(n, tuple(combinations(range(n), 2)))


def complete_bipartite_graph(n1: int, n2: int) -> Graph:
    if n1 < 1 or n2 < 1:
        raise GraphError("complete bipartite graph needs n1, n2 >= 1")
    return Graph(n1 + n2, tuple((i, n1 + j) for i in range(n1) for j in range(n2)))


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return complete_bipartite_graph(1, leaves)


# family name -> constructor; complete_bipartite takes two parameters, the others one
STANDARD_FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "complete_bipartite": complete_bipartite_graph,
    "star": star_graph,
}


def build_standard(family: str, params: Sequence[int]) -> Graph:
    """Dispatch to a standard family constructor by name."""
    if family not in STANDARD_FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    two = family == "complete_bipartite"
    if len(params) != 1 + two:
        raise GraphError(f"{family} takes {'two parameters' if two else 'one parameter'}")
    return STANDARD_FAMILIES[family](*params)


# ---------------------------------------------------------------------------
# perturbations and subgraph operations


def add_edges(g: Graph, new_edges: Iterable[tuple[int, int]]) -> Graph:
    """Return g with the given edges added; rejects loops, and edges present or given twice."""
    return Graph(g.n, np.concatenate((g.edge_array, _pair_array(new_edges))))


def remove_edges(g: Graph, old_edges: Iterable[tuple[int, int]]) -> Graph:
    """Return g with the given edges removed; rejects loops, and edges absent or given twice."""
    old = Graph(g.n, old_edges).edge_array
    keys, old_keys = g.edge_array @ (g.n, 1), old @ (g.n, 1)  # both sorted and distinct
    missing = ~np.isin(old_keys, keys, assume_unique=True)
    if missing.any():
        raise GraphError(f"edge {_first(old, missing)} not present")
    return Graph(g.n, g.edge_array[~np.isin(keys, old_keys, assume_unique=True)])


# ---------------------------------------------------------------------------
# kites and superkites


@dataclass(frozen=True)
class KiteSpec:
    """Head graph with s equal pendant paths of length r rooted at one head vertex."""

    head: Graph
    root: int
    s: int
    r: int

    def __post_init__(self) -> None:
        if not (0 <= self.root < self.head.n):
            raise GraphError("kite root must be a head vertex")
        if self.s < 2:
            raise GraphError("kite needs s >= 2 tail paths")
        if self.r < 1:
            raise GraphError("kite needs tail length r >= 1")

    @property
    def n(self) -> int:
        return self.head.n + self.s * self.r

    def label(self, i: int, j: int) -> int:
        """Label of tail vertex (i, j), the j-th vertex of path i (1-based): head.n + (i-1)*r + (j-1)."""
        return self.head.n + (i - 1) * self.r + (j - 1)

    def levels(self) -> list[list[int]]:
        """U_1, ..., U_r: U_j holds the labels of the level-j vertices of paths 2..s."""
        return [[self.label(i, j) for i in range(2, self.s + 1)] for j in range(1, self.r + 1)]


def build_kite(spec: KiteSpec) -> Graph:
    """Build the kite; head vertices keep their labels.

    Tail vertex (i, j) of path i (1-based, i = 1..s, j = 1..r) gets label
    spec.label(i, j); path i runs root, (i,1), ..., (i,r).
    """
    tail = spec.head.n + np.arange(spec.s * spec.r).reshape(spec.s, spec.r)  # tail[i-1, j-1] = spec.label(i, j)
    prev = np.column_stack((np.full(spec.s, spec.root), tail[:, :-1]))
    paths = np.column_stack((prev.ravel(), tail.ravel()))
    return Graph(spec.n, np.concatenate((spec.head.edge_array, paths)))


def build_superkite(head: Graph, root: int, tree: Graph, tree_root: int, s: int) -> Graph:
    """Glue s copies of a rooted tree to the head at the root vertex.

    Labels are deterministic: copy-major, then BFS order of the tree from
    its root (neighbors visited in ascending label order). The tree root of
    every copy is identified with the head's root vertex.
    """
    if not (0 <= root < head.n):
        raise GraphError("superkite root must be a head vertex")
    if s < 2:
        raise GraphError("superkite needs s >= 2 copies")
    if not (0 <= tree_root < tree.n):
        raise GraphError("tree root out of range")
    if tree.m != tree.n - 1 or not tree.is_connected():
        raise GraphError("supertail component is not a tree")
    if tree.n < 2:
        raise GraphError("supertail tree needs at least one edge")

    ends = np.concatenate((tree.edge_array, tree.edge_array[:, ::-1]))
    ends = ends[np.lexsort((ends[:, 1], ends[:, 0]))]  # (vertex, neighbour), ascending
    order = [tree_root]
    for u in order:
        order.extend(w for w in ends[ends[:, 0] == u, 1].tolist() if w not in order)
    bfs_pos = np.empty(tree.n, dtype=np.int64)
    bfs_pos[order] = np.arange(tree.n)  # root at 0

    t = tree.n
    parts = [head.edge_array]
    for c in range(s):
        label = head.n + c * (t - 1) + bfs_pos - 1
        label[tree_root] = root
        parts.append(label[tree.edge_array])
    return Graph(head.n + s * (t - 1), np.concatenate(parts))


# ---------------------------------------------------------------------------
# cut-clique joins, extended cycles, extended bipartite graphs


def build_cut_clique_join(r: int, components: Sequence[Graph]) -> Graph:
    """Clique on the first r labels fully joined to each component.

    Components follow the clique in order, internally unchanged; every
    clique vertex is adjacent to every component vertex.
    """
    if r < 1:
        raise GraphError("clique size r must be >= 1")
    if len(components) < 2:
        raise GraphError("need at least 2 components")
    edges = list(combinations(range(r), 2))
    offset = r
    for comp in components:
        for u, v in comp.edges:
            edges.append((offset + u, offset + v))
        for c in range(r):
            for v in range(comp.n):
                edges.append((c, offset + v))
        offset += comp.n
    return Graph(offset, tuple(edges))


def build_extended_cycle(n: int, chords: Iterable[tuple[int, int]], nu: int | None = None) -> Graph:
    """Cycle 0..n-1 plus chords (i, j) with i + j = nu.

    nu defaults to n; for even n the caller may pass nu = n - 1 instead.
    All chords of one graph must share the same nu (no mixing). The edge
    set is a union, so a chord that happens to be a cycle edge is absorbed
    rather than rejected.
    """
    g = cycle_graph(n)
    if nu is None:
        nu = n
    if not (nu == n or (n % 2 == 0 and nu == n - 1)):
        raise GraphError(f"nu={nu} invalid for n={n}")
    pairs = _pair_array(chords)
    off = pairs.sum(axis=1) != nu
    if off.any():
        raise GraphError(f"chord {_first(pairs, off)} violates i + j = {nu}")
    union = np.unique(np.sort(np.concatenate((g.edge_array, pairs)), axis=1), axis=0)
    return Graph(n, union)


def build_bipartite_extension(
    n1: int, n2: int, mode: str, x_edges: Iterable[tuple[int, int]] = ()
) -> Graph:
    """Complete bipartite graph K_{n1,n2} plus internal edges on one side.

    Side X is [0, n1), side Y is [n1, n1+n2). Mode "plus_x" adds the given
    edges inside X; mode "star_y" adds all edges inside Y (needs n1 >= 2).
    """
    if not (1 <= n1 <= n2):
        raise GraphError("need 1 <= n1 <= n2")
    base = complete_bipartite_graph(n1, n2)
    if mode == "plus_x":
        extra = Graph(n1 + n2, x_edges).edge_array
        outside = extra[:, 1] >= n1
        if outside.any():
            raise GraphError(f"edge {_first(extra, outside)} not inside side X = [0, {n1})")
        return add_edges(base, extra)
    if mode == "star_y":
        if list(x_edges):
            raise GraphError("star_y mode takes no edge list")
        if n1 < 2:
            raise GraphError("star_y needs n1 >= 2")
        return add_edges(base, combinations(range(n1, n1 + n2), 2))
    raise GraphError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# edge-list text format


def format_edge_list(g: Graph, header: str | None = None) -> str:
    """Serialize as "n m" then one "u v" line per edge, LF-terminated."""
    lines = [h if h.startswith("#") else f"# {h}" for h in (header or "").splitlines()]
    lines.append(f"{g.n} {g.m}")
    for start in range(0, g.m, 1 << 16):  # a chunk of edges at a time is held as Python strings
        lines.append("\n".join(f"{u} {v}" for u, v in g.edge_array[start:start + (1 << 16)].tolist()))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; rejects loops, duplicates, and u >= v."""
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise GraphError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header line {rows[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphError(f"bad header line {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"bad edge line {ln!r}") from exc
        if u >= v:
            raise GraphError(f"edge line {ln!r} must have u < v")
        edges.append((u, v))
    return Graph(n, tuple(edges))


# ---------------------------------------------------------------------------
# seeded random instances for sweeps


GNP_TRIES = 2000  # draws random_connected_gnp makes before it gives up


def random_connected_gnp(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi G(n, p) conditioned on connectivity, deterministic per rng state."""
    if n < 1:
        raise GraphError("need n >= 1")
    for _ in range(GNP_TRIES):
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < p)
        g = Graph(n, edges)
        if g.is_connected():
            return g
    raise GraphError(f"no connected G({n}, {p}) found in {GNP_TRIES} tries")


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree via a Prufer sequence."""
    if n < 1:
        raise GraphError("need n >= 1")
    if n <= 2:
        return path_graph(n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            # keep the leaf pool sorted for determinism
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return Graph(n, tuple(edges))
