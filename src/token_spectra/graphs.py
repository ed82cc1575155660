"""Immutable graphs over integer vertices, plus every family constructor.

Vertices are labeled 0..n-1. Edges are kept as a sorted tuple of (u, v)
pairs with u < v, so equality, hashing, and serialized output are all
canonical. Graphs are values: perturbing operations return new graphs and
never mutate their input, which makes everything safe to share across
threads and to memoize.

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


class GraphError(ValueError):
    """Malformed graph, edge, or constructor parameter."""


Edge = tuple[int, int]


def _canonical_edge(u: int, v: int, n: int) -> Edge:
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with a canonical sorted edge tuple."""

    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        canon = sorted(_canonical_edge(u, v, self.n) for u, v in self.edges)
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise GraphError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return v in self.adjacency[u]

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, in order of smallest member."""
        seen: set[int] = set()
        out = []
        for start in range(self.n):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in self.adjacency[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(tuple(sorted(comp)))
        return out

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


_STANDARD_FAMILIES = ("path", "cycle", "complete", "complete_bipartite", "star")


def build_standard(family: str, params: Sequence[int]) -> Graph:
    """Dispatch to a standard family constructor by name."""
    if family not in _STANDARD_FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    if family == "complete_bipartite":
        if len(params) != 2:
            raise GraphError("complete_bipartite takes two parameters")
        return complete_bipartite_graph(params[0], params[1])
    if len(params) != 1:
        raise GraphError(f"{family} takes one parameter")
    (p,) = params
    if family == "path":
        return path_graph(p)
    if family == "cycle":
        return cycle_graph(p)
    if family == "complete":
        return complete_graph(p)
    return star_graph(p)


# ---------------------------------------------------------------------------
# perturbations and subgraph operations


def add_edges(g: Graph, new_edges: Iterable[tuple[int, int]]) -> Graph:
    """Return g with the given edges added; rejects existing edges and loops."""
    added: set[Edge] = set()
    for u, v in new_edges:
        e = _canonical_edge(u, v, g.n)
        if g.has_edge(*e):
            raise GraphError(f"edge {e} already present")
        if e in added:
            raise GraphError(f"duplicate edge {e} in additions")
        added.add(e)
    return Graph(g.n, g.edges + tuple(sorted(added)))


def remove_edges(g: Graph, old_edges: Iterable[tuple[int, int]]) -> Graph:
    """Return g with the given edges removed; each must be present."""
    removed: set[Edge] = set()
    for u, v in old_edges:
        e = _canonical_edge(u, v, g.n)
        if not g.has_edge(*e):
            raise GraphError(f"edge {e} not present")
        removed.add(e)
    return Graph(g.n, tuple(e for e in g.edges if e not in removed))


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


def build_kite(spec: KiteSpec) -> tuple[Graph, dict[tuple[int, int], int]]:
    """Build the kite; head vertices keep their labels.

    Tail vertex (i, j) of path i (1-based, i = 1..s, j = 1..r) gets label
    head.n + (i-1)*r + (j-1); path i runs root, (i,1), ..., (i,r). Returns
    the graph plus the (i, j) -> label table.
    """
    h = spec.head.n
    table = {
        (i, j): h + (i - 1) * spec.r + (j - 1)
        for i in range(1, spec.s + 1)
        for j in range(1, spec.r + 1)
    }
    edges = list(spec.head.edges)
    for i in range(1, spec.s + 1):
        prev = spec.root
        for j in range(1, spec.r + 1):
            edges.append((prev, table[(i, j)]))
            prev = table[(i, j)]
    return Graph(spec.n, tuple(edges)), table


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

    order = [tree_root]
    seen = {tree_root}
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for w in sorted(tree.adjacency[u]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    bfs_pos = {v: i for i, v in enumerate(order)}  # root at 0

    t = tree.n
    edges = list(head.edges)
    for c in range(s):
        def label(v: int, c: int = c) -> int:
            if v == tree_root:
                return root
            return head.n + c * (t - 1) + (bfs_pos[v] - 1)

        for a, b in tree.edges:
            edges.append((label(a), label(b)))
    return Graph(head.n + s * (t - 1), tuple(edges))


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
    if nu == n:
        pass
    elif n % 2 == 0 and nu == n - 1:
        pass
    else:
        raise GraphError(f"nu={nu} invalid for n={n}")
    chord_set: set[Edge] = set()
    for i, j in chords:
        e = _canonical_edge(i, j, n)
        if i + j != nu:
            raise GraphError(f"chord ({i}, {j}) violates i + j = {nu}")
        if not g.has_edge(*e):
            chord_set.add(e)
    return add_edges(g, sorted(chord_set))


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
        extra = []
        for u, v in x_edges:
            e = _canonical_edge(u, v, n1 + n2)
            if e[1] >= n1:
                raise GraphError(f"edge {e} not inside side X = [0, {n1})")
            extra.append(e)
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
    lines = []
    if header is not None:
        for h in header.splitlines():
            lines.append(f"# {h}" if not h.startswith("#") else h)
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
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


def random_connected_gnp(n: int, p: float, rng: random.Random, max_tries: int = 2000) -> Graph:
    """Erdos-Renyi G(n, p) conditioned on connectivity, deterministic per rng state."""
    if n < 1:
        raise GraphError("need n >= 1")
    for _ in range(max_tries):
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < p)
        g = Graph(n, edges)
        if g.is_connected():
            return g
    raise GraphError(f"no connected G({n}, {p}) found in {max_tries} tries")


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
