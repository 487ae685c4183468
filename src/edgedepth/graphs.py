"""Finite simple graphs on vertex set {1, ..., r}.

Vertices are 1-based integer labels.  Graphs are immutable; every vertex
must meet at least one edge (a variable that appears in no generator of the
edge ideal would silently change depth bookkeeping, so isolated vertices are
rejected up front).
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .errors import (
    BadLabelError,
    IsolatedVertexError,
    LoopEdgeError,
    ParseError,
    TooLargeError,
)

MAX_VERTICES_DEFAULT = 16

# Entries kept by each memo of a graph or an ideal (cycle_profile here,
# monomials.power and monomials.gens_array), least recently used first out,
# so a long-running process stays bounded.  One pass of a bench/ workload
# (many CLI jobs in one process) fills at most 54, so it meets no extra miss.
CACHE_ENTRIES = 256


@dataclass(frozen=True)
class Graph:
    r: int
    adj: tuple[tuple[int, ...], ...]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v - 1]

    def degree(self, v: int) -> int:
        return len(self.adj[v - 1])

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.r + 1))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for v in range(1, self.r + 1):
            for w in self.adj[v - 1]:
                if v < w:
                    out.append((v, w))
        return tuple(out)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2


def build_graph(edges: Iterable[tuple[int, int]], r: Optional[int] = None) -> Graph:
    """Build a graph from an edge list.  Duplicate edges are merged.

    If r is omitted it defaults to the largest label seen.
    """
    edge_list = [(int(u), int(v)) for u, v in edges]
    if not edge_list:
        raise ParseError("graph must have at least one edge")
    for u, v in edge_list:
        if u == v:
            raise LoopEdgeError(f"loop edge at vertex {u}")
    max_label = max(max(u, v) for u, v in edge_list)
    min_label = min(min(u, v) for u, v in edge_list)
    if min_label < 1:
        raise BadLabelError(f"vertex labels must be >= 1, got {min_label}")
    if r is None:
        r = max_label
    elif max_label > r:
        raise BadLabelError(f"edge label {max_label} exceeds declared r={r}")
    seen = {w for e in edge_list for w in e}
    if len(seen) < r:  # before any per-vertex allocation, which r could make huge
        first = list(itertools.islice((v for v in range(1, r + 1) if v not in seen), 5))
        raise IsolatedVertexError(
            f"isolated vertices not allowed: {r - len(seen)} of {r}, the first {first}"
        )
    nbrs: list[set[int]] = [set() for _ in range(r)]
    for u, v in edge_list:
        nbrs[u - 1].add(v)
        nbrs[v - 1].add(u)
    return Graph(r=r, adj=tuple(tuple(sorted(s)) for s in nbrs))


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: one "u v" pair per line, '#' comments,
    optional "r=<n>" header line."""
    r: Optional[int] = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.replace(" ", "").startswith("r="):
            if r is not None:
                raise ParseError(f"line {lineno}: duplicate r= header")
            try:
                r = int(line.replace(" ", "")[2:])
            except ValueError:
                raise ParseError(f"line {lineno}: bad r= header {line!r}") from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer label in {line!r}") from None
        edges.append((u, v))
    if not edges:
        raise ParseError("no edges found")
    return build_graph(edges, r=r)


def read_graph_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components with their bipartition status.

    bipartitions[i] is (X, Y) for a bipartite component (X contains its
    smallest vertex) and None for a nonbipartite one.
    """

    components: tuple[tuple[int, ...], ...]
    bipartitions: tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]], ...]

    @property
    def p(self) -> int:
        return len(self.components)

    @property
    def s(self) -> int:
        return sum(1 for b in self.bipartitions if b is not None)

    @property
    def t(self) -> int:
        return self.p - self.s


def decompose(g: Graph) -> ComponentDecomposition:
    """A component is what one search reaches from its least unseen vertex.
    It is bipartite when every edge joins vertices at distances of
    different parity, and X is then its even side."""
    comps, biparts, seen = [], [], set()
    for start in g.vertices:
        if start in seen:
            continue
        dist = distances_from(g, [start])
        seen.update(dist)
        comp = tuple(sorted(dist))
        comps.append(comp)
        if any((dist[v] - dist[w]) % 2 == 0 for v in comp for w in g.neighbors(v)):
            biparts.append(None)
        else:
            biparts.append(tuple(tuple(v for v in comp if dist[v] % 2 == side) for side in (0, 1)))
    return ComponentDecomposition(tuple(comps), tuple(biparts))


def is_connected(g: Graph) -> bool:
    return decompose(g).p == 1


def leaf_edges(g: Graph) -> int:
    """Number of edges with at least one endpoint of degree 1."""
    count = 0
    for u, v in g.edges:
        if g.degree(u) == 1 or g.degree(v) == 1:
            count += 1
    return count


def mu_vector(g: Graph) -> tuple[int, ...]:
    """mu[v] = number of non-leaf edges incident with v (1-based result
    tuple indexed by v-1).  An edge is a leaf edge when an endpoint has
    degree 1."""
    mu = [0] * g.r
    for u, v in g.edges:
        if g.degree(u) > 1 and g.degree(v) > 1:
            mu[u - 1] += 1
            mu[v - 1] += 1
    return tuple(mu)


def simple_cycles(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All simple cycles, each listed once as a vertex tuple starting at its
    smallest vertex with the lexicographically smaller direction, sorted by
    length and then by vertices.  Read it through cycle_profile, which
    caches it."""
    if g.r > MAX_VERTICES_DEFAULT:
        raise TooLargeError(f"cycles of r={g.r}, cap is {MAX_VERTICES_DEFAULT} (the vertex cap)")
    cycles: list[tuple[int, ...]] = []

    def dfs(start: int, path: list[int], on_path: set[int]) -> None:
        v = path[-1]
        for w in g.neighbors(v):
            if w == start:
                if len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > start and w not in on_path:
                path.append(w)
                on_path.add(w)
                dfs(start, path, on_path)
                on_path.remove(w)
                path.pop()

    for start in range(1, g.r + 1):
        dfs(start, [start], {start})
    cycles.sort(key=lambda c: (len(c), c))
    return tuple(cycles)


@dataclass(frozen=True)
class CycleProfile:
    cycles: tuple[tuple[int, ...], ...]  # simple_cycles(g)
    max_even_len: Optional[int]
    max_odd_len: Optional[int]

    @property
    def kind(self) -> str:
        """tree (acyclic), unicyclic or general."""
        if not self.cycles:
            return "tree"
        return "unicyclic" if len(self.cycles) == 1 else "general"

    @property
    def unique_cycle(self) -> Optional[tuple[int, ...]]:
        return self.cycles[0] if len(self.cycles) == 1 else None


@lru_cache(maxsize=CACHE_ENTRIES)
def cycle_profile(g: Graph) -> CycleProfile:
    """g's simple cycles and what the formulas read off them.  Cached, and
    the one caller of simple_cycles, so that the formula, the bound, the
    oracle and the witness's spanning subgraph list a graph's cycles once."""
    cycles = simple_cycles(g)
    evens = [len(c) for c in cycles if len(c) % 2 == 0]
    odds = [len(c) for c in cycles if len(c) % 2 == 1]
    return CycleProfile(
        cycles=cycles,
        max_even_len=max(evens) if evens else None,
        max_odd_len=max(odds) if odds else None,
    )


def component_k(g: Graph) -> int:
    """k of a connected graph: half its longest odd cycle rounded up, or,
    when it has none (it is bipartite), half its longest even cycle; 1 for
    a tree."""
    prof = cycle_profile(g)
    if prof.max_odd_len is not None:
        return (prof.max_odd_len + 1) // 2
    return (prof.max_even_len or 2) // 2


def component_bound(g: Graph) -> int:
    """The paper's bound term v - e0 - k + 1 of a connected graph (e0 leaf
    edges, k = component_k): its dstab is at most this, with equality for
    a tree and for a unicyclic graph without a 4-cycle."""
    return g.r - leaf_edges(g) - component_k(g) + 1


def is_unicyclic(g: Graph) -> bool:
    return is_connected(g) and g.num_edges == g.r


def maximal_independent_sets(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All maximal independent sets, sorted.  Bron-Kerbosch with pivoting on
    the complement graph."""
    if g.r > MAX_VERTICES_DEFAULT:
        raise TooLargeError(f"independent sets of r={g.r}, cap is {MAX_VERTICES_DEFAULT} (the vertex cap)")
    r = g.r
    full = (1 << r) - 1
    nonadj = [0] * r  # bit i set in nonadj[v] when v+1 and i+1 are non-adjacent, v != i
    for v in range(1, r + 1):
        mask = full & ~(1 << (v - 1))
        for w in g.neighbors(v):
            mask &= ~(1 << (w - 1))
        nonadj[v - 1] = mask
    out: list[int] = []

    def bk(chosen: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(chosen)
            return
        pux = p | x
        pivot = max(
            (b for b in range(r) if pux >> b & 1),
            key=lambda b: bin(p & nonadj[b]).count("1"),
        )
        cand = p & ~nonadj[pivot]
        while cand:
            bit = cand & -cand
            b = bit.bit_length() - 1
            bk(chosen | bit, p & nonadj[b], x & nonadj[b])
            p &= ~bit
            x |= bit
            cand &= ~bit

    bk(0, full, 0)
    sets = [tuple(v + 1 for v in range(r) if m >> v & 1) for m in out]
    sets.sort()
    return tuple(sets)


def minimal_vertex_covers(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Complements of the maximal independent sets."""
    all_v = set(range(1, g.r + 1))
    covers = [tuple(sorted(all_v - set(s))) for s in maximal_independent_sets(g)]
    covers.sort()
    return tuple(covers)


def distances_from(g: Graph, sources: Iterable[int]) -> dict[int, int]:
    """Distance from the nearest source to each vertex a source reaches, by
    one breadth-first search from all sources at once."""
    dist = dict.fromkeys(sources, 0)
    queue = deque(dist)
    while queue:
        a = queue.popleft()
        for b in g.neighbors(a):
            if b not in dist:
                dist[b] = dist[a] + 1
                queue.append(b)
    return dist


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph relabeled to 1..len(vertices).

    Returns (subgraph, labels) where labels[i] is the original label of the
    new vertex i+1.
    """
    verts = tuple(sorted(set(vertices)))
    pos = {v: i + 1 for i, v in enumerate(verts)}
    edges = [
        (pos[u], pos[v])
        for u, v in g.edges
        if u in pos and v in pos
    ]
    return build_graph(edges, r=len(verts)), verts
