"""Finite simple graphs on vertex set {1, ..., r}.

Vertices are 1-based integer labels.  Graphs are immutable; every vertex
must meet at least one edge (a variable that appears in no generator of the
edge ideal would silently change depth bookkeeping, so isolated vertices are
rejected up front).

Cycles are found by one ordered search per length, cycles_of_length, which
holds no listing.  Only this module reads it: cycle_profile keeps the
facts the formulas need, searching each block (biconnected component)
alone, and spanning_unicyclic_subgraph makes the cut that the nonbipartite
witness is taken on.
"""
from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .errors import (
    BadLabelError,
    IsolatedVertexError,
    LoopEdgeError,
    NotUnicyclicNonbipartiteError,
    ParseError,
    check_cap,
)

# Entries kept by each memo of a graph or an ideal (cycle_profile here,
# monomials.power, gens_array and _bitsets), least recently used first out,
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


def cycles_of_length(g: Graph, n: int) -> Iterator[tuple[int, ...]]:
    """g's simple cycles of length n >= 3, lazily and in lexicographic
    order, each as a vertex tuple that starts at its least vertex and goes
    in the direction of its smaller neighbour on the cycle.  A search from
    each start walks the paths on larger vertices, neighbours ascending,
    with the path's vertices kept in a set as well, so a step is O(1)."""
    for start in range(1, g.r - n + 2):
        closers = set(g.neighbors(start))
        path, branches = [start], [iter(g.neighbors(start))]
        on_path = {start}
        while branches:
            w = next(branches[-1], None)
            if w is None:
                branches.pop()
                on_path.discard(path.pop())
            elif w > start and w not in on_path:
                if len(path) < n - 1:
                    path.append(w)
                    on_path.add(w)
                    branches.append(iter(g.neighbors(w)))
                elif w in closers and path[1] < w:
                    yield (*path, w)


@dataclass(frozen=True)
class CycleProfile:
    kind: str  # tree (acyclic), unicyclic or general
    max_even_len: Optional[int]
    max_odd_len: Optional[int]
    unique_cycle: Optional[tuple[int, ...]]  # the one cycle of a unicyclic graph


def blocks(g: Graph) -> list[tuple[int, ...]]:
    """The vertex sets of g's blocks (biconnected components), each sorted,
    by one depth-first search with low points (Hopcroft and Tarjan), kept
    on an explicit stack so that a long path needs no recursion.  Every
    cycle of g lies inside one block, and a block is an induced subgraph."""
    depth: dict[int, int] = {}
    low: dict[int, int] = {}
    edges: list[tuple[int, int]] = []  # tree and back edges not yet in a block
    out: list[tuple[int, ...]] = []
    for root in g.vertices:
        if root in depth:
            continue
        depth[root] = low[root] = len(depth)
        stack = [(root, 0, iter(g.neighbors(root)))]  # (v, parent, unread neighbours)
        while stack:
            v, parent, nbrs = stack[-1]
            w = next(nbrs, None)
            if w is None:  # v is done: fold its low point into its parent's
                stack.pop()
                if parent:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= depth[parent]:  # parent separates v's subtree: a block ends
                        block, edge = set(), None
                        while edge != (parent, v):
                            edge = edges.pop()
                            block.update(edge)
                        out.append(tuple(sorted(block)))
            elif w not in depth:
                edges.append((v, w))
                depth[w] = low[w] = len(depth)
                stack.append((w, v, iter(g.neighbors(w))))
            elif w != parent and depth[w] < depth[v]:
                edges.append((v, w))
                low[v] = min(low[v], depth[w])
    return out


def _longest_cycle(g: Graph, top: int) -> Optional[tuple[int, ...]]:
    """g's first cycle of the greatest length top, top - 2, ..., 3 that has one."""
    return next((c for n in range(top, 2, -2) for c in cycles_of_length(g, n)), None)


@lru_cache(maxsize=CACHE_ENTRIES)
def cycle_profile(g: Graph) -> CycleProfile:
    """What the formulas read off g's cycles; cached.  The kind comes from
    the cycle rank e - r + p.  Each parity's longest cycle is found on each
    block alone, since every cycle lies inside one.  A block B with e = r
    is one cycle, read with no search or cap; any other is searched under
    the vertex cap on r_B: the first length r_B, r_B - 2, ... of each
    parity with a cycle, odd lengths only in a nonbipartite block."""
    rank = g.num_edges - g.r + decompose(g).p
    if rank == 0:
        return CycleProfile("tree", None, None, None)
    longest: dict[int, tuple[int, ...]] = {}  # per parity, on g's labels
    for block in blocks(g):
        if len(block) < 3:  # a bridge
            continue
        sub, labels = induced_subgraph(g, block)
        if sub.num_edges == sub.r:
            found = [next(cycles_of_length(sub, sub.r))]
        else:
            # bounds the search, which may try every path of the block
            check_cap("vertex", sub.r, f"cycles of a block of r={sub.r}")
            found = [
                _longest_cycle(sub, sub.r - (sub.r + parity) % 2)
                for parity in ((0, 1) if decompose(sub).t else (0,))
            ]
        for cycle in filter(None, found):
            if len(cycle) > len(longest.get(len(cycle) % 2, ())):
                longest[len(cycle) % 2] = tuple(labels[v - 1] for v in cycle)
    even, odd = longest.get(0), longest.get(1)
    return CycleProfile(
        kind="unicyclic" if rank == 1 else "general",
        max_even_len=len(even) if even else None,
        max_odd_len=len(odd) if odd else None,
        unique_cycle=(even or odd) if rank == 1 else None,
    )


def _cycle_edges(cycle: tuple[int, ...]) -> set[tuple[int, int]]:
    """The edges of a cycle given by its vertex sequence, each as (min, max)."""
    return {(min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])}


def spanning_unicyclic_subgraph(g: Graph) -> Graph:
    """A spanning subgraph of g with as many edges as vertices that keeps
    g's first longest odd cycle, for nonbipartite g.

    One pass over g's cycles in (length, vertices) order, until e = r:
    each cycle whose edges all survive and that has edges off the kept
    cycle loses the one of those whose endpoints' smaller degree is the
    largest (the least such edge on a tie).  Edges are only deleted, so a
    cycle passed over stays broken or on the kept cycle, and the pass cuts
    what re-searching the cycles of what is left in every round would."""
    odd = cycle_profile(g).max_odd_len
    if odd is None:
        raise NotUnicyclicNonbipartiteError("graph has no odd cycle to keep")
    keep = _cycle_edges(next(cycles_of_length(g, odd)))
    edges = set(g.edges)
    deg = Counter(v for e in edges for v in e)
    for cycle in (c for n in range(3, g.r + 1) for c in cycles_of_length(g, n)):
        if len(edges) <= g.r:
            break
        ring = _cycle_edges(cycle)
        if ring <= edges and ring - keep:
            cut = min(ring - keep, key=lambda e: (-min(deg[e[0]], deg[e[1]]), e))
            edges.discard(cut)
            deg.subtract(cut)
    return build_graph(sorted(edges), r=g.r)


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
    return decompose(g).p == 1 and g.num_edges == g.r


def maximal_independent_sets(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All maximal independent sets, sorted.  Bron-Kerbosch with pivoting on
    the complement graph."""
    # bounds the search, whose output alone may reach 3^(r/3) sets
    check_cap("vertex", g.r, f"independent sets of r={g.r}")
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
