"""Shared builders and small independent oracles used across the tests."""
from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

from edgedepth.assoc import CoverGroup, _decode
from edgedepth.graphs import (
    Graph,
    build_graph,
    decompose,
    maximal_independent_sets,
    minimal_vertex_covers,
)
from edgedepth.monomials import Monomial, MonomialIdeal, minimalize
from edgedepth.simplicial import SimplicialComplex, from_facets

# One line per acceptance criterion, echoed after the test summary.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line("  " + line)


def cycle_edges(n: int, offset: int = 0) -> list[tuple[int, int]]:
    return [(i + offset, i % n + 1 + offset) for i in range(1, n + 1)]


def path_edges(n: int, offset: int = 0) -> list[tuple[int, int]]:
    return [(i + offset, i + 1 + offset) for i in range(1, n)]


def star_edges(leaves: int) -> list[tuple[int, int]]:
    return [(1, i) for i in range(2, leaves + 2)]


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def random_graph(rng: random.Random, v: int, extra: int = 2) -> Graph:
    """Random graph on v labeled vertices without isolated vertices: a
    random spanning structure per eventual component is not forced, only
    that each vertex meets an edge."""
    while True:
        possible = [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1)]
        n_edges = rng.randint(v - 1, min(len(possible), v + extra))
        edges = rng.sample(possible, n_edges)
        touched = {u for e in edges for u in e}
        if touched == set(range(1, v + 1)):
            return build_graph(edges, r=v)


def random_connected_graph(rng: random.Random, v: int, max_extra: int = 4) -> Graph:
    """Random connected graph: random spanning tree plus extra edges."""
    labels = list(range(1, v + 1))
    rng.shuffle(labels)
    edges = set()
    for i in range(1, v):
        j = rng.randrange(i)
        a, b = labels[i], labels[j]
        edges.add((min(a, b), max(a, b)))
    possible = [
        (i, j)
        for i in range(1, v + 1)
        for j in range(i + 1, v + 1)
        if (i, j) not in edges
    ]
    extra = rng.randint(0, min(len(possible), max_extra))
    edges.update(rng.sample(possible, extra))
    return build_graph(sorted(edges), r=v)


def networkx_cycles(nx, g: Graph) -> list[tuple[int, ...]]:
    """g's simple cycles found by networkx (the module is passed in), each
    turned to start at its least vertex towards its smaller neighbour,
    sorted by (length, vertices)."""
    out = []
    for c in nx.simple_cycles(nx.Graph(g.edges)):
        i = c.index(min(c))
        c = c[i:] + c[:i]
        out.append(tuple(c) if c[1] < c[-1] else (c[0], *reversed(c[1:])))
    return sorted(out, key=lambda c: (len(c), c))


def independent_sets_exhaustive(g: Graph) -> list[tuple[int, ...]]:
    """All maximal independent sets by testing every vertex subset."""
    verts = list(range(1, g.r + 1))
    indep = []
    for k in range(g.r + 1):
        for sub in itertools.combinations(verts, k):
            s = set(sub)
            if all(not (u in s and v in s) for u, v in g.edges):
                indep.append(s)
    maximal = [s for s in indep if not any(s < t for t in indep)]
    return sorted(tuple(sorted(s)) for s in maximal)


def power_membership_exhaustive(g: Graph, n: int, m: tuple[int, ...]) -> bool:
    """Is x^m in I(g)^n?  Direct search over multisets of n edges."""
    edges = g.edges

    def rec(remaining: list[int], n_left: int, start: int) -> bool:
        if n_left == 0:
            return True
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            if remaining[u - 1] >= 1 and remaining[v - 1] >= 1:
                remaining[u - 1] -= 1
                remaining[v - 1] -= 1
                if rec(remaining, n_left - 1, idx):
                    remaining[u - 1] += 1
                    remaining[v - 1] += 1
                    return True
                remaining[u - 1] += 1
                remaining[v - 1] += 1
        return False

    return rec(list(m), n, 0)


def isomorphism_classes(graph_list: list[Graph]) -> list[Graph]:
    """One representative per isomorphism class, via networkx."""
    import networkx as nx

    reps: list[tuple[tuple, "nx.Graph", Graph]] = []
    out = []
    for g in graph_list:
        ng = nx.Graph()
        ng.add_nodes_from(range(1, g.r + 1))
        ng.add_edges_from(g.edges)
        degs = tuple(sorted(d for _, d in ng.degree()))
        invariant = (g.r, g.num_edges, degs, tuple(sorted(nx.triangles(ng).values())))
        found = False
        for inv, other_ng, _ in reps:
            if inv == invariant and nx.is_isomorphic(ng, other_ng):
                found = True
                break
        if not found:
            reps.append((invariant, ng, g))
            out.append(g)
    return out


def variable_ideal(r: int, support: Iterable[int]) -> MonomialIdeal:
    """The prime ideal (x_i : i in support)."""
    gens = []
    for i in support:
        m = [0] * r
        m[i - 1] = 1
        gens.append(tuple(m))
    return minimalize(r, gens)


def maximal_ideal(r: int) -> MonomialIdeal:
    return variable_ideal(r, range(1, r + 1))


def colon(ideal: MonomialIdeal, m: Sequence[int]) -> MonomialIdeal:
    """(I : x^m)."""
    mt = tuple(int(e) for e in m)
    if ideal.is_zero:
        return ideal
    quotients = {tuple(max(g_i - m_i, 0) for g_i, m_i in zip(g, mt)) for g in ideal.gens}
    return minimalize(ideal.r, quotients)


def monomial_str(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def cover_ds(grp: CoverGroup) -> list[Monomial]:
    """Every d of a cover-walk group, in lexicographic order."""
    return [_decode(code, grp.width, grp.r) for code in sorted(grp.codes)]


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def add(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.r != b.r:
        raise ValueError("ambient ring mismatch")
    return minimalize(a.r, a.gens + b.gens)


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.r != b.r:
        raise ValueError("ambient ring mismatch")
    if a.is_zero or b.is_zero:
        return MonomialIdeal(r=a.r, gens=())
    lcms = {monomial_lcm(x, y) for x in a.gens for y in b.gens}
    return minimalize(a.r, lcms)


def localize(ideal: MonomialIdeal, ones: Iterable[int]) -> MonomialIdeal:
    """Set x_i = 1 for the 1-based indices in `ones` and re-minimalize."""
    drop = set(int(i) for i in ones)
    for i in drop:
        if not 1 <= i <= ideal.r:
            raise ValueError(f"index {i} out of range 1..{ideal.r}")
    if ideal.is_zero:
        return ideal
    gens = {
        tuple(0 if (i + 1) in drop else e for i, e in enumerate(g))
        for g in ideal.gens
    }
    return minimalize(ideal.r, gens)


def symbolic_member(g: Graph, n: int, m: Sequence[int]) -> bool:
    """Membership of x^m in the n-th symbolic power of the edge ideal of g:
    the degree of m on every minimal vertex cover must be at least n."""
    mt = tuple(m)
    if len(mt) != g.r:
        raise ValueError("monomial length must equal the vertex count")
    for cover in minimal_vertex_covers(g):
        if sum(mt[v - 1] for v in cover) < n:
            return False
    return True


def bipartite_power_complex(g: Graph, alpha: Sequence[int], n: int) -> SimplicialComplex:
    """D_a(I(g)^n) for bipartite g and nonnegative a: the facets are the
    facets F of the independence complex with sum of a over the complement
    of F at most n - 1.  The scan's facet route rests on this description."""
    a = tuple(int(e) for e in alpha)
    if len(a) != g.r:
        raise ValueError("alpha length must equal the vertex count")
    if any(e < 0 for e in a):
        raise ValueError("alpha must be componentwise nonnegative here")
    if n < 1:
        raise ValueError("power must be >= 1")
    if decompose(g).t:
        raise ValueError("graph has an odd cycle")
    total = sum(a)
    facets = [
        f
        for f in maximal_independent_sets(g)
        if total - sum(a[v - 1] for v in f) <= n - 1
    ]
    return from_facets(range(1, g.r + 1), facets)


def void_complex(universe: Iterable[int] = ()) -> SimplicialComplex:
    return SimplicialComplex(universe=tuple(sorted(set(universe))), faces=frozenset())


def is_irrelevant(cx: SimplicialComplex) -> bool:
    """cx is {emptyset}."""
    return cx.faces == {0}


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; the universes must be disjoint.  Joining with the
    void complex gives the void complex; {emptyset} is the identity."""
    if set(a.universe) & set(b.universe):
        raise ValueError("join requires disjoint universes")
    facets = [fa + fb for fa in a.facets for fb in b.facets]
    return from_facets(a.universe + b.universe, facets)


def euler_characteristic_reduced(cx: SimplicialComplex) -> int:
    """Alternating sum over all faces including the empty one; 0 for void."""
    return sum(-1 if s.bit_count() % 2 == 0 else 1 for s in cx.faces)
