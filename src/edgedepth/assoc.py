"""Associated primes of powers of edge ideals of unicyclic nonbipartite
graphs, via a walk that grows a closed odd cover.

Start from the odd cycle C of length 2k-1: R_k = V(C), B_k = N(R_k) - R_k,
d_k = product of the cycle variables.  A step picks an edge {i, j} with
i in R and j in R or B; it multiplies d by x_i x_j, and when j was in B it
moves j into R and pulls N(j) into B.  Ass(R/I^n) is the set of minimal
covers together with the primes on R_n + B_n + V for each reachable level-n
state and each minimal completion V to a vertex cover.  A level-n state
whose R + B is every vertex gives a monomial d with (I^n : d) = m
(full_cover_monomial).  Taken on the spanning unicyclic subgraph that
graphs.spanning_unicyclic_subgraph cuts, it is every connected
nonbipartite graph's depth-zero witness, which stability._witness builds
and stability.witness checks.  The walk reads only cycle_profile's one
cycle.

cover_states returns one CoverGroup per reachable (R_n, B_n), holding every
d_n that reaches it packed into ints: ass_formula reads R + B alone and
decodes no d, and full_cover_monomial decodes one least d per full group.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    LevelBelowStartError,
    NoFullStateError,
    NotUnicyclicNonbipartiteError,
    check_cap,
)
from .graphs import (
    Graph,
    component_bound,
    component_k,
    cycle_profile,
    decompose,
    induced_subgraph,
    is_unicyclic,
    minimal_vertex_covers,
)
from .monomials import Monomial


@dataclass(frozen=True)
class CoverGroup:
    """One reachable (R_n, B_n) and every d_n that reaches it.

    Each d is packed into one int of `codes`, a field of `width` bits per
    variable with vertex 1 in the top field, so int order is the
    lexicographic order of the exponent tuples.  A d is decoded only when
    it is read (least_d)."""

    r_set: tuple[int, ...]
    b_set: tuple[int, ...]
    codes: frozenset[int]
    width: int
    r: int

    def least_d(self) -> Monomial:
        """The lexicographically least d."""
        return _decode(min(self.codes), self.width, self.r)


def _decode(code: int, width: int, r: int) -> Monomial:
    """The exponent tuple of a packed d (CoverGroup)."""
    low = (1 << width) - 1
    return tuple(code >> width * (r - v) & low for v in range(1, r + 1))


def _validate_unicyclic_nonbipartite(g: Graph) -> tuple[tuple[int, ...], int]:
    """Returns (odd cycle, k) with cycle length 2k - 1."""
    if not is_unicyclic(g) or decompose(g).t != 1:
        raise NotUnicyclicNonbipartiteError(
            "operation needs a connected unicyclic graph with an odd cycle"
        )
    return cycle_profile(g).unique_cycle, component_k(g)


def cover_states(g: Graph, n: int, trace: bool = False) -> tuple[CoverGroup, ...]:
    """One CoverGroup per reachable (R_n, B_n) at level n, in (r_set, b_set)
    order; trace prints each level's count of distinct (R, B, d) states to
    stderr.

    A step's effect on (R, B) does not depend on d, so the walk keeps, for
    each (R, B) as a pair of vertex bitmasks, the set of its d values.  Each
    d is packed into one int with a field of (2n - 1).bit_length() bits per
    variable (d has degree at most 2n - 1), so a step adds x_i x_j to d by
    one integer addition.
    """
    cycle, k = _validate_unicyclic_nonbipartite(g)
    if n < k:
        raise LevelBelowStartError(f"level {n} is below the start level k={k}")
    check_cap("level", n - g.r, f"cover walk level {n} is r + {n - g.r}")
    width = (2 * n - 1).bit_length()
    unit = {v: 1 << width * (g.r - v) for v in g.vertices}
    nbrs = {v: sum(1 << w - 1 for w in g.neighbors(v)) for v in g.vertices}
    r_init = sum(1 << v - 1 for v in cycle)
    b_init = 0
    for v in cycle:
        b_init |= nbrs[v]
    groups: dict[tuple[int, int], set[int]] = {
        (r_init, b_init & ~r_init): {sum(unit[v] for v in cycle)}
    }
    for level in range(k, n):
        nxt: dict[tuple[int, int], set[int]] = {}
        for (r_set, b_set), ds in groups.items():
            # the step monomials x_i x_j of each successor (R, B)
            moves: dict[tuple[int, int], set[int]] = {}
            for i in _members(r_set):
                for j in g.neighbors(i):
                    if r_set >> j - 1 & 1:
                        key = (r_set, b_set)
                    else:  # j is in B, since B = N(R) - R
                        r2 = r_set | 1 << j - 1
                        key = (r2, (b_set | nbrs[j]) & ~r2)
                    moves.setdefault(key, set()).add(unit[i] + unit[j])
            for key, steps in moves.items():
                nxt.setdefault(key, set()).update(d + s for d in ds for s in steps)
        groups = nxt
        if trace:
            count = sum(len(ds) for ds in groups.values())
            print(f"level {level + 1}: {count} states", file=sys.stderr)
    out = [
        CoverGroup(tuple(_members(r_set)), tuple(_members(b_set)), frozenset(ds), width, g.r)
        for (r_set, b_set), ds in groups.items()
    ]
    out.sort(key=lambda grp: (grp.r_set, grp.b_set))
    return tuple(out)


def _members(mask: int) -> list[int]:
    """The vertices of a bitmask (bit v - 1 stands for v), ascending."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _minimal_cover_completions(
    g: Graph, covered: Iterable[int]
) -> list[tuple[int, ...]]:
    """Minimal V with covered + V a vertex cover of g: the minimal vertex
    covers of the subgraph induced on the uncovered edges' endpoints, whose
    edges are exactly the uncovered edges.  Labels map back in order, so the
    sorted output stays sorted."""
    cov = set(covered)
    support = {x for u, v in g.edges if u not in cov and v not in cov for x in (u, v)}
    if not support:
        return [()]
    sub, labels = induced_subgraph(g, support)
    return [tuple(labels[v - 1] for v in c) for c in minimal_vertex_covers(sub)]


def ass_formula(
    g: Graph, n: int, trace: bool = False
) -> tuple[tuple[int, ...], ...]:
    """Ass(R/I(g)^n) for connected unicyclic nonbipartite g; trace prints
    the walk's per-level state counts to stderr."""
    _, k = _validate_unicyclic_nonbipartite(g)
    primes = {tuple(c) for c in minimal_vertex_covers(g)}
    if n >= k:
        # the primes of a state depend only on R + B, so each distinct
        # cover is completed once
        groups = cover_states(g, n, trace=trace)
        for covered in {frozenset(grp.r_set + grp.b_set) for grp in groups}:
            for completion in _minimal_cover_completions(g, covered):
                primes.add(tuple(sorted(covered | set(completion))))
    return tuple(sorted(primes))


def full_cover_monomial(g: Graph) -> tuple[int, Monomial]:
    """n = component_bound(g) and the lexicographically least d of a level-n
    state whose R + B is every vertex, for connected unicyclic nonbipartite
    g; unchecked (see stability.witness)."""
    _validate_unicyclic_nonbipartite(g)
    n = component_bound(g)
    candidates = [
        grp.least_d()
        for grp in cover_states(g, n)
        if len(grp.r_set) + len(grp.b_set) == g.r  # R and B are disjoint
    ]
    if not candidates:
        raise NoFullStateError(
            f"no level-{n} state covers every vertex; the walk should reach one"
        )
    return n, min(candidates)
