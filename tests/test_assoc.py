"""Associated primes of powers for unicyclic nonbipartite graphs."""
from __future__ import annotations

import random

import pytest

from conftest import (
    colon,
    complete_edges,
    cover_ds,
    cycle_edges,
    maximal_ideal,
    networkx_cycles,
    path_edges,
    random_connected_graph,
)
from edgedepth import assoc
from edgedepth.assoc import (
    ass_formula,
    cover_states,
    full_cover_monomial,
    spanning_unicyclic_monomial,
)
from edgedepth.errors import (
    CAPS,
    LevelBelowStartError,
    NotUnicyclicNonbipartiteError,
    TooLargeError,
)
from edgedepth.graphs import (
    build_graph,
    component_bound,
    cycle_profile,
    decompose,
    is_unicyclic,
    leaf_edges,
    minimal_vertex_covers,
    spanning_unicyclic_subgraph,
)
from edgedepth.monomials import (
    associated_primes_bruteforce,
    edge_ideal,
    monomial_mul,
    power,
)
from edgedepth.stability import dstab_formula, witness


def test_cover_states_triangle_levels():
    c3 = build_graph(cycle_edges(3))
    (level2,) = cover_states(c3, 2)
    assert (level2.r_set, level2.b_set) == ((1, 2, 3), ())
    assert cover_ds(level2) == [(1, 1, 1)] and level2.least_d() == (1, 1, 1)
    # one step multiplies d by an edge, so degree 5 split over three
    # choices, all in the one group R = {1, 2, 3}
    (level3,) = cover_states(c3, 3)
    assert cover_ds(level3) == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
    assert level3.least_d() == (1, 2, 2)


def _reference_walk(g, top):
    """The tuple/frozenset walk that cover_states replaced, kept as an
    oracle: {level: sorted (level, R, B, d) states} for every level from k
    to top."""
    cycle = cycle_profile(g).unique_cycle
    k = (len(cycle) + 1) // 2
    r_init = frozenset(cycle)
    b_init = frozenset(w for v in r_init for w in g.neighbors(v)) - r_init
    d_init = [0] * g.r
    for v in cycle:
        d_init[v - 1] = 1
    states = {(r_init, b_init, tuple(d_init))}
    by_level = {}
    for level in range(k, top + 1):
        by_level[level] = sorted(
            (level, tuple(sorted(r_set)), tuple(sorted(b_set)), d) for r_set, b_set, d in states
        )
        nxt = set()
        for r_set, b_set, d in states:
            for i in r_set:
                for j in g.neighbors(i):
                    step = [0] * g.r
                    step[i - 1] += 1
                    step[j - 1] += 1
                    d2 = monomial_mul(d, tuple(step))
                    if j in r_set:
                        nxt.add((r_set, b_set, d2))
                    elif j in b_set:
                        r2 = r_set | {j}
                        b2 = (b_set | set(g.neighbors(j))) - r2
                        nxt.add((r2, frozenset(b2), d2))
        states = nxt
    return by_level


def _reference_graphs():
    """Odd cycles of length 3 to 9 with pendant paths, and seeded random
    trees hung on a triangle or a pentagon."""
    graphs = []
    for length, tails in ((3, 3), (5, 2), (7, 1), (9, 0)):
        for t in range(tails + 1):
            # a pendant path of t vertices hanging off vertex `length`
            path = [(length, length + 1)] if t else []
            path += [(v, v + 1) for v in range(length + 1, length + t)]
            graphs.append(build_graph(cycle_edges(length) + path))
    rng = random.Random(89)
    while len(graphs) < 16 + 30:
        length = rng.choice((3, 5))
        r = rng.randint(4, 6)
        edges = cycle_edges(length) + [(rng.randint(1, v - 1), v) for v in range(length + 1, r + 1)]
        graphs.append(build_graph(edges))
    return graphs


def test_cover_states_match_reference_walk():
    # every (level, R, B, d) state, flattened out of the groups in order
    for g in _reference_graphs():
        top = g.r + CAPS["level"]
        for level, want in _reference_walk(g, top).items():
            got = [
                (level, grp.r_set, grp.b_set, d)
                for grp in cover_states(g, level)
                for d in cover_ds(grp)
            ]
            assert got == want, (g.edges, level)
    with pytest.raises(TooLargeError):
        cover_states(g, top + 1)


def test_full_cover_monomial_is_the_lex_least_full_state():
    for g in _reference_graphs():
        n = component_bound(g)
        full = [d for _, r_set, b_set, d in _reference_walk(g, n)[n] if len(r_set + b_set) == g.r]
        assert full_cover_monomial(g) == (n, min(full)), g.edges


def test_ass_formula_decodes_no_d(monkeypatch):
    def no_decode(*args):
        raise AssertionError("ass_formula decoded a d")

    monkeypatch.setattr(assoc, "_decode", no_decode)
    g = build_graph(cycle_edges(3) + [(3, 4), (4, 5)])
    with pytest.raises(AssertionError):
        cover_states(g, 4)[0].least_d()
    for n in range(1, 6):
        assert ass_formula(g, n) == associated_primes_bruteforce(power(edge_ideal(g), n))


def test_cover_state_degrees():
    # every d_n has degree 2n - 1, and each group's d's are distinct and
    # in lexicographic order, the least first
    g = build_graph(cycle_edges(5) + [(1, 6)])
    for n in (3, 4, 5):
        groups = cover_states(g, n)
        assert [(grp.r_set, grp.b_set) for grp in groups] == sorted(
            {(grp.r_set, grp.b_set) for grp in groups}
        )
        for grp in groups:
            ds = cover_ds(grp)
            assert all(sum(d) == 2 * n - 1 for d in ds)
            assert ds == sorted(set(ds)) and grp.least_d() == ds[0]
            assert len(ds) == len(grp.codes)
            assert set(grp.b_set).isdisjoint(grp.r_set)


def test_cover_states_rejections():
    with pytest.raises(NotUnicyclicNonbipartiteError):
        cover_states(build_graph(cycle_edges(4)), 2)
    with pytest.raises(NotUnicyclicNonbipartiteError):
        cover_states(build_graph(complete_edges(4)), 2)
    with pytest.raises(LevelBelowStartError):
        cover_states(build_graph(cycle_edges(5)), 2)


def test_ass_formula_c3():
    c3 = build_graph(cycle_edges(3))
    assert ass_formula(c3, 1) == ((1, 2), (1, 3), (2, 3))
    assert ass_formula(c3, 2) == ((1, 2), (1, 2, 3), (1, 3), (2, 3))


def test_ass_formula_below_start_is_min_primes():
    c5 = build_graph(cycle_edges(5))
    assert ass_formula(c5, 2) == tuple(sorted(minimal_vertex_covers(c5)))


def test_ass_formula_matches_bruteforce():
    rng = random.Random(83)
    graph_pool = [
        build_graph(cycle_edges(3)),
        build_graph(cycle_edges(5)),
        build_graph(cycle_edges(3) + [(3, 4)]),
        build_graph(cycle_edges(3) + [(3, 4), (4, 5)]),
        build_graph(cycle_edges(3) + [(1, 4), (2, 5)]),
        build_graph(cycle_edges(5) + [(1, 6)]),
    ]
    for g in graph_pool:
        bound = dstab_formula(g).value
        for n in range(1, bound + 2):
            formula = ass_formula(g, n)
            brute = associated_primes_bruteforce(power(edge_ideal(g), n))
            assert formula == brute, (g.edges, n)


def test_witness_monomial_cycles():
    assert witness(build_graph(cycle_edges(3))) == (2, (1, 1, 1))
    assert witness(build_graph(cycle_edges(5))) == (3, (1, 1, 1, 1, 1))


def test_witness_monomial_triangle_pendant():
    g = build_graph(cycle_edges(3) + [(3, 4)])
    n, f = witness(g)
    assert n == 4 - 1 - 2 + 1 == 2
    assert sum(f) == 2 * n - 1
    assert colon(power(edge_ideal(g), n), f) == maximal_ideal(g.r)


def test_witness_certifies_depth_zero_boundary():
    # at n the colon is maximal; at n - 1 the same monomial is inside the
    # power, so the certificate genuinely pins the transition
    g = build_graph(cycle_edges(3) + [(3, 4), (4, 5)])
    n, f = witness(g)
    assert colon(power(edge_ideal(g), n), f) == maximal_ideal(g.r)
    from edgedepth.monomials import contains

    assert contains(power(edge_ideal(g), n - 1), f)


def test_nonbipartite_bound_k4():
    k4 = build_graph(complete_edges(4))
    n, f = witness(k4)
    assert n <= 4 - 0 - 2 + 1
    assert colon(power(edge_ideal(k4), n), f) == maximal_ideal(4)


def test_nonbipartite_bound_dense():
    g = build_graph(complete_edges(5))
    n, f = witness(g)
    assert colon(power(edge_ideal(g), n), f) == maximal_ideal(5)
    assert n <= 5 - 0 - 3 + 1


def _spanning_unicyclic_reference(nx, g, cycle):
    """The deletion loop that takes the cycles of what is left from
    networkx in every round, sorted by (length, vertices)."""
    edges = set(g.edges)
    m = len(cycle)
    cyc_edges = {
        (min(cycle[i], cycle[(i + 1) % m]), max(cycle[i], cycle[(i + 1) % m]))
        for i in range(m)
    }
    while len(edges) > g.r:
        h = build_graph(sorted(edges), r=g.r)
        extra = None
        for cyc in networkx_cycles(nx, h):
            k = len(cyc)
            ce = {(min(cyc[i], cyc[(i + 1) % k]), max(cyc[i], cyc[(i + 1) % k])) for i in range(k)}
            off = sorted(ce - cyc_edges)
            if ce != cyc_edges and off:
                extra = off
                break
        if extra is None:
            break
        extra.sort(key=lambda e: (-min(h.degree(e[0]), h.degree(e[1])), e))
        edges.discard(extra[0])
    return build_graph(sorted(edges), r=g.r)


def test_spanning_unicyclic_takes_the_cycles_once():
    # one pass over g's cycles, skipping those a deletion broke, keeps
    # g's least longest odd cycle and cuts the subgraph that re-listing
    # the cycles of what is left in every round cuts
    nx = pytest.importorskip("networkx")
    rng = random.Random(97)
    graphs = [build_graph(complete_edges(v)) for v in range(4, 9)]
    while len(graphs) < 35:
        g = random_connected_graph(rng, rng.randint(5, 9), max_extra=rng.randint(3, 9))
        if decompose(g).t and g.num_edges >= g.r + 2:  # two deletions at least
            graphs.append(g)
    for g in graphs:
        odd = [c for c in networkx_cycles(nx, g) if len(c) % 2]
        cycle = max(odd, key=len)  # the first of the longest, as they are sorted
        h = spanning_unicyclic_subgraph(g)
        assert h == _spanning_unicyclic_reference(nx, g, cycle)
        assert is_unicyclic(h) and cycle_profile(h).unique_cycle == cycle


def test_nonbipartite_bound_rejects_bipartite():
    for build in (full_cover_monomial, spanning_unicyclic_monomial):
        with pytest.raises(NotUnicyclicNonbipartiteError):
            build(build_graph(cycle_edges(4)))
        with pytest.raises(NotUnicyclicNonbipartiteError):
            build(build_graph(path_edges(4)))
        with pytest.raises(NotUnicyclicNonbipartiteError):  # disconnected
            build(build_graph(cycle_edges(3) + cycle_edges(3, offset=3)))


def test_ass_sets_grow_with_n():
    g = build_graph(cycle_edges(3) + [(3, 4), (4, 5)])
    prev: set = set()
    for n in range(1, 5):
        cur = set(ass_formula(g, n))
        assert prev <= cur
        prev = cur
    assert leaf_edges(g) == 1
