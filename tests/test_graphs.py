"""Graph construction, decomposition, cycles, independent sets, covers."""
from __future__ import annotations

import dataclasses
import random
import tracemalloc

import pytest

from conftest import (
    complete_edges,
    cycle_edges,
    independent_sets_exhaustive,
    networkx_cycles,
    path_edges,
    random_graph,
    star_edges,
)
from edgedepth.errors import (
    BadLabelError,
    IsolatedVertexError,
    LoopEdgeError,
    ParseError,
    TooLargeError,
)
from edgedepth.graphs import (
    CycleProfile,
    blocks,
    build_graph,
    cycle_profile,
    cycles_of_length,
    decompose,
    distances_from,
    induced_subgraph,
    is_unicyclic,
    leaf_edges,
    maximal_independent_sets,
    minimal_vertex_covers,
    mu_vector,
    parse_graph,
)


def test_build_triangle():
    g = build_graph([(1, 2), (2, 3), (1, 3)])
    assert g.r == 3
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    assert g.degree(2) == 2
    assert g.neighbors(1) == (2, 3)


def test_duplicate_edges_merged():
    g = build_graph([(1, 2), (2, 1), (1, 2)])
    assert g.edges == ((1, 2),)


def test_loop_rejected():
    with pytest.raises(LoopEdgeError):
        build_graph([(1, 1)])


def test_isolated_vertex_rejected():
    with pytest.raises(IsolatedVertexError):
        build_graph([(1, 2)], r=3)


def test_huge_isolated_label_is_refused_briefly():
    with pytest.raises(IsolatedVertexError) as info:
        build_graph([(1, 2), (2, 10**6)])
    message = str(info.value)
    assert len(message) < 1024
    assert "999997 of 1000000" in message and "[3, 4, 5, 6, 7]" in message


def test_bad_labels_rejected():
    with pytest.raises(BadLabelError):
        build_graph([(0, 1)])
    with pytest.raises(BadLabelError):
        build_graph([(1, 5)], r=4)


def test_parse_graph_format():
    text = "# a path\nr=4\n1 2\n2 3  # middle edge\n3 4\n"
    g = parse_graph(text)
    assert g.edges == ((1, 2), (2, 3), (3, 4))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("1 2 3")
    with pytest.raises(ParseError):
        parse_graph("a b")


def test_decompose_mixed():
    g = build_graph(cycle_edges(3) + cycle_edges(4, offset=3))
    dec = decompose(g)
    assert dec.components == ((1, 2, 3), (4, 5, 6, 7))
    assert dec.p == 2 and dec.s == 1 and dec.t == 1
    assert dec.bipartitions[0] is None
    assert dec.bipartitions[1] == ((4, 6), (5, 7))


def test_decompose_connected_bipartite():
    g = build_graph(cycle_edges(6))
    dec = decompose(g)
    assert dec.p == 1 and dec.s == 1
    assert dec.bipartitions[0] == ((1, 3, 5), (2, 4, 6))


def test_leaf_edges():
    assert leaf_edges(build_graph(path_edges(4))) == 2
    assert leaf_edges(build_graph(cycle_edges(5))) == 0
    assert leaf_edges(build_graph(star_edges(3))) == 3
    assert leaf_edges(build_graph([(1, 2)])) == 1


def test_mu_vector():
    # only non-leaf edges count
    assert mu_vector(build_graph(path_edges(4))) == (0, 1, 1, 0)
    assert mu_vector(build_graph(cycle_edges(6))) == (2, 2, 2, 2, 2, 2)
    assert mu_vector(build_graph(star_edges(3))) == (0, 0, 0, 0)


def atlas_graphs(nx):
    """Every atlas graph on at most 7 vertices with no isolated vertex."""
    graphs = [
        build_graph([(u + 1, v + 1) for u, v in a.edges()], r=a.number_of_nodes())
        for a in nx.graph_atlas_g()
        if a.number_of_edges() and min(d for _, d in a.degree()) > 0
    ]
    assert len(graphs) == 1043
    return graphs


def test_cycles_of_length_match_networkx():
    # every atlas graph on at most 7 vertices with no isolated vertex, then
    # P5, C6 and K4: each length's cycles are networkx's, every one starts
    # at its least vertex towards its smaller neighbour, in lexicographic order
    nx = pytest.importorskip("networkx")
    graphs = atlas_graphs(nx)
    graphs += [build_graph(path_edges(5)), build_graph(cycle_edges(6)), build_graph(complete_edges(4))]
    for g in graphs:
        want = networkx_cycles(nx, g)
        for n in range(3, g.r + 1):
            got = list(cycles_of_length(g, n))
            assert got == sorted(got), g.edges
            assert all(c[0] == min(c) and c[1] < c[-1] for c in got), g.edges
            assert got == [c for c in want if len(c) == n], g.edges
    p5, c6, k4 = graphs[-3:]
    assert [c for n in range(3, 6) for c in cycles_of_length(p5, n)] == []
    assert [c for n in range(3, 7) for c in cycles_of_length(c6, n)] == [(1, 2, 3, 4, 5, 6)]
    assert [len(list(cycles_of_length(k4, n))) for n in (3, 4)] == [4, 3]


def test_cycle_profile_holds_no_listing():
    # K10 has 556,014 simple cycles, about 70 MB as tuples; the profile keeps none
    assert [f.name for f in dataclasses.fields(CycleProfile)] == [
        "kind", "max_even_len", "max_odd_len", "unique_cycle",
    ]
    k10 = build_graph(complete_edges(10))
    cycle_profile.cache_clear()
    tracemalloc.start()
    try:
        prof = cycle_profile(k10)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prof == CycleProfile("general", 10, 9, None)
    assert held < 1 << 20


def _profile_of(g, cycles):
    """The profile read off a listing of every cycle of g."""
    rank = g.num_edges - g.r + decompose(g).p
    lengths = {p: [len(c) for c in cycles if len(c) % 2 == p] for p in (0, 1)}
    return CycleProfile(
        ["tree", "unicyclic", "general"][min(rank, 2)],
        max(lengths[0], default=None),
        max(lengths[1], default=None),
        cycles[0] if rank == 1 else None,
    )


def test_cycle_profile_matches_every_cycle():
    # the blocks are networkx's, and the per-block search gives the
    # profile read off networkx's full cycle listing: the kind from the
    # cycle rank, each parity's longest length, and the one cycle of a
    # unicyclic graph.  K6,6 with a triangle hung on vertex 1 (r = 14) has
    # a dense bipartite block beside a triangle block.
    nx = pytest.importorskip("networkx")
    k66 = build_graph([(a, b) for a in range(1, 7) for b in range(7, 13)]
                      + [(1, 13), (1, 14), (13, 14)])
    graphs = atlas_graphs(nx)
    for g in graphs + [k66]:
        want = sorted(tuple(sorted(b)) for b in nx.biconnected_components(nx.Graph(g.edges)))
        assert sorted(blocks(g)) == want, g.edges
    for g in graphs:
        assert cycle_profile(g) == _profile_of(g, networkx_cycles(nx, g)), g.edges
    assert cycle_profile(k66) == CycleProfile("general", 12, 3, None)


def test_cycle_profile():
    assert cycle_profile(build_graph(path_edges(4))).kind == "tree"
    prof = cycle_profile(build_graph(cycle_edges(6) + [(1, 7)]))
    assert prof.kind == "unicyclic"
    assert prof.unique_cycle == (1, 2, 3, 4, 5, 6)
    assert prof.max_even_len == 6 and prof.max_odd_len is None
    k4 = cycle_profile(build_graph(complete_edges(4)))
    assert k4.kind == "general"
    assert k4.max_even_len == 4 and k4.max_odd_len == 3


def test_cycle_cap():
    # only a block with a second cycle is searched, so C17 with a chord is
    # refused for its 17-vertex block; C17 alone is its own cycle
    g = build_graph(cycle_edges(17) + [(1, 9)])
    with pytest.raises(TooLargeError, match="block of r=17, cap is 16 "):
        cycle_profile(g)
    assert cycle_profile(build_graph(cycle_edges(17))) == CycleProfile(
        "unicyclic", None, 17, tuple(range(1, 18))
    )


def _blocks_by_recursion(g):
    """The blocks as the recursive depth-first search listed them, one
    Python frame per level: the reference for blocks' explicit stack."""
    depth, low, edges, out = {}, {}, [], []

    def visit(v, parent):
        depth[v] = low[v] = len(depth)
        for w in g.neighbors(v):
            if w not in depth:
                edges.append((v, w))
                visit(w, v)
                low[v] = min(low[v], low[w])
                if low[w] >= depth[v]:
                    block, edge = set(), None
                    while edge != (v, w):
                        edge = edges.pop()
                        block.update(edge)
                    out.append(tuple(sorted(block)))
            elif w != parent and depth[w] < depth[v]:
                edges.append((v, w))
                low[v] = min(low[v], depth[w])

    for v in g.vertices:
        if v not in depth:
            visit(v, 0)
    return out


def test_blocks_and_profile_match_the_whole_graph_search():
    rng = random.Random(1109)
    for i in range(300):
        v = rng.randint(3, 12)
        g = random_graph(rng, v, extra=rng.randint(0, 5 if i % 2 else 1))
        assert blocks(g) == _blocks_by_recursion(g), g.edges
        # the per-block profile against a search of the whole graph
        cycles = [c for n in range(3, g.r + 1) for c in cycles_of_length(g, n)]
        assert cycle_profile(g) == _profile_of(g, cycles), g.edges


def test_blocks_walk_a_long_path_without_recursion():
    # a triangle with a 1,097-vertex tail: the recursive search raised
    # RecursionError here at the default recursion limit
    g = build_graph(cycle_edges(3) + path_edges(1098, offset=2))
    found = blocks(g)
    assert len(found) == 1098 and (1, 2, 3) in found
    assert cycle_profile(g) == CycleProfile("unicyclic", None, 3, (1, 2, 3))


def test_tree_unicyclic_predicates():
    assert is_unicyclic(build_graph(cycle_edges(4)))
    assert not is_unicyclic(build_graph(path_edges(4) + path_edges(3, offset=4)))


def test_maximal_independent_sets_p4():
    g = build_graph(path_edges(4))
    assert maximal_independent_sets(g) == ((1, 3), (1, 4), (2, 4))


def test_maximal_independent_sets_match_exhaustive():
    rng = random.Random(20260826)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7))
        assert list(maximal_independent_sets(g)) == independent_sets_exhaustive(g)


def test_minimal_vertex_covers_are_complements():
    g = build_graph(cycle_edges(5))
    covers = minimal_vertex_covers(g)
    assert len(covers) == len(maximal_independent_sets(g))
    for cover in covers:
        assert all(u in cover or v in cover for u, v in g.edges)
        for v in cover:
            rest = set(cover) - {v}
            assert not all(a in rest or b in rest for a, b in g.edges)


def test_distances():
    h = build_graph(cycle_edges(4) + [(1, 5), (5, 6)])
    dist = distances_from(h, (1, 2, 3, 4))
    assert dist[6] == 2
    assert dist[2] == 0


def test_induced_subgraph_relabels():
    g = build_graph(cycle_edges(3) + cycle_edges(4, offset=3))
    sub, labels = induced_subgraph(g, (4, 5, 6, 7))
    assert labels == (4, 5, 6, 7)
    assert sub.edges == ((1, 2), (1, 4), (2, 3), (3, 4))


def test_random_decompose_consistency():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        dec = decompose(g)
        assert sum(len(c) for c in dec.components) == g.r
        prof = cycle_profile(g)
        # bipartite everywhere iff no odd cycle
        assert (dec.t == 0) == (prof.max_odd_len is None)


def test_decompose_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1515)
    disconnected = 0
    for i in range(240):
        g = random_graph(rng, rng.randint(2, 7), extra=rng.randint(0, 5))
        if i % 2:  # a disjoint union, labels shuffled so components interleave
            h = random_graph(rng, rng.randint(2, 5), extra=rng.randint(0, 3))
            label = rng.sample(range(1, g.r + h.r + 1), g.r + h.r)
            edges = g.edges + tuple((a + g.r, b + g.r) for a, b in h.edges)
            g = build_graph([(label[a - 1], label[b - 1]) for a, b in edges])
        ng = nx.Graph(g.edges)
        comps = sorted(tuple(sorted(c)) for c in nx.connected_components(ng))
        disconnected += len(comps) > 1
        want = []
        for comp in comps:
            sub = ng.subgraph(comp)
            if not nx.is_bipartite(sub):
                want.append(None)
                continue
            color = nx.bipartite.color(sub)  # X is the side of the least vertex
            x = tuple(v for v in comp if color[v] == color[comp[0]])
            want.append((x, tuple(v for v in comp if v not in x)))
        dec = decompose(g)
        assert dec.components == tuple(comps), g.edges
        assert dec.bipartitions == tuple(want), g.edges
    assert disconnected >= 120
