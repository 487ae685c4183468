"""Closed-form dstab values, witnesses, bounds, and the oracle."""
from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from conftest import (
    complete_edges,
    cycle_edges,
    path_edges,
    random_connected_graph,
    star_edges,
)
from edgedepth import stability
from edgedepth.depth import depth_power
from edgedepth.errors import (
    DisconnectedError,
    NoFullStateError,
    TooLargeError,
)
from edgedepth.graphs import build_graph, cycle_profile, distances_from
from edgedepth.monomials import edge_ideal, power
from edgedepth.stability import (
    depth_limit,
    dstab_formula,
    dstab_oracle,
    mt_bound,
    witness,
)
from test_depth import _assert_witness


def test_depth_limit_counts_bipartite_components():
    g = build_graph(cycle_edges(3) + cycle_edges(4, offset=3) + path_edges(2, offset=7))
    assert depth_limit(g) == 2


def test_dstab_tree_values():
    assert dstab_formula(build_graph([(1, 2)])).value == 1
    assert dstab_formula(build_graph(star_edges(3))).value == 1
    assert dstab_formula(build_graph(path_edges(4))).value == 2
    assert dstab_formula(build_graph(path_edges(5))).value == 3
    # spider: paths of lengths 2,2,2 glued at a center
    spider = build_graph([(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])
    assert dstab_formula(spider).value == 7 - 3


def test_tree_past_the_vertex_cap_gets_its_formula():
    # a forest needs no cycle search, so the vertex cap does not apply
    p17 = build_graph(path_edges(17))
    assert cycle_profile(p17).kind == "tree"
    report = dstab_formula(p17)
    assert report.exact and report.value == 15
    assert dstab_formula(build_graph(path_edges(30))).value == 28


def test_formula_reads_a_long_cycle_in_linear_time():
    # C16000's one block is read by one cycle search, linear in its length:
    # 0.19 s on a 2-core x86-64 VM, against 2.8 s for a search that scans
    # the path at each step
    g = build_graph(cycle_edges(16000))
    start = time.perf_counter()
    report = dstab_formula(g)
    elapsed = time.perf_counter() - start
    assert report.exact and report.value == 8001
    assert elapsed < 1.0, f"dstab_formula on C16000 took {elapsed:.2f} s"


def _unicyclic(edges):
    """The one component report of dstab_formula on a connected unicyclic graph."""
    (comp,) = dstab_formula(build_graph(edges)).components
    assert comp.kind == "unicyclic"
    return comp


def test_dstab_unicyclic_odd():
    assert _unicyclic(cycle_edges(3)).value == 2
    assert _unicyclic(cycle_edges(5)).value == 3
    assert _unicyclic(cycle_edges(7)).value == 4
    # triangle with a pendant path of length 2 at vertex 3
    res = _unicyclic(cycle_edges(3) + [(3, 4), (4, 5)])
    assert res.value == 5 - 1 - 2 + 1 and res.note == "odd-cycle"


def test_dstab_unicyclic_even():
    assert _unicyclic(cycle_edges(6)).value == 4
    assert _unicyclic(cycle_edges(8)).value == 5
    res = _unicyclic(cycle_edges(6) + [(1, 7)])
    assert res.value == 7 - 1 - 3 + 1 and res.note == "even-cycle"


def test_dstab_unicyclic_four_cycle_cases():
    res = _unicyclic(cycle_edges(4))
    assert res.value == 1 and res.note == "four-cycle-pure"
    # one pendant leaves two adjacent degree-2 cycle vertices
    res = _unicyclic(cycle_edges(4) + [(1, 5)])
    assert res.value == 5 - 1 - 2 and res.note == "four-cycle-adjacent-deg2"
    # pendants on two opposite cycle vertices: no adjacent degree-2 pair
    res = _unicyclic(cycle_edges(4) + [(1, 5), (3, 6)])
    assert res.value == 6 - 2 - 1 and res.note == "four-cycle-remark"


def test_four_cycle_cases_match_oracle():
    # every connected unicyclic graph on at most 7 vertices in networkx's
    # graph atlas: each case is exact without warnings, and each 4-cycle
    # case gives the oracle's value
    nx = pytest.importorskip("networkx")
    graphs = [
        build_graph([(u + 1, v + 1) for u, v in a.edges()])
        for a in nx.graph_atlas_g()
        if a.number_of_nodes() >= 3
        and a.number_of_edges() == a.number_of_nodes()
        and nx.is_connected(a)
    ]
    assert len(graphs) == 54
    notes = Counter()
    for g in graphs:
        rep = dstab_formula(g)
        (comp,) = rep.components
        assert rep.exact and rep.warnings == (), g.edges
        notes[comp.note] += 1
        if comp.note.startswith("four-cycle"):
            assert comp.value == dstab_oracle(g), g.edges
    assert notes == {
        "odd-cycle": 37,
        "even-cycle": 2,
        "four-cycle-pure": 1,
        "four-cycle-adjacent-deg2": 10,
        "four-cycle-remark": 4,
    }


def test_four_cycle_case_unverified_when_oracle_too_large(monkeypatch):
    def too_large(*args, **kwargs):
        raise TooLargeError("scan box too large")

    monkeypatch.setattr(stability, "dstab_oracle", too_large)
    rep = dstab_formula(build_graph(cycle_edges(4) + [(1, 5)]))
    assert rep.value == 2 and not rep.exact
    assert not rep.components[0].exact
    assert len(rep.warnings) == 1 and "unverified" in rep.warnings[0]


def test_mt_bound_values():
    assert mt_bound(build_graph(path_edges(4))) == 2
    assert mt_bound(build_graph(cycle_edges(6))) == 4
    assert mt_bound(build_graph(complete_edges(4))) == 4 - 0 - 2 + 1
    g = build_graph(cycle_edges(3) + cycle_edges(4, offset=3))
    assert mt_bound(g) == 7 - 0 - (2 + 2) + 1


def test_formula_composition_disjoint_union():
    c3c4 = build_graph(cycle_edges(3) + cycle_edges(4, offset=3))
    rep = dstab_formula(c3c4)
    assert rep.value == 2 and rep.exact
    p4p4 = build_graph(path_edges(4) + path_edges(4, offset=4))
    rep = dstab_formula(p4p4)
    assert rep.value == 2 + 2 - 2 + 1 and rep.exact
    triple = build_graph(cycle_edges(3) + path_edges(4, offset=3) + cycle_edges(6, offset=7))
    rep = dstab_formula(triple)
    assert rep.value == 2 + 2 + 4 - 3 + 1
    assert rep.limit_depth == 2


def test_formula_general_component_is_bound():
    k4 = build_graph(complete_edges(4))
    rep = dstab_formula(k4)
    assert not rep.exact
    assert rep.value == 3
    assert rep.components[0].note == "component-bound"
    assert dstab_oracle(k4) <= rep.value


def test_formula_reports_mt_bound_invariant():
    rng = random.Random(61)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 6))
        rep = dstab_formula(g)
        assert rep.value <= rep.mt_bound
        assert rep.limit_depth == depth_limit(g)


def test_oracle_golden_values():
    for edges, expect in [
        (cycle_edges(3), 2),
        (cycle_edges(4), 1),
        (cycle_edges(5), 3),
        (path_edges(4), 2),
        (star_edges(3), 1),
    ]:
        assert dstab_oracle(build_graph(edges)) == expect


def test_mu_witness_examples():
    # a tree, or a bipartite graph with more than one cycle, gets mu(g) at
    # e - e0 + 1 (a unicyclic one gets the peeled alpha instead)
    assert witness(build_graph([(1, 2)])) == (1, (0, 0))
    assert witness(build_graph(path_edges(4))) == (2, (0, 1, 1, 0))
    assert witness(build_graph(cycle_edges(6) + [(1, 4)])) == (8, (3, 2, 2, 3, 2, 2))
    k23 = build_graph([(u, v) for u in (1, 2) for v in (3, 4, 5)])
    assert witness(k23) == (7, (3, 3, 2, 2, 2))


def test_mu_witness_random_bipartite_trees():
    rng = random.Random(67)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 7), max_extra=0)
        n, _ = witness(g)  # raises WitnessCheckFailedError on any defect
        assert n == g.num_edges - sum(
            1
            for u, v in g.edges
            if g.degree(u) == 1 or g.degree(v) == 1
        ) + 1


def test_mu_witness_rejects():
    # mu(g) at e - e0 + 1 is the witness of a connected bipartite g only:
    # a forest or any other disconnected graph is refused, and C3 gets a
    # depth-zero monomial instead
    for edges in [
        path_edges(2) + path_edges(2, offset=2),
        star_edges(3) + path_edges(2, offset=4),
        cycle_edges(3) + cycle_edges(3, offset=3),
        cycle_edges(3) + path_edges(2, offset=3),
    ]:
        with pytest.raises(DisconnectedError):
            witness(build_graph(edges))
    n, alpha = witness(build_graph(cycle_edges(3)))
    assert sum(alpha) == 2 * n - 1


def test_unicyclic_bipartite_witness_cases():
    assert witness(build_graph(cycle_edges(6))) == (4, (1, 1, 1, 1, 1, 1))
    # pendant at a cycle vertex
    n, _ = witness(build_graph(cycle_edges(6) + [(1, 7)]))
    assert n == 7 - 1 - 3 + 1
    # pendant path of length 2: the support vertex gets promoted
    n, alpha = witness(build_graph(cycle_edges(6) + [(1, 7), (7, 8)]))
    assert n == 8 - 1 - 3 + 1
    assert alpha == (2, 1, 1, 1, 1, 1, 1, 0)
    # a 4-cycle works too, the witness is just not minimal
    assert witness(build_graph(cycle_edges(4))) == (3, (1, 1, 1, 1))


def test_unicyclic_bipartite_witness_random():
    rng = random.Random(71)
    built = deep = 0
    while built < 20:
        # random bipartite unicyclic graph: even cycle plus pendant paths,
        # some of length 3 or more, so that the peeling promotes a support
        # vertex again and again at distance 2 or more from the cycle
        klen = rng.choice([4, 6])
        edges = cycle_edges(klen)
        nxt = klen + 1
        for _ in range(rng.randint(0, 3)):
            attach = rng.randint(1, nxt - 1)
            for _ in range(rng.choice([1, 3, 4])):
                edges.append((attach, nxt))
                attach, nxt = nxt, nxt + 1
        g = build_graph(edges)
        if g.r > 10:
            continue
        built += 1
        deep += max(distances_from(g, range(1, klen + 1)).values()) >= 3
        n, _ = witness(g)  # checked against takayama_complex
        assert n == g.r - sum(
            1 for u, v in g.edges if g.degree(u) == 1 or g.degree(v) == 1
        ) - klen // 2 + 1
    assert deep >= 8


def test_witness_census_over_the_atlas():
    # every connected graph on 2 to 6 vertices in networkx's graph atlas:
    # the witness passes its check at a power no lower than dstab, and is
    # at dstab on every tree and every unicyclic graph without a 4-cycle
    nx = pytest.importorskip("networkx")
    graphs = [
        build_graph([(u + 1, v + 1) for u, v in a.edges()])
        for a in nx.graph_atlas_g()
        if 2 <= a.number_of_nodes() <= 6 and nx.is_connected(a)
    ]
    assert len(graphs) == 142
    at_dstab = 0
    for g in graphs:
        n, _ = witness(g)
        oracle = dstab_oracle(g)
        assert n >= oracle, g.edges
        cycle = cycle_profile(g).unique_cycle
        if g.num_edges < g.r or (cycle is not None and len(cycle) != 4):
            assert n == oracle, g.edges
        at_dstab += n == oracle
    # 13 trees, 14 odd unicyclic graphs, C6, one graph with a 4-cycle and
    # 23 of the 108 graphs with two or more cycles
    assert at_dstab == 52


def test_formula_attains_the_bound_on_trees_and_unicyclic_without_c4():
    # the paper's equality dstab = v - e0 - sum(k_i) + 1 when every
    # component is a tree or a unicyclic graph without a 4-cycle
    rng = random.Random(79)
    checked = unicyclic = 0
    while checked < 100:
        parts = [
            random_connected_graph(rng, rng.randint(2, 7), max_extra=1)
            for _ in range(rng.randint(1, 3))
        ]
        cycles = [cycle_profile(p).unique_cycle for p in parts]
        if any(c is not None and len(c) == 4 for c in cycles):
            continue
        edges, offset = [], 0
        for part in parts:
            edges += [(u + offset, v + offset) for u, v in part.edges]
            offset += part.r
        g = build_graph(edges)
        e0 = sum(1 for u, v in g.edges if g.degree(u) == 1 or g.degree(v) == 1)
        ks = sum(1 if c is None else (len(c) + 1) // 2 for c in cycles)
        rep = dstab_formula(g)
        assert rep.value == rep.mt_bound == mt_bound(g) == g.r - e0 - ks + 1
        assert rep.exact and all(c.exact for c in rep.components)
        checked += 1
        unicyclic += any(c is not None for c in cycles)
    assert unicyclic >= 30


def test_oracle_equals_formula_on_exact_classes():
    rng = random.Random(73)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(2, 6), max_extra=1)
        rep = dstab_formula(g)
        if rep.exact:
            assert dstab_oracle(g) == rep.value


HINTED = {
    "C7": cycle_edges(7),
    "C3+tail2x2": cycle_edges(3) + [(3, 4), (4, 5), (2, 6), (6, 7)],
    "C5+tail2": cycle_edges(5) + [(5, 6), (6, 7)],
    "C8": cycle_edges(8),
    "C6+leaf": cycle_edges(6) + [(1, 7)],
    "P7": path_edges(7),
    "C4+2leaves": cycle_edges(4) + [(1, 5), (3, 6)],
}


def _certificates(g):
    """dstab_oracle(g) and the (n, hints, certificate) of each power."""
    seen = []
    real = stability.depth_power

    def spy(g, n, **kwargs):
        cert = real(g, n, **kwargs)
        seen.append((n, kwargs.get("hints", ()), cert))
        return cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "depth_power", spy)
        return dstab_oracle(g), seen


def test_every_hint_hit_is_a_witness():
    for name, edges in HINTED.items():
        g = build_graph(edges)
        n0, seen = _certificates(g)
        assert n0 == dstab_formula(g).value, name
        hits = [(n, cert) for n, _, cert in seen if cert.hint_hit]
        assert [n for n, _ in hits] == [n0], name
        for n, cert in hits:
            assert cert.depth == depth_limit(g)
            _assert_witness(cert, power(edge_ideal(g), n))


def test_wrong_hints_change_nothing():
    graphs = [build_graph(edges) for edges in HINTED.values()]
    graphs += [build_graph(complete_edges(4)), build_graph(path_edges(5))]
    for g in graphs:
        want, plain = _certificates(g)
        bare = depth_power(g, want)
        assert bare.depth == plain[-1][2].depth
        # all -1 gives the complex {emptyset} or the void one, index r or
        # none: it is scanned and misses
        miss = (-1,) * g.r
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stability, "_witness", lambda g: (want, miss))
            got, hinted = _certificates(g)
        assert got == want
        assert [c for _, _, c in hinted] == [c for _, _, c in plain[:-1]] + [bare]
        # the cell goes to its own power only, never hits, and costs one cell
        assert [hints for _, hints, _ in hinted] == [()] * (want - 1) + [[miss]]
        assert not any(c.hint_hit for _, _, c in hinted)
        assert hinted[-1][2].cells_scanned == bare.cells_scanned + 1
        # cells outside every box or of the wrong length are dropped unscanned
        for cell in [(mt_bound(g) + 9,) * g.r, (-2,) + (0,) * (g.r - 1), (0,) * (g.r + 1)]:
            cert = depth_power(g, want, hints=[cell])
            assert cert == bare and not cert.hint_hit
            assert cert.cells_scanned == bare.cells_scanned


def test_witness_hint_dropped_when_no_full_cover_is_reached(monkeypatch):
    # C5+leaf takes its hint from its own cover walk, the bowtie from a
    # spanning unicyclic subgraph's walk; a walk with no full cover leaves
    # no hint and the scan alone finds the same dstab
    c5_leaf = build_graph(cycle_edges(5) + [(1, 6)])
    bowtie = build_graph(cycle_edges(3) + [(1, 4), (4, 5), (1, 5)])
    want = {g: dstab_oracle(g) for g in (c5_leaf, bowtie)}
    assert all(stability._witness(g) for g in want)

    def no_full_state(g):
        raise NoFullStateError("no level-n state covers every vertex")

    monkeypatch.setattr(stability, "full_cover_monomial", no_full_state)
    for g, n in want.items():
        with pytest.raises(NoFullStateError):
            stability._witness(g)
        assert dstab_oracle(g) == n
    assert want[c5_leaf] == dstab_formula(c5_leaf).value and dstab_formula(c5_leaf).exact


def test_oracle_reaches_p8():
    # the last box, 7^8 cells, is over the scan cap; the witness cell is not
    assert dstab_oracle(build_graph(path_edges(8))) == 6
