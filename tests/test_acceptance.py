"""End-to-end acceptance suite.

Each test covers one acceptance criterion and reports a single PASS/FAIL
line in the terminal summary.  Expected values are either computed by an
independent brute-force route inside the test or are frozen golden values
checked against both the formulas and the depth oracle.
"""
from __future__ import annotations

import random
import time

import numpy as np

import conftest
from conftest import (
    add,
    bipartite_power_complex,
    colon,
    cycle_edges,
    intersect,
    is_irrelevant,
    isomorphism_classes,
    join,
    maximal_ideal,
    path_edges,
    random_connected_graph,
    random_graph,
    star_edges,
    symbolic_member,
)
from edgedepth.assoc import ass_formula
from edgedepth.depth import (
    betti_depth_crosscheck,
    depth_bruteforce,
    depth_power,
    takayama_complex,
)
from edgedepth.graphs import (
    Graph,
    build_graph,
    cycle_profile,
    decompose,
    minimal_vertex_covers,
)
from edgedepth.monomials import (
    associated_primes_bruteforce,
    contains,
    edge_ideal,
    gens_array,
    minimalize,
    multiply,
    power,
)
from edgedepth.simplicial import (
    from_facets,
    is_cone,
    min_nonvanishing_reduced_homology,
    reduced_homology_dims,
)
from edgedepth.stability import (
    depth_limit,
    dstab_formula,
    dstab_oracle,
    mt_bound,
    witness,
)
from test_monomials import random_ideal


def _report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} [{label}]: {status}{suffix}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


GOLDEN = [
    ("C3", cycle_edges(3), 2),
    ("C4", cycle_edges(4), 1),
    ("C5", cycle_edges(5), 3),
    ("C6", cycle_edges(6), 4),
    ("P4", path_edges(4), 2),
    ("P5", path_edges(5), 3),
    ("K13", star_edges(3), 1),
    ("C3+C4", cycle_edges(3) + cycle_edges(4, offset=3), 2),
    ("P4+P4", path_edges(4) + path_edges(4, offset=4), 3),
]


def test_acceptance_1_golden_values():
    start = time.monotonic()
    bad = []
    for name, edges, expect in GOLDEN:
        g = build_graph(edges)
        rep = dstab_formula(g)
        oracle = dstab_oracle(g)
        if not (rep.exact and rep.value == expect and oracle == expect):
            bad.append(f"{name}: formula={rep.value} oracle={oracle} expect={expect}")
    elapsed = time.monotonic() - start
    _report(
        1,
        "golden dstab values",
        not bad and elapsed < 60.0,
        "; ".join(bad) or f"{len(GOLDEN)} graphs in {elapsed:.1f}s",
    )


def _affordable(g: Graph, worst_n: int) -> bool:
    """Resource guard for the scan: keeps the alpha box within budget."""
    cells = (worst_n + 1) ** g.r
    if decompose(g).t == 0:
        return cells <= 6_000_000
    return cells <= 400_000


def test_acceptance_2_depth_limit_law():
    rng = random.Random(202608)
    graphs = []
    while len(graphs) < 50:
        v = rng.choice([3, 4, 4, 5, 5, 6, 6, 7])
        g = random_graph(rng, v)
        bound = mt_bound(g)
        if _affordable(g, bound + 3):
            graphs.append(g)
    bad = []
    for g in graphs:
        s = depth_limit(g)
        bound = mt_bound(g)
        depths = [depth_power(g, n).depth for n in range(1, bound + 1)]
        if min(depths) != s:
            bad.append(f"{g.edges}: min depth {min(depths)} != s={s}")
            continue
        first = depths.index(s) + 1
        tail = [depth_power(g, n).depth for n in range(first + 1, first + 4)]
        if any(d != s for d in tail):
            bad.append(f"{g.edges}: depth leaves {s} after power {first}: {tail}")
    _report(
        2,
        "limit depth = bipartite components, then stable",
        not bad,
        "; ".join(bad[:3]) or f"{len(graphs)} random graphs on <= 7 vertices",
    )


def test_acceptance_3_global_bound():
    rng = random.Random(30_2026)
    bad = []
    for _ in range(200):
        v = rng.randint(3, 6)
        g = random_connected_graph(rng, v, max_extra=v * (v - 1) // 2)
        bound = mt_bound(g)
        n0 = dstab_oracle(g)
        if n0 > bound:
            bad.append(f"{g.edges}: dstab {n0} > bound {bound}")
    _report(
        3,
        "dstab <= global bound",
        not bad,
        "; ".join(bad[:3]) or "200 random connected graphs on <= 6 vertices",
    )


def _all_trees_up_to(vmax: int) -> list[Graph]:
    import networkx as nx

    out = []
    out.append(build_graph([(1, 2)]))
    for v in range(3, vmax + 1):
        for t in nx.nonisomorphic_trees(v):
            out.append(build_graph([(a + 1, b + 1) for a, b in t.edges()], r=v))
    return out


def _all_unicyclic_up_to(vmax: int) -> list[Graph]:
    candidates = []
    for tree in _all_trees_up_to(vmax):
        if tree.r < 3:
            continue
        present = set(tree.edges)
        for i in range(1, tree.r + 1):
            for j in range(i + 1, tree.r + 1):
                if (i, j) not in present:
                    candidates.append(build_graph(list(tree.edges) + [(i, j)], r=tree.r))
    return isomorphism_classes(candidates)


def test_acceptance_4_bound_achieved_without_four_cycles():
    graphs = _all_trees_up_to(7)
    graphs += [
        g
        for g in _all_unicyclic_up_to(7)
        if len(cycle_profile(g).unique_cycle) != 4
    ]
    bad = []
    for g in graphs:
        bound = mt_bound(g)
        n0 = dstab_oracle(g)
        if n0 != bound:
            bad.append(f"{g.edges}: dstab {n0} != bound {bound}")
    _report(
        4,
        "bound attained for trees and 4-cycle-free unicyclic",
        not bad,
        "; ".join(bad[:3]) or f"{len(graphs)} isomorphism classes on <= 7 vertices",
    )


def test_acceptance_5_associated_primes():
    graphs = [
        g
        for g in _all_unicyclic_up_to(6)
        if len(cycle_profile(g).unique_cycle) % 2 == 1
    ]
    bad = []
    for g in graphs:
        dstab = dstab_formula(g).value
        for n in range(1, dstab + 2):
            formula = ass_formula(g, n)
            brute = associated_primes_bruteforce(power(edge_ideal(g), n))
            if formula != brute:
                bad.append(f"{g.edges} n={n}: formula != bruteforce")
        n0, f = witness(g)
        if colon(power(edge_ideal(g), n0), f) != maximal_ideal(g.r):
            bad.append(f"{g.edges}: witness colon not maximal at n={n0}")
        if n0 >= 2 and colon(power(edge_ideal(g), n0 - 1), f) == maximal_ideal(g.r):
            bad.append(f"{g.edges}: witness certificate already holds at n={n0 - 1}")
    _report(
        5,
        "associated primes formula and depth-zero witness",
        not bad,
        "; ".join(bad[:3]) or f"{len(graphs)} unicyclic nonbipartite classes on <= 6 vertices",
    )


def _power_box_members(g: Graph, n: int, box_hi: int) -> np.ndarray:
    """Membership of every monomial with entries <= box_hi in I(g)^n."""
    arr = gens_array(power(edge_ideal(g), n)).astype(np.int64)
    grids = np.meshgrid(*[np.arange(box_hi + 1)] * g.r, indexing="ij")
    box = np.stack([gr.ravel() for gr in grids], axis=1)
    member = np.zeros(len(box), dtype=bool)
    chunk = max(1, 4_000_000 // max(1, len(arr) * g.r))
    for off in range(0, len(box), chunk):
        blk = box[off : off + chunk]
        member[off : off + chunk] = (
            (blk[:, None, :] >= arr[None, :, :]).all(axis=2).any(axis=1)
        )
    return box, member


def test_acceptance_6_symbolic_equals_ordinary_for_bipartite():
    rng = random.Random(606)
    bad = []
    checked = 0
    while checked < 20:
        g = random_graph(rng, rng.randint(3, 6))
        if decompose(g).t:
            continue
        checked += 1
        covers = minimal_vertex_covers(g)
        cover_ind = np.zeros((len(covers), g.r), dtype=np.int64)
        for ci, cover in enumerate(covers):
            for v in cover:
                cover_ind[ci, v - 1] = 1
        for n in (1, 2, 3):
            box, member = _power_box_members(g, n, n + 1)
            symbolic = (box @ cover_ind.T >= n).all(axis=1)
            if not (member == symbolic).all():
                bad.append(f"{g.edges} n={n}")
    # odd cycles break the equivalence: the triangle at n=2
    c3 = build_graph(cycle_edges(3))
    counterexample_ok = symbolic_member(c3, 2, (1, 1, 1)) and not contains(
        power(edge_ideal(c3), 2), (1, 1, 1)
    )
    if not counterexample_ok:
        bad.append("triangle counterexample broken")
    _report(
        6,
        "symbolic power = ordinary power over full boxes, bipartite only",
        not bad,
        "; ".join(bad[:3]) or "20 random bipartite graphs, n <= 3, plus triangle counterexample",
    )


def test_acceptance_7_two_depth_routes_agree():
    rng = random.Random(707)
    corpus = []
    while len(corpus) < 100:
        ideal = random_ideal(rng, rng.randint(2, 5), max_gens=6, max_deg=4)
        if not ideal.is_zero and not ideal.is_unit:
            corpus.append(ideal)
    bad = []
    for ideal in corpus:
        via_scan = depth_bruteforce(ideal).depth
        via_betti = betti_depth_crosscheck(ideal)
        if via_scan != via_betti:
            bad.append(f"{ideal}: scan {via_scan} != betti {via_betti}")
        full = tuple(range(1, ideal.r + 1))
        has_m = full in associated_primes_bruteforce(ideal)
        if (via_scan == 0) != has_m:
            bad.append(f"{ideal}: depth-0 / maximal-associated mismatch")
    _report(
        7,
        "local cohomology scan vs Betti numbers vs associated primes",
        not bad,
        "; ".join(bad[:3]) or "100 random monomial ideals, r <= 5, degree <= 4",
    )


def _prop_cone_acyclic(rng: random.Random) -> list[str]:
    bad = []
    for _ in range(20):
        n = rng.randint(2, 6)
        facets = [
            rng.sample(range(2, n + 2), rng.randint(1, n)) + [1]
            for _ in range(rng.randint(1, 5))
        ]
        cx = from_facets(range(1, n + 2), facets)
        if is_cone(cx) is None or min_nonvanishing_reduced_homology(cx) != (None, 0):
            bad.append(f"cone not acyclic: {cx.facets}")
    return bad


def _prop_join_spheres() -> list[str]:
    bad = []
    cx = from_facets([], [[]])
    offset = 0
    for s in range(1, 5):
        pts = from_facets([offset + 1, offset + 2], [[offset + 1], [offset + 2]])
        offset += 2
        cx = join(cx, pts)
        dims = reduced_homology_dims(cx)
        if dims.get(s - 1) != 1 or any(v for d, v in dims.items() if d != s - 1):
            bad.append(f"join of {s} point pairs: {dims}")
    return bad


def _prop_fast_path(rng: random.Random) -> list[str]:
    bad = []
    checked = 0
    while checked < 8:
        g = random_graph(rng, rng.randint(2, 5))
        if decompose(g).t:
            continue
        checked += 1
        for n in (1, 2):
            ideal = power(edge_ideal(g), n)
            for _ in range(6):
                alpha = tuple(rng.randint(0, n) for _ in range(g.r))
                if bipartite_power_complex(g, alpha, n) != takayama_complex(ideal, alpha):
                    bad.append(f"fast path mismatch: {g.edges}, {alpha}, n={n}")
    return bad


def _prop_leaf_increment(rng: random.Random) -> list[str]:
    bad = []
    for _ in range(8):
        base = random_connected_graph(rng, rng.randint(2, 4), max_extra=2)
        r = base.r
        q = rng.randint(1, r)
        g = build_graph(list(base.edges) + [(q, r + 1)], r=r + 1)
        n = rng.randint(1, 2)
        alpha = tuple(
            rng.randint(0, n) if v + 1 == q else rng.randint(-1, n) for v in range(r)
        ) + (rng.randint(0, 1),)
        beta = tuple(
            a + (1 if i + 1 in (q, r + 1) else 0) for i, a in enumerate(alpha)
        )
        ideal = edge_ideal(g)
        if takayama_complex(power(ideal, n), alpha) != takayama_complex(
            power(ideal, n + 1), beta
        ):
            bad.append(f"leaf increment: {g.edges}, {alpha}")
    return bad


def _prop_monomial_identities(rng: random.Random) -> list[str]:
    bad = []
    for _ in range(25):
        i0, i1, i2 = (random_ideal(rng, 4) for _ in range(3))
        if intersect(i0, add(i1, i2)) != add(intersect(i0, i1), intersect(i0, i2)):
            bad.append("modular intersection identity")
    for _ in range(25):
        def block(lo, hi):
            gens = []
            for _ in range(rng.randint(1, 3)):
                m = [0] * 6
                for _ in range(rng.randint(1, 3)):
                    m[rng.randrange(lo, hi)] += 1
                gens.append(tuple(m))
            return minimalize(6, gens)

        i1, i2, j1, j2 = block(0, 3), block(0, 3), block(3, 6), block(3, 6)
        if intersect(multiply(i1, j1), multiply(i2, j2)) != multiply(
            intersect(i1, i2), intersect(j1, j2)
        ):
            bad.append("disjoint block product identity")
    return bad


def _prop_scan_box(rng: random.Random) -> list[str]:
    bad = []
    for _ in range(15):
        ideal = random_ideal(rng, 4)
        if ideal.is_zero or ideal.is_unit:
            continue
        rho = [max(g[i] for g in ideal.gens) for i in range(4)]
        # negative entries only matter through their sign
        alpha = [rng.randint(-1, 2) for _ in range(4)]
        alpha[rng.randrange(4)] = -1
        deeper = tuple(a if a >= 0 else -rng.randint(2, 6) for a in alpha)
        if takayama_complex(ideal, tuple(alpha)) != takayama_complex(ideal, deeper):
            bad.append(f"negative collapse: {ideal}, {alpha}")
        # at or above rho the vertex belongs to every facet: a cone
        j = rng.randrange(4)
        alpha2 = [rng.randint(-1, max(rho[i] - 1, 0)) for i in range(4)]
        alpha2[j] = rho[j] + rng.randint(0, 2)
        cx = takayama_complex(ideal, tuple(alpha2))
        if not cx.is_void and not is_irrelevant(cx):
            if not all((j + 1) in f for f in cx.facets):
                bad.append(f"missing cone apex: {ideal}, {alpha2}")
            elif min_nonvanishing_reduced_homology(cx) != (None, 0):
                bad.append(f"cone with homology: {ideal}, {alpha2}")
    return bad


def test_acceptance_8_property_suites():
    rng = random.Random(808)
    bad = []
    bad += _prop_cone_acyclic(rng)
    bad += _prop_join_spheres()
    bad += _prop_fast_path(rng)
    bad += _prop_leaf_increment(rng)
    bad += _prop_monomial_identities(rng)
    bad += _prop_scan_box(rng)
    _report(
        8,
        "structural property suites",
        not bad,
        "; ".join(bad[:3]) or "cones, joins, fast path, leaf shift, identities, scan box",
    )
