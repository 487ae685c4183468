"""Monomial ideal arithmetic, symbolic membership, associated primes."""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from conftest import (
    add,
    colon,
    complete_edges,
    cycle_edges,
    path_edges,
    intersect,
    localize,
    maximal_ideal,
    monomial_str,
    power_membership_exhaustive,
    random_graph,
    symbolic_member,
    variable_ideal,
)
from edgedepth import monomials
from edgedepth.depth import _homology
from edgedepth.graphs import CACHE_ENTRIES, build_graph, cycle_profile
from edgedepth.monomials import (
    COLON_CHUNK_CELLS,
    MonomialIdeal,
    associated_primes_bruteforce,
    contains,
    edge_ideal,
    gens_array,
    membership,
    minimalize,
    multiply,
    power,
)


def random_ideal(rng: random.Random, r: int, max_gens: int = 5, max_deg: int = 3) -> MonomialIdeal:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        m = [0] * r
        for _ in range(rng.randint(1, max_deg)):
            m[rng.randrange(r)] += 1
        gens.append(tuple(m))
    return minimalize(r, gens)


def test_minimalize_drops_multiples():
    ideal = minimalize(2, [(1, 1), (2, 1), (0, 3)])
    assert ideal.gens == ((0, 3), (1, 1))


def _naive_minimal(gens) -> tuple[tuple[int, ...], ...]:
    """The generators no other one divides, by pairwise comparison."""
    uniq = {tuple(m) for m in gens}
    return tuple(sorted(
        m for m in uniq
        if not any(g != m and all(x <= y for x, y in zip(g, m)) for g in uniq)
    ))


@pytest.mark.parametrize("count", [1, 2, 3, 10, 64, 65, 300])
def test_minimalize_matches_naive_filter(count):
    rng = random.Random(count)
    box = list(itertools.product(range(5), repeat=5))
    for _ in range(5):
        gens = rng.sample(box, count)
        while count > 1 and len({sum(m) for m in gens}) == 1:  # mixed degrees
            gens = rng.sample(box, count)
        assert minimalize(5, gens).gens == _naive_minimal(gens)


def test_multiply_matches_naive_products():
    """Random ideals, and edge-ideal powers whose products fall below and
    above 4,096, the size at which multiply once took a separate path."""
    rng = random.Random(7)
    for _ in range(30):
        a, b = random_ideal(rng, 4, max_gens=8), random_ideal(rng, 4, max_gens=8)
        prods = [tuple(x + y for x, y in zip(g, h)) for g in a.gens for h in b.gens]
        assert multiply(a, b).gens == _naive_minimal(prods)
    sides = set()
    for edges, top in ((cycle_edges(10), 5), (complete_edges(7), 4)):
        ideal = edge_ideal(build_graph(edges))
        prev = ideal
        for _ in range(2, top + 1):
            sides.add(len(prev.gens) * len(ideal.gens) > 4096)
            prods = {tuple(x + y for x, y in zip(g, h)) for g in prev.gens for h in ideal.gens}
            prev = multiply(prev, ideal)
            assert prev == minimalize(ideal.r, prods)
    assert sides == {False, True}


def test_zero_and_unit():
    zero = minimalize(2, [])
    unit = minimalize(2, [(0, 0), (1, 2)])
    assert zero.is_zero and not zero.is_unit
    assert unit.is_unit and unit.gens == ((0, 0),)


def test_edge_ideal_c3():
    g = build_graph(cycle_edges(3))
    assert edge_ideal(g).gens == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_monomial_str():
    assert monomial_str((2, 0, 1)) == "x1^2*x3"
    assert monomial_str((0, 0)) == "1"


def test_power_c3_squared():
    sq = power(edge_ideal(build_graph(cycle_edges(3))), 2)
    # all products of two edges, independently recomputed
    edges = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    expected = sorted(
        {
            tuple(a + b for a, b in zip(e1, e2))
            for e1 in edges
            for e2 in edges
        }
    )
    assert list(sq.gens) == expected
    assert len(sq.gens) == 6


def test_power_membership_matches_exhaustive():
    rng = random.Random(11)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 5))
        ideal = edge_ideal(g)
        for n in (1, 2, 3):
            pw = power(ideal, n)
            for _ in range(20):
                m = tuple(rng.randint(0, n) for _ in range(g.r))
                assert contains(pw, m) == power_membership_exhaustive(g, n, m)


def test_colon_gives_maximal_ideal():
    ideal = power(edge_ideal(build_graph(cycle_edges(3))), 2)
    assert colon(ideal, (1, 1, 1)) == maximal_ideal(3)
    assert colon(ideal, (0, 0, 0)) == ideal


def test_colon_unit_iff_member():
    rng = random.Random(23)
    for _ in range(40):
        ideal = random_ideal(rng, 4)
        if ideal.is_zero or ideal.is_unit:
            continue
        m = tuple(rng.randint(0, 3) for _ in range(4))
        assert colon(ideal, m).is_unit == contains(ideal, m)


def test_localize():
    ideal = edge_ideal(build_graph(cycle_edges(4)))
    loc = localize(ideal, [1])
    # x1 = 1 turns x1x2 and x1x4 into variables
    assert loc == variable_ideal(4, [2, 4])
    assert localize(ideal, [1, 2]).is_unit


def test_intersection_identity_modular_law():
    # I cap (I1 + I2) = I cap I1 + I cap I2 for monomial ideals
    rng = random.Random(5)
    for _ in range(60):
        i0 = random_ideal(rng, 4)
        i1 = random_ideal(rng, 4)
        i2 = random_ideal(rng, 4)
        lhs = intersect(i0, add(i1, i2))
        rhs = add(intersect(i0, i1), intersect(i0, i2))
        assert lhs == rhs


def test_disjoint_block_product_intersection():
    # variables split in two blocks: I1 J1 cap I2 J2 = (I1 cap I2)(J1 cap J2)
    rng = random.Random(6)
    r = 6

    def block_ideal(lo: int, hi: int) -> MonomialIdeal:
        gens = []
        for _ in range(rng.randint(1, 3)):
            m = [0] * r
            for _ in range(rng.randint(1, 3)):
                m[rng.randrange(lo, hi)] += 1
            gens.append(tuple(m))
        return minimalize(r, gens)

    for _ in range(40):
        i1, i2 = block_ideal(0, 3), block_ideal(0, 3)
        j1, j2 = block_ideal(3, 6), block_ideal(3, 6)
        lhs = intersect(multiply(i1, j1), multiply(i2, j2))
        rhs = multiply(intersect(i1, i2), intersect(j1, j2))
        assert lhs == rhs


def test_symbolic_membership_cover_criterion():
    g = build_graph(cycle_edges(3))
    # x1x2x3 has degree >= 2 on every cover of C3 but is not in I^2
    assert symbolic_member(g, 2, (1, 1, 1))
    assert not contains(power(edge_ideal(g), 2), (1, 1, 1))


def test_symbolic_equals_power_for_bipartite():
    rng = random.Random(9)
    checked = 0
    while checked < 8:
        g = random_graph(rng, rng.randint(3, 5))
        from edgedepth.graphs import decompose

        if decompose(g).t:
            continue
        checked += 1
        ideal = edge_ideal(g)
        for n in (1, 2, 3):
            pw = power(ideal, n)
            for m in itertools.product(range(n + 1), repeat=g.r):
                assert contains(pw, m) == symbolic_member(g, n, m)


def test_associated_primes_principal():
    ideal = minimalize(2, [(1, 1)])
    assert associated_primes_bruteforce(ideal) == ((1,), (2,))


def test_associated_primes_edge_ideal_c3():
    ideal = edge_ideal(build_graph(cycle_edges(3)))
    assert associated_primes_bruteforce(ideal) == ((1, 2), (1, 3), (2, 3))
    sq = power(ideal, 2)
    assert associated_primes_bruteforce(sq) == ((1, 2), (1, 2, 3), (1, 3), (2, 3))


def _naive_associated_primes(ideal: MonomialIdeal) -> set[tuple[int, ...]]:
    # independent route: compute (I : m) explicitly for every m in the box
    r = ideal.r
    lcm = [max(g[i] for g in ideal.gens) for i in range(r)]
    primes = set()
    for m in itertools.product(*[range(e + 1) for e in lcm]):
        q = colon(ideal, m)
        if not q.is_unit and all(sum(g) == 1 for g in q.gens):
            primes.add(tuple(i + 1 for i in range(r) if any(g[i] for g in q.gens)))
    return primes


def test_associated_primes_match_naive_colon_scan():
    rng = random.Random(31)
    ideals = [random_ideal(rng, 3) for _ in range(25)]
    for _ in range(60):
        r = rng.randint(1, 5)
        ideals.append(random_ideal(rng, r, max_gens=rng.randint(1, 8), max_deg=rng.randint(1, 4)))
    # more than 64 generators: the generator bitsets span several words
    many = minimalize(4, [m for m in itertools.product(range(7), repeat=4) if sum(m) == 6])
    assert len(many.gens) == 84
    ideals.append(many)
    k4 = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    ideals.append(power(edge_ideal(build_graph(k4)), 4))  # 85 generators, 5 primes
    # an absent variable (lcm_i = 0) and a single generator
    ideals.append(minimalize(4, [(2, 0, 1, 0), (0, 3, 1, 0), (1, 1, 0, 0)]))
    ideals.append(minimalize(3, [(2, 0, 3)]))
    ideals.append(minimalize(1, [(3,)]))
    # a box of 9^4 cells, larger than one chunk
    big = minimalize(4, [(8, 0, 1, 0), (0, 8, 0, 2), (3, 1, 8, 0), (0, 2, 2, 8), (2, 2, 2, 2)])
    assert math.prod(max(g[i] for g in big.gens) + 1 for i in range(4)) > COLON_CHUNK_CELLS
    ideals.append(big)
    for ideal in ideals:
        if ideal.is_zero or ideal.is_unit:
            continue
        assert set(associated_primes_bruteforce(ideal)) == _naive_associated_primes(ideal), ideal


def test_membership_matches_contains():
    # the kernel against the definition on seeded random ideals, on rows
    # past the lcm and on bumps up to and past its edge; the last ideals
    # take more than one 64-bit word per bitset
    rng = random.Random(2121)
    k4 = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    ideals = [random_ideal(rng, rng.randint(1, 5)) for _ in range(300)]
    ideals += [power(edge_ideal(build_graph(k4)), 4), minimalize(3, []), minimalize(2, [(0, 0)])]
    for ideal in ideals:
        r = ideal.r
        lcm = [max((g[i] for g in ideal.gens), default=0) for i in range(r)]
        rows = [tuple(rng.randint(0, e + 2) for e in lcm) for _ in range(40)]
        rows += [tuple(lcm)] + [tuple(max(e - 1, 0) for e in lcm)] + list(ideal.gens)
        inside, bumped = membership(ideal, rows)
        assert inside.shape == (len(rows),) and bumped.shape == (len(rows), r)
        for a, got, bumps in zip(rows, inside, bumped):
            assert got == contains(ideal, a), (ideal, a)
            for i in range(r):
                up = a[:i] + (a[i] + 1,) + a[i + 1:]
                assert bumps[i] == contains(ideal, up), (ideal, a, i)
    inside, bumped = membership(ideals[0], np.zeros((0, ideals[0].r), dtype=np.int64))
    assert inside.shape == (0,) and bumped.shape == (0, ideals[0].r)


def test_power_recursion_is_shallow_and_warm_powers_take_one_multiply(monkeypatch):
    # a cold I^n takes no recursion that grows with n, and n = 1, 2, ...
    # asked in order multiply once per new power
    ideal = minimalize(2, [(3, 1), (1, 2)])
    assert power(minimalize(2, [(1, 1)]), 5000).gens == ((5000, 5000),)
    calls = []
    real = monomials.multiply
    monkeypatch.setattr(monomials, "multiply", lambda a, b: calls.append(1) or real(a, b))
    for n in range(1, 131):
        power(ideal, n)
    assert len(calls) == 129


def test_power_cache_returns_same_object():
    ideal = edge_ideal(build_graph(path_edges(4)))
    assert power(ideal, 3) is power(ideal, 3)


def test_caches_are_bounded():
    for k in range(1, CACHE_ENTRIES + 10):
        ideal = minimalize(1, [(k,)])
        power(ideal, 1)
        gens_array(ideal)
    assert power.cache_info().currsize <= CACHE_ENTRIES
    assert gens_array.cache_info().currsize <= CACHE_ENTRIES
    chords = [(u, v) for u in range(1, 7) for v in range(u + 2, 7)]  # off the path P6
    picks = itertools.product((False, True), repeat=len(chords))
    for extra in itertools.islice(picks, CACHE_ENTRIES + 10):
        cycle_profile(build_graph(path_edges(6) + list(itertools.compress(chords, extra))))
    assert cycle_profile.cache_info().currsize <= CACHE_ENTRIES
    assert _homology.cache_info().maxsize == 1 << 16


def test_ass_unit_rejected():
    with pytest.raises(ValueError):
        associated_primes_bruteforce(minimalize(2, [(0, 0)]))
