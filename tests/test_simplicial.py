"""Simplicial complexes and exact reduced homology."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import euler_characteristic_reduced, is_irrelevant, join, void_complex
from edgedepth import simplicial
from edgedepth.errors import CAPS, TooLargeError
from edgedepth.simplicial import (
    QQ,
    FieldChoice,
    from_facets,
    is_cone,
    min_nonvanishing_reduced_homology,
    reduced_homology_dims,
)


def test_facet_pruning_and_canonical_order():
    cx = from_facets([1, 2, 3], [[3, 2], [2], [1]])
    assert cx.facets == ((1,), (2, 3))
    same = from_facets([1, 2, 3], [[1], [2, 3], [3, 2], [2]])
    assert cx == same
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(1, 7)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(0, n))
            for _ in range(rng.randint(1, 6))
        ]
        sets = {frozenset(f) for f in facets}
        maximal = sorted(tuple(sorted(f)) for f in sets if not any(f < g for g in sets))
        cx = from_facets(range(1, n + 1), facets)
        assert cx.facets == tuple(maximal)
        # listed backwards, with a sub-face of each facet added
        again = [f[::-1] for f in facets[::-1]] + [f[1:] for f in facets]
        assert from_facets(range(n, 0, -1), again) == cx


def test_face_cap_counts_the_union(monkeypatch):
    # each facet of the 4-cycle brings 4 faces, under the cap; their
    # union reaches 9 with the fourth edge, and the refusal says so
    monkeypatch.setitem(CAPS, "face", 8)
    assert len(from_facets([1, 2, 3, 4], [[1, 2], [3, 4], [1, 3]]).faces) == 8
    with pytest.raises(TooLargeError) as info:
        from_facets([1, 2, 3, 4], [[1, 2], [3, 4], [1, 3], [2, 4]])
    assert str(info.value) == "complex has 9 faces, cap is 8 (the face cap)"


def test_void_vs_irrelevant():
    void = void_complex([1, 2])
    irr = from_facets([1, 2], [[]])
    assert void.is_void and not is_irrelevant(void)
    assert is_irrelevant(irr) and not irr.is_void
    assert reduced_homology_dims(void) == {}
    assert reduced_homology_dims(irr) == {-1: 1}
    assert irr.dim == -1


def test_two_points():
    cx = from_facets([1, 2], [[1], [2]])
    assert reduced_homology_dims(cx) == {-1: 0, 0: 1}


def test_hollow_square():
    cx = from_facets([1, 2, 3, 4], [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert reduced_homology_dims(cx) == {-1: 0, 0: 0, 1: 1}


def test_solid_simplex_acyclic():
    cx = from_facets([1, 2, 3], [[1, 2, 3]])
    dims = reduced_homology_dims(cx)
    assert all(v == 0 for v in dims.values())
    assert min_nonvanishing_reduced_homology(cx) == (None, 0)


def test_sphere_boundary():
    # boundary of the tetrahedron is a 2-sphere
    cx = from_facets([1, 2, 3, 4], [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
    assert reduced_homology_dims(cx) == {-1: 0, 0: 0, 1: 0, 2: 1}
    # the boundary of the m-vertex simplex is an (m - 2)-sphere, and no
    # cone; at m = 16, the vertex cap, its 2^16 - 1 faces are the most any
    # non-cone on at most that many vertices has, and the rank cap lets
    # them through
    for m in (13, CAPS["vertex"]):
        cx = from_facets(range(1, m + 1), [
            [v for v in range(1, m + 1) if v != skip] for skip in range(1, m + 1)
        ])
        assert is_cone(cx) is None and len(cx.faces) <= CAPS["rank"]
        assert reduced_homology_dims(cx) == {d: int(d == m - 2) for d in range(-1, m - 1)}


def test_projective_plane_characteristic_dependence():
    # minimal 6-vertex triangulation: torsion shows up only over GF(2)
    facets = [
        [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
        [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
    ]
    cx = from_facets(range(1, 7), facets)
    over_q = reduced_homology_dims(cx, QQ)
    over_2 = reduced_homology_dims(cx, FieldChoice.gf(2))
    assert over_q == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert over_2 == {-1: 0, 0: 0, 1: 1, 2: 1}


def test_join_identities():
    irr = from_facets([], [[]])
    cx = from_facets([1, 2], [[1], [2]])
    assert join(cx, irr) == cx
    assert join(cx, void_complex([9])).is_void


def test_join_universe_overlap_rejected():
    a = from_facets([1], [[1]])
    b = from_facets([1, 2], [[1, 2]])
    with pytest.raises(ValueError):
        join(a, b)


def test_join_of_point_pairs():
    # join of s copies of a two-point complex is a sphere S^{s-1}
    offset = 0
    cx = from_facets([], [[]])
    for s in range(1, 5):
        pts = from_facets([offset + 1, offset + 2], [[offset + 1], [offset + 2]])
        offset += 2
        cx = join(cx, pts)
        dims = reduced_homology_dims(cx)
        assert dims[s - 1] == 1
        assert all(v == 0 for d, v in dims.items() if d != s - 1)


def test_cone_detection_and_acyclicity():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(2, 6)
        facets = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, n)
            facets.append(rng.sample(range(2, n + 2), min(size, n)))
        cone_facets = [f + [1] for f in facets]
        cx = from_facets(range(1, n + 2), cone_facets)
        assert is_cone(cx) == 1
        assert min_nonvanishing_reduced_homology(cx) == (None, 0)


def test_cone_shortcut_matches_rank_route():
    rng = random.Random(47)
    fields = (QQ, FieldChoice.gf(2), FieldChoice.gf(3))
    cones = 0
    for k in range(500):
        n = rng.randint(1, 7)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(0, n))
            for _ in range(rng.randint(1, 5))
        ]
        if k % 2:  # put an apex into every facet
            apex = rng.randint(1, n)
            facets = [f + [apex] if apex not in f else f for f in facets]
        cx = from_facets(range(1, n + 1), facets)
        common = set.intersection(*(set(f) for f in cx.facets))
        assert is_cone(cx) == (min(common) if common else None)
        cones += bool(common)
        for field in fields:
            assert reduced_homology_dims(cx, field) == simplicial._rank_homology_dims(cx, field)
    assert cones >= 250


def test_simplex_homology_needs_no_rank(monkeypatch):
    def no_rank(rows, field):
        raise AssertionError("a cone needs no boundary rank")

    monkeypatch.setattr(simplicial, "_matrix_rank", no_rank)
    cx = from_facets(range(1, 12), [range(1, 12)])
    assert reduced_homology_dims(cx) == {d: 0 for d in range(-1, 11)}
    # vertex 1 lies in both maximal facets: a cone of 2^17 + 2 faces, over
    # the rank cap, is acyclic all the same
    cx = from_facets(range(1, 19), [range(1, 18), [1, 18], [2, 3]])
    assert len(cx.faces) > CAPS["rank"]
    assert not any(reduced_homology_dims(cx).values())


def _dense_rank(columns: list[dict[int, int]], p) -> int:
    """Rank by Gaussian elimination on dense rows, of Fractions over Q and
    of ints mod p over GF(p); the reference for the sparse kernel."""
    if p is None:
        norm, inv = Fraction, lambda x: 1 / x
    else:
        norm, inv = (lambda x: x % p), (lambda x: pow(x, -1, p))
    rows = sorted({r for col in columns for r in col})
    mat = [[norm(col.get(r, 0)) for r in rows] for col in columns]
    rank = 0
    for j in range(len(rows)):
        piv = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = norm(mat[i][j] * inv(mat[rank][j]))
            mat[i] = [norm(a - f * b) for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_matrix_rank_matches_dense_reference():
    rng = random.Random(53)
    fields = (QQ, FieldChoice.gf(2), FieldChoice.gf(3), FieldChoice.gf(5))
    for _ in range(300):
        nrows = rng.randint(1, 8)
        columns = []
        for _ in range(rng.randint(0, 9)):
            kind = rng.random()
            if kind < 0.1:
                col = {r: 0 for r in rng.sample(range(nrows), rng.randint(0, nrows))}
            elif kind < 0.25 and columns:
                col = dict(rng.choice(columns))  # a repeated column
            else:
                col = {
                    r: rng.randint(-3, 3)
                    for r in rng.sample(range(nrows), rng.randint(1, nrows))
                }
            columns.append(col)
        for field in fields:
            expected = _dense_rank(columns, field.p)
            assert simplicial._matrix_rank([dict(c) for c in columns], field) == expected


def test_fresh_boundary_columns_are_not_normalised(monkeypatch):
    # a fresh boundary column is all 1 and -1; only the result of a
    # reduction step, which has a zero in the row it cleared, needs the
    # gcd or mod p pass
    seen = []
    real = simplicial._normalised

    def spy(col, p):
        seen.append(dict(col))
        return real(col, p)

    monkeypatch.setattr(simplicial, "_normalised", spy)
    sphere = from_facets(range(1, 7), [[v for v in range(1, 7) if v != w] for w in range(1, 7)])
    for field in (QQ, FieldChoice.gf(2), FieldChoice.gf(3)):
        assert reduced_homology_dims(sphere, field) == {d: int(d == 4) for d in range(-1, 5)}
    assert seen and all(0 in col.values() for col in seen)


def test_is_cone_negative():
    assert is_cone(from_facets([1, 2], [[1], [2]])) is None
    assert is_cone(void_complex([1])) is None
    assert is_cone(from_facets([1], [[]])) is None


def test_euler_characteristic_matches_homology():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(2, 6)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(1, n))
            for _ in range(rng.randint(1, 5))
        ]
        cx = from_facets(range(1, n + 1), facets)
        dims = reduced_homology_dims(cx)
        chi = sum((-1) ** d * v for d, v in dims.items())
        assert chi == euler_characteristic_reduced(cx)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        FieldChoice.gf(6)
    with pytest.raises(ValueError, match="2\\^31"):
        FieldChoice.gf(1_000_000_000_000_000_003)
    assert FieldChoice.gf(2_147_483_647).p == 2_147_483_647  # the largest allowed
