"""Depth engine: degree-wise complexes, the scan box, the bipartite fast
path, and the Betti-number cross-check."""
from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from conftest import (
    bipartite_power_complex,
    complete_edges,
    cycle_edges,
    is_irrelevant,
    localize,
    path_edges,
    random_connected_graph,
    random_graph,
    void_complex,
)
from edgedepth import depth
from edgedepth.depth import (
    _homology,
    betti_depth_crosscheck,
    depth_bruteforce,
    depth_power,
    takayama_complex,
)
from edgedepth.errors import CAPS, TooLargeError
from edgedepth.graphs import build_graph, decompose, induced_subgraph, maximal_independent_sets
from edgedepth.monomials import (
    associated_primes_bruteforce,
    contains,
    edge_ideal,
    minimalize,
    power,
)
from edgedepth.simplicial import (
    QQ,
    FieldChoice,
    from_facets,
    min_nonvanishing_reduced_homology,
    reduced_homology_dims,
)
from edgedepth.stability import depth_limit, depth_sequence, dstab_oracle, power_certificates
from test_monomials import random_ideal


def takayama_reference(ideal, alpha):
    """Face-by-face reference: F is a face iff x^(alpha restricted to the
    nonnegative part) avoids the localization of I at F + G_alpha."""
    r = ideal.r
    neg = [i + 1 for i in range(r) if alpha[i] < 0]
    universe = [i + 1 for i in range(r) if alpha[i] >= 0]
    apos = tuple(max(alpha[i], 0) for i in range(r))
    faces = []
    for k in range(len(universe) + 1):
        for sub in itertools.combinations(universe, k):
            loc = localize(ideal, list(sub) + neg)
            if not contains(loc, apos):
                faces.append(sub)
    if not faces:
        return void_complex(universe)
    return from_facets(universe, faces)


def test_takayama_c4_zero_degree_is_independence_complex():
    ideal = edge_ideal(build_graph(cycle_edges(4)))
    cx = takayama_complex(ideal, (0, 0, 0, 0))
    assert cx.facets == ((1, 3), (2, 4))


def test_takayama_c4_square():
    ideal = power(edge_ideal(build_graph(cycle_edges(4))), 2)
    cx = takayama_complex(ideal, (1, 0, 1, 0))
    assert cx.facets == ((1, 3),)


def test_takayama_negative_coordinate():
    ideal = edge_ideal(build_graph(cycle_edges(4)))
    cx = takayama_complex(ideal, (-1, 0, 0, 0))
    assert cx.universe == (2, 3, 4)
    assert cx.facets == ((3,),)


def test_takayama_void_when_alpha_in_ideal():
    ideal = edge_ideal(build_graph(cycle_edges(4)))
    assert takayama_complex(ideal, (1, 1, 0, 0)).is_void


def test_takayama_matches_reference():
    rng = random.Random(13)
    for _ in range(25):
        ideal = random_ideal(rng, 4)
        if ideal.is_zero or ideal.is_unit:
            continue
        alpha = tuple(rng.randint(-1, 2) for _ in range(4))
        assert takayama_complex(ideal, alpha) == takayama_reference(ideal, alpha)


def test_scan_box_negative_collapse():
    # the complex only sees the sign of a negative coordinate
    rng = random.Random(17)
    for _ in range(15):
        ideal = random_ideal(rng, 4)
        if ideal.is_zero or ideal.is_unit:
            continue
        alpha = [rng.randint(0, 2)] * 4
        alpha[rng.randrange(4)] = -1
        deeper = [a if a >= 0 else -rng.randint(2, 5) for a in alpha]
        assert takayama_complex(ideal, tuple(alpha)) == takayama_complex(
            ideal, tuple(deeper)
        )


def test_scan_box_cone_above_rho():
    # alpha_j >= max exponent of x_j makes the complex a cone with apex j
    rng = random.Random(19)
    for _ in range(20):
        ideal = random_ideal(rng, 4)
        if ideal.is_zero or ideal.is_unit:
            continue
        rho = [max(g[i] for g in ideal.gens) for i in range(4)]
        j = rng.randrange(4)
        alpha = [rng.randint(-1, max(rho[i] - 1, 0)) for i in range(4)]
        alpha[j] = rho[j] + rng.randint(0, 2)
        cx = takayama_complex(ideal, tuple(alpha))
        if cx.is_void or is_irrelevant(cx):
            continue
        assert (j + 1) in set(cx.facets[0]).intersection(*map(set, cx.facets))


def test_bipartite_power_complex_examples():
    p4 = build_graph(path_edges(4))
    cx = bipartite_power_complex(p4, (0, 1, 1, 0), 2)
    assert cx.facets == ((1, 3), (2, 4))
    c6 = build_graph(cycle_edges(6))
    cx = bipartite_power_complex(c6, (1, 1, 1, 1, 1, 1), 4)
    assert cx.facets == ((1, 3, 5), (2, 4, 6))
    assert bipartite_power_complex(c6, (0, 0, 0, 0, 0, 0), 1).facets == tuple(
        maximal_independent_sets(c6)
    )


def test_bipartite_power_complex_rejects_odd_cycle():
    with pytest.raises(ValueError, match="odd cycle"):
        bipartite_power_complex(build_graph(cycle_edges(3)), (0, 0, 0), 1)


def test_bipartite_power_complex_matches_takayama():
    rng = random.Random(29)
    checked = 0
    while checked < 12:
        g = random_graph(rng, rng.randint(2, 6))
        if decompose(g).t:
            continue
        checked += 1
        for n in (1, 2, 3):
            ideal = power(edge_ideal(g), n)
            for _ in range(8):
                alpha = tuple(rng.randint(0, n) for _ in range(g.r))
                assert bipartite_power_complex(g, alpha, n) == takayama_complex(
                    ideal, alpha
                )


def test_depth_principal_and_small():
    assert depth_bruteforce(minimalize(2, [(1, 1)])).depth == 1
    assert depth_bruteforce(minimalize(3, [(1, 1, 0)])).depth == 2
    assert depth_bruteforce(minimalize(2, [(1, 0), (0, 1)])).depth == 0


def _assert_witness(cert, ideal, field=QQ):
    # the witness alpha really exhibits homology at index depth - |G_a| - 1
    neg = sum(1 for a in cert.witness_alpha if a < 0)
    dims = reduced_homology_dims(takayama_complex(ideal, cert.witness_alpha), field=field)
    assert dims[cert.depth - neg - 1] == cert.homology_dim > 0


def test_depth_certificate_witness():
    ideal = edge_ideal(build_graph(cycle_edges(4)))
    cert = depth_bruteforce(ideal)
    assert cert.depth == 1
    _assert_witness(cert, ideal)
    rng = random.Random(41)
    ideals = checked = 0
    while ideals < 15:
        ideal = random_ideal(rng, rng.randint(2, 5))
        if ideal.is_zero or ideal.is_unit:
            continue
        ideals += 1
        _assert_witness(depth_bruteforce(ideal), ideal)
    while checked < 8:
        g = random_graph(rng, rng.randint(2, 6))
        if decompose(g).t:
            continue
        checked += 1
        for n in (1, 2, 3):
            _assert_witness(depth_power(g, n), power(edge_ideal(g), n))


def test_packed_bitmap_homology_matches_facet_route():
    # the scan hands homology a complex packed as a bitmap over all 2^m
    # vertex sets; the same complex built from its facets must agree
    rng = random.Random(61)
    for _ in range(80):
        m = rng.randint(1, 6)
        facets = [rng.sample(range(m), rng.randint(0, m)) for _ in range(rng.randint(0, 5))]
        tops = [sum(1 << v for v in f) for f in facets]
        bitmap = np.array([any(s & ~t == 0 for t in tops) for s in range(1 << m)])
        key = np.packbits(bitmap, bitorder="little").tobytes().rstrip(b"\0")
        cx = from_facets(range(1, m + 1), [[v + 1 for v in f] for f in facets])
        for field in (QQ, FieldChoice.gf(2)):
            assert _homology(key, field) == min_nonvanishing_reduced_homology(cx, field)


def _face_masks(row):
    """The vertex-set masks a row of face words holds."""
    return set(np.flatnonzero(np.unpackbits(np.frombuffer(row.tobytes(), np.uint8),
                                            bitorder="little")).tolist())


def _global_masks(cx):
    """A complex's faces as masks over [r], bit v - 1 for vertex v."""
    return {sum(1 << (cx.universe[j] - 1) for j in range(len(cx.universe)) if s >> j & 1)
            for s in cx.faces}


def test_packed_faces_match_the_definition():
    # r = 1..10: bitmaps inside one byte, inside one word, exactly one word
    # (r = 6), and across words (vertices 6 and up close whole words)
    rng = random.Random(71)
    for r in range(1, 11):
        words_per_row = max(1, (1 << r) // 64)
        # the generator route against takayama_complex
        ideal = random_ideal(rng, r, max_gens=8, max_deg=4)
        gens = depth.gens_array(ideal)
        sizes = [int(e) + 1 for e in gens.max(axis=0)]
        alpha = np.array([[rng.randint(-1, s - 2) for s in sizes] for _ in range(12)],
                         dtype=np.int16)
        alpha[0] = -1
        if r > 6:  # a negative coordinate on a vertex that closes whole words
            alpha[1:4, 6:] = -1
        faces = depth._violation_faces(gens, sizes)(alpha)
        assert faces.shape == (len(alpha), words_per_row)
        for a, row in zip(alpha, faces):
            want = _global_masks(takayama_complex(ideal, a))
            assert _face_masks(row) == want
            bitmap = np.isin(np.arange(1 << r), list(want))
            packed = np.packbits(bitmap, bitorder="little").tobytes()
            assert row.tobytes() == packed.ljust(8 * words_per_row, b"\0")
        # the facet route against from_facets: chosen atoms cut to the
        # nonnegative support, negative vertices at 6 and up included
        atoms = np.array([rng.randrange(1 << r) for _ in range(6)], dtype=np.int64)
        neg = np.array([rng.randrange(1 << r) & rng.randrange(1 << r) for _ in range(12)])
        neg[:3] |= (1 << r) - 64 if r > 6 else 0
        chosen = np.array([[rng.random() < 0.5 for _ in atoms] for _ in neg])
        faces = depth._facet_faces(neg, chosen, atoms, r)
        for m, pick, row in zip(neg, chosen, faces):
            tops = [int(t) & ~int(m) for t in atoms[pick]]
            facets = [[v + 1 for v in range(r) if t >> v & 1] for t in tops]
            cx = from_facets(range(1, r + 1), facets)
            assert _face_masks(row) == cx.faces


def test_pack_sets_matches_a_reference_bitmap(monkeypatch):
    # both call shapes, (k, 1) rows against (k, m) sets and 1-D rows and
    # sets, against bit s of row i set for each pair; under the real budget
    # (one block) and one of 32 indices per block, where the 1-D pairs span
    # two to four blocks, the last one part full
    rng = np.random.default_rng(29)
    for budget in (depth._CHUNK_BUDGET, 1 << 10):
        monkeypatch.setattr(depth, "_CHUNK_BUDGET", budget)
        for r in range(1, 11):
            k, m = int(rng.integers(1, 40)), int(rng.integers(1, 12))
            stype = np.min_scalar_type((1 << max(r, 6)) - 1)
            sets = rng.integers(0, 1 << r, size=(k, m)).astype(stype)
            n_flat = 32 * int(rng.integers(1, 4)) + int(rng.integers(1, 32))
            flat_rows = np.sort(rng.integers(0, k, size=n_flat))
            flat_sets = rng.integers(0, 1 << r, size=n_flat)
            for rows, sets_ in ((np.arange(k)[:, None], sets), (flat_rows, flat_sets)):
                want = [0] * k
                for i, s in np.broadcast(rows, sets_):
                    want[i] |= 1 << int(s)
                words = depth._pack_sets(rows, sets_, k, r)
                assert words.shape == (k, max(1, (1 << r) // 64))
                assert [int.from_bytes(row.tobytes(), "little") for row in words] == want


def test_generator_scan_memory_is_bounded():
    # a chunk's arrays take about _CHUNK_BUDGET bytes and the bit scatter's
    # index at most a 32nd of it; C7 at n = 4 scans five chunks, 45,000 of
    # its 78,125 cells, and needed 21 MB before the scatter went by blocks
    c7 = build_graph(cycle_edges(7))
    power(edge_ideal(c7), 4)
    tracemalloc.start()
    try:
        cert = depth_power(c7, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.depth == 0
    assert peak <= 3 * depth._CHUNK_BUDGET


def test_walk_builds_complexes_in_bounded_batches(monkeypatch):
    # a facet walk packs its final keys' complexes a batch at a time.  C6
    # at n = 4 has its first key at the floor (depth 1) at position 105 of
    # 120, so the batch holding it is the last one packed; C8 at n = 3 has
    # depth 2, and every batch is packed.
    cases = [(build_graph(cycle_edges(6)), 4, 1), (build_graph(cycle_edges(8)), 3, 2)]
    wants = [depth_power(g, n) for g, n, _ in cases]
    monkeypatch.setattr(depth, "_CHUNK_BUDGET", 1 << 10)
    packed, keys = [], []
    pack_sets, least = depth._pack_sets, depth._least

    def spy_pack(rows, sets, k, r):
        packed.append(k)
        return pack_sets(rows, sets, k, r)

    def spy_least(counts, faces, field, floor):
        out = least(counts, faces, field, floor)
        keys.append((len(counts), out[1]))
        return out

    monkeypatch.setattr(depth, "_pack_sets", spy_pack)
    monkeypatch.setattr(depth, "_least", spy_least)
    for (g, n, want_depth), want in zip(cases, wants):
        packed.clear(), keys.clear()
        assert depth_power(g, n) == want and want.depth == want_depth
        batch = (1 << 10) // (len(maximal_independent_sets(g)) + max(64, 1 << g.r))
        [(n_keys, at)] = keys
        assert max(packed) <= batch and len(packed) >= 2
        if want_depth == 1:
            assert len(packed) == at // batch + 1 and sum(packed) < n_keys
        else:
            assert sum(packed) == n_keys


def test_depth_c3_powers():
    c3 = build_graph(cycle_edges(3))
    assert depth_sequence(c3, 2) == [1, 0]


def test_depth_c6_sequence():
    c6 = build_graph(cycle_edges(6))
    assert depth_sequence(c6, 4) == [2, 2, 2, 1]


def test_fast_path_agrees_with_generator_scan():
    # the facet route of depth_power (the walk) against the chunked
    # generator scan of the power: same box, same complexes, so the same
    # certificate.  Disconnected graphs are walked whole here.
    rng = random.Random(37)
    graphs = []
    while len(graphs) < 32:
        if len(graphs) < 8:
            g = random_graph(rng, 7)
        elif len(graphs) < 16:  # two or three pieces, on at most 7 vertices
            sizes = rng.choice([(2, 2), (2, 3), (3, 4), (2, 5), (2, 2, 2), (2, 2, 3)])
            g = _disjoint_union([random_connected_graph(rng, v, max_extra=2) for v in sizes])
        else:
            g = random_graph(rng, rng.randint(2, 6))
        if not decompose(g).t:
            graphs.append(g)
    assert sum(g.r == 7 for g in graphs) >= 8 and sum(decompose(g).p > 1 for g in graphs) >= 8
    for g in graphs:
        for n in (1, 2) if g.r == 7 else (1, 2, 3):
            ideal = power(edge_ideal(g), n)
            for field in (QQ, FieldChoice.gf(2), FieldChoice.gf(3)):
                assert depth_power(g, n, field=field) == depth_bruteforce(
                    ideal, field=field
                )


def _least_cell(ideal, sizes):
    """(value, witness, homology dim) of the cell of least (value, box
    index), by takayama_complex and reduced_homology_dims on every cell."""
    best = None
    for alpha in itertools.product(*[range(-1, s - 1) for s in sizes]):
        dims = reduced_homology_dims(takayama_complex(ideal, alpha))
        low = min((d for d, dim in dims.items() if dim), default=None)
        if low is None:
            continue
        value = sum(1 for a in alpha if a < 0) + 1 + low
        if best is None or value < best[0]:
            best = (value, alpha, dims[low])
    return best


def test_certificate_is_least_cell_of_full_box(monkeypatch):
    # the scan may stop at its floor; the witness must still be the cell a
    # definitional scan of the whole box picks.  Chunks of a few cells make
    # the scan stop part way through most boxes that reach the floor.
    monkeypatch.setattr(depth, "_CHUNK_BUDGET", 256)
    rng = random.Random(83)
    ideals = [
        power(edge_ideal(build_graph(edges)), n)
        for edges, n in [
            (cycle_edges(3), 3),
            (cycle_edges(5), 3),
            (complete_edges(4), 2),
            (cycle_edges(3) + [(3, 4), (4, 5)], 3),
        ]
    ]
    while len(ideals) < 30:
        ideal = random_ideal(rng, rng.randint(2, 4))
        if not (ideal.is_zero or ideal.is_unit):
            ideals.append(ideal)
    early = 0
    for ideal in ideals:
        cert = depth_bruteforce(ideal)
        sizes = [max(g[i] for g in ideal.gens) + 1 for i in range(ideal.r)]
        assert cert.scan_box == tuple(sizes)
        assert (cert.depth, cert.witness_alpha, cert.homology_dim) == _least_cell(ideal, sizes)
        assert not cert.hint_hit and cert.cells_scanned <= math.prod(sizes)
        early += cert.cells_scanned < math.prod(sizes)
    graphs = [build_graph(path_edges(2) + path_edges(3, offset=2)),
              build_graph(path_edges(3) + cycle_edges(4, offset=3))]
    while len(graphs) < 10:
        g = random_graph(rng, rng.randint(2, 5))
        if not decompose(g).t:
            graphs.append(g)
    while len(graphs) < 18:
        g = random_graph(rng, rng.randint(3, 5))
        if decompose(g).t:
            graphs.append(g)
    floors = 0
    for g in graphs:
        for n in (1, 2):
            cert = depth_power(g, n)
            assert cert.scan_box == (n + 1,) * g.r
            want = _least_cell(power(edge_ideal(g), n), cert.scan_box)
            assert (cert.depth, cert.witness_alpha, cert.homology_dim) == want
            floors += cert.depth == 1 and not decompose(g).t
            if decompose(g).t:  # the facet route's walk counts states, not cells
                early += cert.cells_scanned < math.prod(cert.scan_box)
    assert floors >= 5 and early >= 8 and sum(decompose(g).p > 1 for g in graphs) >= 2


def test_scan_stops_at_floor_and_takes_hints_first():
    c7 = build_graph(cycle_edges(7))
    full = depth_power(c7, 4)
    assert full.depth == 0 and not full.hint_hit
    assert full.cells_scanned < math.prod(full.scan_box)
    hinted = depth_power(c7, 4, hints=[(1,) * 7])
    assert hinted.hint_hit and hinted.cells_scanned == 1
    assert hinted.depth == 0 and hinted.witness_alpha == (1,) * 7
    _assert_witness(hinted, power(edge_ideal(c7), 4))
    # a cell that misses, or lies outside the box, changes nothing; (6, 1,
    # ..., 1) is a cone, though its box index wraps round to the witness
    c3 = depth_power(c7, 3)
    outside = [(4,) * 7, (-2,) * 7, (6,) + (1,) * 6]
    for hints in ([(0,) * 7], [(1,) * 6], [(0,) * 7, (9,) * 7], outside):
        for n, want in ((3, c3), (4, full)):
            cert = depth_power(c7, n, hints=hints)
            assert cert == want and not cert.hint_hit
    assert asdict(full)["cells_scanned"] == full.cells_scanned
    assert asdict(hinted)["hint_hit"] is True


def test_missed_hint_on_an_over_cap_box_is_walked():
    # 7^8 cells at n = 6, over the box cap, which the facet route's walk
    # does not have: a hint that misses leaves the walk to find depth 1
    p8 = build_graph(path_edges(8))
    cert = depth_power(p8, 6, hints=[(0, 1, 2, 2, 2, 2, 1, 0)])
    assert cert.hint_hit and cert.depth == 1
    assert math.prod(cert.scan_box) > CAPS["box"]
    for miss in ((0,) * 8, (7, 1, 2, 2, 2, 2, 1, 0)):
        walked = depth_power(p8, 6, hints=[miss])
        assert walked.depth == 1 and not walked.hint_hit
        assert walked.cells_scanned < CAPS["box"]
        _assert_witness(walked, power(edge_ideal(p8), 6))


def test_hint_on_a_box_past_int64():
    # P16 at n = 15 has 16^16 = 2^64 cells; mu(P16) plus 1 on vertices 2
    # and 3 gives <X, Y>, whose H_0 puts the cell at the floor
    p16 = build_graph(path_edges(16))
    cell = [0, 2, 3] + [2] * 11 + [1, 0]
    assert bipartite_power_complex(p16, cell, 15).facets == (
        tuple(range(1, 17, 2)), tuple(range(2, 17, 2))
    )
    cert = depth_power(p16, 15, hints=[cell])
    assert cert.hint_hit and cert.depth == 1 and cert.homology_dim == 1
    assert cert.witness_alpha == tuple(cell) and cert.scan_box == (16,) * 16


def test_slots_keep_fields_in_order_inside_words():
    grid = itertools.product((1, 2, 9, 10, 11, 16), (1, 2, 3, 4), (1, 20, 33, 80))
    for r, width, n_fields in grid:
        at = [word * 64 + shift for word, shift in depth._slots(n_fields, width, r)]
        assert len(at) == n_fields and at[0] == r  # clear of the r low bits
        for a, b in zip(at, at[1:]):
            # the next field follows at once unless it would cross a word
            assert b == a + width if (a + width) % 64 + width <= 64 else b % 64 == 0
        assert all(a % 64 + width <= 64 for a in at)
    # 11 + 26 * 2 = 63 bits: field 26 would straddle, so it opens word 1
    assert depth._slots(32, 2, 11)[25:27] == [(0, 61), (1, 0)]


def test_walk_packs_states_into_several_words(monkeypatch):
    # 5K2 has 32 independence facets: at n = 2, 10 + 32 * 2 bits take two
    # words on layers 1-9 (10 + 27 * 2 = 64 fills the first exactly)
    g = build_graph([(2 * i + 1, 2 * i + 2) for i in range(5)])
    words = []
    slots = depth._slots

    def spy(n_fields, width, r):
        out = slots(n_fields, width, r)
        words.append(out[-1][0] + 1)
        return out

    monkeypatch.setattr(depth, "_slots", spy)
    cert = depth_power(g, 2)
    assert words == [2] * 9 + [1]
    assert (cert.depth, cert.witness_alpha, cert.homology_dim) == (5, (-1, 0) * 5, 1)
    assert cert == depth_bruteforce(power(edge_ideal(g), 2))
    # start the fields one bit higher: field 26 would then straddle bits
    # 63-64, so it is padded to word 1, which must not change the answer
    monkeypatch.setattr(depth, "_slots", lambda n, width, r: slots(n, width, r + 1))
    assert depth_power(g, 2) == cert


def _disjoint_union(pieces):
    edges, off = [], 0
    for piece in pieces:
        edges += [(u + off, v + off) for u, v in piece.edges]
        off += piece.r
    return build_graph(edges, r=off)


def _split_corpus(rng, per_kind):
    """Seeded disjoint unions of connected pieces on at most 7 vertices:
    per_kind each with all pieces bipartite, all nonbipartite, and mixed.
    Half of the bipartite and mixed ones have 3 pieces, the rest 2; three
    nonbipartite pieces need 9 vertices."""
    want = {("bipartite", 2): per_kind // 2, ("bipartite", 3): per_kind - per_kind // 2,
            ("mixed", 2): per_kind // 2, ("mixed", 3): per_kind - per_kind // 2,
            ("nonbipartite", 2): per_kind}
    graphs = []
    while any(want.values()):
        count = rng.choice((2, 3))
        sizes = [rng.randint(2, 4 if count == 2 else 3) for _ in range(count)]
        if sum(sizes) > 7:
            continue
        pieces = [random_connected_graph(rng, v, max_extra=2) for v in sizes]
        odd = sum(1 for p in pieces if decompose(p).t)
        kind = "bipartite" if not odd else "nonbipartite" if odd == count else "mixed"
        if want.get((kind, count)):
            want[kind, count] -= 1
            graphs.append(_disjoint_union(pieces))
    return graphs


def test_split_route_matches_full_box():
    # the split (component floor, concatenated hints) against the full-box
    # generator scan of each power, over three fields
    graphs = _split_corpus(random.Random(107), 14)
    hits = 0
    for g in graphs:
        assert decompose(g).p > 1
        for field in (QQ, FieldChoice.gf(2), FieldChoice.gf(3)):
            ideals = [power(edge_ideal(g), n) for n in (1, 2, 3)]
            want = [depth_bruteforce(ideal, field=field).depth for ideal in ideals]
            certs = list(itertools.islice(power_certificates(g, field=field), 3))
            assert [c.depth for c in certs] == want
            assert depth_sequence(g, 3, field=field) == want
            for cert, ideal in zip(certs, ideals):
                if cert.hint_hit:
                    hits += 1
                    _assert_witness(cert, ideal, field)
            first = next((n for n, d in enumerate(want, 1) if d == depth_limit(g)), None)
            oracle = dstab_oracle(g, field=field)
            assert oracle == first if first else oracle > 3
    # on this corpus every split certificate is a hint hit
    assert hits == len(graphs) * 3 * 3


def test_split_cells_count_the_component_scans():
    for edges in (
        path_edges(4) + path_edges(5, offset=4),
        cycle_edges(3) + path_edges(4, offset=3),
        path_edges(2) + cycle_edges(3, offset=2) + path_edges(3, offset=5),
    ):
        g = build_graph(edges)
        parts = [power_certificates(induced_subgraph(g, c)[0]) for c in decompose(g).components]
        for cert in itertools.islice(power_certificates(g), 3):
            # g's own scan looks at one cell at least
            assert cert.cells_scanned >= 1 + sum(next(part).cells_scanned for part in parts)


def test_depth_of_disjoint_blocks():
    # depth R/(I + J) for ideals in disjoint variable blocks is the sum of
    # the block depths when both are proper and nonzero
    rng = random.Random(39)
    for _ in range(10):
        i1 = random_ideal(rng, 3)
        i2 = random_ideal(rng, 3)
        if i1.is_zero or i1.is_unit or i2.is_zero or i2.is_unit:
            continue
        gens = [tuple(g) + (0, 0, 0) for g in i1.gens]
        gens += [(0, 0, 0) + tuple(g) for g in i2.gens]
        big = minimalize(6, gens)
        assert (
            depth_bruteforce(big).depth
            == depth_bruteforce(i1).depth + depth_bruteforce(i2).depth
        )


def test_leaf_increment_keeps_complex():
    # for a graph with a leaf p hanging on q, bumping alpha at p and q
    # carries the degree-alpha complex of I^n to that of I^(n+1) unchanged
    rng = random.Random(47)
    for _ in range(12):
        base = random_connected_graph(rng, rng.randint(2, 4), max_extra=2)
        r = base.r
        q = rng.randint(1, r)
        p = r + 1
        g = build_graph(list(base.edges) + [(q, p)], r=r + 1)
        n = rng.randint(1, 2)
        # q and p must stay nonnegative so the negative support is stable
        alpha = tuple(
            rng.randint(0, n) if v + 1 == q else rng.randint(-1, n)
            for v in range(r)
        ) + (rng.randint(0, 1),)
        beta = tuple(
            a + (1 if i + 1 in (p, q) else 0) for i, a in enumerate(alpha)
        )
        ideal = edge_ideal(g)
        cx_n = takayama_complex(power(ideal, n), alpha)
        cx_n1 = takayama_complex(power(ideal, n + 1), beta)
        assert cx_n == cx_n1


def test_depth_zero_iff_maximal_ideal_associated():
    rng = random.Random(53)
    count = 0
    for _ in range(40):
        ideal = random_ideal(rng, 4)
        if ideal.is_zero or ideal.is_unit:
            continue
        count += 1
        has_m = (1, 2, 3, 4) in associated_primes_bruteforce(ideal)
        assert (depth_bruteforce(ideal).depth == 0) == has_m
    assert count >= 20


def test_betti_crosscheck_examples():
    assert betti_depth_crosscheck(minimalize(2, [(1, 1)])) == 1
    assert betti_depth_crosscheck(edge_ideal(build_graph(cycle_edges(4)))) == 1
    c3sq = power(edge_ideal(build_graph(cycle_edges(3))), 2)
    assert betti_depth_crosscheck(c3sq) == 0


def test_depth_scan_matches_betti_over_the_atlas():
    # every connected graph on 2 to 5 vertices of networkx's graph atlas, at
    # n <= 3: the scan and the Betti route agree on the edge ideal's powers
    nx = pytest.importorskip("networkx")
    graphs = [
        build_graph([(u + 1, v + 1) for u, v in a.edges()])
        for a in nx.graph_atlas_g()
        if 2 <= a.number_of_nodes() <= 5 and nx.is_connected(a)
    ]
    assert len(graphs) == 30
    for g in graphs:
        for n in (1, 2, 3):
            want = depth_power(g, n).depth
            assert betti_depth_crosscheck(power(edge_ideal(g), n)) == want, (g.edges, n)


def test_depth_caps():
    ideal = minimalize(17, [tuple([1] * 17)])
    with pytest.raises(TooLargeError, match=r"cap is 16 \(the vertex cap\)"):
        depth_bruteforce(ideal)


def test_depth_power_takes_no_cap():
    # 11 vertices, over the CLI's default --max-r but within the library's cap
    cert = depth_power(build_graph(path_edges(11)), 1)
    assert cert.depth == 4  # ceil(11 / 3), as --max-r 12 depth-seq reports


def test_depth_rejects_trivial_ideals():
    with pytest.raises(ValueError):
        depth_bruteforce(minimalize(2, []))
    with pytest.raises(ValueError):
        depth_bruteforce(minimalize(2, [(0, 0)]))
