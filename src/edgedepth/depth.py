"""Exact depth of R/I for monomial ideals via degree-wise local cohomology.

For a multidegree a in Z^r let G_a = {i : a_i < 0}.  The degree-a piece of
the i-th local cohomology of R/I is the reduced homology, in degree
i - |G_a| - 1, of the complex

    D_a(I) = { F subset of [r] \\ G_a : x^a not in the localization of I
               at {x_j = 1 : j in F union G_a} },

so depth R/I is the least i for which some a contributes.  Two facts bound
the scan box: D_a depends on a negative coordinate only through its sign,
so every negative entry can be collapsed to -1; and when a_j is at least
the largest j-exponent rho_j over the generators, every face can absorb j,
making D_a a cone (hence acyclic).  The scan therefore ranges over
a_j in {-1, 0, ..., rho_j - 1}.

For a bipartite graph g the ordinary and symbolic powers of the edge ideal
agree, and membership in a localized symbolic power only involves the
minimal vertex covers.  That yields the facet description

    D_a(I(g)^n) = < F \\ G_a : F a facet of the independence complex,
                    F contains G_a, sum of a_i over i not in F <= n-1 >,

which is property-tested against the definition above.

Both descriptions feed one scan, which holds each complex as a packed face
bitmap: a row of W = max(1, 2^r / 64) uint64 words whose bit s says whether
vertex set s is a face.  Read as little-endian bytes, the words are the key
of the homology memo.  For an arbitrary ideal, D_a is the sets that contain
no vertex of G_a and no violation set {i not in G_a : g_i > a_i} of a
generator g, so the scan sets the bits of those sets, closes them upward
and inverts (_violation_faces).  For bipartite g it sets the chosen facets,
cut to the nonnegative support, and closes them downward (_facet_faces).
Both scatter their bits through one helper (_pack_sets) a block at a time,
so its int64 index stays within a 32nd of the chunk budget's entries and a
chunk's arrays take about _CHUNK_BUDGET bytes at their peak.  Closing over
a vertex v < 6 takes one shift and mask per word; over a higher vertex it
ORs blocks of whole words (_close).

A cell's index is |G_a| + 1 plus the least degree of nonzero reduced
homology of D_a, so the pair (|G_a|, complex) is a key that fixes it.  One
evaluator (_least) is the only place where a key becomes an index.  It
takes keys in position order, with their complexes a batch at a time.  It
takes homology once per distinct complex, key by key, and stops at the
first key that reaches the floor below, so no later batch is built.  Its
answer is the key of least (index, position).

Every cell's index is at least a proven floor: 0 on the generator route,
and 1 on the facet route, since a bipartite g has no embedded primes and
the maximal ideal is not associated.  A caller may pass hint cells, which
are grouped into keys and evaluated like any other cells.
A hint that reaches the floor proves the depth and becomes the witness;
nothing else is then looked at.  A hint that misses or lies outside the
box is dropped.  The vertex cap, checked before any 2^r array is built,
bounds every scan; it and the box and state caps below are entries of
errors.CAPS, checked by errors.check_cap.  Without a hit, the witness
is the cell of least (index, position in the box), as over the whole
box, found in one of two ways:

- The generator route scans the box in order, in chunks of cells, up to
  the first chunk that reaches the floor.  Each chunk's cells are grouped
  by (|G_a|, complex) into keys, each key standing at its first cell, and
  evaluated.  A box over the box cap's cell count is refused.
- The facet route walks the box one coordinate at a time (_walk).  Cells
  whose partial keys agree are merged into one state at each step: the
  negative support so far and each facet's weight outside it, capped at n.
  So the work follows the number of states, not (n + 1)^r, and C8 at
  n = 4 has 6,437 states over its layers against 390,625 cells.  Each
  state keeps the least box prefix that reaches it, so the final states
  come in order of their least cell and are evaluated in that order, one
  key each.  A layer whose candidate states would take more bytes than
  the state cap is refused; there is no box cap.

So a witness is the least box cell unless hint_hit is set.

A disconnected g is split over its components (split_certificates, which
stability.power_certificates feeds).  Let A be its first component and B
the rest, so that I(g) = I + J with I = I(A) and J = I(B) in disjoint
variables.  For a cell (a, b) of g, the monomial x^a x^b lies in a
localization of (I + J)^n exactly when x^a lies in the
p-th power of I's localization and x^b in the q-th of J's for some
p + q = n, so

    D_(a,b)((I + J)^n) = union over p + q = n + 1 of D_a(I^p) * D_b(J^q),

the joins of complexes that grow with p and with q.  Adding the joins in
order of p, each meets the union so far in D_a(I^(p-1)) * D_b(J^q).
Mayer-Vietoris and the Kuenneth formula for joins, valid over any
coefficient field, then bound the index of every cell of g at power n
from below by

    min( depth A/I^p + depth B/J^q      over p + q = n + 1, p, q >= 1,
         depth A/I^p + depth B/J^q + 1  over p + q = n,     p, q >= 1 ).

This is the lower bound of Ha, Trung and Trung for powers of a sum of
ideals in disjoint variables (Depth and regularity of powers of sums of
ideals, Math. Z. 282 (2016)), equal to the depth when char k = 0 or both
ideals are monomial; Nguyen and Vu (Powers of sums and their homological
invariants, J. Pure Appl. Algebra 223 (2019)) discuss when equality holds.
The argument above puts no condition on the field, so the split is used
over Q and every GF(p).  B may be disconnected itself, and is split in
turn.  The certificates of A and of B come from lazy per-power streams, so
each component power is scanned once.  At power n, the bound is the floor
of g's scan, and each term p + q = n + 1 that attains it gives a hint:
A's witness at power p next to B's at power q.  A hint at the floor is
checked like any cell and is the certificate; otherwise g's box is scanned
down to the floor.  So the split rests on the lower bound alone, never on
equality.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InternalError, check_cap
from .graphs import Graph, decompose, maximal_independent_sets
from .monomials import (
    COLON_CHUNK_CELLS,
    MonomialIdeal,
    edge_ideal,
    gens_array,
    membership,
    power,
)
from .simplicial import (
    QQ,
    FieldChoice,
    SimplicialComplex,
    min_nonvanishing_reduced_homology,
    reduced_homology_dims,
    submasks,
)


@dataclass(frozen=True)
class DepthCertificate:
    """Result of a depth scan with its witnessing multidegree.

    cells_scanned counts the cells whose complex was looked at, hint cells
    included; on the facet route (bipartite g) it counts the hint cells and
    the live states summed over the walk's r layers instead of box cells.
    hint_hit says whether a hint cell is the witness.  Neither takes part
    in equality: scans that stop at different places can prove the same
    depth with the same witness."""

    depth: int
    witness_alpha: tuple[int, ...]
    homology_dim: int
    scan_box: tuple[int, ...]  # per-coordinate box sizes
    cells_scanned: int = dc_field(compare=False)
    hint_hit: bool = dc_field(compare=False)


def takayama_complex(ideal: MonomialIdeal, alpha: Sequence[int]) -> SimplicialComplex:
    """The complex D_a(I) by direct enumeration of the face candidates."""
    a = tuple(int(e) for e in alpha)
    if len(a) != ideal.r:
        raise ValueError("alpha length must equal the ambient variable count")
    check_cap("vertex", ideal.r, f"takayama_complex of r={ideal.r}")
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("ideal must be proper and nonzero")
    universe0 = [i for i in range(ideal.r) if a[i] >= 0]
    # F is a face iff no generator g satisfies g_i <= a_i for all i outside
    # F union G_a; encode each generator by its violation set, over
    # positions in universe0.  A generator with no violation leaves no face.
    bad_masks = set()
    for g in ideal.gens:
        bad_masks.add(sum(1 << j for j, i in enumerate(universe0) if g[i] > a[i]))
    ok = frozenset(
        s for s in range(1 << len(universe0)) if all(b & ~s for b in bad_masks)
    )
    return SimplicialComplex(tuple(i + 1 for i in universe0), ok)


# Bound on a chunk's cell count, or a batch's key count, times the array
# entries each cell or key takes, so a chunk's largest arrays take about
# _CHUNK_BUDGET bytes.  _pack_sets's scatter index holds at most a 32nd of
# these entries (1 MiB of int64), whatever the chunk's size.
_CHUNK_BUDGET = 1 << 22
_NO_VALUE = 1 << 32  # above every cohomological index
_WORD = np.dtype("<u8")  # a row's words as bytes are its packbits bitmap
# _LOW[v]: the bit positions p of a word for which bit v of p is clear
_LOW = [np.uint64(sum(1 << p for p in range(64) if not p >> v & 1)) for v in range(6)]


def _pack_sets(rows: np.ndarray, sets: np.ndarray, k: int, r: int) -> np.ndarray:
    """(k, W) face words, W = max(1, 2^r / 64), with set sets[i] in row
    rows[i] (broadcast): vertex set s is bit s % 64 of word s // 64.  The
    bits are set a block of leading indices i at a time, each block's
    flat int64 index at most _CHUNK_BUDGET / 32 entries (or one i)."""
    width = max(64, 1 << r)
    bits = np.zeros((k, width), dtype=bool)
    flat = bits.reshape(-1)
    step = max(1, (_CHUNK_BUDGET >> 5) // math.prod(sets.shape[1:]))
    for i in range(0, len(sets), step):
        flat[rows[i:i + step] * width + sets[i:i + step]] = True
    return np.packbits(bits, axis=1, bitorder="little").view(_WORD)


def _close(words: np.ndarray, up: bool) -> np.ndarray:
    """Close each row of words, in place, under supersets (up) or subsets
    over every vertex the words span: six within a word, then one per
    doubling of the words."""
    k, w = words.shape
    for v in range((64 * w).bit_length() - 1):
        if v < 6:
            shift = np.uint64(1 << v)
            if up:
                words |= (words & _LOW[v]) << shift
            else:
                words |= (words >> shift) & _LOW[v]
        else:  # the words whose index has bit v - 6 against those without
            blocks = words.reshape(k, -1, 2, 1 << (v - 6))
            if up:
                blocks[:, :, 1] |= blocks[:, :, 0]
            else:
                blocks[:, :, 0] |= blocks[:, :, 1]
    return words


def _violation_faces(gens: np.ndarray, sizes: Sequence[int]):
    """The generator route's faces_of: alpha rows in the box to the face
    words of D_a, the sets that contain no violation set
    {i not in G_a : g_i > a_i} of a generator g and no vertex of G_a."""
    r = gens.shape[1]
    stype = np.min_scalar_type((1 << max(r, 6)) - 1)
    # tables[i][a + 1]: bit i of each generator's violation set at a_i = a
    tables = []
    for i, s in enumerate(sizes):
        table = (gens[:, i] > np.arange(-1, s - 1)[:, None]).astype(stype) << i
        table[0] = 0  # no exponent exceeds a negative coordinate's stand-in
        tables.append(table)
    singles = (1 << np.arange(max(r, 6))).astype(stype)
    full = np.array((1 << r) - 1, dtype=stype)

    def faces_of(alpha: np.ndarray) -> np.ndarray:
        masks = tables[0][alpha[:, 0] + 1]
        for i in range(1, r):
            masks |= tables[i][alpha[:, i] + 1]
        # a vertex of G_a, or a bit past r < 6, is a violation set of its
        # own; [r] stands in elsewhere, as it holds every violation set
        neg = np.ones((len(alpha), len(singles)), dtype=bool)
        neg[:, :r] = alpha < 0
        sets = np.hstack([masks, np.where(neg, singles, full)])
        words = _close(_pack_sets(np.arange(len(alpha))[:, None], sets, len(alpha), r), up=True)
        return np.invert(words, out=words)

    return faces_of


def _facet_faces(neg: np.ndarray, chosen: np.ndarray, tops: np.ndarray, r: int) -> np.ndarray:
    """The facet route's face words of the keys (neg[i], chosen[i]): the
    chosen facets (vertex sets tops), cut to the nonnegative support,
    closed downward."""
    rows, cols = np.nonzero(chosen)
    return _close(_pack_sets(rows, tops[cols] & ~neg[rows], len(neg), r), up=False)


@lru_cache(maxsize=1 << 16)
def _homology(key: bytes, field: FieldChoice) -> tuple[Optional[int], int]:
    """(least degree of nonzero reduced homology, its dimension) of the
    complex whose face bitmap over vertex-set masks is packed in key, on the
    vertices its length spans; (None, 0) when void or acyclic."""
    faces = np.unpackbits(np.frombuffer(key, dtype=np.uint8), bitorder="little")
    m = (len(faces) - 1).bit_length()
    cx = SimplicialComplex(tuple(range(1, m + 1)), frozenset(np.flatnonzero(faces).tolist()))
    return min_nonvanishing_reduced_homology(cx, field=field)


def _keys(faces) -> Iterator[bytes]:
    """The homology key of each row of each word array in faces: its bytes
    with the trailing zero bytes dropped."""
    for words in faces:
        data, step = words.tobytes(), words.itemsize * words.shape[1]
        for off in range(0, len(data), step):
            yield data[off:off + step].rstrip(b"\0")


def _least(counts: list[int], faces, field: FieldChoice, floor: int) -> tuple[int, int, int]:
    """(value, position, homology dim) of the key of least (value, position)
    among keys given in position order.  Key i is |G_a| = counts[i] and the
    complex in row i of faces, an iterable of face word arrays that is read
    one array (batch) at a time.  A key's value is |G_a| + 1 plus the least
    degree of nonzero reduced homology of its complex, and _NO_VALUE when no
    key has any.  Homology is taken once per distinct complex, key by key,
    up to the first key that reaches the floor: none lies below it, and no
    later batch is read."""
    best = (_NO_VALUE, 0, 0)
    found: dict[bytes, tuple[Optional[int], int]] = {}
    for i, key in enumerate(_keys(faces)):
        if key not in found:
            found[key] = _homology(key, field)
        d, h = found[key]
        if d is not None and counts[i] + 1 + d < best[0]:  # an earlier key wins a tie
            best = (counts[i] + 1 + d, i, h)
            if best[0] <= floor:
                return best
    return best


def _first_rows(words: np.ndarray) -> np.ndarray:
    """The index of each distinct row's first occurrence, ascending."""
    order = np.lexsort(words.T)
    words = words[order]
    new = np.ones(len(words), dtype=bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    return np.sort(order[new])


def _least_cell(
    alpha: np.ndarray, faces_of, field: FieldChoice, floor: int
) -> tuple[int, tuple[int, ...], int]:
    """(value, alpha row, homology dim) of the row of least (value, position)
    among the rows of alpha, of which there is at least one.  A cell's key
    is |G_a| and its complex, the row faces_of(alpha) gives it; each key
    stands at its first cell, and the keys go to _least in that order."""
    counts = (alpha < 0).sum(axis=1)
    faces = faces_of(alpha)
    first = _first_rows(np.hstack([counts[:, None].astype(_WORD), faces]))
    value, i, hdim = _least(counts[first].tolist(), [faces[first]], field, floor)
    return value, tuple(int(e) for e in alpha[first[i]]), hdim


def _scan(
    sizes: Sequence[int], hints: Sequence[Sequence[int]], faces_of, field: FieldChoice,
    floor: int, search,
) -> DepthCertificate:
    """The certificate of a scan of the box, coordinate j ranging over
    -1 .. sizes[j] - 2.  The hint cells inside the box go first, through
    _least_cell; one that reaches the floor is the witness, with hint_hit
    set.  Otherwise search() gives the best (value, cell, homology dim) of
    the whole box and the cells it scanned.  A hint outside the box is
    dropped."""
    inside = [
        h for h in hints
        if len(h) == len(sizes) and all(-1 <= a <= s - 2 for a, s in zip(h, sizes))
    ]
    best = (_NO_VALUE, (), 0)
    if inside:
        best = _least_cell(np.array(inside, dtype=np.int16), faces_of, field, floor)
    hit, scanned = best[0] <= floor, len(inside)
    if not hit:
        best, searched = search()
        scanned += searched
    value, cell, hdim = best
    if value == _NO_VALUE:
        raise InternalError("depth scan found no nonvanishing local cohomology")
    if value < floor:
        raise InternalError(f"depth scan found index {value} below the floor {floor}")
    return DepthCertificate(
        depth=value,
        witness_alpha=cell,
        homology_dim=hdim,
        scan_box=tuple(int(s) for s in sizes),
        cells_scanned=scanned,
        hint_hit=hit,
    )


def _box_search(
    sizes: Sequence[int], width: int, faces_of, field: FieldChoice, floor: int
) -> tuple[tuple[int, tuple[int, ...], int], int]:
    """The generator route's search: the box in chunks of cells, in order,
    up to the first chunk that reaches the floor; width is the per-cell
    entry count of the largest array a chunk takes.  Returns the best
    (value, cell, homology dim) and the cells scanned."""
    n_cells = math.prod(sizes)
    check_cap("box", n_cells, f"depth box has {n_cells} cells")
    radix = np.array(sizes, dtype=np.int64)
    weights = np.cumprod(radix[::-1])[::-1] // radix
    chunk = max(1, _CHUNK_BUDGET // width)
    best, scanned = (_NO_VALUE, (), 0), 0
    for off in range(0, n_cells, chunk):
        cells = np.arange(off, min(off + chunk, n_cells), dtype=np.int64)
        scanned += len(cells)
        alpha = ((cells[:, None] // weights) % radix - 1).astype(np.int16)
        found = _least_cell(alpha, faces_of, field, floor)
        if found[0] < best[0]:  # an earlier chunk wins a tie
            best = found
        if best[0] <= floor:
            break
    return best, scanned


def _slots(n_fields: int, width: int, r: int) -> list[tuple[int, int]]:
    """(word, shift) of each of n_fields fields of width bits that follow r
    bits in a row of uint64 words, in order, none across two words."""
    slots, at = [], r
    for _ in range(n_fields):
        if at % 64 + width > 64:
            at += 64 - at % 64
        slots.append(divmod(at, 64))
        at += width
    return slots


def _pack(neg: np.ndarray, fields: np.ndarray, slots: list[tuple[int, int]], k: int) -> np.ndarray:
    """Rows (neg, fields) as k uint64 words each: neg in the low bits of the
    first word, field f at slots[f]."""
    words = np.zeros((len(neg), k), dtype=np.uint64)
    words[:, 0] = neg
    for f, (word, shift) in enumerate(slots):
        words[:, word] |= fields[:, f].astype(np.uint64) << np.uint64(shift)
    return words


def _walk(
    outside: np.ndarray, n: int, tops: np.ndarray, field: FieldChoice, floor: int
):
    """The facet route's search: the box (n + 1)^r one coordinate at a
    time over merged states.

    After coordinates 1..j a cell's state is its negative support so far
    and each facet's weight outside it, capped at n; a negative coordinate
    outside a facet sets that weight to n.  The final key is the negative
    support and the facets of weight at most n - 1, which is what
    _power_scan picks for a hint cell.  A layer's candidates are its
    states' extensions, state by state in order, the coordinate's value
    -1 .. n - 1 varying fastest, and only the first occurrence of each
    distinct candidate is kept.  By induction each state is then kept in the order of, and with
    back-pointers to, the least box prefix that reaches it, so the final
    keys come in order of their least cell, and the least cell of a key
    reaches it through its back-pointers.  The final keys go to _least in
    that order, their complexes built a batch at a time as _least reads
    them.

    outside[f, j] says vertex j + 1 is outside facet f, and facet f is the
    vertex set tops[f].  Returns the best (value, cell, homology dim) and
    the live states summed over the layers.  A layer whose candidates'
    packed keys would take more bytes than the state cap raises
    TooLargeError."""
    n_facets, r = outside.shape
    wtype = np.min_scalar_type(2 * n)  # holds a weight plus an addend
    outside = outside.astype(wtype)
    adds = [n] + list(range(n))  # per box digit: -1 weighs n outside
    weights = np.zeros((1, n_facets), dtype=wtype)
    neg = np.zeros(1, dtype=np.uint64)
    layers = []  # per layer, each kept state's candidate index
    for j in range(r):
        last = j == r - 1
        slots = _slots(n_facets, 1 if last else n.bit_length(), r)
        k = 1 + slots[-1][0]
        rows = len(neg) * (n + 1)
        size = rows * k * 8
        check_cap("state", size, f"depth walk layer {j + 1} needs {size} bytes of states")
        keys = np.empty((len(neg), n + 1, k), dtype=np.uint64)
        for d, add in enumerate(adds):
            cand = np.minimum(weights + add * outside[:, j], n)
            keys[:, d] = _pack(neg | np.uint64((d == 0) << j), cand < n if last else cand, slots, k)
        first = _first_rows(keys.reshape(rows, k))
        layers.append(first)
        parent, digit = np.divmod(first, n + 1)
        weights = np.minimum(weights[parent] + np.array(adds, dtype=wtype)[digit, None] * outside[:, j], n)
        neg = neg[parent] | ((digit == 0).astype(np.uint64) << np.uint64(j))
    counts = ((neg[:, None] >> np.arange(r, dtype=np.uint64)) & np.uint64(1)).sum(axis=1).tolist()
    neg, chosen = neg.astype(np.int64), weights < n
    batch = max(1, _CHUNK_BUDGET // (n_facets + max(64, 1 << r)))  # chosen, unpacked bits
    faces = (
        _facet_faces(neg[off:off + batch], chosen[off:off + batch], tops, r)
        for off in range(0, len(neg), batch)
    )
    value, i, hdim = _least(counts, faces, field, floor)
    cell = np.zeros(r, dtype=np.int16)
    for j in range(r - 1, -1, -1):
        i, cell[j] = divmod(int(layers[j][i]), n + 1)
    return (value, tuple(int(e) - 1 for e in cell), hdim), sum(len(first) for first in layers)


def depth_bruteforce(ideal: MonomialIdeal, field: FieldChoice = QQ) -> DepthCertificate:
    """Exact depth of R/I by scanning the multidegree box, each cell's
    complex built from the violation sets of the generators
    (_violation_faces).  The floor is 0, the least index any cell can
    have, so the witness is the least cell of the whole box."""
    return _ideal_scan(ideal, field, (), floor=0)


def _ideal_scan(
    ideal: MonomialIdeal,
    field: FieldChoice,
    hints: Sequence[Sequence[int]],
    floor: int,
) -> DepthCertificate:
    """depth_bruteforce with a floor: a proven lower bound on the depth."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("ideal must be proper and nonzero")
    r = ideal.r
    check_cap("vertex", r, f"depth scan of r={r}")
    gens = gens_array(ideal)
    sizes = [int(e) + 1 for e in gens.max(axis=0)]
    faces_of = _violation_faces(gens, sizes)
    # per cell: a violation mask per generator, 2^r unpacked bits, and 2^r
    # more as a bound on the packed words and keys
    width = len(gens) + (2 << r)
    return _scan(
        sizes, hints, faces_of, field, floor,
        lambda: _box_search(sizes, width, faces_of, field, floor),
    )


def depth_power(
    g: Graph,
    n: int,
    field: FieldChoice = QQ,
    hints: Sequence[Sequence[int]] = (),
) -> DepthCertificate:
    """depth R/I(g)^n; hints are cells to try first (see _scan).

    For bipartite g a cell's complex is generated by the facets of the
    independence complex that contain G_a and have alpha-weight at most
    n - 1 outside them, less G_a.  The floor there is 1: I(g)^n equals its
    symbolic power, so the maximal ideal is never associated.  Otherwise
    the scan runs on the generators of the power, with floor 0."""
    return _power_scan(g, n, field, hints, floor=0)


def _power_scan(
    g: Graph,
    n: int,
    field: FieldChoice,
    hints: Sequence[Sequence[int]],
    floor: int,
) -> DepthCertificate:
    """depth_power with a floor: a proven lower bound on the depth."""
    if n < 1:
        raise ValueError("power must be >= 1")
    check_cap("vertex", g.r, f"depth scan of r={g.r}")  # before the power
    if decompose(g).t:
        return _ideal_scan(power(edge_ideal(g), n), field, hints, floor)
    facets = maximal_independent_sets(g)
    tops = np.array([sum(1 << (v - 1) for v in f) for f in facets], dtype=np.int64)
    outside = np.array([[v not in f for v in g.vertices] for f in facets], dtype=np.int64)

    def faces_of(alpha: np.ndarray) -> np.ndarray:
        neg = (alpha < 0) @ (1 << np.arange(g.r))
        # a negative coordinate outside a facet outweighs n - 1 on its own
        chosen = np.where(alpha < 0, n, alpha).astype(np.int64) @ outside.T <= n - 1
        return _facet_faces(neg, chosen, tops, g.r)

    floor = max(floor, 1)
    return _scan(
        [n + 1] * g.r, hints, faces_of, field, floor,
        lambda: _walk(outside, n, tops, field, floor),
    )


def split_certificates(
    g: Graph,
    a: Iterator[DepthCertificate],
    a_labels: Sequence[int],
    b: Iterator[DepthCertificate],
    b_labels: Sequence[int],
    field: FieldChoice,
) -> Iterator[DepthCertificate]:
    """The certificates of depth R/I(g)^n for n = 1, 2, ..., lazily, for g
    the disjoint union of A and B (see the module docstring).  a and b are
    the certificate streams of A and B, and a_labels and b_labels their
    vertices in g, as induced_subgraph gives them.  Both streams are read
    one power per power of g.  A certificate's cells_scanned also counts
    the component cells first scanned at its power."""
    a_certs: list[DepthCertificate] = []  # power p at index p - 1
    b_certs: list[DepthCertificate] = []
    for n in itertools.count(1):
        a_certs.append(next(a))
        b_certs.append(next(b))
        # the terms p + q = n + 1 by p, then the terms p + q = n
        joined = [a_certs[p - 1].depth + b_certs[n - p].depth for p in range(1, n + 1)]
        floor = min(
            joined + [a_certs[p - 1].depth + b_certs[n - p - 1].depth + 1 for p in range(1, n)]
        )
        hints = []
        for p in range(1, n + 1):
            if joined[p - 1] == floor:
                cell = [0] * g.r
                for labels, cert in ((a_labels, a_certs[p - 1]), (b_labels, b_certs[n - p])):
                    for v, e in zip(labels, cert.witness_alpha):
                        cell[v - 1] = e
                hints.append(cell)
        cert = _power_scan(g, n, field, hints, floor)
        first_scans = a_certs[-1].cells_scanned + b_certs[-1].cells_scanned
        yield replace(cert, cells_scanned=cert.cells_scanned + first_scans)


def betti_depth_crosscheck(ideal: MonomialIdeal, field: FieldChoice = QQ) -> int:
    """depth R/I via graded Betti numbers of I.

    beta_{i,b}(I) is the reduced homology in degree i-1 of the squarefree
    complex K^b = {S : x^(b - 1_S) in I}; the projective dimension of R/I
    is 1 + max{i : beta_i(I) != 0} and depth follows by the
    Auslander-Buchsbaum formula.  Independent of the local cohomology scan.
    """
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("ideal must be proper and nonzero")
    r = ideal.r
    check_cap("vertex", r, f"betti crosscheck of r={r}")
    lcm = gens_array(ideal).max(axis=0).astype(np.int64)
    cells = math.prod(int(e) + 1 for e in lcm)
    check_cap("box", cells, f"degree box has {cells} cells")
    strides = np.cumprod(lcm[::-1] + 1)[::-1] // (lcm + 1)
    inside: list[bool] = []  # x^b in I, for b at each flat index of the box
    for off in range(0, cells, COLON_CHUNK_CELLS):
        idx = np.arange(off, min(off + COLON_CHUNK_CELLS, cells))
        inside += membership(ideal, idx[:, None] // strides % (lcm + 1))[0].tolist()
    # x^(b - 1_S) sits at flat index shift[S] below b's
    shift = (((np.arange(1 << r)[:, None] >> np.arange(r)) & 1) @ strides).tolist()
    max_i = -1
    universe = tuple(range(1, r + 1))
    memo: dict[SimplicialComplex, int] = {}
    for flat, b in enumerate(itertools.product(*[range(e + 1) for e in lcm])):
        support = sum(1 << i for i in range(r) if b[i] >= 1)
        cx = SimplicialComplex(universe, frozenset(
            s for s in submasks(support) if inside[flat - shift[s]]
        ))
        top = memo.get(cx)
        if top is None:
            dims = reduced_homology_dims(cx, field=field)
            # -2: an acyclic complex contributes nothing
            top = max((d for d, dim in dims.items() if dim), default=-2)
            memo[cx] = top
        if top > -2:
            max_i = max(max_i, top + 1)
    if max_i < 0:
        raise InternalError("nonzero ideal must have a nonzero Betti number")
    return r - 1 - max_i
