"""Abstract simplicial complexes and exact reduced simplicial homology.

A complex is a down-closed set of face masks over its sorted universe: bit
i of a mask stands for the i-th smallest vertex label.  Producers that
already hold masks (the depth scan's face bitmaps, the degree complexes of
the test oracles) build the record directly; from_facets builds it by
closing the facets under subsets.  Facets are derived from the faces.

The void complex (no faces at all) and the irrelevant complex {emptyset}
are distinct: the former has all reduced homology zero, the latter has
one-dimensional homology in degree -1.  Boundary matrices come straight
from the masks, one grade of faces at a time, as sparse columns, and
one column reduction computes their ranks exactly over the rationals and
over every prime field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import check_cap


@dataclass(frozen=True)
class FieldChoice:
    """The coefficient field: rationals when p is None, else GF(p)."""

    p: Optional[int] = None

    @staticmethod
    def gf(p: int) -> "FieldChoice":
        if p < 2:
            raise ValueError("prime must be >= 2")
        # trial division stays fast below the bound
        if p >= 1 << 31:
            raise ValueError(f"prime must be < 2^31, got {p}")
        for d in range(2, int(p**0.5) + 1):
            if p % d == 0:
                raise ValueError(f"{p} is not prime")
        return FieldChoice(p)


QQ = FieldChoice()


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex on the sorted vertex labels in universe.  Each face is an
    int mask over positions in universe (bit i stands for universe[i]);
    faces must be closed under subsets."""

    universe: tuple[int, ...]
    faces: frozenset[int]

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def dim(self) -> int:
        """Dimension; -1 for the irrelevant complex.  Undefined (raises) for
        the void complex."""
        if self.is_void:
            raise ValueError("void complex has no dimension")
        return max(s.bit_count() for s in self.faces) - 1

    def _facet_masks(self) -> list[int]:
        bits = [1 << i for i in range(len(self.universe))]
        return [s for s in self.faces if all(s & b or s | b not in self.faces for b in bits)]

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """The maximal faces as sorted label tuples, in sorted order."""
        return tuple(sorted(
            tuple(v for i, v in enumerate(self.universe) if s >> i & 1)
            for s in self._facet_masks()
        ))


def submasks(mask: int) -> list[int]:
    """Every submask of mask, mask itself first and 0 last."""
    out = []
    s = mask
    while True:
        out.append(s)
        if s == 0:
            return out
        s = (s - 1) & mask


def from_facets(universe: Iterable[int], facets: Iterable[Iterable[int]]) -> SimplicialComplex:
    """The complex generated by facets (maximality is not required); more
    faces than the face cap (errors.CAPS) raises TooLargeError."""
    uni = tuple(sorted(set(int(v) for v in universe)))
    pos = {v: i for i, v in enumerate(uni)}
    faces: set[int] = set()
    for f in facets:
        labels = set(int(v) for v in f)
        if not labels <= pos.keys():
            raise ValueError(f"facet {tuple(sorted(labels))} not contained in the universe")
        # a facet of k vertices brings 2^k faces; refuse before listing them
        k = len(labels)
        check_cap("face", 1 << k, f"facet of {k} vertices has {1 << k} faces")
        top = sum(1 << pos[v] for v in labels)
        if top not in faces:
            faces.update(submasks(top))
        check_cap("face", len(faces), f"complex has {len(faces)} faces")
    return SimplicialComplex(universe=uni, faces=frozenset(faces))


def is_cone(cx: SimplicialComplex) -> Optional[int]:
    """The least vertex contained in every facet, or None.  Removing v maps
    the faces through v one-to-one into the faces without v, and onto them
    exactly when v lies in every facet, so v is such a vertex iff it lies
    in exactly half of the faces."""
    if cx.is_void:
        return None
    for i, v in enumerate(cx.universe):
        bit = 1 << i
        through = 0
        for s in cx.faces:
            if s & bit:
                through += 1
        if 2 * through == len(cx.faces):
            return v
    return None


def _boundary(s: int) -> dict[int, int]:
    """The boundary of face s as a column keyed by its codimension-one
    faces: dropping the k-th vertex of s carries the sign (-1)^k."""
    col, rest, sign = {}, s, 1
    while rest:
        low = rest & -rest
        col[s ^ low] = sign
        rest ^= low
        sign = -sign
    return col


def _matrix_rank(columns: Iterable[dict[int, int]], field: FieldChoice) -> int:
    """Rank of the matrix whose columns are sparse {row: entry} dicts.

    Each column is reduced by the pivot column of its largest row,
    col = a*col - b*pivot with a, b the two entries in that row, until its
    largest row has no pivot (it becomes that row's pivot) or it vanishes.
    Over Q a reduced column is divided by the gcd of its entries, over GF(p)
    its entries are taken mod p; neither changes the rank.  An input column
    without zero entries skips that step when its gcd is 1 over Q, or when
    every entry is smaller than p in size over GF(p), as a fresh boundary
    column (all entries 1 or -1) is."""
    p = field.p
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        entries = col.values()
        if 0 in entries or (
            math.gcd(*entries) != 1 if p is None else max(map(abs, entries), default=0) >= p
        ):
            col = _normalised(col, p)
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            a, b = piv[low], col[low]
            col = {r: a * e for r, e in col.items()}
            for r, e in piv.items():
                col[r] = col.get(r, 0) - b * e
            col = _normalised(col, p)
    return len(pivots)


def _normalised(col: dict[int, int], p: Optional[int]) -> dict[int, int]:
    """col without its zero entries: mod p, or over Q divided by its gcd."""
    if p is not None:
        return {r: e % p for r, e in col.items() if e % p}
    g = math.gcd(*col.values())  # 0 only when every entry is 0
    return {r: e // g for r, e in col.items() if e} if g else {}


def reduced_homology_dims(cx: SimplicialComplex, field: FieldChoice = QQ) -> dict[int, int]:
    """Dimensions of the reduced homology groups, indexed -1..dim.

    The void complex yields an empty dict (all groups zero).  The empty
    face is a genuine chain group generator, so {emptyset} reports
    {-1: 1}.  A cone is acyclic, so it reports zeros without any rank.
    Any other complex with more faces than the rank cap (errors.CAPS)
    raises TooLargeError before a rank is taken.
    """
    if cx.is_void:
        return {}
    if is_cone(cx) is not None:
        return {d: 0 for d in range(-1, cx.dim + 1)}
    check_cap("rank", len(cx.faces), f"homology of {len(cx.faces)} faces")
    return _rank_homology_dims(cx, field)


def _rank_homology_dims(cx: SimplicialComplex, field: FieldChoice) -> dict[int, int]:
    """Reduced homology of a non-void complex from its boundary ranks."""
    by_dim: dict[int, list[int]] = {}
    for s in sorted(cx.faces):
        by_dim.setdefault(s.bit_count() - 1, []).append(s)
    top = max(by_dim)
    # the boundary C_d -> C_{d-1} has a column per d-face
    ranks = {d: _matrix_rank(map(_boundary, by_dim[d]), field) for d in range(top + 1)}
    return {
        d: len(by_dim[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        for d in range(-1, top + 1)
    }


def min_nonvanishing_reduced_homology(
    cx: SimplicialComplex, field: FieldChoice = QQ
) -> tuple[Optional[int], int]:
    """(least d with nonzero reduced homology, its dimension); (None, 0)
    when the complex is void or acyclic."""
    dims = reduced_homology_dims(cx, field=field)
    for d in sorted(dims):
        if dims[d]:
            return d, dims[d]
    return None, 0
