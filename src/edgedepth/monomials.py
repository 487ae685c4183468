"""Monomial ideals in K[x_1..x_r] represented by minimal generator sets.

Monomials are exponent tuples of length r.  An ideal is canonical: its
generators are deduplicated, pairwise incomparable under divisibility, and
sorted.  The zero ideal has no generators; the unit ideal is generated by
the exponent vector of all zeros.

One kernel, membership, says whether x^a and each x^a * x_i lie in I.  It
answers the colon scan here (is (I : x^m) a prime), the depth-zero check
of stability.witness (is (I^n : x^alpha) the maximal ideal) and
depth.betti_depth_crosscheck (which x^b lie in I); contains is the
definition, kept for the tests to compare it against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import check_cap
from .graphs import CACHE_ENTRIES, Graph

Monomial = tuple[int, ...]

# Cells per chunk of the colon scan.  A chunk holds a few (cells, words)
# uint64 bitsets per variable; much larger chunks raise the peak RSS.
COLON_CHUNK_CELLS = 4096


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    r: int
    gens: tuple[Monomial, ...]

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and all(e == 0 for e in self.gens[0])


def minimalize(r: int, gens: Iterable[Sequence[int]]) -> MonomialIdeal:
    """Canonical ideal from an arbitrary generating set."""
    uniq = sorted({tuple(int(e) for e in m) for m in gens})
    for m in uniq:
        if len(m) != r:
            raise ValueError(f"monomial {m} has length {len(m)}, expected {r}")
        if any(e < 0 for e in m):
            raise ValueError(f"negative exponent in {m}")
    if not uniq:
        return MonomialIdeal(r=r, gens=())
    degrees = {sum(m) for m in uniq}
    if len(degrees) == 1:
        # distinct monomials of equal degree never divide each other
        return MonomialIdeal(r=r, gens=tuple(uniq))
    arr = np.array(uniq, dtype=np.int64)
    le = (arr[:, None, :] <= arr[None, :, :]).all(axis=2)
    np.fill_diagonal(le, False)
    keep = ~le.any(axis=0)
    minimal = [m for m, k in zip(uniq, keep) if k]
    return MonomialIdeal(r=r, gens=tuple(minimal))


@lru_cache(maxsize=CACHE_ENTRIES)
def gens_array(ideal: MonomialIdeal) -> np.ndarray:
    arr = np.array(ideal.gens, dtype=np.int16) if ideal.gens else np.zeros((0, ideal.r), dtype=np.int16)
    arr.setflags(write=False)
    return arr


def edge_ideal(g: Graph) -> MonomialIdeal:
    gens = []
    for u, v in g.edges:
        m = [0] * g.r
        m[u - 1] = 1
        m[v - 1] = 1
        gens.append(tuple(m))
    return minimalize(g.r, gens)


def contains(ideal: MonomialIdeal, m: Sequence[int]) -> bool:
    """x^m in I, by the definition; the tests' reference for membership."""
    return any(all(g_i <= m_i for g_i, m_i in zip(g, m)) for g in ideal.gens)


def multiply(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.r != b.r:
        raise ValueError("ambient ring mismatch")
    if a.is_zero or b.is_zero:
        return MonomialIdeal(r=a.r, gens=())
    prods = {monomial_mul(x, y) for x in a.gens for y in b.gens}
    return minimalize(a.r, prods)


@lru_cache(maxsize=CACHE_ENTRIES)
def power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    if n < 0:
        raise ValueError("power must be nonnegative")
    if n == 0:
        return MonomialIdeal(r=ideal.r, gens=(tuple([0] * ideal.r),))
    if n == 1:
        return ideal
    # I^64, I^128, ... below I^(n-1) first, kept cached (64 < CACHE_ENTRIES),
    # so the recursion below takes at most 64 steps whatever n is
    for k in range(64, n - 1, 64):
        power(ideal, k)
    return multiply(power(ideal, n - 1), ideal)


def lcm_box(ideal: MonomialIdeal, chunk: int, what: str) -> Iterator[np.ndarray]:
    """The cells of every box scan: the rows 0 <= a <= lcm of the generators
    in box order, chunk rows at a time as int64 arrays.  The call refuses a
    box over the box cap, what naming it, before any row."""
    lcm = gens_array(ideal).max(axis=0, initial=0).astype(np.int64)
    cells = math.prod(int(e) + 1 for e in lcm)
    check_cap("box", cells, f"{what} has {cells} cells")
    return (
        np.stack(np.unravel_index(np.arange(off, min(off + chunk, cells)), lcm + 1), axis=1)
        for off in range(0, cells, chunk)
    )


@lru_cache(maxsize=CACHE_ENTRIES)
def _bitsets(ideal: MonomialIdeal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lcm, offsets, table): table[offsets[i] + v] is the bitset of the
    generators g with g_i <= v, for v = 0 .. lcm_i + 1."""
    arr = gens_array(ideal)
    lcm = arr.max(axis=0, initial=0).astype(np.int64)
    # padded to whole words with generators that no exponent row reaches
    arr = np.vstack([arr, np.full((-len(arr) % 64, ideal.r), lcm.max() + 2)])
    rows = np.concatenate([arr[None, :, i] <= np.arange(e + 2)[:, None] for i, e in enumerate(lcm)])
    table = np.packbits(rows, axis=1, bitorder="little").view(np.uint64)
    table.setflags(write=False)
    return lcm, np.cumsum(lcm + 2) - (lcm + 2), table


def _divisors(ideal: MonomialIdeal, cells: np.typing.ArrayLike) -> tuple[np.ndarray, ...]:
    """(at, below, inside) for exponent rows a, clipped to the lcm: below[i]
    holds the generators g with g_i <= a_i and at[i] is its table row, so
    x^a is in I (inside) iff the AND over i of below[i] is not empty."""
    lcm, offsets, table = _bitsets(ideal)
    at = (np.minimum(np.asarray(cells, dtype=np.int64), lcm) + offsets).T
    below = np.take(table, at, axis=0)  # take: far faster than indexing here
    return at, below, np.bitwise_and.reduce(below, axis=0).any(axis=1)


def membership(ideal: MonomialIdeal, cells: np.typing.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """(inside, bumped) for a (k, r) block of nonnegative exponent rows a:
    inside[k] says x^a is in I and bumped[k, i] says x^a * x_i is.

    Exponents past the lcm are clipped to it (_divisors).  x^a * x_i swaps
    in the row for a_i + 1, which prefix and suffix ANDs over the other
    variables make cheap.  A row inside I has every bump inside, so bumps
    are only computed for the rows outside.
    """
    at, below, inside = _divisors(ideal, cells)
    bumped = np.ones(at.T.shape, dtype=bool)
    out = np.flatnonzero(~inside)
    below, table = below[:, out], _bitsets(ideal)[2]
    prefix = [~np.uint64(0)]
    for b in below[:-1]:
        prefix.append(prefix[-1] & b)
    suffix = prefix[0]
    for i in range(len(below) - 1, -1, -1):
        bumped[out, i] = (prefix[i] & suffix & np.take(table, at[i, out] + 1, axis=0)).any(axis=1)
        suffix = suffix & below[i]
    return inside, bumped


def associated_primes_bruteforce(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Associated primes of R/I by exhaustive colon scan.

    P is associated iff P = (I : m) for a monomial m; it suffices to scan m
    below the componentwise lcm of the generators.  Every cell of that box
    asks the membership kernel: with S = {i : m*x_i in I}, (I : m) is the
    prime P_S iff m is not in I and m raised to the lcm outside S is not in
    I either, i.e. no generator has all its exponents in S at most m's.
    """
    if ideal.is_zero:
        return ()
    if ideal.is_unit:
        raise ValueError("unit ideal has no associated primes")
    r = ideal.r
    lcm = gens_array(ideal).max(axis=0).astype(np.int64)
    weights = 1 << np.arange(r, dtype=np.int64)
    codes: set[int] = set()
    for m in lcm_box(ideal, COLON_CHUNK_CELLS, "colon box"):
        inside, s_mask = membership(ideal, m)
        s_mask, m = s_mask[~inside], m[~inside]
        ok = ~_divisors(ideal, np.where(s_mask, m, lcm))[2]
        codes.update((s_mask[ok] @ weights).tolist())
    return tuple(sorted(tuple(i + 1 for i in range(r) if c >> i & 1) for c in codes))
