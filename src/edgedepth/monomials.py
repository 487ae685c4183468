"""Monomial ideals in K[x_1..x_r] represented by minimal generator sets.

Monomials are exponent tuples of length r.  An ideal is canonical: its
generators are deduplicated, pairwise incomparable under divisibility, and
sorted.  The zero ideal has no generators; the unit ideal is generated by
the exponent vector of all zeros.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import TooLargeError
from .graphs import CACHE_ENTRIES, Graph

Monomial = tuple[int, ...]

# Cells per chunk of the colon scan.  A chunk holds a few (cells, words)
# uint64 bitsets per variable; much larger chunks raise the peak RSS.
COLON_CHUNK_CELLS = 4096

# Cells of the largest lcm box the colon scan will visit.
MAX_COLON_CELLS = 2_000_000


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_str(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


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

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(monomial_str(m) for m in self.gens) + ")"


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
    degrees = {monomial_degree(m) for m in uniq}
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
    mt = tuple(m)
    return any(monomial_divides(g, mt) for g in ideal.gens)


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
    return multiply(power(ideal, n - 1), ideal)


def colon(ideal: MonomialIdeal, m: Sequence[int]) -> MonomialIdeal:
    """(I : x^m)."""
    mt = tuple(int(e) for e in m)
    if ideal.is_zero:
        return ideal
    quotients = {tuple(max(g_i - m_i, 0) for g_i, m_i in zip(g, mt)) for g in ideal.gens}
    return minimalize(ideal.r, quotients)


def _pack_rows(bits: np.ndarray, words: int) -> np.ndarray:
    """Boolean (k, n) rows as (k, words) uint64 bitsets, padding bits zero."""
    packed = np.zeros((len(bits), 8 * words), dtype=np.uint8)
    row_bytes = np.packbits(bits, axis=1, bitorder="little")
    packed[:, : row_bytes.shape[1]] = row_bytes
    return packed.view(np.uint64)


def associated_primes_bruteforce(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Associated primes of R/I by exhaustive colon scan.

    P is associated iff P = (I : m) for a monomial m; it suffices to scan m
    below the componentwise lcm of the generators, and (I : m) is such a
    prime iff m is not in I and every generator has an exponent above m in
    S = {i : m*x_i in I}.

    Every cell of the box is tested, on bitsets of generators: le[i][v]
    holds the generators g with g_i <= v, so the generators dividing m are
    the AND over i of le[i][m_i].  m*x_i swaps in le[i][m_i + 1], which the
    prefix and suffix ANDs of the other variables make cheap, and the last
    condition says no generator lies in le[i][m_i] for all i in S at once.
    """
    if ideal.is_zero:
        return ()
    if ideal.is_unit:
        raise ValueError("unit ideal has no associated primes")
    r = ideal.r
    arr = gens_array(ideal)
    lcm = [int(e) for e in arr.max(axis=0)]
    cells = 1
    for e in lcm:
        cells *= e + 1
    if cells > MAX_COLON_CELLS:
        raise TooLargeError(f"colon box has {cells} cells, cap is {MAX_COLON_CELLS} (the colon cap)")
    words = (len(arr) + 63) // 64
    le = [
        _pack_rows(arr[None, :, i] <= np.arange(e + 2)[:, None], words)
        for i, e in enumerate(lcm)
    ]
    full = _pack_rows(np.ones((1, len(arr)), dtype=bool), words)
    strides = [math.prod(e + 1 for e in lcm[i + 1 :]) for i in range(r)]
    weights = 1 << np.arange(r, dtype=np.int64)
    codes: set[int] = set()
    for off in range(0, cells, COLON_CHUNK_CELLS):
        idx = np.arange(off, min(off + COLON_CHUNK_CELLS, cells), dtype=np.int64)
        m = [idx // strides[i] % (e + 1) for i, e in enumerate(lcm)]
        below = [le[i][m[i]] for i in range(r)]  # generators with g_i <= m_i
        divisors = full
        for b in below:
            divisors = divisors & b
        cand = ~divisors.any(axis=1)  # m not in I
        if not cand.any():
            continue
        m = [mi[cand] for mi in m]
        below = [b[cand] for b in below]
        prefix = [full]
        for b in below[:-1]:
            prefix.append(prefix[-1] & b)
        suffix = full
        s_mask = np.zeros((len(m[0]), r), dtype=bool)
        for i in range(r - 1, -1, -1):
            s_mask[:, i] = (prefix[i] & suffix & le[i][m[i] + 1]).any(axis=1)
            suffix = suffix & below[i]
        rest = full
        for i in range(r):
            rest = rest & np.where(s_mask[:, i, None], below[i], full)
        ok = ~rest.any(axis=1)
        codes.update(np.unique(s_mask[ok] @ weights).tolist())
    return tuple(sorted(tuple(i + 1 for i in range(r) if c >> i & 1) for c in codes))
