"""Bit-packed linear algebra over Z_2^m for desk-scale exhaustive searches.

Vectors are ints with bit i = coordinate i (coordinate 2i is q of system i,
coordinate 2i+1 its p, matching the package-wide convention).  Sets of
vectors are masks: bit v of the mask marks membership of vector v.  Only the
d = 2 FR scan (`scenarios`' tables and condition kernel) runs on these
routines.  The generic exact layer handles everything else, and the ontic
oracle that spot-checks the scan uses none of them; `isotropic_bases` takes
its walk from `phase_space`, where the generic enumerator and the oracle
take it too.
"""

from __future__ import annotations

import functools

from .phase_space import _orderly_walk


def dot2(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def pairswap(v: int, m: int) -> int:
    """Swap q/p bits within each coordinate pair; [f,g] = dot2(f, pairswap(g))."""
    even = v & _even_mask(m)
    odd = v & _odd_mask(m)
    return (even << 1) | (odd >> 1)


@functools.lru_cache(maxsize=None)
def _even_mask(m: int) -> int:
    mask = 0
    for i in range(0, m, 2):
        mask |= 1 << i
    return mask


@functools.lru_cache(maxsize=None)
def _odd_mask(m: int) -> int:
    return _even_mask(m) << 1


def span_elements(basis) -> list[int]:
    elems = [0]
    for b in basis:
        elems += [e ^ b for e in elems]
    return elems


@functools.lru_cache(maxsize=None)
def ortho_table(m: int) -> tuple[int, ...]:
    """ORTHO[v] = mask of all x in Z_2^m with dot2(x, v) = 0.

    Built by linearity: dot2(x, v) = dot2(x, v - e_b) + dot2(x, e_b) for the
    lowest set bit b of v, so ORTHO[v] is ORTHO[v - e_b] with the x of
    dot2(x, e_b) = 1 flipped (m · 2^m products instead of 4^m).
    """
    size = 1 << m
    odd = [sum(1 << x for x in range(size) if dot2(x, 1 << b))
           for b in range(m)]
    table = [(1 << size) - 1]
    for v in range(1, size):
        low = v & -v
        table.append(table[v ^ low] ^ odd[low.bit_length() - 1])
    return tuple(table)


def coset_mask(elems: list[int]) -> int:
    mask = 0
    for e in elems:
        mask |= 1 << e
    return mask


@functools.lru_cache(maxsize=None)
def isotropic_bases(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All isotropic subspaces of Z_2^m grouped by dimension, 0 to m // 2.

    Entry k is the tuple of the canonical bases of the k-dimensional
    isotropic subspaces, sorted as tuples of packed ints.  A canonical basis
    is fully reduced, with each row's pivot at its lowest set bit, rows in
    ascending pivot order.  The order is part of the contract: FR Lagrangian
    indices depend on it.

    `phase_space._orderly_walk` grows the bases, as it grows the generic
    tuples of `phase_space.isotropic_subspaces_within`; only the "may
    follow" masks are packed (`_follow_masks`).  A candidate is its own
    index, so the walk's index paths are the bases.  The packed masks are
    kept because the FR tables need packed ints: m = 8 takes a median
    0.009 s, against 0.093 s for `isotropic_subspaces_within` over all 256
    vectors followed by packing its bases into ints and sorting them into
    this order (seven alternating runs, each in a fresh process, on 2 vCPUs
    with Python 3.11.7), about ten times as long.
    """
    return tuple(tuple(paths) for paths in _orderly_walk(
        _follow_masks(m), (1 << (1 << m)) - 2, m // 2))


def _follow_masks(m: int) -> list[int]:
    """Entry v: the mask of the w that may follow v in a canonical basis,
    for nonzero v of Z_2^m.  w's pivot (lowest set bit) lies above v's and
    is unset in v, and [v, w] = 0."""
    table = ortho_table(m)
    # by_pivot[p]: mask of the vectors whose lowest set bit is p, the odd
    # multiples of 2^p
    by_pivot = [sum(1 << v for v in range(1 << p, 1 << m, 2 << p))
                for p in range(m)]
    follows = [0]
    for v in range(1, 1 << m):
        above = sum(by_pivot[p] for p in range((v & -v).bit_length(), m)
                    if not (v >> p) & 1)
        follows.append(table[pairswap(v, m)] & above)
    return follows


def int_to_vector(v: int, m: int) -> tuple[int, ...]:
    return tuple((v >> i) & 1 for i in range(m))

