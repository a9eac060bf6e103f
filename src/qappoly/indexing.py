"""Index conventions for points of the polytope.

A point is a symmetric n**2 x n**2 matrix Y whose rows and columns are
labelled by position pairs (i, j) with 1 <= i, j <= n.  The pair (i, j)
corresponds to the flat index n*(i-1)+j, and Y[ij, kl] denotes the entry in
row n*(i-1)+j and column n*(k-1)+l.  Everything here is 1-based; the flat
index n*(i-1)+j is the single canonical linearization used throughout.

Because Y is symmetric only the upper triangle is ever stored: an entry is
keyed by the unordered pair of flat indices (f1, f2) with f1 <= f2.  The
triangular coordinate space has dimension (n**4 + n**2) / 2.
"""

from __future__ import annotations

import functools

from .errors import DimensionMismatchError

Pair = tuple[int, int]
EntryKey = tuple[int, int]  # (f1, f2) with f1 <= f2


def flat_index(n: int, i: int, j: int) -> int:
    """Flat index n*(i-1)+j of the position pair (i, j), 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise DimensionMismatchError(f"pair ({i},{j}) out of range for n={n}")
    return n * (i - 1) + j


def pair_from_flat(n: int, f: int) -> Pair:
    """Inverse of flat_index."""
    if not (1 <= f <= n * n):
        raise DimensionMismatchError(f"flat index {f} out of range for n={n}")
    return (f - 1) // n + 1, (f - 1) % n + 1


def canon_entry(f1: int, f2: int) -> EntryKey:
    """Canonical unordered key, smaller flat index first."""
    return (f1, f2) if f1 <= f2 else (f2, f1)


def triangle_dimension(n: int) -> int:
    return (n**4 + n**2) // 2


def triangle_position(n: int, f1: int, f2: int) -> int:
    """0-based position of the canonical entry (f1, f2) in row-major
    upper-triangular order, elementwise on integer arrays too.  Requires f1 <= f2."""
    nn = n * n
    return (f1 - 1) * nn - (f1 - 1) * f1 // 2 + (f2 - 1)


@functools.lru_cache(maxsize=None)
def triangle_entries(n: int) -> tuple[EntryKey, ...]:
    """Inverse of triangle_position: the entry (f1, f2) at every position."""
    nn = n * n
    return tuple((f1, f2) for f1 in range(1, nn + 1) for f2 in range(f1, nn + 1))
