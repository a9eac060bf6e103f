"""Permutations and the rank-1 polytope vertices they generate.

A permutation sigma of [n] yields the 0/1 symmetric matrix with entry
(ij, kl) equal to P_sigma(i,j) * P_sigma(k,l), i.e. 1 exactly when
sigma(i) = j and sigma(k) = l.  Each vertex therefore has n diagonal ones
and n(n-1)/2 distinct unordered off-diagonal ones; it is stored sparsely as
that set of canonical entry keys, never as a dense matrix.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import CapExceededError, InvalidPermutationError
from .indexing import EntryKey, canon_entry, flat_index, pair_from_flat

DEFAULT_ENUMERATION_CAP = 9


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection on [n] in one-line notation, 1-based.

    Ordering and equality are lexicographic on the image sequence, which
    fixes the enumeration order and the notion of "lexicographically
    smallest" used as a rank base point elsewhere.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n == 0 or sorted(self.image) != list(range(1, n + 1)):
            raise InvalidPermutationError(
                f"image {self.image!r} is not a bijection on [{n}]"
            )

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def sign(self) -> int:
        """Parity of the permutation: +1 for even, -1 for odd."""
        seen = [False] * self.n
        sign = 1
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.image[i] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def one_line(self) -> str:
        """Serialize as 'sigma(1) sigma(2) ... sigma(n)'."""
        return " ".join(str(v) for v in self.image)

    @classmethod
    def from_one_line(cls, text: str) -> "Permutation":
        return cls(tuple(int(tok) for tok in text.split()))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))


def apply_transposition(sigma: Permutation, x: int, y: int) -> Permutation:
    """Swap the images at positions x and y; an involution."""
    n = sigma.n
    if x == y or not (1 <= x <= n and 1 <= y <= n):
        raise InvalidPermutationError(
            f"transposition indices ({x},{y}) must be distinct and in [1,{n}]"
        )
    img = list(sigma.image)
    img[x - 1], img[y - 1] = img[y - 1], img[x - 1]
    return Permutation(tuple(img))


def require_enumerable(n: int, cap: int) -> None:
    """Refuse a size whose permutations the enumeration cap does not allow."""
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")


def enumerate_permutations(n: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield all n! permutations of [n] in lexicographic order.

    The cap guards exhaustive suites from combinatorial blowup; 9! is the
    default ceiling and can be raised explicitly.
    """
    if n < 1:
        raise InvalidPermutationError(f"n must be positive, got {n}")
    require_enumerable(n, cap)
    for img in itertools.permutations(range(1, n + 1)):
        yield Permutation(img)


@dataclass(frozen=True)
class QapVertex:
    """Sparse vertex P2(sigma): the set of canonical entry keys with value 1."""

    n: int
    entries: frozenset[EntryKey]
    source_permutation: Permutation = field(compare=False)

    def value_at(self, i: int, j: int, k: int, l: int) -> int:
        key = canon_entry(flat_index(self.n, i, j), flat_index(self.n, k, l))
        return 1 if key in self.entries else 0

    def nonzero_cell_count(self) -> int:
        """Number of nonzero cells of the full symmetric matrix (both
        orientations of each off-diagonal entry counted)."""
        diag = sum(1 for f1, f2 in self.entries if f1 == f2)
        return diag + 2 * (len(self.entries) - diag)

    def to_json(self) -> str:
        pairs = sorted(self.entries)
        return json.dumps(
            [[list(pair_from_flat(self.n, f1)), list(pair_from_flat(self.n, f2))]
             for f1, f2 in pairs]
        )


def vertex_from_permutation(sigma: Permutation) -> QapVertex:
    """Build the vertex whose (ij, kl) entry is P_sigma(i,j) * P_sigma(k,l)."""
    n = sigma.n
    flats = [flat_index(n, i, sigma(i)) for i in range(1, n + 1)]
    entries = set()
    for a in range(n):
        entries.add((flats[a], flats[a]))
        for b in range(a + 1, n):
            entries.add(canon_entry(flats[a], flats[b]))
    return QapVertex(n=n, entries=frozenset(entries), source_permutation=sigma)
