"""Permutations, the labels of the rank-1 polytope vertices.

A permutation sigma of [n] yields the 0/1 symmetric matrix with entry
(ij, kl) equal to P_sigma(i,j) * P_sigma(k,l), i.e. 1 exactly when
sigma(i) = j and sigma(k) = l.  Each vertex therefore has n diagonal ones
and n(n-1)/2 distinct unordered off-diagonal ones, the pairs of its n flat
indices n(i-1) + sigma(i).  No vertex is ever stored as a matrix or an
entry set: the package reads a vertex from its one-line image, through the
match matrix (``inequalities.match_matrix``) or the flat indices themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceededError, InvalidPermutationError

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
