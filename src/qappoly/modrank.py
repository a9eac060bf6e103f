"""Exact rank computation via modular arithmetic at several large primes.

A rank mod p never exceeds the rank over Q and equals it for all but
finitely many primes.  ``rank_consensus`` reduces a matrix modulo >= 3
independent 31-bit primes from a vetted pool and reports their agreed rank
(escalating to 5 primes on any disagreement, which has never been observed
for these 0/+-1 matrices).  A vote is strong evidence, not a proof; a proof
comes from a matching upper bound, which the geometry layer supplies from
integer equations and records as a ``RankCertificate``.  With ``reach``, the
first prime alone decides whether a matrix reaches such a bound before the
other primes are spent.  A fraction-free (Bareiss) integer elimination is
available for certification runs; it is exact but slower.

Callers hand in signed integer matrices of any width (the vertex layer
passes int8 rows and differences); each elimination widens its own reduced
copy to int64 once.  The primes are reduced one after another, so at most
one reduced copy is alive at a time.  All primes are below 2**31 so
products of two residues fit in int64.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import QappolyError

# Verified primes just below 2**31 (all > 2**30).
PRIME_POOL = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
    2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
)
DEFAULT_PRIME_COUNT = 3
ESCALATED_PRIME_COUNT = 5


@dataclass(frozen=True)
class RankCertificate:
    """Why an affine rank over Q is exact: an upper and a lower bound meet.

    From above: ``equation_rows`` homogeneous integer equations on
    ``columns`` coordinates vanish on every point of the set, and
    ``equation_rank`` is at most their rank over Q, so the points span at
    most columns - equation_rank dimensions linearly, and one less affinely
    (they lie on a hyperplane off the origin).  From below: the affine rank
    of ``subset_rows`` of the points, reduced mod ``prime``, reaches that
    ``bound``.  ``kind`` names where the equations come from.
    """

    kind: str
    columns: int
    equation_rows: int
    equation_rank: int
    prime: int
    subset_rows: int

    @property
    def bound(self) -> int:
        return self.columns - self.equation_rank - 1


@dataclass
class RankReport:
    """Outcome of a multi-prime rank computation.

    ``consensus_rank`` is set only when every prime agrees; otherwise the
    status is "inconclusive", or "short" when a ``reach`` was missed.
    ``certificate`` is set when the rank is proven, not only voted.
    """

    row_count: int
    column_dimension: int
    ranks: list[tuple[int, int]] = field(default_factory=list)  # (prime, rank)
    consensus_rank: int | None = None
    status: str = "ok"
    certificate: RankCertificate | None = None

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.ranks)


def _echelonize_mod_p(matrix: np.ndarray, p: int):
    """Row-reduce an integer matrix mod p, on a reduced int64 copy.

    Returns (rank, pivot columns, echelon rows): each echelon row has a
    leading 1 at its pivot column and zeros in earlier columns, which is
    all that membership reduction needs.
    """
    # an np.int64 modulus: numpy 2 rejects a Python int above the input dtype
    m = np.ascontiguousarray(np.mod(matrix, np.int64(p)))
    rows, cols = m.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = (m[r, c:] * inv) % p
        below = m[r + 1:, c]
        tgt = np.nonzero(below)[0]
        if tgt.size:
            block = m[r + 1 + tgt, c:]
            block -= below[tgt, None] * m[r, c:]
            block %= p
            m[r + 1 + tgt, c:] = block
        pivots.append(c)
        r += 1
    return r, pivots, m[:r]


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    rank, _, _ = _echelonize_mod_p(matrix, p)
    return rank


def _strip_zero_columns(matrix: np.ndarray) -> np.ndarray:
    """Drop identically-zero columns; they never contribute to the rank."""
    used = np.nonzero(matrix.any(axis=0))[0]
    if used.size == matrix.shape[1]:
        return matrix
    return np.ascontiguousarray(matrix[:, used])


def _prime_vote(at) -> tuple[dict[int, object], object]:
    """Evaluate ``at(p)`` at the default primes, and at the escalated ones
    as well when those split.  Returns the value per prime and the
    unanimous value, or None when the primes disagree."""
    votes = {p: at(p) for p in PRIME_POOL[:DEFAULT_PRIME_COUNT]}
    if len(set(votes.values())) > 1:
        votes |= {p: at(p) for p in PRIME_POOL[DEFAULT_PRIME_COUNT:ESCALATED_PRIME_COUNT]}
    values = set(votes.values())
    return votes, values.pop() if len(values) == 1 else None


def rank_consensus(matrix: np.ndarray, column_dimension: int | None = None,
                   reach: int | None = None) -> RankReport:
    """Rank of an integer matrix by modular consensus.

    Disagreement escalates once to 5 primes; if the escalated set still
    disagrees the report is marked inconclusive.  With ``reach``, a first
    prime whose rank falls short of it ends the vote: the report holds that
    one rank, no consensus and the status "short".
    """
    rows, cols = matrix.shape
    report = RankReport(row_count=rows,
                        column_dimension=column_dimension if column_dimension is not None else cols)
    if rows == 0:
        report.consensus_rank = 0
        return report
    work = _strip_zero_columns(matrix)
    rank_at = functools.cache(lambda p: rank_mod_p(work, p))
    first = PRIME_POOL[0]
    if reach is not None and rank_at(first) < reach:
        report.ranks = [(first, rank_at(first))]
        report.status = "short"
        return report
    votes, report.consensus_rank = _prime_vote(rank_at)
    report.ranks = list(votes.items())
    if report.consensus_rank is None:
        report.status = "inconclusive"
    return report


class ModularSpanBasis:
    """Echelon bases of a fixed generator span at several primes, reused
    across many membership queries."""

    def __init__(self, generators: np.ndarray):
        if generators.ndim != 2:
            raise QappolyError("generator matrix must be 2-dimensional")
        self._generators = generators
        self._bases: dict[int, tuple[list[int], np.ndarray]] = {}
        for p in PRIME_POOL[:DEFAULT_PRIME_COUNT]:
            self._build(p)

    @property
    def primes(self) -> tuple[int, ...]:
        """The primes whose echelon basis is built, in the order built."""
        return tuple(self._bases)

    def _build(self, p: int) -> None:
        if p not in self._bases:
            _, pivots, rows = _echelonize_mod_p(self._generators, p)
            # a copy, so the basis does not pin the whole reduced matrix
            self._bases[p] = (pivots, rows.copy())

    def contains_mod_p(self, vector: np.ndarray, p: int) -> bool:
        pivots, rows = self._bases[p]
        v = np.mod(vector, np.int64(p))
        for idx, c in enumerate(pivots):
            coef = v[c]
            if coef:
                v -= coef * rows[idx]
                v %= p
        return not v.any()

    def contains(self, vector: np.ndarray) -> tuple[bool, dict[int, bool]]:
        """Consensus membership verdict plus the per-prime verdicts; raises
        when the primes disagree."""
        def at(p: int) -> bool:
            self._build(p)
            return self.contains_mod_p(vector, p)

        votes, member = _prime_vote(at)
        if member is None:
            raise QappolyError(
                f"span membership disagreement across primes: {votes}")
        return member, votes


def rank_exact_rational(matrix: np.ndarray) -> int:
    """Certification path: exact rank over Q by fraction-free elimination.

    Bareiss's scheme (Math. Comp. 1968) keeps every entry an integer minor
    of the input: after each pivot step the rows below are updated by
    (a*x - b*y) / previous pivot, a division that is always exact.
    """
    rows = [row for row in matrix.tolist() if any(row)]
    rank = 0
    previous = 1
    for c in range(matrix.shape[1]):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        a = top[c]
        for row in rows[rank + 1:]:
            # columns before c are already zero below the pivot row
            b = row[c]
            row[c:] = [(a * x - b * y) // previous for x, y in zip(row[c:], top[c:])]
        previous = a
        rank += 1
        if rank == len(rows):
            break
    return rank
