"""Exact ranks and spans over Q from modular arithmetic at large primes.

A rank mod p never exceeds the rank over Q and equals it for all but
finitely many primes.  ``lifted_kernel`` turns that into a proof, the one
route every proven rank takes: start from integer equations already proven
on every point (``ProvenEquations``), reduce one seeded subset of the
points mod one prime, lift only the kernel rows beyond those equations to
integers (rational reconstruction where a lift is not small), and check
them exactly on every point.  The known equations and these extras then
cut out the points' span over Q, so they prove its rank (a
``RankCertificate``) and decide span membership exactly.

A failed lift or check gives no certificate, never a false one, and
callers refuse the verdict as unproven.  ``rank_consensus`` reduces a
matrix at three 31-bit primes from a vetted pool ("inconclusive" when they
split): a vote, not a proof, and no proven rank uses it.
``rank_exact_rational``, integer elimination that divides each updated row
by its content, re-checks proven ranks in certification runs; it is exact
but slower.

A kernel eliminates its points only at the columns where the known
equations' echelon form has no pivot: every point satisfies those
equations, so its residues at their pivot columns follow from the others,
and a rank mod p taken on fewer columns is still a lower bound.  The
lifted extras are zero at those pivot columns, checked exactly, so their
rank beside the known equations is taken at the other columns alone.

Callers hand in signed integer matrices of any width (the vertex layer
passes int8 rows and differences); each elimination widens its own reduced
copy to int64 once and reduces it in place.  The primes are reduced one
after another, so at most one reduced copy is alive at a time.  All primes
are below 2**31 so products of two residues fit in int64.

Memory: no proof holds a second array of a full matrix's size.  Beyond its
reduced copy, an elimination holds arrays one panel wide and row blocks of
about ``PRODUCT_BLOCK_BYTES``; a proper face shares the equations it grows
from and their echelon form (``ProvenEquations.with_equation``); and a span
basis holds the known equations by reference, deciding membership
``MEMBERSHIP_BLOCK`` equations by as many targets at a time.

The elimination is blocked (Dumas, Giorgi and Pernet, ACM TOMS 2008).  It
factors ``PANEL`` = 64 columns at a time with one rank-1 update per pivot,
confined to the panel, then clears the panel from the rows below with one
matrix product mod p.  That product splits each multiplier into its high
15 and low 16 bits, so both halves are float64 matmuls whose sums of 64
products stay integers below 2**53: exact in any summation order.  Only
rows with a nonzero multiplier are updated, in row blocks sized to the
width they update (``_subtract_product``).  The pivots and echelon rows are
those of the unblocked loop:
echelon pivots are the column rank profile, whatever the order of updates
(Jeannerod, Pernet and Storjohann, JSC 2013).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QappolyError

# Verified primes just below 2**31 (all > 2**30).
PRIME_POOL = (2147483647, 2147483629, 2147483587)
# Rows per block of ``rank_exact_rational``'s updates.
EQUATION_CHECK_ROWS = 1024
# Bytes of float64 in one row block of the elimination's matrix products,
# whose height follows from the width the block updates.
PRODUCT_BLOCK_BYTES = 2 ** 20
# Equation rows, and targets, per block of a span membership product.
MEMBERSHIP_BLOCK = 64
# float64 sums of integer products are exact while they stay below this.
FLOAT_EXACT = 2 ** 53
# Columns per panel of the blocked elimination, and so the inner dimension
# of every ``_matmul_mod_p``.  That helper multiplies the low 16 bits of one
# residue by another residue: each product is below 2**16 * p and a sum of
# PANEL of them stays below 2**53, so float64 matmul is exact in any order.
PANEL = 64
assert PANEL * (2 ** 16 - 1) * (max(PRIME_POOL) - 1) < FLOAT_EXACT
# Points a kernel subset draws beyond the most rank the known equations
# leave, the seed of that draw, and the rounds in which points the lifted
# kernel misses join the subset.
KERNEL_MARGIN = 32
KERNEL_SEED = 0
KERNEL_ROUNDS = 4


@dataclass(frozen=True)
class RankCertificate:
    """Why an affine rank over Q is exact: an upper and a lower bound meet.

    From above: ``equation_rows`` homogeneous integer equations on
    ``columns`` coordinates vanish on every point of the set, and
    ``equation_rank`` is at most their rank over Q, so the points span at
    most columns - equation_rank dimensions linearly, and one less affinely
    (they lie on a hyperplane off the origin).  From below: the affine rank
    of ``subset_rows`` of the points, reduced mod ``prime``, reaches that
    ``bound``; the subset counts the points re-added in later rounds.
    ``kind`` names the equations: the known ones alone, the hull equations
    E ("affine-hull equations") or E and a form's own equation ("proper
    face"), or those and the lifted extras of the point set ("lifted
    kernel", its rank taken on the lifted rows).

    Kind "independent points" needs no equation (0 rows, rank 0): the
    ``subset_rows`` points, the whole set, are independent mod ``prime``,
    so over Q, and ``bound`` is subset_rows - 1.
    """

    kind: str
    columns: int
    equation_rows: int
    equation_rank: int
    prime: int
    subset_rows: int

    @property
    def bound(self) -> int:
        if self.kind == "independent points":
            return self.subset_rows - 1
        return self.columns - self.equation_rank - 1


@dataclass
class RankReport:
    """Outcome of a rank computation.

    ``consensus_rank`` is set only when every prime agrees; otherwise the
    status is "inconclusive".  ``certificate`` is set when the rank is
    proven: every dimension the geometry layer reports carries one, at its
    one prime, and only ``rank_consensus`` leaves it unset.
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


def _reduce(x: np.ndarray, p: int) -> None:
    """x mod p, in place.  numpy divides int64 by a scalar several times
    faster than it takes the remainder, so the remainder is x - (x // p)·p."""
    q = x // p
    q *= p
    x -= q


def _rank_one_update(target: np.ndarray, multipliers: np.ndarray,
                     row: np.ndarray, p: int) -> None:
    """target -= multipliers ⊗ row mod p, in place, on the rows with a
    nonzero multiplier: one pivot of the unblocked elimination."""
    tgt = np.nonzero(multipliers)[0]
    if tgt.size:
        block = target[tgt]
        block -= multipliers[tgt, None] * row
        _reduce(block, p)
        target[tgt] = block


def _matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residues in [0, p) and at most ``PANEL`` columns of a.

    a = 2**16·a_hi + a_lo with a_hi < 2**15 and a_lo < 2**16; each half
    times b is one float64 matmul, exact by the bound stated at ``PANEL``.
    The halves meet in int64 as ((a_hi @ b mod p)·2**16 + a_lo @ b) mod p,
    whose sum stays below 2**54.  A float64 b is used as it is.
    """
    assert a.shape[1] <= PANEL
    b = np.asarray(b, dtype=np.float64)
    out = ((a >> 16).astype(np.float64) @ b).astype(np.int64)
    _reduce(out, p)
    out <<= 16
    # the low half is cast to int64 in the ufunc's small buffers, so at most
    # two arrays of the product's size are alive at once
    np.add(out, (a & 0xFFFF).astype(np.float64) @ b, out=out, dtype=np.int64,
           casting="unsafe")
    _reduce(out, p)
    return out


def _subtract_product(target: np.ndarray, multipliers: np.ndarray,
                      rows: np.ndarray, p: int) -> None:
    """target -= multipliers @ rows mod p, in place, for residues in [0, p).

    Only the target rows with a nonzero multiplier and the columns where
    some row is nonzero are touched.  The rows are taken in blocks of about
    ``PRODUCT_BLOCK_BYTES`` of float64 at the touched width (151 rows for E
    at n=7), so each temporary, the gathered block and its products, stays
    near that size however tall the target is.
    """
    active = np.flatnonzero(multipliers.any(axis=1))
    used = np.flatnonzero(rows.any(axis=0))
    rows = rows[:, used].astype(np.float64)   # converted once for every block
    height = max(1, PRODUCT_BLOCK_BYTES // (8 * max(used.size, 1)))
    for start in range(0, active.size, height):
        some = active[start:start + height]
        idx = np.ix_(some, used)
        # the product first: its temporaries are gone before the gather
        product = _matmul_mod_p(multipliers[some], rows, p)
        block = target[idx]
        block -= product
        del product
        _reduce(block, p)
        target[idx] = block


def _factor_panel(panel: np.ndarray, p: int):
    """Unblocked elimination mod p of a panel of columns, in place.

    Rows are swapped when a pivot needs it, each pivot row is scaled to a
    leading 1, and the rows below it are cleared right of the pivot.  As in
    LAPACK's getrf, the pivot column below each pivot keeps the multipliers
    it cleared with (the L factor).  Returns the panel's rows in their new
    order, the pivot columns and the pivots' inverses.
    """
    height, width = panel.shape
    order = np.arange(height)
    local: list[int] = []
    inverses: list[int] = []
    r = 0
    for c in range(width):
        if r == height:
            break
        nz = np.nonzero(panel[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            panel[[r, pr]] = panel[[pr, r]]
            order[[r, pr]] = order[[pr, r]]
        inv = pow(int(panel[r, c]), -1, p)
        panel[r, c:] = (panel[r, c:] * inv) % p
        _rank_one_update(panel[r + 1:, c + 1:], panel[r + 1:, c], panel[r, c + 1:], p)
        local.append(c)
        inverses.append(inv)
        r += 1
    return order, local, inverses


def _echelonize_mod_p(matrix: np.ndarray, p: int):
    """Row-reduce an integer matrix mod p, on a reduced int64 copy.

    Returns (rank, pivot columns, echelon rows): each echelon row has a
    leading 1 at its pivot column and zeros in earlier columns.  The rows
    are a view of the reduced copy; a caller that keeps them copies them.

    The elimination is right-looking and blocked, ``PANEL`` columns at a
    time.  ``_factor_panel`` picks the panel's pivots on a copy of its
    remaining rows, and the whole matrix takes the panel's row order once.
    Forward substitution carries the k <= PANEL pivots to the new pivot
    rows' trailing columns, and one ``_subtract_product`` clears the panel
    from the rows below.  The pivots, rows and row swaps are those of the
    unblocked loop, column by column; only when each update lands differs.
    """
    # widened once into row-major order, then reduced in place: a narrow
    # input reduced directly would hold a second full-size int64 array, its
    # cast (Python integers, which may not fit int64, are reduced first)
    m = np.array(np.mod(matrix, p) if matrix.dtype == object else matrix,
                 dtype=np.int64, order="C")
    np.mod(m, p, out=m)
    rows, cols = m.shape
    r = 0
    pivots: list[int] = []
    for c0 in range(0, cols, PANEL):
        if r == rows:
            break
        c1 = min(c0 + PANEL, cols)
        panel = m[r:, c0:c1].copy()
        order, local, inverses = _factor_panel(panel, p)
        k = len(local)
        if k == 0:
            continue
        moved = np.flatnonzero(order != np.arange(order.size))
        m[r + moved] = m[r + order[moved]]
        upper = m[r:r + k, c1:]
        for j, (c, inv) in enumerate(zip(local, inverses)):
            upper[j] = (upper[j] * inv) % p
            _rank_one_update(upper[j + 1:], panel[j + 1:k, c], upper[j], p)
        _subtract_product(m[r + k:, c1:], panel[k:, local], upper, p)
        # the pivot rows: zeros before each pivot, the multipliers dropped
        head = panel[:k]
        head[np.arange(c1 - c0) < np.array(local)[:, None]] = 0
        m[r:r + k, :c0] = 0
        m[r:r + k, c0:c1] = head
        pivots += [c0 + c for c in local]
        r += k
    return r, pivots, m[:r]


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    rank, _, _ = _echelonize_mod_p(matrix, p)
    return rank


def rank_consensus(matrix: np.ndarray, column_dimension: int | None = None) -> RankReport:
    """Rank of an integer matrix by modular consensus: a vote, not a proof.

    If the primes of PRIME_POOL disagree the report is marked inconclusive
    (the ranks are deterministic, so more primes could not settle a split).
    No proven rank calls it: it is the independent reference that tests
    compare proofs against, and the benchmark tracer wraps it by name.
    """
    rows, cols = matrix.shape
    report = RankReport(row_count=rows,
                        column_dimension=column_dimension if column_dimension is not None else cols)
    if rows == 0:
        report.consensus_rank = 0
        return report
    report.ranks = [(p, rank_mod_p(matrix, p)) for p in PRIME_POOL]
    ranks = {rank for _, rank in report.ranks}
    if len(ranks) == 1:
        report.consensus_rank = ranks.pop()
    else:
        report.status = "inconclusive"
    return report


# ---------------------------------------------------------------------------
# lifted kernels


@dataclass(frozen=True)
class ProvenEquations:
    """Integer equations the caller has proven to vanish on every point of
    a set, with their echelon form mod ``prime`` and its ascending pivot
    columns (eliminated here unless given), the echelon kept as int32: every
    residue is below 2**31.  ``kind`` names them in a certificate that
    needs no equation beyond them: "affine-hull equations" or "proper
    face".

    Equations added by ``with_equation`` keep the equations and the
    echelon form they grew from by reference, so a proper face shares E and
    its cached echelon: each added row joins ``added`` as a one-row array
    beside ``equations``.  An added row that is independent mod p joins
    ``beyond`` as a (row, pivot) pair, reduced by every echelon row before
    it, so zero at all their pivots.  Sorted by pivot, ``echelon`` and
    ``beyond`` are one echelon form, unit triangular at ``held``, of rank
    ``rank``.
    """

    equations: np.ndarray
    prime: int
    kind: str = "affine-hull equations"
    echelon: np.ndarray | None = None
    pivots: np.ndarray | None = None
    beyond: tuple[tuple[np.ndarray, int], ...] = ()
    added: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if self.echelon is None:
            _, pivots, echelon = _echelonize_mod_p(self.equations, self.prime)
            object.__setattr__(self, "echelon", echelon.astype(np.int32))
            object.__setattr__(self, "pivots", np.array(pivots, dtype=np.intp))

    @property
    def rank(self) -> int:
        return len(self.echelon) + len(self.beyond)

    @property
    def row_count(self) -> int:
        """Every equation's: ``equations`` and the rows added to them."""
        return len(self.equations) + len(self.added)

    @property
    def held(self) -> np.ndarray:
        """Every pivot column, ``pivots`` and then those of ``beyond``."""
        return np.concatenate([self.pivots, [c for _, c in self.beyond]]).astype(np.intp)

    def remainder(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` mod p less the combination of the echelon rows that
        clears every pivot column.  The echelon rows go in ascending pivot
        order, since a later one is zero at every earlier pivot, and then
        ``beyond`` in the order added, each zero at every pivot before it;
        the combination is unique, so this is the remainder of the sorted
        echelon form."""
        p = self.prime
        left = np.mod(rows, np.int64(p))
        for pairs in (zip(self.echelon, self.pivots), self.beyond):
            for row, c in pairs:
                _rank_one_update(left, left[:, c].copy(), row, p)
        return left

    def with_equation(self, row: np.ndarray, kind: str) -> ProvenEquations:
        """These equations and one more integer ``row``, which the caller has
        proven to vanish on every point of its set.  What is left of the row
        after reducing it by the echelon form, scaled to a leading 1, joins
        ``beyond``; the equations and echelon form held are shared, not
        copied."""
        p = self.prime
        left = self.remainder(row[None])[0]
        beyond = self.beyond
        if left.any():
            lead = int(np.flatnonzero(left)[0])
            reduced = (left * pow(int(left[lead]), -1, p) % p).astype(np.int32)
            beyond += ((reduced, lead),)
        # the row in the narrowest type that holds it, so int8 equations stay narrow
        narrow = row.astype(np.min_scalar_type(-_magnitude(row) - 1))
        return ProvenEquations(self.equations, p, kind, self.echelon, self.pivots, beyond,
                               self.added + (narrow[None],))


def _magnitude(matrix: np.ndarray) -> int:
    """Largest absolute entry, as a Python int (no int8 wrap-around)."""
    return max(int(matrix.max(initial=0)), -int(matrix.min(initial=0)))


def _kernel_mod_p(pivots: list[int], echelon: np.ndarray, free: np.ndarray, p: int):
    """Kernel vectors mod p of the echelon rows' span, one per column of
    ``free`` (columns that are not ``pivots``): 1 there, 0 at every other
    column that is not a pivot.

    Back-substitution brings those columns of the rows to reduced
    row-echelon form: it solves U·X = F, where U, the pivot part, is unit
    upper triangular and F is the ``free`` part.  It runs ``PANEL`` pivots
    at a time from the last: the block's rows are solved among themselves,
    one pivot at a time, and one ``_subtract_product`` clears the block's
    pivot columns from every row above it.  Clearing pivot column i leaves
    the columns j < i of the rows above as they are, so U is read from the
    echelon rows throughout.
    """
    cols = echelon.shape[1]
    upper = echelon[:, pivots]
    solved = echelon[:, free].copy()
    # row i is zero at the columns before its pivot
    starts = np.searchsorted(free, pivots)
    for b0 in range((len(pivots) - 1) // PANEL * PANEL, -1, -PANEL):
        b1 = min(b0 + PANEL, len(pivots))
        for i in range(b1 - 1, b0, -1):
            s = starts[i]
            _rank_one_update(solved[b0:i, s:], upper[b0:i, i], solved[i, s:], p)
        s = starts[b0]
        _subtract_product(solved[:b0, s:], upper[:b0, b0:b1], solved[b0:b1, s:], p)
    kernel = np.zeros((free.size, cols), dtype=np.int64)
    kernel[np.arange(free.size), free] = 1
    kernel[:, pivots] = (p - solved.T) % p
    return kernel


def _rational_reconstruction(residues: np.ndarray, p: int):
    """The fractions n/d with |n|, d <= sqrt(p/2) and n = residue·d mod p,
    one per residue (Wang, SYMSAC 1981; von zur Gathen and Gerhard, Modern
    Computer Algebra, §5.10), as (numerators, denominators); None when
    some residue has none.  The extended Euclidean remainder sequence of
    (p, residue) runs for all residues at once."""
    bound = math.isqrt(p // 2)
    r0, r1 = np.full_like(residues, p), residues.copy()
    t0, t1 = np.zeros_like(residues), np.ones_like(residues)
    active = np.flatnonzero(r1 > bound)
    while active.size:
        q = r0[active] // r1[active]
        r0[active], r1[active] = r1[active], r0[active] - q * r1[active]
        t0[active], t1[active] = t1[active], t0[active] - q * t1[active]
        active = active[r1[active] > bound]
    if (np.abs(t1) > bound).any():
        return None
    sign = np.sign(t1)
    return r1 * sign, t1 * sign


def _lift(kernel: np.ndarray, p: int, limit: int) -> np.ndarray | None:
    """Integer rows, each a multiple of its kernel row mod p, with every
    entry below ``limit`` in magnitude; None when no such lift is found.

    Each residue is lifted to (-p/2, p/2]; where that is not small a
    fraction is reconstructed, and each row is scaled by the lcm of its
    denominators."""
    lifted = np.where(kernel > p // 2, kernel - p, kernel)
    large = np.abs(lifted) > math.isqrt(p // 2)
    if not large.any():
        return lifted if np.abs(lifted).max(initial=0) < limit else None
    fractions = _rational_reconstruction(kernel[large], p)
    if fractions is None:
        return None
    numerators, denominators = lifted.copy(), np.ones_like(lifted)
    numerators[large], denominators[large] = fractions
    for r in np.flatnonzero((denominators > 1).any(axis=1)):
        lcm = math.lcm(*set(denominators[r].tolist()))
        if lcm >= limit:
            return None
        scale = lcm // denominators[r]
        if (np.abs(numerators[r]) * scale.astype(np.float64)).max() >= limit:
            return None
        numerators[r] *= scale
    return numerators if np.abs(numerators).max(initial=0) < limit else None


def lifted_kernel(points, known: ProvenEquations):
    """Integer equations beyond ``known`` that, with them, cut out the span
    of ``points`` over Q, and the certificate of its rank; None when no
    proof passes.  ``points`` has a ``shape`` (count, columns), gives
    integer rows by ``points[positions]`` (asked only for the subset) and
    ``points.missed(equations)``, the positions of the points on which
    some integer equation is nonzero, exactly.

    The known equations leave the points a rank of at most columns -
    rank_p(known), the number of columns ``unheld`` where their echelon
    form has no pivot, so one seeded draw of that many points and
    ``KERNEL_MARGIN`` more (all of them, if fewer) is eliminated once mod p,
    at the unheld columns only.  Every point satisfies the known equations,
    so its residues at their pivot columns follow from the unheld ones, and
    a rank mod p of fewer columns is still at most the rank over Q.  The
    subset's kernel has one row per free unheld column, 1 there and 0 at
    the other free columns; embedded with zeros at the pivot columns of
    the known equations, these rows are the extras.  Only the extras are
    lifted to integers and checked on every point; for up to
    ``KERNEL_ROUNDS`` rounds the points they miss join the subset and the
    extras are lifted again.

    The proof: the known equations and the extras vanish exactly on every
    point, so the points' rank over Q is at most columns - rank_Q(known ∪
    extras) <= columns - rank_p(known ∪ extras), taken on the lifted rows;
    the subset's rank mod p at the unheld columns, columns - free columns
    - rank_p(known), is at most the points' rank over Q and reaches that
    bound.  The extras are checked to be exactly zero at the known pivots,
    where the known echelon form is unit triangular, so rank_p(known ∪
    extras) is rank_p(known) plus the extras' rank mod p at the unheld
    columns.  The certificate takes the known equations' ``kind`` when no
    extra is lifted, else "lifted kernel".
    """
    count, cols = points.shape
    p = known.prime
    limit = FLOAT_EXACT // max(cols, 1)
    held = known.held
    unheld = np.delete(np.arange(cols), held)
    taken = min(count, unheld.size + KERNEL_MARGIN)
    drawn = np.sort(np.random.default_rng(KERNEL_SEED).permutation(count)[:taken])
    _, pivots, echelon = _echelonize_mod_p(points[drawn][:, unheld], p)
    for _ in range(KERNEL_ROUNDS):
        free = np.delete(np.arange(unheld.size), pivots)
        extras = np.zeros((0, cols), dtype=np.int64)
        if free.size:   # else the known equations fill the kernel
            kernel = np.zeros((free.size, cols), dtype=np.int64)
            kernel[:, unheld] = _kernel_mod_p(pivots, echelon, free, p)
            extras = _lift(kernel, p, limit)
            if extras is None:
                return None
            missed = points.missed(extras)
            if missed.size:
                # a missed point lies outside the subset's span, so it adds rank
                missed = missed[:2 * KERNEL_MARGIN]
                _, pivots, echelon = _echelonize_mod_p(
                    np.vstack([echelon, points[missed][:, unheld]]), p)
                taken += missed.size
                continue
        # zero at the known pivots, the extras are independent of the known
        # echelon form, which is unit triangular there
        if extras[:, held].any():
            return None
        rank = known.rank + rank_mod_p(extras[:, unheld], p)
        if rank != cols - len(pivots):
            return None
        return extras, RankCertificate(
            kind="lifted kernel" if len(extras) else known.kind, columns=cols, prime=p,
            subset_rows=taken, equation_rows=known.row_count + len(extras),
            equation_rank=rank)
    return None


class ModularSpanBasis:
    """Membership in the span of fixed generators, decided for many vectors.

    The known equations and the extras of ``lifted_kernel(generators,
    known)`` cut out the generators' span over Q, so ``contains`` checks
    them on the vectors, and ``certificate`` records the proof.  Generators
    whose lift does not pass are refused as unproven.

    The known equations are held by reference (for the hull equations, the
    cached read-only int8 E, and any rows added to them), beside the int64
    extras; no float64 copy is kept, only each ``MEMBERSHIP_BLOCK`` of rows'
    largest magnitude.
    """

    def __init__(self, generators, known: ProvenEquations):
        lifted = lifted_kernel(generators, known)
        if lifted is None:
            raise QappolyError(
                f"unproven: no lifted kernel of the {generators.shape[0]} span "
                f"generators passes at p = {known.prime}")
        self.extras, self.certificate = lifted
        self.equations, self.added = known.equations, known.added
        self.largest = [_magnitude(block) for block in self._blocks()]

    def _blocks(self):
        """The known equations, then the rows added to them and the extras,
        ``MEMBERSHIP_BLOCK`` rows at a time, as views."""
        for part in (self.equations, *self.added, self.extras):
            for start in range(0, len(part), MEMBERSHIP_BLOCK):
                yield part[start:start + MEMBERSHIP_BLOCK]

    def contains(self, vectors: np.ndarray) -> np.ndarray:
        """Whether every equation vanishes exactly on each row of
        ``vectors``, i.e. it lies in the span: one bool per row.

        The products go ``MEMBERSHIP_BLOCK`` equation rows by as many
        targets at a time, in float64 where the block's largest equation
        entry times its largest target entry times the columns is below
        2**53, which keeps every sum exact, and in Python integers where it
        is not."""
        vectors = np.asarray(vectors)
        columns = self.equations.shape[1]
        if vectors.ndim != 2 or vectors.shape[1] != columns:
            raise QappolyError(f"targets have shape {vectors.shape}, expected "
                               f"(count, {columns})")
        member = np.ones(len(vectors), dtype=bool)
        for start in range(0, len(vectors), MEMBERSHIP_BLOCK):
            targets = vectors[start:start + MEMBERSHIP_BLOCK]
            largest = _magnitude(targets)
            as_float = as_int = None
            for block, size in zip(self._blocks(), self.largest):
                if size * largest * columns < FLOAT_EXACT:
                    if as_float is None:
                        as_float = targets.T.astype(np.float64)
                    products = block.astype(np.float64) @ as_float
                else:
                    if as_int is None:
                        as_int = targets.T.astype(object)
                    products = block.astype(object) @ as_int
                member[start:start + len(targets)] &= ~(products != 0).any(axis=0)
        return member


def _cleared(block: np.ndarray, top: np.ndarray) -> np.ndarray:
    """``block``'s rows less multiples of ``top`` that clear their first
    column, each divided by its content: row <- (a·row - b·top) / gcd,
    where a is top's first entry and b the row's.  The rows keep their span
    over Q with ``top``, since a is nonzero.  int64 while |a|·max|block| +
    max|b|·max|top| < 2**63 bounds every entry on the way, else Python
    integers (an object array)."""
    a = int(top[0])
    if block.dtype != object and (abs(a) * _magnitude(block)
                                  + _magnitude(block[:, 0]) * _magnitude(top) >= 2 ** 63):
        block, top = block.astype(object), top.astype(object)
    rows = a * block - block[:, :1] * top
    content = np.gcd.reduce(rows, axis=1)
    content[content == 0] = 1
    return rows // content[:, None]


def rank_exact_rational(matrix: np.ndarray) -> int:
    """Certification path: exact rank over Q by integer elimination with
    content removal.

    Each pivot clears its column from only the rows below that are nonzero
    there, ``EQUATION_CHECK_ROWS`` rows at a time, and divides each updated
    row by its content (``_cleared``), which keeps the entries small.  The
    work is int64 while a bound on the next update fits and Python integers
    from the first update that could overflow; an object-valued input
    starts as Python integers.
    """
    work = np.asarray(matrix)
    work = work[work.any(axis=1)].astype(object if work.dtype == object else np.int64)
    rows, cols = work.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(work[rank:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            work[[rank, rank + nz[0]]] = work[[rank + nz[0], rank]]
        below = rank + nz[1:]
        for start in range(0, below.size, EQUATION_CHECK_ROWS):
            some = below[start:start + EQUATION_CHECK_ROWS]
            # columns before c are already zero below the pivot row
            cleared = _cleared(work[some, c:], work[rank, c:])
            if cleared.dtype != work.dtype:
                work = work.astype(object)
            work[some, c:] = cleared
        rank += 1
    return rank
