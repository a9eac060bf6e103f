"""The five families of valid inequalities and their exact evaluation.

Every inequality is stored once, denominator-cleared, as the 0-based
``indexing.triangle_position`` of each entry of Y (``positions``), the exact
integer coefficient of each (``coeffs``), an integer ``rhs`` and a positive
``scale``: the true inequality is ``(coeffs . Y[positions] <=/>= rhs) / scale``.
An entry is an unordered pair of flat indices (the "i < k" orientation in the
usual presentation is normalized away; Y is symmetric).

Family quick reference (true, unscaled versions):

  qap1:  sum_r Y[i_r j_r, kl] - Y[kl, kl] - sum_{r<s} Y[i_r j_r, i_s j_s] <= 0
         (i_1..i_m, k distinct; j_1..j_m, l distinct; n >= 6, m >= 3)
  qap2:  (b-1) sum_{P x Q} Y[ij,ij] - sum_{i<k in P x Q} Y[ij,kl] <= (b^2-b)/2
  qap3:  -(b-1) sum_{P1 x Q} Y[ij,ij] + b sum_{P2 x Q} Y[ij,ij]
         + sum_{i<k in P1 x Q} + sum_{i<k in P2 x Q} - sum_{cross} >= (b-b^2)/2
  qap4:  sum_r Y[i_r j_r, i_r j_r] - sum_{r<s} Y[i_r j_r, i_s j_s] <= 1
         (m, n >= 7)
  qap5:  sum n_ij n_kl Y[ij,kl] - (2b-1) sum n_ij Y[ij,ij] >= b - b^2
         (the most general family; qap1-qap4 are special cases)

The closed-form slack of each family at a vertex is a polynomial in the
number of matched index pairs; ``slack_counts`` holds each family's count
cells and ``slack_from_counts`` those formulas, with the convention
binom2(x) = x(x-1)/2 for any integer x.  ``closed_form_slack`` runs them on
a batch of vertices at once: the counts, like every sparse form on all
vertices, are read from the 0/1 match matrix ``zt`` by
``entries_on_match_rows`` alone.

The enumeration order of qap1-qap4 is written once, by ``family_segments``,
as runs of forms whose index sets have fixed sizes, and their forms once,
by each run's layout (see ``Segment``).  The builders, enumeration,
``family_form_at`` and the compiled membership sweeps in ``reductions`` all
read those.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import logging
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, QappolyError
from .indexing import (
    EntryKey,
    Pair,
    canon_entry,
    flat_index,
    pair_from_flat,
    triangle_dimension,
    triangle_entries,
    triangle_position,
)
from .perms import DEFAULT_ENUMERATION_CAP, require_enumerable

log = logging.getLogger(__name__)

FAMILIES = ("qap1", "qap2", "qap3", "qap4", "qap5")
MEMBERSHIP_FAMILIES = ("qap1", "qap2", "qap3", "qap4")


def binom2(x: int) -> int:
    """x(x-1)/2 for any integer x (so binom2(-1) == 1, binom2(0) == 0)."""
    return x * (x - 1) // 2


# ---------------------------------------------------------------------------
# points


# Largest magnitude an int64 holds; a point's scaled values and denominator
# must stay within it.
INT64_MAX = int(np.iinfo(np.int64).max)


def _position(n: int, f1: int, f2: int) -> int:
    """Triangle position of the entry (f1, f2), in either order, checked."""
    f1, f2 = canon_entry(f1, f2)
    if not 1 <= f1 <= f2 <= n * n:
        raise DimensionMismatchError(f"entry ({f1},{f2}) out of range for n={n}")
    return triangle_position(n, f1, f2)


class YPoint:
    """An arbitrary symmetric rational test point, stored as one exact
    integer vector over the triangular coordinate space.

    Y[f1, f2] is ``vector[triangle_position(n, f1, f2)] / denom``: ``vector``
    is a read-only int64 array, ``denom`` a positive integer, and the two
    are reduced by their gcd, so ``denom`` is the lcm of the values'
    denominators.  Symmetry is structural: there is only one slot per
    unordered pair.

    ``YPoint(n, values)`` takes a mapping from entry keys (f1 <= f2) to
    rationals, missing keys being zero, and ``values`` gives that mapping
    back; ``from_scaled_vector`` takes an integer vector and a denominator
    directly.  A scaled value or denominator past INT64_MAX is refused with
    a QappolyError.
    """

    def __init__(self, n: int, values: Mapping[EntryKey, Fraction | int],
                 provenance: dict | str | None = None):
        fractions = {_position(n, f1, f2): Fraction(v) for (f1, f2), v in values.items()}
        denom = math.lcm(*(v.denominator for v in fractions.values()))
        scaled = [0] * triangle_dimension(n)
        for position, value in fractions.items():
            scaled[position] = int(value * denom)
        if max(map(abs, scaled), default=0) > INT64_MAX:
            raise QappolyError(f"a scaled value of the point passes {INT64_MAX}")
        self._store(n, np.array(scaled, dtype=np.int64), denom, provenance)

    @classmethod
    def from_scaled_vector(cls, n: int, vector: np.ndarray, denom: int,
                           provenance: dict | str | None = None) -> "YPoint":
        """The point ``vector / denom``, for an integer vector over the
        triangular coordinate space and a positive integer ``denom``."""
        point = cls.__new__(cls)
        point._store(n, np.array(vector, dtype=np.int64), denom, provenance)
        return point

    def _store(self, n: int, vector: np.ndarray, denom: int, provenance) -> None:
        if vector.shape != (triangle_dimension(n),):
            raise DimensionMismatchError(
                f"a point at n={n} has {triangle_dimension(n)} entries, got shape {vector.shape}")
        if not 0 < denom <= INT64_MAX:
            raise QappolyError(f"the point's denominator {denom} is not in 1..{INT64_MAX}")
        common = math.gcd(int(np.gcd.reduce(vector)), denom)
        if common > 1:
            vector //= common
            denom //= common
        vector.flags.writeable = False
        self.n, self.vector, self.denom, self.provenance = n, vector, int(denom), provenance

    @classmethod
    def zero(cls, n: int) -> "YPoint":
        return cls.from_scaled_vector(n, np.zeros(triangle_dimension(n), dtype=np.int64), 1,
                                      provenance="zero point")

    @property
    def values(self) -> dict[EntryKey, Fraction]:
        """Every nonzero entry as key (f1, f2) -> exact value, in triangle order."""
        entry_at = triangle_entries(self.n)
        nonzero = np.flatnonzero(self.vector)
        return {entry_at[p]: Fraction(v, self.denom)
                for p, v in zip(nonzero.tolist(), self.vector[nonzero].tolist())}

    def get_flat(self, f1: int, f2: int) -> Fraction:
        return Fraction(int(self.vector[_position(self.n, f1, f2)]), self.denom)

    def get(self, i: int, j: int, k: int, l: int) -> Fraction:
        return self.get_flat(flat_index(self.n, i, j), flat_index(self.n, k, l))

    def to_scaled_vector(self) -> tuple[np.ndarray, int]:
        """(vector, denom): the stored read-only int64 vector over the
        triangular coordinate space, with vector[pos] == denom * value, and
        the lcm of the values' denominators."""
        return self.vector, self.denom

    def to_json(self) -> str:
        def frac(v: Fraction) -> str:
            return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)

        entries = [
            [list(pair_from_flat(self.n, f1)), list(pair_from_flat(self.n, f2)), frac(v)]
            for (f1, f2), v in self.values.items()
        ]
        return json.dumps({"n": self.n, "entries": entries,
                           "provenance": self.provenance}, sort_keys=True)


# ---------------------------------------------------------------------------
# linear forms


@dataclass
class LinearForm:
    """One denominator-cleared inequality over symmetric points."""

    n: int
    positions: tuple[int, ...]      # triangle position of each entry
    coeffs: tuple[int, ...]         # exact coefficient of each entry
    rhs: int
    sense: str                      # "<=" or ">="
    scale: int = 1
    family: str | None = None
    params: "object | None" = None

    def __post_init__(self):
        if self.sense not in ("<=", ">="):
            raise InvalidParameterError(f"sense must be <= or >=, got {self.sense!r}")
        if self.scale <= 0:
            raise InvalidParameterError("scale must be a positive integer")

    def entries(self) -> list[tuple[int, int, int]]:
        """(f1, f2, coefficient) of each stored entry; f1 == f2 on the diagonal."""
        entry_at = triangle_entries(self.n)
        return [entry_at[p] + (c,) for p, c in zip(self.positions, self.coeffs)]

    def scaled_slack_on_match_rows(self, zt: np.ndarray) -> np.ndarray:
        """Scaled int64 slack at every vertex of the 0/1 match matrix ``zt``."""
        lhs = entries_on_match_rows(zt, self.entries()).astype(np.int64)
        return self.rhs - lhs if self.sense == "<=" else lhs - self.rhs

    def to_json(self) -> str:
        n = self.n
        entries = sorted(self.entries())
        return json.dumps({
            "family": self.family,
            "params": repr(self.params) if self.params is not None else None,
            "diag": [[list(pair_from_flat(n, f1)), c] for f1, f2, c in entries if f1 == f2],
            "offdiag": [[list(pair_from_flat(n, f1)), list(pair_from_flat(n, f2)), c]
                        for f1, f2, c in entries if f1 != f2],
            "rhs": self.rhs,
            "sense": self.sense,
            "scale": self.scale,
            "n": n,
        }, sort_keys=True)


def match_matrix(images) -> np.ndarray:
    """The int8 0/1 match matrix ``zt`` of one-line images, one vertex per
    column: row flat_index(n, i, j) - 1 holds 1 where the image sends i to j."""
    images = np.asarray(images, dtype=np.int8)
    n = images.shape[1]
    cells = images.T[:, None] == np.arange(1, n + 1, dtype=np.int8)[:, None]
    return cells.reshape(n * n, len(images)).view(np.int8)


def entries_on_match_rows(zt: np.ndarray, entries) -> np.ndarray:
    """The exact sum of c * Y[f1, f2] over (f1, f2, c) ``entries``, 1-based
    flat indices, at every vertex: Y[f, f] is row f-1 of the 0/1 match
    matrix ``zt``, Y[f1, f2] the product of two rows, and a +-1 coefficient
    adds with no multiply.  The sum of |c| bounds every partial sum, so the
    sums run, and are returned, in int16 when it is at most 2**15 - 1 and in
    int64 otherwise; past INT64_MAX they are refused.
    """
    entries = list(entries)
    bound = sum(abs(c) for _, _, c in entries)
    if bound > INT64_MAX:
        raise QappolyError(f"the |coefficients| sum to {bound}, past {INT64_MAX}")
    dtype = np.int16 if bound <= np.iinfo(np.int16).max else np.int64
    acc = np.zeros(zt.shape[1], dtype=dtype)
    for f1, f2, c in entries:
        hit = zt[f1 - 1] if f1 == f2 else zt[f1 - 1] * zt[f2 - 1]
        if c == 1:
            acc += hit
        elif c == -1:
            acc -= hit
        else:
            acc += c * hit.astype(dtype)
    return acc


@dataclass
class EvaluationResult:
    lhs: Fraction   # scaled lhs, exact
    rhs: int        # scaled rhs
    scale: int
    sense: str
    satisfied: bool

    @property
    def slack(self) -> Fraction:
        num = self.rhs - self.lhs if self.sense == "<=" else self.lhs - self.rhs
        return Fraction(num, self.scale)


def evaluate(form: LinearForm, point: YPoint) -> EvaluationResult:
    """Exact evaluation of a form at an arbitrary point.

    Each coefficient applies once per unordered pair against the symmetric
    value Y[ij, kl] (== Y[kl, ij]).
    """
    if point.n != form.n:
        raise DimensionMismatchError(f"form n={form.n} vs point n={point.n}")
    vector = point.vector
    lhs = Fraction(sum(c * int(vector[p]) for p, c in zip(form.positions, form.coeffs)),
                   point.denom)
    ok = lhs <= form.rhs if form.sense == "<=" else lhs >= form.rhs
    return EvaluationResult(lhs=lhs, rhs=form.rhs, scale=form.scale,
                            sense=form.sense, satisfied=ok)


# ---------------------------------------------------------------------------
# family parameters


def _require(cond: bool, name: str):
    if not cond:
        raise InvalidParameterError(f"violated condition: {name}")


def _in_range(indices, n: int, what: str):
    _require(all(1 <= v <= n for v in indices), f"{what} must lie in [1,{n}]")


@dataclass(frozen=True)
class Qap1Params:
    n: int
    i_set: tuple[int, ...]
    j_set: tuple[int, ...]
    k: int
    l: int

    @property
    def m(self) -> int:
        return len(self.i_set)

    def validate(self):
        _require(self.n >= 6, "n >= 6")
        _require(len(self.i_set) == len(self.j_set), "i-set and j-set have equal length")
        _require(self.m >= 3, "m >= 3")
        _in_range(self.i_set + (self.k,), self.n, "row indices")
        _in_range(self.j_set + (self.l,), self.n, "column indices")
        _require(len(set(self.i_set) | {self.k}) == self.m + 1,
                 "i_1..i_m, k all distinct")
        _require(len(set(self.j_set) | {self.l}) == self.m + 1,
                 "j_1..j_m, l all distinct")


@dataclass(frozen=True)
class Qap2Params:
    n: int
    p_set: frozenset[int]
    q_set: frozenset[int]
    beta: int

    def __init__(self, n, p_set, q_set, beta):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p_set", frozenset(p_set))
        object.__setattr__(self, "q_set", frozenset(q_set))
        object.__setattr__(self, "beta", beta)

    def validate(self):
        _in_range(self.p_set, self.n, "P")
        _in_range(self.q_set, self.n, "Q")
        _require(self.beta >= 2, "beta >= 2")
        _require(self.beta + 1 <= len(self.p_set) <= self.n - 3,
                 "beta+1 <= |P| <= n-3")
        _require(self.beta + 1 <= len(self.q_set) <= self.n - 3,
                 "beta+1 <= |Q| <= n-3")
        _require(len(self.p_set) + len(self.q_set) <= self.n - 3 + self.beta,
                 "|P|+|Q| <= n-3+beta")


@dataclass(frozen=True)
class Qap3Params:
    n: int
    p1_set: frozenset[int]
    p2_set: frozenset[int]
    q_set: frozenset[int]
    beta: int

    def __init__(self, n, p1_set, p2_set, q_set, beta):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p1_set", frozenset(p1_set))
        object.__setattr__(self, "p2_set", frozenset(p2_set))
        object.__setattr__(self, "q_set", frozenset(q_set))
        object.__setattr__(self, "beta", beta)

    def condition_vi_branches(self) -> tuple[str, ...]:
        """Which reading(s) of condition (vi) admit this parameter set.

        The condition's "or" scoping is ambiguous in its usual statement;
        it is implemented exactly as written and the admitting branch is
        recorded for auditability.
        """
        q, b = len(self.q_set), self.beta
        if len(self.p2_set) == 1:
            return ("p2=1",) if q >= min(-b + 5, b + 2) else ()
        branches = []
        if q >= min(-b + 5, b + 3):
            branches.append("p2>=2 first disjunct")
        if q >= min(-b + 4, b + 4):
            branches.append("p2>=2 second disjunct")
        return tuple(branches)

    def validate(self):
        n, b = self.n, self.beta
        p1, p2, q = len(self.p1_set), len(self.p2_set), len(self.q_set)
        _in_range(self.p1_set | self.p2_set, n, "P1, P2")
        _in_range(self.q_set, n, "Q")
        _require(not (self.p1_set & self.p2_set), "P1 and P2 disjoint")
        # condition (vi) splits on |P2| = 1 vs |P2| >= 2 and is undefined for
        # an empty block, so empty P1/P2 are treated as out of family
        _require(p1 >= 1, "P1 nonempty")
        _require(p2 >= 1, "P2 nonempty")
        _require(3 <= q <= n - 3, "3 <= |Q| <= n-3")
        _require(p1 + p2 <= n - 3, "|P1|+|P2| <= n-3")
        _require(p1 >= min(2, b + 1), "|P1| >= min{2, beta+1}")
        _require(p2 >= min(1, -b + 2), "|P2| >= min{1, -beta+2}")
        _require(abs(p1 - p2 - b) <= n - q - 4, "| |P1|-|P2|-beta | <= n-|Q|-4")
        branches = self.condition_vi_branches()
        _require(bool(branches), "|Q| lower bound (condition vi)")
        log.debug("qap3 condition (vi) admitted by %s for %r", branches, self)


@dataclass(frozen=True)
class Qap4Params:
    n: int
    i_set: tuple[int, ...]
    j_set: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.i_set)

    def validate(self):
        _require(self.n >= 7, "n >= 7")
        _require(len(self.i_set) == len(self.j_set), "i-set and j-set have equal length")
        _require(self.m >= 7, "m >= 7")
        _in_range(self.i_set, self.n, "row indices")
        _in_range(self.j_set, self.n, "column indices")
        _require(len(set(self.i_set)) == self.m, "i_1..i_m all distinct")
        _require(len(set(self.j_set)) == self.m, "j_1..j_m all distinct")


@dataclass(frozen=True)
class Qap5Params:
    n: int
    beta: int
    coeffs: tuple[tuple[Pair, int], ...]  # sparse (i, j) -> n_ij, zeros omitted

    def __init__(self, n, beta, coeffs):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "beta", beta)
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        cleaned = tuple(sorted(((i, j), int(v)) for (i, j), v in items if v != 0))
        object.__setattr__(self, "coeffs", cleaned)

    def coeff_map(self) -> dict[Pair, int]:
        return dict(self.coeffs)

    def validate(self):
        _in_range([i for (i, _), _ in self.coeffs], self.n, "coefficient rows")
        _in_range([j for (_, j), _ in self.coeffs], self.n, "coefficient columns")
        _require(len(set(p for p, _ in self.coeffs)) == len(self.coeffs),
                 "one coefficient per position")


# ---------------------------------------------------------------------------
# builders


def _one_row(values) -> np.ndarray:
    """An index set as a one-row int64 table, as the runs' cell code reads it."""
    return np.array([values], dtype=np.int64)


# qap1-qap4 forms are built by their runs' layouts (``Segment.form``).


def build_qap1(params: Qap1Params, check: bool = True) -> LinearForm:
    if check:
        params.validate()
    run = _Qap1Run(params.n, params.k, params.l, params.m)
    return run.form(params, _one_row(params.i_set), _one_row(params.j_set))


def build_qap2(params: Qap2Params, check: bool = True) -> LinearForm:
    if check:
        params.validate()
    p_set, q_set = _one_row(sorted(params.p_set)), _one_row(sorted(params.q_set))
    return _Qap2Run(params.n, params.beta, p_set.size, q_set.size).form(params, p_set, q_set)


def build_qap3(params: Qap3Params, check: bool = True) -> LinearForm:
    """Build a qap3 form, denominator-cleared by 2.

    The scaled right-hand side is beta - beta**2 (the sign that the slack
    formula and the qap5 specialization with n_ij = +/-1 both produce; the
    opposite sign would be violated by every vertex with no matched pairs).
    """
    if check:
        params.validate()
    p1_set, p2_set = _one_row(sorted(params.p1_set)), _one_row(sorted(params.p2_set))
    run = _Qap3Run(params.n, tuple(sorted(params.q_set)), p1_set.size, p2_set.size,
                   (params.beta,))
    return run.form(params, p1_set, p2_set)


def build_qap4(params: Qap4Params, check: bool = True) -> LinearForm:
    if check:
        params.validate()
    return _Qap4Run(params.n, params.m).form(params, _one_row(params.i_set),
                                             _one_row(params.j_set))


def build_qap5(params: Qap5Params, check: bool = True) -> LinearForm:
    """Most general family; rhs stored as the integer beta - beta**2
    (algebraically equal to 1/4 - (beta - 1/2)**2)."""
    if check:
        params.validate()
    n, b = params.n, params.beta
    cells = [(flat_index(n, i, j), v) for (i, j), v in params.coeffs]
    crosses = list(itertools.combinations(cells, 2))
    pairs = [(f, f) for f, _ in cells] + [(f, g) for (f, _), (g, _) in crosses]
    coeffs = (tuple(v * v - (2 * b - 1) * v for _, v in cells)
              + tuple(2 * v * w for (_, v), (_, w) in crosses))
    positions = tuple(triangle_position(n, min(f, g), max(f, g)) for f, g in pairs)
    return LinearForm(n=n, positions=positions, coeffs=coeffs,
                      rhs=b - b * b, sense=">=", scale=1, family="qap5", params=params)


BUILDERS = {
    "qap1": build_qap1,
    "qap2": build_qap2,
    "qap3": build_qap3,
    "qap4": build_qap4,
    "qap5": build_qap5,
}


# ---------------------------------------------------------------------------
# closed-form slacks


def slack_counts(family: str, params, zt: np.ndarray) -> dict[str, np.ndarray]:
    """The matched-pair counts the closed slack formulas run on, as int64
    vectors over the vertices (columns) of the 0/1 match matrix ``zt``: each
    count sums a weight over the family's cells (i, j) that a vertex
    matches, sigma(i) = j.

    The one place each family's count cells are written.  A count is at most
    the sum of its |weights|, and each slack polynomial sums at most four
    products of two factors, a count or beta plus at most one each; where
    that bound passes INT64_MAX, and int64 slacks could wrap, the counts
    are refused.
    """
    if family in ("qap1", "qap4"):
        cells = {"q": dict.fromkeys(zip(params.i_set, params.j_set), 1)}
        if family == "qap1":
            cells["pkl"] = {(params.k, params.l): 1}
    elif family == "qap2":
        cells = {"q": dict.fromkeys(itertools.product(params.p_set, params.q_set), 1)}
    elif family == "qap3":
        cells = {"q1": dict.fromkeys(itertools.product(params.p1_set, params.q_set), 1),
                 "q2": dict.fromkeys(itertools.product(params.p2_set, params.q_set), 1)}
    elif family == "qap5":
        cells = {"s": params.coeff_map()}
    else:
        raise InvalidParameterError(f"unknown family {family!r}")
    reach = 1 + abs(getattr(params, "beta", 0)) + max(
        sum(map(abs, weights.values())) for weights in cells.values())
    if 4 * reach * reach > INT64_MAX:
        raise QappolyError(f"a closed-form slack could pass {INT64_MAX}")
    return {name: entries_on_match_rows(
        zt, [(flat_index(params.n, i, j),) * 2 + (v,) for (i, j), v in weights.items()]
    ).astype(np.int64) for name, weights in cells.items()}


def slack_from_counts(family: str, params, counts: dict):
    """True (unscaled) slack from the matched-pair counts.

    The one place each family's slack polynomial is written; the arithmetic
    runs elementwise on the count vectors of ``slack_counts``.
    """
    if family == "qap1":
        return binom2(counts["q"] - counts["pkl"])
    if family == "qap2":
        return binom2(counts["q"] - (params.beta - 1))
    if family == "qap3":
        q1, q2, b = counts["q1"], counts["q2"], params.beta
        return binom2(q1 - (b - 1)) + q2 * b + binom2(q2) - q1 * q2
    if family == "qap4":
        return binom2(counts["q"] - 1)
    if family == "qap5":
        s = counts["s"] - params.beta
        return s * (s + 1)
    raise InvalidParameterError(f"unknown family {family!r}")


def closed_form_slack(family: str, params, zt: np.ndarray, check: bool = True) -> np.ndarray:
    """True (unscaled) int64 slack of the family's form at every vertex
    (column) of the 0/1 match matrix ``zt``, from the closed formulas in
    terms of matched-pair counts."""
    if check:
        params.validate()
    return slack_from_counts(family, params, slack_counts(family, params, zt))


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class Qap5Bounds:
    """Explicit enumeration window for the (infinite) qap5 family."""
    support: tuple[Pair, ...]
    coeff_min: int
    coeff_max: int
    beta_min: int
    beta_max: int


# Forms decoded per vectorised step: about a thousand keep each step's
# temporaries near 1 MB (with 4096, compiling qap4 at n=8 peaked 7 MB
# higher).
CHUNK_FORMS = 1024


@functools.lru_cache(maxsize=None)
def _binomials(size: int) -> np.ndarray:
    """-comb(size-1-a, k) at [k, a]: pick a's weight in slot r-k, negated to ascend."""
    table = -np.array([[math.comb(size - 1 - a, k) for a in range(size)]
                       for k in range(size + 1)], dtype=np.int64)
    table.flags.writeable = False
    return table


def index_rank(picks, size: int, ordered: bool) -> np.ndarray:
    """The int64 row of each row of ``picks`` among the r-combinations of
    range(size), or its r-permutations when ``ordered``, in itertools order
    (the inverse of ``index_unrank``).  An r-permutation's row is its Lehmer
    rank: digit i, pick i less the earlier picks below it, weighs
    perm(size-1-i, r-1-i).  An r-combination a_0 < ... < a_{r-1} has row
    comb(size, r) - 1 - sum_i comb(size-1-a_i, r-i) (combinatorial numbers)."""
    picks = np.asarray(picks)
    count, r = picks.shape
    if not ordered:
        weights = _binomials(size)[r - np.arange(r), picks.astype(np.intp)]
        return math.comb(size, r) - 1 + weights.sum(axis=1)
    slots = picks.T.astype(np.int8, order="C")   # one contiguous row per slot
    rank = np.zeros(count, dtype=np.int64)
    for i in range(r):
        digit = slots[i] - (slots[:i] < slots[i]).sum(axis=0, dtype=np.int8)
        rank += digit * np.int64(math.perm(size - 1 - i, r - 1 - i))
    return rank


def index_unrank(rows, size: int, r: int, ordered: bool) -> np.ndarray:
    """The r-combination of range(size), or its r-permutation when
    ``ordered``, at each of ``rows`` in itertools order, as a C-contiguous
    int8 table (the inverse of ``index_rank``).  An r-permutation's Lehmer
    digits are its row's mixed-radix digits, slot i of radix size - i; from
    the last slot back, each later entry at or past a slot's digit shifts
    up past it.  An r-combination's pick a_i is the least a with
    comb(size-1-a, r-i) at most what slots before i leave of comb(size, r) - 1 - row."""
    rows = np.asarray(rows, dtype=np.int64)
    slots = np.empty((r, rows.size), dtype=np.int8)   # one contiguous row per slot
    if ordered:
        # int32 divisions, twice as fast, while every row fits
        left = rows.astype(np.int32 if math.perm(size, r) < 2 ** 31 else np.int64)
        for i in range(r - 1, -1, -1):
            left, slots[i] = np.divmod(left, size - i)
        for i in range(r - 2, -1, -1):
            later = slots[i + 1:]
            later += later >= slots[i]
    else:
        left = rows - (math.comb(size, r) - 1)   # minus what is left to sum
        for i in range(r):
            weights = _binomials(size)[r - i]
            pick = weights.searchsorted(left)
            left -= weights.take(pick)
            slots[i] = pick
    return np.ascontiguousarray(slots.T)


@functools.lru_cache(maxsize=64)
def _class_predecessors(n: int, classes) -> tuple[int, ...]:
    """Per 0-based column, the column before it in its class, or -1 for the
    least column of a class and a column in no class."""
    before = [-1] * n
    for members in classes:
        for previous, c in itertools.pairwise(members):
            before[c - 1] = previous - 1
    return tuple(before)


def _follow_predecessors(columns, before) -> bool:
    """Whether each of ``columns`` comes after its class predecessor in them."""
    return all(before[c] < 0 or before[c] in columns[:at] for at, c in enumerate(columns))


@functools.lru_cache(maxsize=256)
def _least_rows(n: int, r: int, ordered: bool, before: tuple[int, ...],
                lead: tuple[int, ...]) -> np.ndarray:
    """The ascending rows, among the r-tuples (``index_rank``) of the
    n - len(lead) 0-based columns outside ``lead``, whose column tuples, led
    by ``lead``, are least in their orbit.

    A tuple is least when each column follows its class predecessor
    ``before[c]`` (``_class_predecessors``).  The tuples are built one slot
    at a time: each is extended by every column it allows, in ascending
    order (past its last one unless ``ordered``), so they come in
    lexicographic order, which is the rows' order, and each has its row by
    ``index_rank``.  The work is proportional to the tuples kept.  Cached
    per key, read-only: the qap1 runs of one l and m share their rows.
    """
    # the empty tuple, unless lead itself is not least
    tuples = np.zeros((int(_follow_predecessors(lead, before)), 0), dtype=np.int8)
    used = np.zeros((len(tuples), n), dtype=bool)
    used[:, list(lead)] = True
    before = np.array(before)
    free = before < 0
    columns = np.arange(n)
    for slot in range(r):
        allowed = ~used & (free | used[:, before])
        if not ordered and slot:
            allowed &= columns > tuples[:, -1:]
        parent, column = np.nonzero(allowed)
        tuples = np.hstack((tuples[parent], column[:, None].astype(np.int8)))
        used = used[parent]
        used[np.arange(parent.size), column] = True
    # each column's place among the columns outside lead
    picks = tuples - sum((tuples > c).astype(np.int8) for c in lead)
    rows = index_rank(picks, n - len(lead), ordered)
    rows.flags.writeable = False
    return rows


def _grid(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Flat indices of the cells rows x cols of each form, row-major:
    ``rows`` is (forms, p), ``cols`` is (forms, q) or (1, q)."""
    cells = n * (rows[:, :, None] - 1) + cols[:, None, :]
    return cells.reshape(len(rows), -1)


def _cross_row_pairs(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot pairs s < t of a row-major rows x cols grid that lie in distinct
    rows, in itertools.combinations order."""
    a, b = np.triu_indices(rows * cols, 1)
    keep = a // cols != b // cols
    return a[keep], b[keep]


def _concat(*parts) -> np.ndarray:
    return np.concatenate([np.asarray(part, dtype=np.int64) for part in parts])


class Segment:
    """A run of consecutive forms of one family whose index sets have fixed
    sizes (and, for qap2, a fixed beta).

    Row r of the run is row r of the product of ``factors``, the last one
    varying fastest, as itertools.product orders them; ``_picks`` unranks
    each factor's digit of a row (``index_unrank(digit, *factor)``) and
    ``_picked_sets`` maps those picks to the row's index sets.
    The run's layout states its forms, once for the builders (``form``) too:
    ``_cells`` maps a row's index sets to its cells, entry e of a form joins
    the cells at slots ``pairs[0][e]`` and ``pairs[1][e]``, and template t
    has coefficients ``templates[t]`` and right-hand side ``rhs[t]``.  T is
    the number of admissible betas of a qap3 run and 1 for every other run.
    Form ``start + r*T + t`` is row r with template t; ``_params`` gives a
    row's T parameter sets in template order.  ``family``, ``sense`` and
    ``scale`` are the family's.

    A form's columns, read in slot order, are its column tuple: the picks
    of factor ``column_factor`` mapped to columns, led by the 0-based
    columns ``lead`` (l for qap1), which that factor's picks skip.  A qap3
    run has one Q, so ``column_factor`` is None and Q is its one column
    tuple.
    """

    family: str
    sense = "<="
    scale = 1
    column_factor: int | None = 1
    lead: tuple[int, ...] = ()

    def __init__(self, n: int, factors: tuple, layout: tuple):
        self.n = n
        self.start = 0  # set by family_segments
        self.factors = factors
        self.shape = tuple(math.perm(s, r) if ordered else math.comb(s, r)
                           for s, r, ordered in factors)
        self.pairs, self.templates, self.rhs = layout
        self.row_count = math.prod(self.shape)
        self.count = self.row_count * len(self.rhs)
        self.entries = len(self.pairs[0])

    def _picks(self, rows) -> tuple[np.ndarray, ...]:
        """Each factor's picks for the run rows ``rows``, as int64."""
        digits = np.unravel_index(rows, self.shape)
        return tuple(index_unrank(digit, *factor).astype(np.int64)
                     for factor, digit in zip(self.factors, digits))

    def _picked_sets(self, picks) -> tuple[np.ndarray, ...]:
        """The 1-based index sets of the rows whose factors' picks are
        ``picks`` (int64)."""
        return tuple(pick + 1 for pick in picks)

    def arrays(self, rows) -> np.ndarray:
        """The triangle positions, (rows, entries), of the run rows ``rows``,
        each row shared by its T forms."""
        return self._slot_positions(self._picked_sets(self._picks(rows)))

    def forms(self, rows) -> list[LinearForm]:
        """The forms of the run rows ``rows``, T per row in template order."""
        sets = self._picked_sets(self._picks(rows))
        return self._build(sets, self._params(sets))

    def form(self, params, *sets) -> LinearForm:
        """The form of ``params`` with template 0, from its index sets
        ``sets``, each a one-row table."""
        form, = self._build(sets, [params])
        return form

    def _slot_positions(self, sets) -> np.ndarray:
        cells = self._cells(sets)
        f1, f2 = cells[:, self.pairs[0]], cells[:, self.pairs[1]]
        return triangle_position(self.n, np.minimum(f1, f2), np.maximum(f1, f2))

    def _build(self, sets, params) -> list[LinearForm]:
        """The forms of the rows with index sets ``sets`` with each template,
        row by row; ``params`` holds their parameters in that order."""
        templates = list(zip(map(tuple, self.templates.tolist()), self.rhs.tolist()))
        return [LinearForm(n=self.n, positions=tuple(row), coeffs=coeffs, rhs=rhs,
                           sense=self.sense, scale=self.scale, family=self.family,
                           params=form_params)
                for (row, (coeffs, rhs)), form_params in zip(
                    itertools.product(self._slot_positions(sets).tolist(), templates), params)]

    def orbit_minima(self, classes) -> list[np.ndarray]:
        """Per factor, the ascending rows of it that the run's orbit minima
        use; the minima are the product of these rows.

        ``classes`` are disjoint sorted column tuples, and the group
        Sym(C1) x Sym(C2) x ... relabels the columns of every form.  Where
        two forms share an orbit, their order is lexicographic on their
        column tuples.  So a form is the least of its orbit exactly when,
        in every class, the tuple's entries in that class, read in slot
        order, are its smallest members in ascending order: each column
        follows its predecessor in its class.  The column factor's rows are
        generated as such tuples and found by rank (``_least_rows``).  Every
        other factor keeps all its rows, as does every factor when there are
        no classes.
        """
        if not classes:
            return [np.arange(size) for size in self.shape]
        before = _class_predecessors(self.n, classes)
        return [_least_rows(self.n, *self.factors[at][1:], before, self.lead)
                if at == self.column_factor else np.arange(size)
                for at, size in enumerate(self.shape)]


@functools.lru_cache(maxsize=None)
def _qap1_layout(m: int) -> tuple:
    # slot 0 is the cell (k, l), slots 1..m the cells (i_r, j_r)
    a, b = np.triu_indices(m, 1)
    slots = np.arange(1, m + 1)
    return ((_concat([0], slots, a + 1), _concat([0] * (m + 1), b + 1)),
            _concat([-1], [1] * m, [-1] * a.size)[None], _concat([0]))


class _Qap1Run(Segment):
    """qap1 forms with one (k, l) and one m: i-sets by j-assignments, over
    the rows other than k and the columns other than l."""

    family = "qap1"

    def __init__(self, n: int, k: int, l: int, m: int):
        super().__init__(n, ((n - 1, m, False), (n - 1, m, True)), _qap1_layout(m))
        self.k, self.l, self.lead = k, l, (l - 1,)
        universe = np.arange(1, n + 1)
        self.rows, self.cols = universe[universe != k], universe[universe != l]

    def _picked_sets(self, picks):
        i_picks, j_picks = picks
        return self.rows[i_picks], self.cols[j_picks]

    def _params(self, sets):
        i_sets, j_sets = (s.tolist() for s in sets)
        return [Qap1Params(n=self.n, i_set=tuple(i), j_set=tuple(j), k=self.k, l=self.l)
                for i, j in zip(i_sets, j_sets)]

    def _cells(self, sets):
        i_sets, j_sets = sets
        kl = np.full((len(i_sets), 1), flat_index(self.n, self.k, self.l))
        return np.hstack((kl, self.n * (i_sets - 1) + j_sets))


@functools.lru_cache(maxsize=None)
def _qap4_layout(m: int) -> tuple:
    a, b = np.triu_indices(m, 1)
    slots = np.arange(m)
    return ((_concat(slots, a), _concat(slots, b)),
            _concat([1] * m, [-1] * a.size)[None], _concat([1]))


class _Qap4Run(Segment):
    """qap4 forms with one m: i-sets by j-assignments."""

    family = "qap4"

    def __init__(self, n: int, m: int):
        super().__init__(n, ((n, m, False), (n, m, True)), _qap4_layout(m))

    def _params(self, sets):
        i_sets, j_sets = (s.tolist() for s in sets)
        return [Qap4Params(n=self.n, i_set=tuple(i), j_set=tuple(j))
                for i, j in zip(i_sets, j_sets)]

    def _cells(self, sets):
        i_sets, j_sets = sets
        return self.n * (i_sets - 1) + j_sets


@functools.lru_cache(maxsize=None)
def _qap2_layout(beta: int, p: int, q: int) -> tuple:
    a, b = _cross_row_pairs(p, q)
    slots = np.arange(p * q)
    return ((_concat(slots, a), _concat(slots, b)),
            _concat([2 * (beta - 1)] * (p * q), [-2] * a.size)[None],
            _concat([beta * beta - beta]))


class _Qap2Run(Segment):
    """qap2 forms with one beta, |P| and |Q|: P-sets by Q-sets."""

    family, scale = "qap2", 2

    def __init__(self, n: int, beta: int, p: int, q: int):
        super().__init__(n, ((n, p, False), (n, q, False)), _qap2_layout(beta, p, q))
        self.beta = beta

    def _params(self, sets):
        p_sets, q_sets = (s.tolist() for s in sets)
        return [Qap2Params(n=self.n, p_set=p, q_set=q, beta=self.beta)
                for p, q in zip(p_sets, q_sets)]

    def _cells(self, sets):
        return _grid(self.n, *sets)


@functools.lru_cache(maxsize=None)
def _qap3_layout(q: int, p1: int, p2: int, betas: tuple[int, ...]) -> tuple:
    # slots 0..c1-1 are the P1 x Q cells, the next c2 the P2 x Q cells
    c1, c2 = p1 * q, p2 * q
    w1, w2 = _cross_row_pairs(p1, q), _cross_row_pairs(p2, q)
    x1, x2 = np.divmod(np.arange(c1 * c2), c2)  # every P1 cell with every P2 cell
    slots = np.arange(c1 + c2)
    pairs = (_concat(slots, w1[0], w2[0] + c1, x1),
             _concat(slots, w1[1], w2[1] + c1, x2 + c1))
    templates = [_concat([-2 * (b - 1)] * c1, [2 * b] * c2,
                         [2] * (w1[0].size + w2[0].size), [-2] * x1.size) for b in betas]
    return pairs, np.array(templates).reshape(len(betas), -1), _concat([b - b * b for b in betas])


class _Qap3Run(Segment):
    """qap3 forms with one Q and one |P1|, |P2|: P1-sets by P2-sets (picked
    from the rows outside P1), each row with one template per admissible
    beta."""

    family, sense, scale = "qap3", ">=", 2
    column_factor = None

    def __init__(self, n: int, q_set: tuple[int, ...], p1: int, p2: int,
                 betas: tuple[int, ...]):
        super().__init__(n, ((n, p1, False), (n - p1, p2, False)),
                         _qap3_layout(len(q_set), p1, p2, betas))
        self.q_set, self.betas = q_set, betas

    def _picked_sets(self, picks):
        p1_picks, rest_picks = picks
        free = np.ones((len(p1_picks), self.n), dtype=bool)
        np.put_along_axis(free, p1_picks, False, axis=1)
        rest = np.nonzero(free)[1].reshape(len(p1_picks), -1)
        p2_picks = np.take_along_axis(rest, rest_picks, axis=1)
        return p1_picks + 1, p2_picks + 1

    def _params(self, sets):
        p1_sets, p2_sets = (s.tolist() for s in sets)
        return [Qap3Params(n=self.n, p1_set=p1, p2_set=p2, q_set=self.q_set, beta=beta)
                for p1, p2 in zip(p1_sets, p2_sets) for beta in self.betas]

    def orbit_minima(self, classes):
        q = [c - 1 for c in self.q_set]
        if classes and not _follow_predecessors(q, _class_predecessors(self.n, classes)):
            # Q, the run's one column tuple, is not least: no row is kept
            return [np.arange(0) for _ in self.factors]
        return super().orbit_minima(classes)

    def _cells(self, sets):
        q = _one_row(self.q_set)
        return np.hstack((_grid(self.n, sets[0], q), _grid(self.n, sets[1], q)))


def _qap1_runs(n: int):
    if n < 6:
        log.info("qap1 has no parameter-valid forms at n=%d (it needs n >= 6)", n)
        return
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            for m in range(3, n):
                yield _Qap1Run(n, k, l, m)


def _qap2_runs(n: int):
    if n <= 6:
        # |P|,|Q| >= beta+1 >= 3 forces |P|+|Q| >= 6 > n-3+beta for beta <= n-4
        log.info("qap2 has no parameter-valid forms at n=%d "
                 "(size conditions are jointly unsatisfiable)", n)
    for beta in range(2, n - 3):  # beta <= |P|-1 <= n-4
        for p in range(beta + 1, n - 2):
            for q in range(beta + 1, n - 2):
                if p + q <= n - 3 + beta:
                    yield _Qap2Run(n, beta, p, q)


def _qap3_betas(n: int, q: int, p1: int, p2: int) -> tuple[int, ...]:
    """The betas that qap3 admits with these sizes.  Validity depends on the
    sizes alone, so one representative parameter set decides it."""
    span = n - q - 4
    betas = []
    for beta in range(p1 - p2 - span, p1 - p2 + span + 1):
        try:
            Qap3Params(n=n, p1_set=range(1, p1 + 1), p2_set=range(p1 + 1, p1 + p2 + 1),
                       q_set=range(1, q + 1), beta=beta).validate()
        except InvalidParameterError:
            continue
        betas.append(beta)
    return tuple(betas)


def _qap3_runs(n: int):
    universe = range(1, n + 1)
    for q in range(3, n - 3):  # |Q| <= n-4, or no beta is admissible
        sizes = [(p1, p2) for p1 in range(1, n - 3) for p2 in range(1, n - 2 - p1)]
        betas = {size: _qap3_betas(n, q, *size) for size in sizes}
        for q_set in itertools.combinations(universe, q):
            for p1, p2 in sizes:
                if betas[p1, p2]:
                    yield _Qap3Run(n, q_set, p1, p2, betas[p1, p2])


def _qap4_runs(n: int):
    for m in range(7, n + 1):
        yield _Qap4Run(n, m)


_RUNS = {"qap1": _qap1_runs, "qap2": _qap2_runs, "qap3": _qap3_runs, "qap4": _qap4_runs}


@functools.lru_cache(maxsize=None)
def family_segments(n: int, family: str) -> tuple[Segment, ...]:
    """The runs of a qap1-qap4 family at size n, in enumeration order: the
    one definition of that order.  The enumeration cap is the caller's to
    check."""
    if family not in _RUNS:
        raise InvalidParameterError(
            f"enumeration runs exist for {MEMBERSHIP_FAMILIES}, got {family!r}")
    runs = tuple(_RUNS[family](n))
    start = 0
    for run in runs:
        run.start = start
        start += run.count
    return runs


def _qap5_param_stream(n: int, bounds: Qap5Bounds):
    values = range(bounds.coeff_min, bounds.coeff_max + 1)
    for beta in range(bounds.beta_min, bounds.beta_max + 1):
        for assignment in itertools.product(values, repeat=len(bounds.support)):
            coeffs = {p: v for p, v in zip(bounds.support, assignment) if v != 0}
            yield Qap5Params(n=n, beta=beta, coeffs=coeffs)


def enumerate_family(n: int, family: str, bounds: Qap5Bounds | None = None,
                     cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every parameter-valid form of a family at size n, in a fixed
    deterministic order (parameters canonicalized: index sets sorted, the
    j-assignment enumerated lexicographically).

    qap1-qap4 are finite at fixed n and follow ``family_segments``, each
    run's forms built CHUNK_FORMS rows at a time; qap5 is infinite and
    requires explicit bounds.  Validation is skipped because the runs and
    the qap5 stream only produce valid parameter sets.
    """
    require_enumerable(n, cap)
    if family == "qap5":
        if bounds is None:
            raise InvalidParameterError(
                "qap5 is an infinite family: enumeration bounds are required")
        for params in _qap5_param_stream(n, bounds):
            yield build_qap5(params, check=False)
        return
    for run in family_segments(n, family):
        for lo in range(0, run.row_count, CHUNK_FORMS):
            yield from run.forms(np.arange(lo, min(lo + CHUNK_FORMS, run.row_count)))


def slack_table_csv(family: str, forms, images) -> str:
    """CSV slack table with columns (form-id, sigma, q-stats, slack): one
    line per form and vertex, the vertices given by their one-line images
    and their counts read over the images' match matrix."""
    images = np.asarray(images, dtype=np.int8)
    zt = match_matrix(images)
    sigmas = [" ".join(map(str, image)) for image in images.tolist()]
    lines = ["form_id,sigma,q_stats,slack"]
    for form_id, form in enumerate(forms):
        counts = slack_counts(family, form.params, zt)
        slacks = slack_from_counts(family, form.params, counts).tolist()
        stats = zip(*([f"{name}={v}" for v in vector.tolist()]
                      for name, vector in counts.items()))
        for sigma, stat, slack in zip(sigmas, stats, slacks):
            lines.append(f"{form_id},{sigma},{';'.join(stat)},{slack}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=64)
def family_form_at(n: int, family: str, index: int,
                   cap: int = DEFAULT_ENUMERATION_CAP) -> LinearForm:
    """The index-th form of the deterministic qap1-qap4 enumeration (form ids
    are stable, so this reconstructs membership witnesses).  A bisect over
    the run starts finds the form's run, a divmod its run row and its
    template; that row is unranked (``Segment._picks``) and only its forms
    are built.  The last 64 forms are kept, shared with their callers, who
    leave them unchanged: a clique sweep's points often share a witness."""
    require_enumerable(n, cap)
    runs = family_segments(n, family)
    at = bisect.bisect_right(runs, index, key=operator.attrgetter("start")) - 1
    if at < 0 or index >= runs[at].start + runs[at].count:
        raise InvalidParameterError(f"{family} at n={n} has no form #{index}")
    row, template = divmod(index - runs[at].start, len(runs[at].rhs))
    return runs[at].forms([row])[template]
