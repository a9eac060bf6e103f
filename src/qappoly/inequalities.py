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
number of matched index pairs; ``slack_from_counts`` holds those formulas,
with the convention binom2(x) = x(x-1)/2 for any integer x, and runs them on
the counts of one vertex or of a whole batch.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidParameterError,
)
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
from .perms import DEFAULT_ENUMERATION_CAP, Permutation, QapVertex

log = logging.getLogger(__name__)

FAMILIES = ("qap1", "qap2", "qap3", "qap4", "qap5")
MEMBERSHIP_FAMILIES = ("qap1", "qap2", "qap3", "qap4")


def binom2(x: int) -> int:
    """x(x-1)/2 for any integer x (so binom2(-1) == 1, binom2(0) == 0)."""
    return x * (x - 1) // 2


# ---------------------------------------------------------------------------
# points


@dataclass
class YPoint:
    """An arbitrary symmetric rational test point, stored sparsely.

    ``values`` maps canonical entry keys (f1 <= f2) to exact rationals;
    missing keys are zero.  Symmetry is structural: there is only one slot
    per unordered pair.
    """

    n: int
    values: dict[EntryKey, Fraction]
    provenance: dict | str | None = None

    @classmethod
    def zero(cls, n: int) -> "YPoint":
        return cls(n=n, values={}, provenance="zero point")

    @classmethod
    def from_vertex(cls, vertex: QapVertex) -> "YPoint":
        values = {key: Fraction(1) for key in vertex.entries}
        return cls(n=vertex.n, values=values,
                   provenance=f"vertex {vertex.source_permutation.one_line()}")

    def get_flat(self, f1: int, f2: int) -> Fraction:
        return self.values.get(canon_entry(f1, f2), Fraction(0))

    def get(self, i: int, j: int, k: int, l: int) -> Fraction:
        return self.get_flat(flat_index(self.n, i, j), flat_index(self.n, k, l))

    def to_scaled_vector(self) -> tuple[np.ndarray, int]:
        """Dense integer vector over the triangular coordinate space.

        Returns (vec, denom) with vec[pos] == denom * value; denom is the
        lcm of all denominators, so the scaling is exact.
        """
        denom = 1
        for v in self.values.values():
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
        vec = np.zeros(triangle_dimension(self.n), dtype=np.int64)
        for (f1, f2), v in self.values.items():
            vec[triangle_position(self.n, f1, f2)] = int(v * denom)
        return vec, int(denom)

    def to_json(self) -> str:
        def frac(v: Fraction) -> str:
            return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)

        entries = [
            [list(pair_from_flat(self.n, f1)), list(pair_from_flat(self.n, f2)), frac(v)]
            for (f1, f2), v in sorted(self.values.items())
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

    def lhs_on_match_rows(self, zt: np.ndarray) -> np.ndarray:
        """Scaled lhs on a whole batch of vertices at once.

        ``zt`` has one row per flat index and one column per permutation:
        zt[f-1, v] == 1 iff vertex v matches (i, j) with flat index f.  Row by
        row, with no multiply for a diagonal entry or a +-1 coefficient: on
        this few rows that is faster than one gather and dot.
        """
        acc = np.zeros(zt.shape[1], dtype=np.int64)
        for f1, f2, c in self.entries():
            hit = zt[f1 - 1] if f1 == f2 else zt[f1 - 1] * zt[f2 - 1]
            if c == 1:
                acc += hit
            elif c == -1:
                acc -= hit
            else:
                acc += c * hit.astype(np.int64)
        return acc

    def scaled_slack_on_match_rows(self, zt: np.ndarray) -> np.ndarray:
        lhs = self.lhs_on_match_rows(zt)
        return self.rhs - lhs if self.sense == "<=" else lhs - self.rhs

    def key(self) -> tuple:
        """Canonical identity, used for deduplication checks."""
        return (self.family, self.n, tuple(sorted(zip(self.positions, self.coeffs))),
                self.rhs, self.sense, self.scale)

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


def evaluate(form: LinearForm, point: "YPoint | QapVertex") -> EvaluationResult:
    """Exact evaluation of a form at an arbitrary point.

    Each coefficient applies once per unordered pair against the symmetric
    value Y[ij, kl] (== Y[kl, ij]).
    """
    if isinstance(point, QapVertex):
        point = YPoint.from_vertex(point)
    if point.n != form.n:
        raise DimensionMismatchError(f"form n={form.n} vs point n={point.n}")
    lhs = sum((c * point.get_flat(f1, f2) for f1, f2, c in form.entries()),
              Fraction(0))
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


@functools.lru_cache(maxsize=None)
def _row_offsets(n: int) -> tuple[int, ...]:
    """offsets[f1] + f2 == triangle_position(n, f1, f2) for f1 <= f2."""
    return (0,) + tuple(triangle_position(n, f, f) - f for f in range(1, n * n + 1))


def _positions(n: int, pairs) -> tuple[int, ...]:
    """Triangle positions of flat-index pairs given in either order."""
    offsets = _row_offsets(n)
    return tuple(offsets[f1] + f2 if f1 <= f2 else offsets[f2] + f1 for f1, f2 in pairs)


def build_qap1(params: Qap1Params, check: bool = True) -> LinearForm:
    if check:
        params.validate()
    n = params.n
    kl = flat_index(n, params.k, params.l)
    flats = [flat_index(n, i, j) for i, j in zip(params.i_set, params.j_set)]
    crosses = list(itertools.combinations(flats, 2))
    pairs = [(kl, kl)] + [(f, kl) for f in flats] + crosses
    coeffs = (-1,) + (1,) * len(flats) + (-1,) * len(crosses)
    return LinearForm(n=n, positions=_positions(n, pairs), coeffs=coeffs, rhs=0,
                      sense="<=", scale=1, family="qap1", params=params)


def build_qap2(params: Qap2Params, check: bool = True) -> LinearForm:
    if check:
        params.validate()
    n, b = params.n, params.beta
    cells = [(i, flat_index(n, i, j)) for i in sorted(params.p_set)
             for j in sorted(params.q_set)]
    # cell pairs in distinct rows: the i < k orientation, canonicalized
    crosses = [(f, g) for (i, f), (k, g) in itertools.combinations(cells, 2) if i != k]
    pairs = [(f, f) for _, f in cells] + crosses
    coeffs = (2 * (b - 1),) * len(cells) + (-2,) * len(crosses)
    return LinearForm(n=n, positions=_positions(n, pairs), coeffs=coeffs,
                      rhs=b * b - b, sense="<=", scale=2, family="qap2", params=params)


def build_qap3(params: Qap3Params, check: bool = True) -> LinearForm:
    """Build a qap3 form, denominator-cleared by 2.

    The scaled right-hand side is beta - beta**2 (the sign that the slack
    formula and the qap5 specialization with n_ij = +/-1 both produce; the
    opposite sign would be violated by every vertex with no matched pairs).
    """
    if check:
        params.validate()
    n, b = params.n, params.beta
    q = sorted(params.q_set)
    cells1 = [(i, flat_index(n, i, j)) for i in sorted(params.p1_set) for j in q]
    cells2 = [(i, flat_index(n, i, j)) for i in sorted(params.p2_set) for j in q]
    within = [(f, g) for block in (cells1, cells2)
              for (i, f), (k, g) in itertools.combinations(block, 2) if i != k]
    # P1 and P2 disjoint, so every cross pair has distinct rows
    cross = [(f, g) for _, f in cells1 for _, g in cells2]
    pairs = [(f, f) for _, f in cells1 + cells2] + within + cross
    coeffs = ((-2 * (b - 1),) * len(cells1) + (2 * b,) * len(cells2)
              + (2,) * len(within) + (-2,) * len(cross))
    return LinearForm(n=n, positions=_positions(n, pairs), coeffs=coeffs,
                      rhs=b - b * b, sense=">=", scale=2, family="qap3", params=params)


def build_qap4(params: Qap4Params, check: bool = True) -> LinearForm:
    if check:
        params.validate()
    n = params.n
    flats = [flat_index(n, i, j) for i, j in zip(params.i_set, params.j_set)]
    crosses = list(itertools.combinations(flats, 2))
    pairs = [(f, f) for f in flats] + crosses
    coeffs = (1,) * len(flats) + (-1,) * len(crosses)
    return LinearForm(n=n, positions=_positions(n, pairs), coeffs=coeffs, rhs=1,
                      sense="<=", scale=1, family="qap4", params=params)


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
    return LinearForm(n=n, positions=_positions(n, pairs), coeffs=coeffs,
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


def match_statistics(family: str, params, sigma: Permutation) -> dict[str, int]:
    """The matched-pair counts the closed slack formulas run on."""
    image = sigma.image  # image[i - 1] == sigma(i), read directly: this runs per vertex
    if family in ("qap1", "qap4"):
        q = sum(image[i - 1] == j for i, j in zip(params.i_set, params.j_set))
        if family == "qap4":
            return {"q": q}
        return {"q": q, "pkl": int(image[params.k - 1] == params.l)}
    if family == "qap2":
        return {"q": sum(image[i - 1] in params.q_set for i in params.p_set)}
    if family == "qap3":
        return {"q1": sum(image[i - 1] in params.q_set for i in params.p1_set),
                "q2": sum(image[i - 1] in params.q_set for i in params.p2_set)}
    if family == "qap5":
        coeffs = params.coeff_map()
        return {"s": sum(coeffs.get((i, j), 0) for i, j in enumerate(image, start=1))}
    raise InvalidParameterError(f"unknown family {family!r}")


def _match_statistics_on_rows(family: str, params, zt: np.ndarray) -> dict[str, np.ndarray]:
    """match_statistics for every vertex at once, as int64 count vectors read
    from the 0/1 match matrix (one row per flat index, one column per vertex)."""
    n = params.n
    zero = np.zeros(zt.shape[1], dtype=np.int64)

    def hit(i, j):
        return zt[flat_index(n, i, j) - 1].astype(np.int64)

    def count(cells):
        return sum((hit(i, j) for i, j in cells), zero)

    if family in ("qap1", "qap4"):
        q = count(zip(params.i_set, params.j_set))
        if family == "qap4":
            return {"q": q}
        return {"q": q, "pkl": hit(params.k, params.l)}
    if family == "qap2":
        return {"q": count(itertools.product(params.p_set, params.q_set))}
    if family == "qap3":
        return {"q1": count(itertools.product(params.p1_set, params.q_set)),
                "q2": count(itertools.product(params.p2_set, params.q_set))}
    if family == "qap5":
        return {"s": sum((v * hit(i, j) for (i, j), v in params.coeffs), zero)}
    raise InvalidParameterError(f"unknown family {family!r}")


def slack_from_counts(family: str, params, counts: dict):
    """True (unscaled) slack from the matched-pair counts.

    The one place each family's slack polynomial is written; the arithmetic
    is the same on int counts and on int64 count vectors.
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


def closed_form_slack(family: str, params, sigma: Permutation, check: bool = True):
    """True (unscaled) slack of the family's form at a vertex, from the
    closed formulas in terms of matched-pair counts."""
    if check:
        params.validate()
    return slack_from_counts(family, params, match_statistics(family, params, sigma))


def closed_form_slack_on_match_rows(family: str, params, zt: np.ndarray) -> np.ndarray:
    """closed_form_slack over a whole batch of vertices at once, with the
    counts read from the 0/1 match matrix.  Returns unscaled int64 slacks."""
    return slack_from_counts(family, params,
                             _match_statistics_on_rows(family, params, zt))


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


def _qap1_param_stream(n: int):
    universe = range(1, n + 1)
    for k in universe:
        for l in universe:
            rows = [i for i in universe if i != k]
            cols = [j for j in universe if j != l]
            for m in range(3, n):
                for i_set in itertools.combinations(rows, m):
                    for j_set in itertools.permutations(cols, m):
                        yield Qap1Params(n=n, i_set=i_set, j_set=j_set, k=k, l=l)


def _qap2_param_stream(n: int):
    if n <= 6:
        # |P|,|Q| >= beta+1 >= 3 forces |P|+|Q| >= 6 > n-3+beta for beta <= n-4
        log.info("qap2 has no parameter-valid forms at n=%d "
                 "(size conditions are jointly unsatisfiable)", n)
        return
    universe = range(1, n + 1)
    for beta in range(2, n - 3):  # beta <= |P|-1 <= n-4
        for p_size in range(beta + 1, n - 2):
            for q_size in range(beta + 1, n - 2):
                if p_size + q_size > n - 3 + beta:
                    continue
                for p_set in itertools.combinations(universe, p_size):
                    for q_set in itertools.combinations(universe, q_size):
                        yield Qap2Params(n=n, p_set=p_set, q_set=q_set, beta=beta)


def _qap3_param_stream(n: int):
    universe = range(1, n + 1)
    for q_size in range(3, n - 2):
        for q_set in itertools.combinations(universe, q_size):
            for p1_size in range(1, n - 3):
                for p2_size in range(1, n - 3 - p1_size + 1):
                    for p1_set in itertools.combinations(universe, p1_size):
                        rest = [v for v in universe if v not in p1_set]
                        for p2_set in itertools.combinations(rest, p2_size):
                            span = n - q_size - 4
                            if span < 0:
                                continue
                            base = p1_size - p2_size
                            for beta in range(base - span, base + span + 1):
                                params = Qap3Params(n=n, p1_set=p1_set,
                                                    p2_set=p2_set, q_set=q_set,
                                                    beta=beta)
                                try:
                                    params.validate()
                                except InvalidParameterError:
                                    continue
                                yield params


def _qap4_param_stream(n: int):
    universe = range(1, n + 1)
    for m in range(7, n + 1):
        for i_set in itertools.combinations(universe, m):
            for j_set in itertools.permutations(universe, m):
                yield Qap4Params(n=n, i_set=i_set, j_set=j_set)


def _qap5_param_stream(n: int, bounds: Qap5Bounds):
    values = range(bounds.coeff_min, bounds.coeff_max + 1)
    for beta in range(bounds.beta_min, bounds.beta_max + 1):
        for assignment in itertools.product(values, repeat=len(bounds.support)):
            coeffs = {p: v for p, v in zip(bounds.support, assignment) if v != 0}
            yield Qap5Params(n=n, beta=beta, coeffs=coeffs)


def _param_stream(n: int, family: str, bounds: Qap5Bounds | None, cap: int):
    """The family's parameter sets at size n, in enumeration order."""
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")
    if family == "qap1":
        return _qap1_param_stream(n)
    if family == "qap2":
        return _qap2_param_stream(n)
    if family == "qap3":
        return _qap3_param_stream(n)
    if family == "qap4":
        return _qap4_param_stream(n)
    if family == "qap5":
        if bounds is None:
            raise InvalidParameterError(
                "qap5 is an infinite family: enumeration bounds are required")
        return _qap5_param_stream(n, bounds)
    raise InvalidParameterError(f"unknown family {family!r}")


def enumerate_family(n: int, family: str, bounds: Qap5Bounds | None = None,
                     cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every parameter-valid form of a family at size n, in a fixed
    deterministic order (parameters canonicalized: index sets sorted, the
    j-assignment enumerated lexicographically).

    qap1-qap4 are finite at fixed n; qap5 is infinite and requires explicit
    bounds.  Validation is skipped because the streams only produce valid
    parameter sets (qap3 filters internally).
    """
    stream = _param_stream(n, family, bounds, cap)
    builder = BUILDERS[family]
    for params in stream:
        yield builder(params, check=False)


def slack_table_csv(family: str, forms, perms) -> str:
    """CSV slack table with columns (form-id, sigma, q-stats, slack)."""
    lines = ["form_id,sigma,q_stats,slack"]
    for form_id, form in enumerate(forms):
        for sigma in perms:
            stats = match_statistics(family, form.params, sigma)
            stat_text = ";".join(f"{k}={v}" for k, v in stats.items())
            slack = slack_from_counts(family, form.params, stats)
            lines.append(f"{form_id},{sigma.one_line()},{stat_text},{slack}")
    return "\n".join(lines) + "\n"


def family_form_at(n: int, family: str, index: int,
                   cap: int = DEFAULT_ENUMERATION_CAP) -> LinearForm:
    """The index-th form of the deterministic qap1-qap4 enumeration (form ids
    are stable, so this reconstructs membership witnesses).  Only the
    parameter stream is walked; one form is built."""
    params = next(itertools.islice(_param_stream(n, family, None, cap),
                                   index, None), None)
    if params is None:
        raise InvalidParameterError(f"{family} at n={n} has no form #{index}")
    return BUILDERS[family](params, check=False)
