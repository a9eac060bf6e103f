"""The five families of valid inequalities and their exact evaluation.

Every inequality is stored denominator-cleared: an integer coefficient map
plus an integer right-hand side and a positive integer ``scale`` so that the
true inequality is ``(coeffs . Y  <=/>=  rhs) / scale``.  Off-diagonal
coefficients are keyed by unordered entry pairs (the "i < k" orientation in
the usual presentation is normalized away; Y is symmetric so orientation is
irrelevant and deduplication becomes trivial).

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
    diag: dict[int, int]            # flat index -> coefficient of Y[f, f]
    offdiag: dict[EntryKey, int]    # canonical (f1, f2), f1 < f2 -> coefficient
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

    def term_counts(self) -> tuple[int, int]:
        return len(self.diag), len(self.offdiag)

    def lhs_on_match_rows(self, zt: np.ndarray) -> np.ndarray:
        """Scaled lhs on a whole batch of vertices at once.

        ``zt`` has one row per flat index and one column per permutation:
        zt[f-1, v] == 1 iff vertex v matches (i, j) with flat index f.
        Walks the stored coefficient maps exactly once each.
        """
        acc = np.zeros(zt.shape[1], dtype=np.int64)
        for f, c in self.diag.items():
            row = zt[f - 1]
            if c == 1:
                acc += row
            elif c == -1:
                acc -= row
            else:
                acc += c * row.astype(np.int64)
        for (f1, f2), c in self.offdiag.items():
            prod = zt[f1 - 1] * zt[f2 - 1]
            if c == 1:
                acc += prod
            elif c == -1:
                acc -= prod
            else:
                acc += c * prod.astype(np.int64)
        return acc

    def scaled_slack_on_match_rows(self, zt: np.ndarray) -> np.ndarray:
        lhs = self.lhs_on_match_rows(zt)
        return self.rhs - lhs if self.sense == "<=" else lhs - self.rhs

    def coefficient_items(self):
        """All (entry key, coefficient) pairs, diagonal keys as (f, f)."""
        for f, c in self.diag.items():
            yield (f, f), c
        yield from self.offdiag.items()

    def key(self) -> tuple:
        """Canonical identity, used for deduplication checks."""
        return (self.family, self.n, tuple(sorted(self.diag.items())),
                tuple(sorted(self.offdiag.items())), self.rhs, self.sense, self.scale)

    def to_json(self) -> str:
        n = self.n
        return json.dumps({
            "family": self.family,
            "params": repr(self.params) if self.params is not None else None,
            "diag": [[list(pair_from_flat(n, f)), c] for f, c in sorted(self.diag.items())],
            "offdiag": [[list(pair_from_flat(n, f1)), list(pair_from_flat(n, f2)), c]
                        for (f1, f2), c in sorted(self.offdiag.items())],
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

    Off-diagonal coefficients apply once per unordered pair against the
    symmetric value Y[ij, kl] (== Y[kl, ij]).
    """
    if isinstance(point, QapVertex):
        point = YPoint.from_vertex(point)
    if point.n != form.n:
        raise DimensionMismatchError(f"form n={form.n} vs point n={point.n}")
    lhs = Fraction(0)
    for f, c in form.diag.items():
        lhs += c * point.get_flat(f, f)
    for (f1, f2), c in form.offdiag.items():
        lhs += c * point.get_flat(f1, f2)
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


def build_qap1(params: Qap1Params, check: bool = True) -> LinearForm:
    if check:
        params.validate()
    n = params.n
    kl = flat_index(n, params.k, params.l)
    pair_flats = [flat_index(n, i, j) for i, j in zip(params.i_set, params.j_set)]
    offdiag: dict[EntryKey, int] = {}
    for f in pair_flats:
        offdiag[canon_entry(f, kl)] = 1
    for f1, f2 in itertools.combinations(pair_flats, 2):
        offdiag[canon_entry(f1, f2)] = -1
    return LinearForm(n=n, diag={kl: -1}, offdiag=offdiag, rhs=0, sense="<=",
                      scale=1, family="qap1", params=params)


def build_qap2(params: Qap2Params, check: bool = True) -> LinearForm:
    if check:
        params.validate()
    n, b = params.n, params.beta
    cells = [(i, j) for i in sorted(params.p_set) for j in sorted(params.q_set)]
    diag = {flat_index(n, i, j): 2 * (b - 1) for i, j in cells}
    offdiag: dict[EntryKey, int] = {}
    for (i, j), (k, l) in itertools.combinations(cells, 2):
        if i != k:  # the i < k orientation, canonicalized
            offdiag[canon_entry(flat_index(n, i, j), flat_index(n, k, l))] = -2
    return LinearForm(n=n, diag=diag, offdiag=offdiag, rhs=b * b - b, sense="<=",
                      scale=2, family="qap2", params=params)


def build_qap3(params: Qap3Params, check: bool = True) -> LinearForm:
    """Build a qap3 form, denominator-cleared by 2.

    The scaled right-hand side is beta - beta**2 (the sign that the slack
    formula and the qap5 specialization with n_ij = +/-1 both produce; the
    opposite sign would be violated by every vertex with no matched pairs).
    """
    if check:
        params.validate()
    n, b = params.n, params.beta
    cells1 = [(i, j) for i in sorted(params.p1_set) for j in sorted(params.q_set)]
    cells2 = [(i, j) for i in sorted(params.p2_set) for j in sorted(params.q_set)]
    diag: dict[int, int] = {}
    for i, j in cells1:
        diag[flat_index(n, i, j)] = -2 * (b - 1)
    for i, j in cells2:
        diag[flat_index(n, i, j)] = 2 * b
    offdiag: dict[EntryKey, int] = {}
    for block, sign in ((cells1, 2), (cells2, 2)):
        for (i, j), (k, l) in itertools.combinations(block, 2):
            if i != k:
                offdiag[canon_entry(flat_index(n, i, j), flat_index(n, k, l))] = sign
    for i, j in cells1:
        for k, l in cells2:  # P1 and P2 disjoint, so i != k always
            offdiag[canon_entry(flat_index(n, i, j), flat_index(n, k, l))] = -2
    return LinearForm(n=n, diag=diag, offdiag=offdiag, rhs=b - b * b, sense=">=",
                      scale=2, family="qap3", params=params)


def build_qap4(params: Qap4Params, check: bool = True) -> LinearForm:
    if check:
        params.validate()
    n = params.n
    pair_flats = [flat_index(n, i, j) for i, j in zip(params.i_set, params.j_set)]
    diag = {f: 1 for f in pair_flats}
    offdiag = {canon_entry(f1, f2): -1
               for f1, f2 in itertools.combinations(pair_flats, 2)}
    return LinearForm(n=n, diag=diag, offdiag=offdiag, rhs=1, sense="<=",
                      scale=1, family="qap4", params=params)


def build_qap5(params: Qap5Params, check: bool = True) -> LinearForm:
    """Most general family; rhs stored as the integer beta - beta**2
    (algebraically equal to 1/4 - (beta - 1/2)**2)."""
    if check:
        params.validate()
    n, b = params.n, params.beta
    coeffs = params.coeff_map()
    diag: dict[int, int] = {}
    for (i, j), v in coeffs.items():
        diag[flat_index(n, i, j)] = v * v - (2 * b - 1) * v
    offdiag: dict[EntryKey, int] = {}
    for ((i, j), v1), ((k, l), v2) in itertools.combinations(sorted(coeffs.items()), 2):
        offdiag[canon_entry(flat_index(n, i, j), flat_index(n, k, l))] = 2 * v1 * v2
    return LinearForm(n=n, diag=diag, offdiag=offdiag, rhs=b - b * b, sense=">=",
                      scale=1, family="qap5", params=params)


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
