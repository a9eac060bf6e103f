"""Hard matrices and the two-party protocols computing them in expectation.

The 2**n x 2**n matrices indexed by bit vectors a (rows) and b (columns):

    M[k](a, b) = (a.b - k)**2
    N[k](a, b) = (a.b - k) * (a.b - k - 1)

``protocol_n0`` simulates the randomized protocol whose output equals
N[0](a, b) in expectation with at most 2*ceil(log2 n) bits exchanged per
round; ``protocol_m1_composed`` mixes it with the closed-form N[1] behind
one extra coin bit to compute M[1].  ``slack_protocol`` runs the four
constructions in which Alice holds an inequality, Bob holds a vertex, and
the inequality's slack at the vertex equals N[1](a, b) / 2 exactly.

Bit accounting counts only message bits between the two parties, never
local randomness.  Short-circuit preprocessing (degenerate a or b) reports
the exact answer directly along with the bits such an exchange costs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError, ProtocolInputError
from .inequalities import (
    LinearForm,
    Qap1Params,
    Qap2Params,
    Qap3Params,
    Qap4Params,
    build_qap1,
    build_qap2,
    build_qap3,
    build_qap4,
    match_matrix,
)
from .perms import Permutation

Bits = tuple[int, ...]


def as_bits(value, n: int | None = None) -> Bits:
    """Accept '0110'-style strings or 0/1 sequences."""
    try:
        if isinstance(value, str):
            bits = tuple(int(ch) for ch in value.strip())
        else:
            bits = tuple(int(v) for v in value)
    except (TypeError, ValueError):
        raise ProtocolInputError(f"bit vector entries must be 0/1, got {value!r}")
    if any(b not in (0, 1) for b in bits):
        raise ProtocolInputError(f"bit vector entries must be 0/1, got {value!r}")
    if n is not None and len(bits) != n:
        raise ProtocolInputError(f"expected length {n}, got {len(bits)}")
    return bits


def bit_dot(a: Bits, b: Bits) -> int:
    if len(a) != len(b):
        raise ProtocolInputError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def bits_for(n: int) -> int:
    """ceil(log2 n) without floating point."""
    return (n - 1).bit_length()


@dataclass(frozen=True)
class HardMatrixSpec:
    kind: str  # 'M' or 'N'
    k: int
    n: int

    def __post_init__(self):
        if self.kind not in ("M", "N"):
            raise ProtocolInputError(f"kind must be 'M' or 'N', got {self.kind!r}")
        if not (0 <= self.k <= self.n):
            raise ProtocolInputError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")


def hard_matrix_entry(spec: HardMatrixSpec, a: Bits, b: Bits) -> int:
    if len(a) != spec.n or len(b) != spec.n:
        raise ProtocolInputError(
            f"vectors must have length {spec.n}, got {len(a)} and {len(b)}")
    s = bit_dot(a, b)
    if spec.kind == "M":
        return (s - spec.k) ** 2
    return (s - spec.k) * (s - spec.k - 1)


def n1_value(a: Bits, b: Bits) -> int:
    s = bit_dot(a, b)
    return (s - 1) * (s - 2)


# ---------------------------------------------------------------------------
# expectation protocols


@dataclass
class ProtocolOutcome:
    transcript_bits: int
    output: Fraction
    probability: Fraction


@dataclass
class ExpectationReport:
    protocol: str
    n: int
    mode: str                       # "exact" or "sample"
    expectation: Fraction           # exact expectation, or exact empirical mean
    max_bits: int                   # largest transcript actually used
    bit_bound: int                  # the protocol's stated ceiling
    outcomes: list[ProtocolOutcome] | None = None
    samples: int | None = None
    seed: int | None = None
    std_error: float | None = None

    def probability_total(self) -> Fraction:
        if self.outcomes is None:
            return Fraction(1)
        return sum((o.probability for o in self.outcomes), Fraction(0))


def protocol_n0(a, b, mode: str = "exact", samples: int = 100_000,
                seed: int = 0) -> ExpectationReport:
    """Protocol for N[0]: Alice draws an unordered index pair uniformly;
    on a_i = a_j = 1 she sends the pair (2*ceil(log2 n) bits) and Bob
    outputs n(n-1) when b_i = b_j = 1, zero otherwise."""
    a, b = as_bits(a), as_bits(b, len(a))
    n = len(a)
    if n < 2:
        raise ProtocolInputError(f"protocol needs n >= 2, got {n}")
    send_cost = 2 * bits_for(n)
    pairs = list(itertools.combinations(range(n), 2))
    outputs = []
    bits_used = []
    for i, j in pairs:
        if a[i] and a[j]:
            bits_used.append(send_cost)
            outputs.append(n * (n - 1) if b[i] and b[j] else 0)
        else:
            bits_used.append(0)
            outputs.append(0)
    if mode == "exact":
        prob = Fraction(1, len(pairs))
        outcomes = [ProtocolOutcome(transcript_bits=bits, output=Fraction(out),
                                    probability=prob)
                    for bits, out in zip(bits_used, outputs)]
        expectation = sum((o.probability * o.output for o in outcomes), Fraction(0))
        return ExpectationReport(protocol="n0", n=n, mode="exact",
                                 expectation=expectation,
                                 max_bits=max(bits_used), bit_bound=send_cost,
                                 outcomes=outcomes)
    if mode != "sample":
        raise ProtocolInputError(f"mode must be 'exact' or 'sample', got {mode!r}")
    if samples < 1:
        raise ProtocolInputError(f"sampling needs samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    outs = np.array(outputs, dtype=np.int64)
    bits_arr = np.array(bits_used, dtype=np.int64)
    draws = rng.integers(0, len(pairs), size=samples)
    sampled = outs[draws]
    mean = Fraction(int(sampled.sum()), samples)
    std = float(sampled.std(ddof=1)) if samples > 1 else 0.0
    return ExpectationReport(protocol="n0", n=n, mode="sample", expectation=mean,
                             max_bits=int(bits_arr[draws].max()), bit_bound=send_cost,
                             samples=samples, seed=seed,
                             std_error=std / samples ** 0.5)


def protocol_m1_composed(a, b) -> ExpectationReport:
    """M[1] via a fair coin choosing between the N[0] protocol and the
    closed-form N[1], which sends no message bits; one extra bit announces
    the branch."""
    a, b = as_bits(a), as_bits(b, len(a))
    n = len(a)
    base = protocol_n0(a, b, mode="exact")
    half = Fraction(1, 2)
    outcomes = [ProtocolOutcome(transcript_bits=1 + o.transcript_bits,
                                output=o.output,
                                probability=half * o.probability)
                for o in base.outcomes]
    outcomes.append(ProtocolOutcome(transcript_bits=1,
                                    output=Fraction(n1_value(a, b)),
                                    probability=half))
    expectation = sum((o.probability * o.output for o in outcomes), Fraction(0))
    return ExpectationReport(protocol="m1-composed", n=n, mode="exact",
                             expectation=expectation,
                             max_bits=max(o.transcript_bits for o in outcomes),
                             bit_bound=1 + base.bit_bound, outcomes=outcomes)


@dataclass
class EmbeddingReport:
    k: int
    n: int
    pairs_checked: int
    ok: bool


def embedding_check(k: int, n: int) -> EmbeddingReport:
    """Exhaustively confirm that padding both vectors with k-1 ones embeds
    N[1] over length n-k+1 into N[k] over length n."""
    if not (2 <= k <= n):
        raise ProtocolInputError(f"need 2 <= k <= n, got k={k}, n={n}")
    short = n - k + 1
    pad = (1,) * (k - 1)
    spec_short = HardMatrixSpec(kind="N", k=1, n=short)
    spec_long = HardMatrixSpec(kind="N", k=k, n=n)
    checked = 0
    for a_int in range(2 ** short):
        a = tuple((a_int >> t) & 1 for t in range(short))
        for b_int in range(2 ** short):
            b = tuple((b_int >> t) & 1 for t in range(short))
            if hard_matrix_entry(spec_short, a, b) != \
               hard_matrix_entry(spec_long, a + pad, b + pad):
                return EmbeddingReport(k=k, n=n, pairs_checked=checked, ok=False)
            checked += 1
    return EmbeddingReport(k=k, n=n, pairs_checked=checked, ok=True)


# ---------------------------------------------------------------------------
# slack protocols


@dataclass
class SlackProtocolResult:
    family: str
    a: Bits
    b: Bits
    mode: str                       # "protocol" or "short-circuit"
    slack: Fraction                 # the protocol's (half) answer
    target: Fraction                # N[1](a, b) / 2
    doubled_output: Fraction        # the convention: parties output twice the slack
    setup_bits: int
    ok: bool
    in_family: bool | None = None
    reason: str | None = None
    alice_form: LinearForm | None = None
    bob_sigma: Permutation | None = None
    alice_params: object | None = None


def _result(family, a, b, *, mode, slack, setup_bits, reason=None, form=None,
            sigma=None, params=None, in_family=None) -> SlackProtocolResult:
    target = Fraction(n1_value(a, b), 2)
    return SlackProtocolResult(family=family, a=a, b=b, mode=mode, slack=slack,
                               target=target, doubled_output=2 * slack,
                               setup_bits=setup_bits, ok=slack == target,
                               in_family=in_family, reason=reason,
                               alice_form=form, bob_sigma=sigma,
                               alice_params=params)


def _short_circuit(family, a, b, reason, bits) -> SlackProtocolResult:
    # degenerate inputs are answered directly; the reported value is the
    # exact target so the expectation contract still holds
    return _result(family, a, b, mode="short-circuit",
                   slack=Fraction(n1_value(a, b), 2), setup_bits=bits,
                   reason=reason)


def fixed_ones_permutation(b: Bits) -> Permutation:
    """sigma(i) = i exactly where b_i = 1; the zero positions are permuted
    among themselves by one cyclic shift (needs 0 or >= 2 zeros)."""
    n = len(b)
    zeros = [i for i in range(1, n + 1) if b[i - 1] == 0]
    if len(zeros) == 1:
        raise ProtocolInputError(
            "no permutation can displace exactly one position; b needs >= 2 zeros")
    img = list(range(1, n + 1))
    for idx, z in enumerate(zeros):
        img[z - 1] = zeros[(idx + 1) % len(zeros)]
    return Permutation(tuple(img))


def _halved_block_permutation(b: Bits, forced_swaps: frozenset[int]) -> Permutation:
    """Permutation of [2m+1] swapping i <-> i+m exactly for i in the zero
    set of b or in forced_swaps; everything else fixed."""
    m = len(b)
    img = list(range(1, 2 * m + 2))
    for i in range(1, m + 1):
        if b[i - 1] == 0 or i in forced_swaps:
            img[i - 1] = i + m
            img[i + m - 1] = i
    return Permutation(tuple(img))


def _slack_at(form: LinearForm, sigma: Permutation) -> Fraction:
    """The form's exact slack at sigma's vertex, read from its match column."""
    scaled = form.scaled_slack_on_match_rows(match_matrix([sigma.image]))
    return Fraction(int(scaled[0]), form.scale)


def _slack_qap1(a: Bits, b: Bits) -> SlackProtocolResult:
    n = len(a)
    if n < 6:
        raise ProtocolInputError(f"the qap1 family needs n >= 6, got {n}")
    if not any(a):
        return _short_circuit("qap1", a, b, "a is all-zero", bits=0)
    if all(a):
        return _short_circuit("qap1", a, b, "a is all-ones", bits=1)
    support = tuple(i for i in range(1, n + 1) if a[i - 1])
    if len(support) <= 2:
        return _short_circuit("qap1", a, b,
                              "support of a is below the family minimum m >= 3",
                              bits=2 * bits_for(n))
    if sum(1 for bit in b if bit == 0) < 3:
        return _short_circuit("qap1", a, b, "b has fewer than three zeros",
                              bits=2 * bits_for(n))
    p = min(i for i in range(1, n + 1) if not a[i - 1])
    params = Qap1Params(n=n, i_set=support, j_set=support, k=p, l=p)
    form = build_qap1(params)
    forced = list(b)
    forced[p - 1] = 1  # Bob sets b_p = 1 before building his permutation
    sigma = fixed_ones_permutation(tuple(forced))
    return _result("qap1", a, b, mode="protocol",
                   slack=_slack_at(form, sigma), setup_bits=bits_for(n),
                   form=form, sigma=sigma, params=params,
                   in_family=True)


def _in_family(params) -> bool:
    try:
        params.validate()
        return True
    except InvalidParameterError:
        return False


def _slack_qap2(a: Bits, b: Bits) -> SlackProtocolResult:
    m = len(a)
    n = 2 * m + 1
    support = frozenset(i for i in range(1, m + 1) if a[i - 1])
    params = Qap2Params(n=n, p_set=support, q_set=support, beta=2)
    form = build_qap2(params, check=False)
    sigma = _halved_block_permutation(b, forced_swaps=frozenset())
    return _result("qap2", a, b, mode="protocol",
                   slack=_slack_at(form, sigma), setup_bits=0,
                   form=form, sigma=sigma, params=params,
                   in_family=_in_family(params))


def _slack_qap3(a: Bits, b: Bits) -> SlackProtocolResult:
    m = len(a)
    n = 2 * m + 1
    if all(a):
        return _short_circuit("qap3", a, b, "a is all-ones", bits=1)
    support = frozenset(i for i in range(1, m + 1) if a[i - 1])
    p2 = min(i for i in range(1, m + 1) if not a[i - 1])
    params = Qap3Params(n=n, p1_set=support, p2_set=frozenset({p2}),
                        q_set=support, beta=2)
    form = build_qap3(params, check=False)
    sigma = _halved_block_permutation(b, forced_swaps=frozenset({p2}))
    return _result("qap3", a, b, mode="protocol",
                   slack=_slack_at(form, sigma), setup_bits=bits_for(n),
                   form=form, sigma=sigma, params=params,
                   in_family=_in_family(params))


def _slack_qap4(a: Bits, b: Bits) -> SlackProtocolResult:
    n = len(a)
    if n < 7:
        return _short_circuit("qap4", a, b, "n < 7: vectors exchanged directly",
                              bits=n)
    support = tuple(i for i in range(1, n + 1) if a[i - 1])
    if len(support) < 7:
        return _short_circuit("qap4", a, b,
                              "support of a is below the family minimum m >= 7",
                              bits=len(support) * bits_for(n))
    if sum(1 for bit in b if bit == 0) < 2:
        return _short_circuit("qap4", a, b, "b has fewer than two zeros",
                              bits=bits_for(n))
    params = Qap4Params(n=n, i_set=support, j_set=support)
    form = build_qap4(params)
    sigma = fixed_ones_permutation(b)
    return _result("qap4", a, b, mode="protocol",
                   slack=_slack_at(form, sigma), setup_bits=0,
                   form=form, sigma=sigma, params=params,
                   in_family=True)


_SLACK_PROTOCOLS = {
    "qap1": _slack_qap1,
    "qap2": _slack_qap2,
    "qap3": _slack_qap3,
    "qap4": _slack_qap4,
}


def slack_protocol(family: str, a, b) -> SlackProtocolResult:
    """Run one of the four Alice/Bob slack constructions.

    For qap1 and qap4 the vectors have length n; for qap2 and qap3 they
    have length m and the inequality lives at n = 2m+1.  The result's
    slack must equal N[1](a, b) / 2 whenever a protocol run happens;
    degenerate inputs short-circuit to the exact answer.
    """
    if family not in _SLACK_PROTOCOLS:
        raise ProtocolInputError(
            f"slack protocols exist for {tuple(_SLACK_PROTOCOLS)}, got {family!r}")
    a = as_bits(a)
    b = as_bits(b, len(a))
    return _SLACK_PROTOCOLS[family](a, b)
