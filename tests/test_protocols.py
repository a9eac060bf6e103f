import random
from fractions import Fraction

import pytest
from oracle_streams import vertex_entries

from qappoly.errors import ProtocolInputError
from qappoly.inequalities import Qap2Params, YPoint, evaluate
from qappoly.protocols import (
    HardMatrixSpec,
    as_bits,
    bits_for,
    embedding_check,
    hard_matrix_entry,
    n1_value,
    protocol_m1_composed,
    protocol_n0,
    slack_protocol,
)


def _all_vectors(n):
    return [tuple(v >> t & 1 for t in range(n)) for v in range(2 ** n)]


# ---------------------------------------------------------------------------
# hard matrices


def test_hard_matrix_examples():
    n0 = HardMatrixSpec("N", 0, 4)
    assert hard_matrix_entry(n0, (0, 0, 0, 0), (1, 1, 1, 1)) == 0
    m1 = HardMatrixSpec("M", 1, 4)
    assert hard_matrix_entry(m1, (1, 0, 0, 0), (1, 1, 0, 0)) == 0    # a.b = 1
    assert hard_matrix_entry(m1, (1, 1, 1, 0), (1, 1, 1, 1)) == 4    # a.b = 3


def test_hard_matrix_validation():
    with pytest.raises(ProtocolInputError):
        HardMatrixSpec("X", 0, 3)
    with pytest.raises(ProtocolInputError):
        HardMatrixSpec("N", 5, 3)
    with pytest.raises(ProtocolInputError, match="length"):
        hard_matrix_entry(HardMatrixSpec("N", 0, 3), (1, 0), (1, 0, 1))


def test_mixture_identity_exhaustive():
    # (N0 + N1) / 2 == M1 entrywise
    for n in range(1, 7):
        vectors = _all_vectors(n)
        for a in vectors:
            for b in vectors:
                n0 = hard_matrix_entry(HardMatrixSpec("N", 0, n), a, b)
                n1 = hard_matrix_entry(HardMatrixSpec("N", 1, n), a, b)
                m1 = hard_matrix_entry(HardMatrixSpec("M", 1, n), a, b)
                assert Fraction(n0 + n1, 2) == m1


# ---------------------------------------------------------------------------
# the N0 protocol


def test_n0_all_ones_example():
    report = protocol_n0("1111", "1111")
    assert report.expectation == 12
    assert report.probability_total() == 1
    assert report.max_bits == report.bit_bound == 4


def test_n0_small_inner_products_give_zero():
    assert protocol_n0("1000", "1111").expectation == 0
    assert protocol_n0("1100", "0011").expectation == 0


def test_n0_exact_exhaustive():
    for n in range(2, 6):
        for a in _all_vectors(n):
            for b in _all_vectors(n):
                report = protocol_n0(a, b)
                expected = hard_matrix_entry(HardMatrixSpec("N", 0, n), a, b)
                assert report.expectation == expected
                assert report.max_bits <= 2 * bits_for(n)
                assert report.probability_total() == 1


def test_n0_requires_two_indices():
    with pytest.raises(ProtocolInputError):
        protocol_n0("1", "1")


@pytest.mark.parametrize("samples", [0, -5])
def test_n0_sampling_needs_a_sample(samples):
    with pytest.raises(ProtocolInputError, match="samples >= 1"):
        protocol_n0("1111", "1111", mode="sample", samples=samples)


def test_n0_sampling_close_to_exact():
    a, b = "1011010110", "1110011011"
    exact = hard_matrix_entry(HardMatrixSpec("N", 0, 10), as_bits(a), as_bits(b))
    report = protocol_n0(a, b, mode="sample", samples=50_000, seed=17)
    err = abs(float(report.expectation) - exact)
    assert err <= 4 * report.std_error
    assert report.seed == 17 and report.samples == 50_000


# ---------------------------------------------------------------------------
# composed M1 protocol


def test_m1_composed_examples():
    assert protocol_m1_composed("1000", "1100").expectation == 0     # a.b = 1
    assert protocol_m1_composed("1110", "1111").expectation == 4     # a.b = 3


def test_m1_composed_exhaustive():
    for n in range(2, 6):
        for a in _all_vectors(n):
            for b in _all_vectors(n):
                report = protocol_m1_composed(a, b)
                expected = hard_matrix_entry(HardMatrixSpec("M", 1, n), a, b)
                assert report.expectation == expected
                assert report.bit_bound == 1 + 2 * bits_for(n)
                assert report.max_bits <= report.bit_bound
                assert report.probability_total() == 1


# ---------------------------------------------------------------------------
# the submatrix embedding


def test_embedding_small_cases():
    assert embedding_check(2, 4).ok
    assert embedding_check(3, 6).ok
    assert embedding_check(4, 4).ok  # padded vectors of length 1


def test_embedding_exhaustive_to_n10():
    for n in range(3, 11):
        for k in range(2, n):
            assert embedding_check(k, n).ok


def test_embedding_rejects_bad_range():
    with pytest.raises(ProtocolInputError):
        embedding_check(1, 5)
    with pytest.raises(ProtocolInputError):
        embedding_check(6, 5)


# ---------------------------------------------------------------------------
# slack protocols


def test_slack_qap1_spec_example():
    # a.b = 3 after setup: slack is C(2,2) = 1 = N1/2
    res = slack_protocol("qap1", "11100000", "11100100")
    assert res.mode == "protocol" and res.ok
    assert res.slack == 1 and res.doubled_output == 2 == n1_value(res.a, res.b)
    assert res.setup_bits == bits_for(8)
    assert res.in_family


def test_slack_qap2_spec_example():
    res = slack_protocol("qap2", "1100", "1100")
    assert res.mode == "protocol" and res.slack == 0 and res.ok
    assert res.in_family is False  # |P| = 2 sits below the facet conditions
    assert res.setup_bits == 0


def test_a_fault_inside_validate_is_not_read_as_out_of_family(monkeypatch):
    def broken(params):
        raise RuntimeError("validate broke")

    monkeypatch.setattr(Qap2Params, "validate", broken)
    with pytest.raises(RuntimeError, match="validate broke"):
        slack_protocol("qap2", "1100", "1100")


def test_slack_qap3_displaces_p2_row():
    rng = random.Random(31)
    m = 6
    for _ in range(100):
        a = tuple(rng.randint(0, 1) for _ in range(m))
        b = tuple(rng.randint(0, 1) for _ in range(m))
        res = slack_protocol("qap3", a, b)
        assert res.ok
        if res.mode == "protocol":
            p2 = next(iter(res.alice_params.p2_set))
            assert res.bob_sigma(p2) == p2 + m  # q2 = 0 by construction


@pytest.mark.parametrize("family,length", [
    ("qap1", 6), *((family, length) for family in ("qap2", "qap3") for length in range(1, 7)),
    ("qap4", 7),
])
def test_slack_protocols_exhaustive_smallest(family, length):
    # the slack read from the match column equals the oracle vertex's
    protocol_runs = 0
    for a in _all_vectors(length):
        for b in _all_vectors(length):
            res = slack_protocol(family, a, b)
            assert res.ok, (family, a, b)
            assert res.doubled_output == n1_value(res.a, res.b)
            if res.mode == "protocol":
                protocol_runs += 1
                sigma = res.bob_sigma
                vertex = YPoint(sigma.n, dict.fromkeys(vertex_entries(sigma.image), 1))
                assert res.slack == evaluate(res.alice_form, vertex).slack, (family, a, b)
    assert protocol_runs > 0


def test_slack_short_circuit_reasons():
    assert slack_protocol("qap1", "000000", "111000").reason == "a is all-zero"
    assert slack_protocol("qap1", "111111", "111000").reason == "a is all-ones"
    assert "m >= 3" in slack_protocol("qap1", "110000", "111000").reason
    assert "zeros" in slack_protocol("qap1", "111000", "111110").reason
    assert slack_protocol("qap3", "1111", "0000").reason == "a is all-ones"
    assert "n < 7" in slack_protocol("qap4", "110", "010").reason
    assert "m >= 7" in slack_protocol("qap4", "11100000", "00110011").reason


def test_slack_protocol_closed_form_agreement():
    # the protocol slack agrees with the closed-form slack of Alice's family
    from qappoly.inequalities import closed_form_slack, match_matrix

    rng = random.Random(8)
    for _ in range(50):
        a = tuple(rng.randint(0, 1) for _ in range(9))
        b = tuple(rng.randint(0, 1) for _ in range(9))
        res = slack_protocol("qap1", a, b)
        if res.mode != "protocol":
            continue
        (closed,) = closed_form_slack("qap1", res.alice_params,
                                      match_matrix([res.bob_sigma.image]))
        assert res.slack == closed


def test_slack_qap1_rejects_tiny_n():
    with pytest.raises(ProtocolInputError, match="n >= 6"):
        slack_protocol("qap1", "11100", "00011")


def test_bit_vector_validation():
    with pytest.raises(ProtocolInputError, match="0/1"):
        slack_protocol("qap4", "11a1000", "1100000")
    with pytest.raises(ProtocolInputError, match="length"):
        slack_protocol("qap4", "1110000", "110")


def test_slack_rejects_unknown_family():
    with pytest.raises(ProtocolInputError):
        slack_protocol("qap5", "1100", "1100")
