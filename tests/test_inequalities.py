import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from oracle_streams import (
    ORACLE,
    form_key,
    lexicographic_rank,
    slack_counts_at,
    vertex_entries,
)

from qappoly import inequalities
from qappoly.errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidParameterError,
    QappolyError,
)
from qappoly.geometry import vertex_space
from qappoly.indexing import flat_index, triangle_position
from qappoly.inequalities import (
    Qap1Params,
    Qap2Params,
    Qap3Params,
    Qap4Params,
    Qap5Bounds,
    Qap5Params,
    YPoint,
    binom2,
    build_qap1,
    build_qap2,
    build_qap3,
    build_qap4,
    build_qap5,
    closed_form_slack,
    entries_on_match_rows,
    enumerate_family,
    evaluate,
    family_form_at,
    family_segments,
    match_matrix,
    slack_counts,
    slack_from_counts,
    slack_table_csv,
)
from qappoly.perms import Permutation, enumerate_permutations


def _vertex_point(sigma: Permutation) -> YPoint:
    """The vertex of sigma as a point, from the oracle's entry set."""
    return YPoint(sigma.n, dict.fromkeys(vertex_entries(sigma.image), 1))


def _diag(form) -> dict[int, int]:
    return {f1: c for f1, f2, c in form.entries() if f1 == f2}


def _offdiag(form) -> dict[tuple[int, int], int]:
    return {(f1, f2): c for f1, f2, c in form.entries() if f1 != f2}


def test_binom2_convention():
    assert binom2(7) == 21
    assert binom2(0) == 0
    assert binom2(-1) == 1  # the value the slack algebra needs at q = 0


# ---------------------------------------------------------------------------
# builders


def test_qap1_term_structure():
    form = build_qap1(Qap1Params(n=6, i_set=(1, 2, 3), j_set=(1, 2, 3), k=4, l=4))
    diag, off = len(_diag(form)), len(_offdiag(form))
    assert (diag, off) == (1, 6)  # one -1 diagonal, 3 positive + 3 negative cross terms
    assert sum(1 for c in _offdiag(form).values() if c == 1) == 3
    assert sum(1 for c in _offdiag(form).values() if c == -1) == 3
    assert form.rhs == 0 and form.sense == "<=" and form.scale == 1


def test_qap1_rejections():
    with pytest.raises(InvalidParameterError, match="n >= 6"):
        build_qap1(Qap1Params(n=5, i_set=(1, 2, 3), j_set=(1, 2, 3), k=4, l=4))
    with pytest.raises(InvalidParameterError, match="m >= 3"):
        build_qap1(Qap1Params(n=6, i_set=(1, 2), j_set=(1, 2), k=4, l=4))
    with pytest.raises(InvalidParameterError, match="distinct"):
        build_qap1(Qap1Params(n=6, i_set=(1, 2, 4), j_set=(1, 2, 3), k=4, l=5))


def test_qap1_identity_evaluation():
    form = build_qap1(Qap1Params(n=6, i_set=(1, 2, 3), j_set=(1, 2, 3), k=4, l=4))
    ident = _vertex_point(Permutation.identity(6))
    assert evaluate(form, ident).lhs == -1  # q=3 matches, P(4,4)=1: 3 - 1 - 3
    assert evaluate(form, ident).slack == 1


def test_qap2_term_structure():
    form = build_qap2(Qap2Params(n=7, p_set=(1, 2, 3), q_set=(1, 2, 3), beta=2))
    assert all(c == 2 for c in _diag(form).values()) and len(_diag(form)) == 9
    assert all(c == -2 for c in _offdiag(form).values())
    # off-diagonal runs over cell pairs with distinct rows: C(3,2)*3*3
    assert len(_offdiag(form)) == 27
    assert form.rhs == 2 and form.scale == 2 and form.sense == "<="


def test_qap2_rejections():
    with pytest.raises(InvalidParameterError, match="beta >= 2"):
        build_qap2(Qap2Params(n=7, p_set=(1, 2, 3), q_set=(1, 2, 3), beta=1))
    with pytest.raises(InvalidParameterError, match=r"\|P\|\+\|Q\|"):
        build_qap2(Qap2Params(n=7, p_set=(1, 2, 3, 4), q_set=(1, 2, 3, 4), beta=2))


def test_qap3_accepts_spec_example():
    params = Qap3Params(n=13, p1_set=(4, 5, 6), p2_set=(7,), q_set=(1, 2, 3), beta=2)
    form = build_qap3(params)
    assert _diag(form)[flat_index(13, 4, 1)] == -2   # -(beta-1), scaled by 2
    assert _diag(form)[flat_index(13, 7, 2)] == 4    # +beta, scaled by 2
    assert form.sense == ">=" and form.scale == 2 and form.rhs == 2 - 4


def test_qap3_rejections():
    with pytest.raises(InvalidParameterError, match="disjoint"):
        Qap3Params(n=13, p1_set=(4, 5), p2_set=(5,), q_set=(1, 2, 3), beta=2).validate()
    with pytest.raises(InvalidParameterError, match=r"\|Q\|"):
        Qap3Params(n=13, p1_set=(4, 5, 6), p2_set=(7,), q_set=(1, 2), beta=2).validate()


def test_qap4_term_structure():
    form = build_qap4(Qap4Params(n=7, i_set=tuple(range(1, 8)), j_set=tuple(range(1, 8))))
    assert sorted(_diag(form).values()) == [1] * 7
    assert sorted(_offdiag(form).values()) == [-1] * 21
    assert form.rhs == 1


def test_qap4_rejections():
    with pytest.raises(InvalidParameterError, match="m >= 7"):
        build_qap4(Qap4Params(n=7, i_set=tuple(range(1, 7)), j_set=tuple(range(1, 7))))
    with pytest.raises(InvalidParameterError, match="n >= 7"):
        build_qap4(Qap4Params(n=6, i_set=tuple(range(1, 8)), j_set=tuple(range(1, 8))))


def test_qap4_is_qap5_special_case():
    # beta=2 with 0/1 coefficients on a partial permutation support: the
    # qap5 form is exactly -2 times the qap4 form (sense flipped)
    i_set = (1, 2, 3, 4, 5, 6, 7)
    q4 = build_qap4(Qap4Params(n=7, i_set=i_set, j_set=i_set))
    q5 = build_qap5(Qap5Params(n=7, beta=2, coeffs={(r, r): 1 for r in i_set}))
    assert _diag(q5) == {f: -2 * c for f, c in _diag(q4).items()}
    assert _offdiag(q5) == {k: -2 * c for k, c in _offdiag(q4).items()}
    assert q5.rhs == -2 * q4.rhs
    assert (q4.sense, q5.sense) == ("<=", ">=")


def test_qap5_degenerate_examples():
    # single coefficient: diagonal 1 - (2*2-1) = -2, rhs beta - beta^2 = -2
    form = build_qap5(Qap5Params(n=4, beta=2, coeffs={(1, 1): 1}))
    assert list(_diag(form).values()) == [-2] and form.rhs == -2
    for sigma in enumerate_permutations(4):
        lhs = evaluate(form, _vertex_point(sigma)).lhs
        assert lhs in (-2, 0)
    # all-zero coefficients with beta=1: 0 >= 0, tight everywhere
    zero = build_qap5(Qap5Params(n=4, beta=1, coeffs={}))
    assert zero.rhs == 0
    for sigma in enumerate_permutations(4):
        assert evaluate(zero, _vertex_point(sigma)).slack == 0


def test_qap5_slack_identity_random():
    rng = random.Random(3)
    perms = list(enumerate_permutations(5))   # the vertex space's order
    points = [_vertex_point(sigma) for sigma in perms]
    zt = vertex_space(5).zt
    for _ in range(30):
        coeffs = {(i, j): rng.randint(-2, 2) for i in range(1, 6) for j in range(1, 6)}
        beta = rng.randint(-2, 3)
        params = Qap5Params(n=5, beta=beta, coeffs=coeffs)
        form = build_qap5(params)
        lookup = params.coeff_map()
        closed = closed_form_slack("qap5", params, zt)
        for v, sigma in enumerate(perms):
            s = sum(lookup.get((i, sigma(i)), 0) for i in range(1, 6))
            assert evaluate(form, points[v]).slack \
                == (s - beta) * (s - beta + 1) == closed[v]


def test_qap2_qap3_match_qap5_at_vertices():
    # indicator coefficients reproduce the forms up to same-row terms that
    # vanish at vertices: the denominator-cleared slack (scale 2) equals the
    # qap5 slack exactly
    p3 = Qap3Params(n=7, p1_set=(1, 2), p2_set=(3,), q_set=(4, 5, 6), beta=1)
    f3 = build_qap3(p3)
    coeffs = {(i, j): 1 for i in p3.p1_set for j in p3.q_set}
    coeffs.update({(i, j): -1 for i in p3.p2_set for j in p3.q_set})
    f5 = build_qap5(Qap5Params(n=7, beta=1, coeffs=coeffs))
    p2 = Qap2Params(n=7, p_set=(1, 2, 3), q_set=(4, 5, 6), beta=2)
    f2 = build_qap2(p2)
    g5 = build_qap5(Qap5Params(n=7, beta=2,
                               coeffs={(i, j): 1 for i in p2.p_set for j in p2.q_set}))
    rng = random.Random(5)
    for _ in range(200):
        sigma = Permutation(tuple(rng.sample(range(1, 8), 7)))
        v = _vertex_point(sigma)
        assert evaluate(f3, v).slack * f3.scale == evaluate(f5, v).slack
        assert evaluate(f2, v).slack * f2.scale == evaluate(g5, v).slack


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_zero_point():
    form = build_qap1(Qap1Params(n=6, i_set=(1, 2, 3), j_set=(1, 2, 3), k=4, l=4))
    res = evaluate(form, YPoint.zero(6))
    assert res.lhs == 0 and res.satisfied


def test_evaluate_dimension_mismatch():
    form = build_qap1(Qap1Params(n=6, i_set=(1, 2, 3), j_set=(1, 2, 3), k=4, l=4))
    with pytest.raises(DimensionMismatchError):
        evaluate(form, YPoint.zero(7))


def test_evaluate_qap4_on_three_match_vertex():
    form = build_qap4(Qap4Params(n=7, i_set=tuple(range(1, 8)), j_set=tuple(range(1, 8))))
    sigma = Permutation((1, 2, 3, 5, 4, 7, 6))  # exactly 3 fixed points
    res = evaluate(form, _vertex_point(sigma))
    assert res.lhs == 0 and res.satisfied  # 3 - C(3,2) = 0 <= 1


def test_evaluate_matches_dense_dot_product():
    # dense rational oracle for an arbitrary reduction-style point
    from qappoly.graphs import Graph
    from qappoly.reductions import build_point_qap2

    g = Graph.from_edges(7, [(1, 2), (2, 3), (1, 3), (4, 5)])
    point = build_point_qap2(g, 2)
    form = build_qap2(Qap2Params(n=7, p_set=(1, 2, 3), q_set=(1, 2, 3), beta=2))
    n2 = 49
    dense = [[Fraction(0)] * n2 for _ in range(n2)]
    for (f1, f2), val in point.values.items():
        dense[f1 - 1][f2 - 1] = val
        dense[f2 - 1][f1 - 1] = val
    entry_at = {triangle_position(7, f1, f2): (f1, f2)
                for f1 in range(1, n2 + 1) for f2 in range(f1, n2 + 1)}
    lhs = Fraction(0)
    for p, c in zip(form.positions, form.coeffs):
        f1, f2 = entry_at[p]
        lhs += c * dense[f1 - 1][f2 - 1]
    assert evaluate(form, point).lhs == lhs


# ---------------------------------------------------------------------------
# closed-form slacks


def _closed_at(family, params, sigma):
    """closed_form_slack at one vertex, over its one-column match matrix."""
    (slack,) = closed_form_slack(family, params, match_matrix([sigma.image]))
    return slack


def test_closed_form_examples():
    q4 = Qap4Params(n=9, i_set=tuple(range(1, 8)), j_set=tuple(range(1, 8)))
    assert _closed_at("qap4", q4, Permutation.identity(9)) == 15  # q=7 -> C(6,2)

    p2 = Qap2Params(n=8, p_set=(1, 2, 3), q_set=(1, 2, 3), beta=2)
    tight1 = Permutation((1, 4, 5, 2, 3, 6, 7, 8))   # q = 1 = beta - 1
    tight2 = Permutation((1, 2, 4, 3, 5, 6, 7, 8))   # q = 2 = beta
    assert _closed_at("qap2", p2, tight1) == 0
    assert _closed_at("qap2", p2, tight2) == 0

    p3 = Qap3Params(n=13, p1_set=(4, 5, 6), p2_set=(7,), q_set=(1, 2, 3), beta=2)
    sigma = Permutation((4, 5, 8, 1, 2, 9, 10, 3, 6, 7, 11, 12, 13))
    # q1 = 2 = beta with q2 = 0: slack 0
    assert sum(1 for i in p3.p1_set if sigma(i) in p3.q_set) == 2
    assert sum(1 for i in p3.p2_set if sigma(i) in p3.q_set) == 0
    assert _closed_at("qap3", p3, sigma) == 0


def test_match_matrix_marks_the_cells_each_image_matches():
    zt = match_matrix([(2, 3, 1)])
    assert zt.dtype == np.int8 and zt.shape == (9, 1)
    assert np.flatnonzero(zt[:, 0]).tolist() == [flat_index(3, i, j) - 1
                                                 for i, j in ((1, 2), (2, 3), (3, 1))]


def _sampled_forms(family, n, count, seed):
    total = sum(run.count for run in family_segments(n, family))
    return [family_form_at(n, family, index)
            for index in sorted(random.Random(seed).sample(range(total), count))]


def test_closed_form_vectorized_agrees_with_scalar():
    # the batch counts and slacks over zt against the per-image count oracle
    # on every vertex: qap1 and qap5 at n=6, qap2-qap4 at n=7, the least n
    # at which they have forms
    q5 = build_qap5(Qap5Params(n=6, beta=1, coeffs={(1, 2): 2, (3, 3): -1, (5, 1): 1}))
    cases = [("qap5", q5)] + [
        (family, form) for family, n in (("qap1", 6), ("qap2", 7), ("qap3", 7), ("qap4", 7))
        for form in _sampled_forms(family, n, 4, seed=len(family) + n)]
    for family, form in cases:
        space = vertex_space(form.n)
        counts = slack_counts(family, form.params, space.zt)
        closed = closed_form_slack(family, form.params, space.zt)
        assert closed.dtype == np.int64 and closed.shape == (len(space.images),)
        assert (closed >= 0).all()
        assert (form.scale * closed == form.scaled_slack_on_match_rows(space.zt)).all()
        for v, image in enumerate(space.images.tolist()):
            oracle = slack_counts_at(family, form.params, image)
            assert {name: int(vector[v]) for name, vector in counts.items()} == oracle
            assert closed[v] == slack_from_counts(family, form.params, oracle)


# sha256 of the slack table below, as the per-permutation route wrote it
# before the table was read from the count vectors: the CSV must stay byte
# for byte the same
QAP3_N6_TABLE_SHA256 = "9bfc826664132def083aa1171af720586c02318fe3ae6c633871e14abe06a274"


def test_slack_table_csv_is_pinned():
    # qap3 has no valid form at n=6; built unchecked, its two counts (q1 and
    # q2) still run through the table on every vertex
    forms = [build_qap3(Qap3Params(n=6, p1_set=(1, 2), p2_set=(3,), q_set=(1, 2, 3),
                                   beta=1), check=False),
             build_qap3(Qap3Params(n=6, p1_set=(2, 4, 5), p2_set=(1, 6), q_set=(2, 3, 6),
                                   beta=0), check=False)]
    text = slack_table_csv("qap3", forms, vertex_space(6).images)
    lines = text.splitlines()
    assert lines[:3] == ["form_id,sigma,q_stats,slack", "0,1 2 3 4 5 6,q1=2;q2=1,0",
                         "0,1 2 3 4 6 5,q1=2;q2=1,0"]
    assert len(lines) == 1 + 2 * 720
    assert hashlib.sha256(text.encode()).hexdigest() == QAP3_N6_TABLE_SHA256


# ---------------------------------------------------------------------------
# sparse forms on every vertex, over the match matrix


def _dense_values(n: int, entries) -> list[int]:
    """sum c * Y[f1, f2] at every vertex, in lexicographic order, in Python
    integers from each vertex's YPoint vector."""
    return [sum(c * int(point.vector[triangle_position(n, min(f1, f2), max(f1, f2))])
                for f1, f2, c in entries)
            for point in (_vertex_point(sigma)
                          for sigma in enumerate_permutations(n))]


def _random_entries(n: int, rng: random.Random, count: int, coeffs) -> list:
    flats = range(1, n * n + 1)
    return [(f, f if rng.random() < 0.3 else rng.choice(flats), rng.choice(coeffs))
            for f in rng.choices(flats, k=count)]


@pytest.mark.parametrize("n", [5, 6])
def test_entries_on_match_rows_agree_with_dense_vertex_vectors(n):
    space = vertex_space(n)
    rng = random.Random(n)
    for coeffs in ((1, -1), (1, -1, 2, -3, 7, -40), (1, -1, 9000, -12000)):
        for count in (1, 5, 40):
            entries = _random_entries(n, rng, count, coeffs)
            values = entries_on_match_rows(space.zt, entries)
            bound = sum(abs(c) for _, _, c in entries)
            assert values.dtype == (np.int16 if bound <= 2 ** 15 - 1 else np.int64)
            assert values.tolist() == _dense_values(n, entries)


@pytest.mark.parametrize("n", [5, 6])
def test_entries_on_match_rows_widens_exactly_at_the_int16_limit(n):
    space = vertex_space(n)
    f, g, h = (flat_index(n, 1, 1), flat_index(n, 2, 2), flat_index(n, 3, 3))
    cases = {
        # |c| summing to 2**15 - 1 and to 2**15
        (np.int16, 2 ** 15 - 1): [(f, f, 16384), (g, g, -16383)],
        (np.int64, 2 ** 15): [(f, f, 16384), (g, h, -16384)],
        # sums past int16 at the vertices matching all three cells, reached
        # through both diagonal and off-diagonal entries
        (np.int64, 80000): [(f, f, 20000), (g, g, 20000), (f, h, 20000), (g, h, 20000)],
    }
    for (dtype, bound), entries in cases.items():
        assert sum(abs(c) for _, _, c in entries) == bound
        values = entries_on_match_rows(space.zt, entries)
        assert values.dtype == dtype
        assert values.tolist() == _dense_values(n, entries)
    assert values.max() == 80000


def test_closed_form_slack_refuses_slacks_past_int64():
    # s(s+1) at s = 2**30 still fits an int64, at s = 2**40 it would wrap
    zt = vertex_space(4).zt
    fits = closed_form_slack("qap5", Qap5Params(n=4, beta=0, coeffs={(1, 1): 2 ** 30}), zt)
    assert fits[0] == 2 ** 30 * (2 ** 30 + 1)   # the identity matches (1, 1)
    with pytest.raises(QappolyError, match="could pass"):
        closed_form_slack("qap5", Qap5Params(n=4, beta=0, coeffs={(1, 1): 2 ** 40}), zt)


def test_entries_on_match_rows_refuses_sums_past_int64():
    space = vertex_space(4)
    with pytest.raises(QappolyError, match="past"):
        entries_on_match_rows(space.zt, [(1, 1, 2 ** 62), (6, 6, 2 ** 62)])


def test_slacks_past_int16_stay_exact():
    # beta = 200: the scaled rhs is 200 - 200**2 = -39800 and the slack
    # s(s+1) with s = counts - 200 stays near 40000, past int16, while the
    # lhs coefficients sum to far below 2**15, so the lhs runs in int16
    n = 6
    params = Qap5Params(n=n, beta=200, coeffs={(1, 1): 1, (2, 3): 1, (3, 2): -1, (4, 5): 2})
    form = build_qap5(params)
    assert sum(abs(c) for c in form.coeffs) <= 2 ** 15 - 1
    space = vertex_space(n)
    scaled = form.scaled_slack_on_match_rows(space.zt)
    closed = closed_form_slack("qap5", params, space.zt)
    assert scaled.dtype == closed.dtype == np.int64 and scaled.min() > 2 ** 15
    for row, sigma in enumerate(enumerate_permutations(n)):
        slack = evaluate(form, _vertex_point(sigma)).slack
        assert scaled[row] == slack * form.scale
        assert closed[row] == slack == slack_from_counts(
            "qap5", params, slack_counts_at("qap5", params, sigma.image))


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_qap1_n6_double_count():
    forms = list(enumerate_family(6, "qap1"))
    keys = {form_key(f) for f in forms}
    assert len(forms) == len(keys)  # canonicalization leaves no duplicates
    assert all(len(set(f.positions)) == len(f.positions) for f in forms)
    expected = 36 * sum(math.comb(5, m) ** 2 * math.factorial(m) for m in range(3, 6))
    assert len(forms) == expected == 47520


def test_enumerate_qap4_n7():
    keys = set()
    count = 0
    for form in enumerate_family(7, "qap4"):
        keys.add(form_key(form))
        count += 1
    assert count == len(keys) == math.factorial(7)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_enumerated_forms_pass_validation_below_n7(n):
    # qap1 needs n >= 6, so its runs below that yield nothing
    for family in ("qap1", "qap2", "qap3", "qap4"):
        for form in enumerate_family(n, family):
            form.params.validate()


def test_enumerate_qap2():
    assert sum(1 for _ in enumerate_family(6, "qap2")) == 0  # conditions unsatisfiable
    forms = list(enumerate_family(7, "qap2"))
    assert len(forms) == math.comb(7, 3) ** 2  # beta=2, |P|=|Q|=3 forced at n=7


def test_enumerate_qap3_n7_count():
    # at n=7 condition (v) forces |Q|=3 and beta = |P1|-|P2|
    count = sum(1 for _ in enumerate_family(7, "qap3"))
    expected = math.comb(7, 3) * (7 * 6 + 21 * 5 + 35 * 4 + 21 * 10 + 7 * 15 + 7 * 20)
    assert count == expected == 25970


def test_enumerate_qap5_requires_bounds():
    with pytest.raises(InvalidParameterError, match="bounds"):
        next(enumerate_family(4, "qap5"))
    bounds = Qap5Bounds(support=((1, 1), (2, 2)), coeff_min=0, coeff_max=1,
                        beta_min=1, beta_max=2)
    forms = list(enumerate_family(4, "qap5", bounds=bounds))
    assert len(forms) == 8  # 2 beta values x 4 assignments


@pytest.mark.parametrize("family,n", [("qap1", 4), ("qap1", 5), ("qap1", 6), ("qap2", 8),
                                      ("qap3", 7), ("qap4", 8)])
def test_enumeration_follows_the_oracle_order(family, n):
    pairs = itertools.zip_longest(enumerate_family(n, family), ORACLE[family](n))
    for form, params in pairs:
        assert form is not None and form.params == params


@pytest.mark.parametrize("family,n", [("qap1", 6), ("qap2", 7), ("qap3", 7), ("qap4", 7)])
def test_family_form_at_matches_enumeration(family, n):
    forms = list(enumerate_family(n, family))
    for index in (0, len(forms) // 2, len(forms) - 1):
        form = family_form_at(n, family, index)
        assert form_key(form) == form_key(forms[index])
        assert form.params == forms[index].params
    with pytest.raises(InvalidParameterError, match="no form"):
        family_form_at(n, family, len(forms))


@pytest.mark.parametrize("ordered", [False, True])
def test_index_rank_is_the_row_of_every_table_row(ordered):
    for size in range(9):
        for r in range(size + 1):
            table = inequalities._index_table(size, r, ordered)
            ranks = inequalities._index_rank(table, size, ordered)
            assert ranks.dtype == np.int64
            assert np.array_equal(ranks, np.arange(len(table)))


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("size", [9, 10, 11, 12])
def test_index_rank_of_seeded_picks_is_their_lexicographic_rank(size, ordered):
    rng = random.Random(size)
    picks = [rng.sample(range(size), r) for r in range(size + 1) for _ in range(20)]
    if not ordered:
        picks = [sorted(pick) for pick in picks]
    # the first and last row of each table
    picks += [list(range(r)) for r in range(size + 1)]
    picks += [list(range(size - 1, size - r - 1, -1)) if ordered else list(range(size - r, size))
              for r in range(size + 1)]
    for pick in picks:
        rank = inequalities._index_rank(np.array([pick]).reshape(1, -1), size, ordered)
        assert rank.tolist() == [lexicographic_rank(pick, size, ordered)]
    last = math.perm(size, size) if ordered else 1
    assert inequalities._index_rank([list(picks[-1])], size, ordered).tolist() == [last - 1]


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        next(enumerate_family(10, "qap1"))


def test_validity_exhaustive_small_qap1():
    # every qap1 form at n=6 is satisfied by every vertex (spot: first 400)
    space = vertex_space(6)
    for form in itertools.islice(enumerate_family(6, "qap1"), 400):
        assert (form.scaled_slack_on_match_rows(space.zt) >= 0).all()


def test_form_json_round_trip_fields():
    form = build_qap2(Qap2Params(n=7, p_set=(1, 2, 3), q_set=(1, 2, 3), beta=2))
    blob = json.loads(form.to_json())
    assert blob["family"] == "qap2" and blob["scale"] == 2 and blob["sense"] == "<="
    assert len(blob["diag"]) == 9 and len(blob["offdiag"]) == 27


def test_ypoint_json_uses_fraction_strings():
    point = YPoint(n=3, values={(1, 1): Fraction(1, 3), (2, 5): Fraction(2)})
    blob = json.loads(point.to_json())
    assert any("1/3" in str(entry) for entry in blob["entries"])
    flat = json.dumps(blob)
    assert "1/3" in flat and "0.33" not in flat


# sha256 of to_json(), computed from the dict-based form layout this one
# replaced: the JSON must stay byte for byte the same
FORM_JSON_SHA256 = {
    "qap1": "7203c1ec29ac32454ac8dc3e868333e95bc63a55460623a5992c24824b8d3df5",
    "qap2": "ef6e3b00faaa7964293b243915ac5713799cba183e95200567e9ff4bfa721279",
    "qap3": "269450e935beba2674ea5063a3eb50abc6f49316f1515721881d099f151cd4a0",
    "qap4": "708276a517096fc30d0bbe56fcba1230eef666bbb19427b32b996c4a00b17692",
    "qap5": "f93836b596cdb87ee0bc014975aa4f801b2d0d2b7298825f0f39e6c83ad1efe0",
}


@pytest.mark.parametrize("form", [
    build_qap1(Qap1Params(n=6, i_set=(1, 2, 3), j_set=(1, 2, 3), k=4, l=4)),
    build_qap2(Qap2Params(n=7, p_set=(1, 2, 3), q_set=(1, 2, 3), beta=2)),
    build_qap3(Qap3Params(n=13, p1_set=(4, 5, 6), p2_set=(7,), q_set=(1, 2, 3), beta=2)),
    build_qap4(Qap4Params(n=7, i_set=tuple(range(1, 8)), j_set=tuple(range(1, 8)))),
    build_qap5(Qap5Params(n=5, beta=0, coeffs={(1, 1): 1, (2, 2): -1})),
], ids=lambda form: form.family)
def test_form_json_is_pinned(form):
    text = form.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == FORM_JSON_SHA256[form.family], text
