import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from oracle_streams import ORACLE

from qappoly import inequalities, reductions
from qappoly.errors import CapExceededError, InvalidParameterError
from qappoly.graphs import Graph, max_clique_bruteforce
from qappoly.indexing import canon_entry, flat_index
from qappoly.inequalities import (
    BUILDERS,
    YPoint,
    enumerate_family,
    evaluate,
    family_form_at,
)
from qappoly.perms import Permutation, vertex_from_permutation
from qappoly.reductions import (
    brute_force_membership,
    build_point_qap1,
    build_point_qap2,
    build_point_qap4,
    clique_via_membership_oracle,
    compiled_blocks,
    neighborhood_clique_number,
)

C5_PLUS_ISOLATED = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
TRIANGLE_7 = Graph.from_edges(7, [(1, 2), (2, 3), (1, 3)])


# ---------------------------------------------------------------------------
# point constructions


def test_qap1_point_cases():
    y = build_point_qap1(C5_PLUS_ISOLATED, 6, 6, 2)
    assert y.get(6, 6, 6, 6) == 2            # the designated cell gets t
    assert y.get(1, 1, 1, 1) == 36           # every other diagonal is n^2
    assert y.get(1, 2, 6, 6) == 1            # row and column both differ
    assert y.get(6, 3, 6, 6) == 0            # same row as the cell: unspecified
    assert y.get(1, 6, 6, 6) == 0            # same column as the cell: unspecified
    assert y.get(1, 1, 2, 5) == 0            # {1,2} is an edge
    assert y.get(1, 1, 3, 5) == 6            # {1,3} is not


def test_qap1_point_preconditions():
    with pytest.raises(InvalidParameterError, match="t >= 2"):
        build_point_qap1(C5_PLUS_ISOLATED, 1, 1, 1)
    with pytest.raises(InvalidParameterError, match="n >= 6"):
        build_point_qap1(Graph.cycle(5), 1, 1, 2)


def test_qap2_point_cases():
    y = build_point_qap2(C5_PLUS_ISOLATED, 2)
    assert y.get(1, 1, 3, 5) == 36 and y.get(1, 4, 3, 4) == 36   # non-edge
    assert y.get(1, 1, 2, 4) == 0                               # edge
    assert y.get(1, 1, 1, 1) == Fraction(1, 2)                  # diagonal, column 1
    assert y.get(2, 3, 2, 3) == 0                               # diagonal, column > 1
    with pytest.raises(InvalidParameterError, match="n-4"):
        build_point_qap2(C5_PLUS_ISOLATED, 3)


def test_qap4_point_cases():
    y = build_point_qap4(TRIANGLE_7, 6)
    assert y.get(4, 2, 4, 2) == Fraction(1, 6)
    assert y.get(1, 3, 2, 6) == 0                 # edge pair
    assert y.get(1, 1, 4, 4) == Fraction(7, 6)    # non-edge pair
    with pytest.raises(InvalidParameterError, match="t >= 6"):
        build_point_qap4(TRIANGLE_7, 5)
    with pytest.raises(InvalidParameterError, match="n >= 7"):
        build_point_qap4(Graph.cycle(6), 6)


# ---------------------------------------------------------------------------
# membership oracle


def test_zero_point_is_member_of_qap1():
    verdict = brute_force_membership(YPoint.zero(6), "qap1")
    assert verdict.member and verdict.forms_checked == 47520


def test_vertices_are_members_of_every_family():
    rng = random.Random(4)
    for _ in range(3):
        sigma = Permutation(tuple(rng.sample(range(1, 8), 7)))
        point = YPoint.from_vertex(vertex_from_permutation(sigma))
        for family in ("qap2", "qap3", "qap4"):
            assert brute_force_membership(point, family).member, (family, sigma)


def test_membership_rejects_unknown_family():
    with pytest.raises(InvalidParameterError):
        brute_force_membership(YPoint.zero(6), "qap5")


def test_qap1_membership_tracks_neighborhood_cliques():
    # feasible iff the largest clique adjacent to the designated cell in the
    # expanded graph has size at most t
    for graph, k in ((C5_PLUS_ISOLATED, 6), (C5_PLUS_ISOLATED, 1)):
        for t in (2, 3):
            verdict = brute_force_membership(build_point_qap1(graph, k, 1, t), "qap1")
            assert verdict.member == (neighborhood_clique_number(graph, k, 1) <= t)


def test_qap1_witness_confirmed_by_evaluator():
    triangle6 = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3)])
    verdict = brute_force_membership(build_point_qap1(triangle6, 6, 6, 2), "qap1")
    assert not verdict.member
    assert verdict.witness is not None
    res = evaluate(verdict.witness, build_point_qap1(triangle6, 6, 6, 2))
    assert not res.satisfied


def _qap3_cross_point() -> YPoint:
    # Y[(6,4), (7,5)] = 100 breaks exactly the qap3 forms that weigh it -2,
    # i.e. those with 4, 5 in Q and rows 6 and 7 split between P1 and P2
    entry = canon_entry(flat_index(7, 6, 4), flat_index(7, 7, 5))
    return YPoint(n=7, values={entry: Fraction(100)})


def _qap4_antidiagonal_point() -> YPoint:
    # diagonal 1/3 on the anti-diagonal cells: a qap4 form is broken exactly
    # when its permutation meets at least 4 of them
    values = {}
    for r in range(1, 8):
        f = flat_index(7, r, 8 - r)
        values[(f, f)] = Fraction(1, 3)
    return YPoint(n=7, values=values)


@pytest.mark.parametrize("family,point", [
    ("qap1", build_point_qap1(Graph.from_edges(6, [(1, 2), (2, 3), (1, 3)]), 6, 6, 2)),
    ("qap2", build_point_qap2(Graph.from_edges(7, [(5, 6), (6, 7), (5, 7)]), 2)),
    ("qap3", _qap3_cross_point()),
    ("qap4", _qap4_antidiagonal_point()),
], ids=["qap1", "qap2", "qap3", "qap4"])
def test_witness_is_the_first_violated_form(family, point, monkeypatch):
    expected = next(index for index, form in enumerate(enumerate_family(point.n, family))
                    if not evaluate(form, point).satisfied)
    # small blocks, so the witness id also counts the forms of earlier blocks
    monkeypatch.setattr(reductions, "BLOCK_FORMS", 1000)
    compiled_blocks.cache_clear()
    try:
        verdict = brute_force_membership(point, family)
    finally:
        compiled_blocks.cache_clear()
    assert not verdict.member and verdict.witness_index == expected


def test_cap_checked_on_a_warm_cache():
    brute_force_membership(YPoint.zero(6), "qap1")  # (qap1, 6) is now compiled
    with pytest.raises(CapExceededError, match="cap 5"):
        brute_force_membership(YPoint.zero(6), "qap1", cap=5)


def test_violated_queries_compile_once():
    triangle6 = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3)])
    point = build_point_qap1(triangle6, 6, 6, 2)
    compiled_blocks.cache_clear()
    assert not brute_force_membership(point, "qap1").member
    assert not brute_force_membership(point, "qap1").member
    info = compiled_blocks.cache_info()
    assert info.misses == 1 and info.hits == 1


def test_compile_refuses_families_over_the_entry_limit(monkeypatch):
    compiled_blocks.cache_clear()
    monkeypatch.setattr(reductions, "COMPILE_ENTRY_LIMIT", 1000)
    with pytest.raises(CapExceededError, match="more than 1000"):
        compiled_blocks("qap1", 6)
    assert compiled_blocks.cache_info().currsize == 0


@pytest.mark.parametrize("family,n", [("qap1", 6), ("qap2", 7), ("qap3", 7), ("qap4", 7)])
def test_compile_and_unranking_follow_the_oracle_order(family, n, monkeypatch):
    oracle = list(ORACLE[family](n))
    forms = [BUILDERS[family](params) for params in oracle]
    # small blocks, so that runs straddle blocks
    monkeypatch.setattr(reductions, "BLOCK_FORMS", 1000)
    compiled_blocks.cache_clear()
    try:
        blocks = compiled_blocks(family, n)
    finally:
        compiled_blocks.cache_clear()
    sign = -1 if forms[0].sense == ">=" else 1
    assert len(blocks) == math.ceil(len(forms) / 1000)
    for number, (coords, coeffs, offsets, rhs) in enumerate(blocks):
        chunk = forms[1000 * number:1000 * (number + 1)]
        sizes = [len(form.positions) for form in chunk]
        assert coords.tolist() == [p for form in chunk for p in form.positions]
        assert coeffs.tolist() == [sign * c for form in chunk for c in form.coeffs]
        assert offsets.tolist() == [0] + list(itertools.accumulate(sizes))[:-1]
        assert rhs.tolist() == [sign * form.rhs for form in chunk]
    for index, params in enumerate(oracle):
        assert family_form_at(n, family, index).params == params
    with pytest.raises(InvalidParameterError, match="no form"):
        family_form_at(n, family, len(oracle))


def test_entry_limit_is_checked_before_any_form_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a form was built")

    monkeypatch.setattr(inequalities.Segment, "arrays", refuse)
    compiled_blocks.cache_clear()
    with pytest.raises(CapExceededError, match="more than 140000000"):
        compiled_blocks("qap1", 9)
    # the last qap1 form at n=9 is decoded without compiling anything
    forms = 81 * sum(math.comb(8, m) ** 2 * math.factorial(m) for m in range(3, 9))
    params = family_form_at(9, "qap1", forms - 1).params
    assert (params.k, params.l) == (9, 9)
    assert params.i_set == tuple(range(1, 9))
    assert params.j_set == tuple(range(8, 0, -1))
    with pytest.raises(InvalidParameterError, match="no form"):
        family_form_at(9, "qap1", forms)
    assert compiled_blocks.cache_info().currsize == 0


def test_qap2_threshold_matches_spec_example():
    # triangle at n=7: infeasible at t=2, feasible at t=3
    assert not brute_force_membership(build_point_qap2(TRIANGLE_7, 2), "qap2").member
    assert brute_force_membership(build_point_qap2(TRIANGLE_7, 3), "qap2").member


def test_qap4_thresholds():
    k8_minus_edge = Graph.from_edges(
        8, [e for e in Graph.complete(8).edges if e != (1, 2)])
    assert not brute_force_membership(build_point_qap4(k8_minus_edge, 6), "qap4").member
    k7_plus_isolated = Graph.from_edges(8, list(Graph.complete(7).edges))
    assert brute_force_membership(build_point_qap4(k7_plus_isolated, 7), "qap4").member


def test_membership_monotone_in_t():
    graphs = [TRIANGLE_7, Graph.from_edges(7, [(1, 2), (3, 4), (4, 5), (3, 5)])]
    for g in graphs:
        seen_member = False
        for t in range(1, g.n - 3):
            member = brute_force_membership(build_point_qap2(g, t), "qap2").member
            assert not (seen_member and not member)  # single cut point
            seen_member = member


# ---------------------------------------------------------------------------
# clique extraction round trips


def test_oracle_examples():
    assert clique_via_membership_oracle(C5_PLUS_ISOLATED, "qap1").clique_size == 2
    assert clique_via_membership_oracle(C5_PLUS_ISOLATED, "qap2").clique_size == 2
    assert clique_via_membership_oracle(TRIANGLE_7, "qap2").clique_size == 3
    k7_plus_isolated = Graph.from_edges(8, list(Graph.complete(7).edges))
    assert clique_via_membership_oracle(k7_plus_isolated, "qap4").clique_size == 7


def test_oracle_planted_k4():
    g = Graph.from_edges(7, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6)])
    report = clique_via_membership_oracle(g, "qap2")
    assert report.clique_size == max_clique_bruteforce(g)[0] == 4


def test_oracle_k8_minus_matching():
    g = Graph.from_edges(8, [e for e in Graph.complete(8).edges
                             if e not in {(1, 2), (3, 4), (5, 6), (7, 8)}])
    exact = max_clique_bruteforce(g)[0]
    assert clique_via_membership_oracle(g, "qap4").clique_size == exact == 4


def test_oracle_rejects_excluded_cases():
    with pytest.raises(InvalidParameterError, match="except K_n"):
        clique_via_membership_oracle(Graph.complete(6), "qap1")
    with pytest.raises(InvalidParameterError, match="n >= 6"):
        clique_via_membership_oracle(Graph.cycle(5), "qap1")
    with pytest.raises(InvalidParameterError, match="qap1, qap2, qap4"):
        clique_via_membership_oracle(TRIANGLE_7, "qap3")


def test_oracle_edgeless_and_single_edge():
    edgeless = Graph.from_edges(6, [])
    assert clique_via_membership_oracle(edgeless, "qap1").clique_size == 1
    one_edge = Graph.from_edges(6, [(2, 5)])
    assert clique_via_membership_oracle(one_edge, "qap1").clique_size == 2
    assert clique_via_membership_oracle(one_edge, "qap2").clique_size == 2
