import dataclasses
import functools
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from graph_fixtures import cycle, random_graph
from oracle_streams import (
    ORACLE,
    has_edge,
    masked_orbit_minima,
    neighborhood_clique_number,
    vertex_entries,
)

from qappoly import inequalities, reductions
from qappoly.errors import CapExceededError, InvalidParameterError, QappolyError
from qappoly.graphs import Graph, max_clique_bruteforce
from qappoly.indexing import (
    canon_entry,
    flat_index,
    pair_from_flat,
    triangle_dimension,
    triangle_position,
)
from qappoly.inequalities import (
    BUILDERS,
    Qap1Params,
    Qap4Params,
    YPoint,
    enumerate_family,
    evaluate,
    family_form_at,
    family_segments,
)
from qappoly.perms import Permutation
from qappoly.reductions import (
    brute_force_membership,
    build_point_qap1,
    build_point_qap2,
    build_point_qap4,
    clique_via_membership_oracle,
    column_classes,
    compiled_blocks,
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
        build_point_qap1(cycle(5), 1, 1, 2)


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
        build_point_qap4(cycle(6), 6)


# Reference builders written as plain loops, one Fraction per entry: the
# oracles of the numpy builders.  Each returns (values, provenance).


def oracle_point_qap1(graph, k, l, t):
    n = graph.n
    if t < 2:
        raise InvalidParameterError(f"t >= 2 required, got {t}")
    if n < 6:
        raise InvalidParameterError(f"family requires n >= 6, got {n}")
    if not (1 <= k <= n and 1 <= l <= n):
        raise InvalidParameterError(f"(k,l)=({k},{l}) out of range")
    values = {}
    nn = n * n
    for f1 in range(1, nn + 1):
        i1, j1 = pair_from_flat(n, f1)
        for f2 in range(f1, nn + 1):
            i2, j2 = pair_from_flat(n, f2)
            if f1 == f2:
                v = t if (i1, j1) == (k, l) else nn
            elif (i1, j1) == (k, l) or (i2, j2) == (k, l):
                oi, oj = (i2, j2) if (i1, j1) == (k, l) else (i1, j1)
                v = 1 if (oi != k and oj != l) else 0
            else:
                v = 0 if has_edge(graph, i1, i2) else n
            if v:
                values[(f1, f2)] = Fraction(v)
    return values, {"reduction": "qap1", "k": k, "l": l, "t": t,
                    "scale": "unscaled; any positive multiple is equivalent"}


def oracle_point_qap2(graph, t):
    n = graph.n
    if not (1 <= t <= n - 4):
        raise InvalidParameterError(f"1 <= t <= n-4 required, got t={t} at n={n}")
    values = {}
    nn = n * n
    for f1 in range(1, nn + 1):
        i1, j1 = pair_from_flat(n, f1)
        for f2 in range(f1, nn + 1):
            i2, j2 = pair_from_flat(n, f2)
            if i1 != i2:
                if not has_edge(graph, i1, i2):
                    values[(f1, f2)] = Fraction(nn)
            elif f1 == f2 and j1 == 1:
                values[(f1, f2)] = Fraction(1, t)
    return values, {"reduction": "qap2", "t": t}


def oracle_point_qap4(graph, t):
    n = graph.n
    if t < 6:
        raise InvalidParameterError(f"t >= 6 is a natural number, got {t}")
    if n < 7:
        raise InvalidParameterError(f"family requires n >= 7, got {n}")
    values = {}
    nn = n * n
    for f1 in range(1, nn + 1):
        i1, j1 = pair_from_flat(n, f1)
        for f2 in range(f1, nn + 1):
            i2, j2 = pair_from_flat(n, f2)
            if i1 != i2:
                if not has_edge(graph, i1, i2):
                    values[(f1, f2)] = Fraction(n, 6)
            elif f1 == f2:
                values[(f1, f2)] = Fraction(1, t)
    return values, {"reduction": "qap4", "t": t}


def oracle_scaled(n, values):
    """The dict point's scaled vector, by the loop the vector replaced."""
    denom = 1
    for v in values.values():
        denom = denom * v.denominator // math.gcd(denom, v.denominator)
    vec = np.zeros(triangle_dimension(n), dtype=np.int64)
    for (f1, f2), v in values.items():
        vec[triangle_position(n, f1, f2)] = int(v * denom)
    return vec, denom


def oracle_json(n, values, provenance):
    def frac(v):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)

    entries = [[list(pair_from_flat(n, f1)), list(pair_from_flat(n, f2)), frac(v)]
               for (f1, f2), v in sorted(values.items())]
    return json.dumps({"n": n, "entries": entries, "provenance": provenance},
                      sort_keys=True)


def assert_point_matches(point, n, values, provenance):
    entrywise = YPoint(n, values, provenance)
    assert point.denom == entrywise.denom
    assert np.array_equal(point.vector, entrywise.vector)
    vec, denom = point.to_scaled_vector()
    expected_vec, expected_denom = oracle_scaled(n, values)
    assert vec.dtype == np.int64 and np.array_equal(vec, expected_vec)
    assert denom == expected_denom and type(denom) is int
    assert point.values == values and list(point.values) == sorted(values)
    assert point.to_json() == oracle_json(n, values, provenance)


def _builder_cases(n, rng):
    """(numpy builder, oracle, args) for every k with l = 1 and a random l,
    and every valid t, on a seeded graph and the edgeless and complete
    graphs on n vertices."""
    graphs = (random_graph(n, 0.5, rng), Graph.from_edges(n, []), Graph.complete(n))
    for graph in graphs:
        for k in range(1, n + 1):
            for l in sorted({1, rng.randint(1, n)}):
                for t in range(2, n + 1):
                    yield build_point_qap1, oracle_point_qap1, (graph, k, l, t)
        for t in range(1, n - 3):
            yield build_point_qap2, oracle_point_qap2, (graph, t)
        if n >= 7:
            for t in range(6, n + 2):
                yield build_point_qap4, oracle_point_qap4, (graph, t)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_point_builders_match_the_fraction_loops(n):
    # every point of a graph after its first is built from its cached
    # adjacency table
    rng = random.Random(n)
    reductions._rows_adjacent.cache_clear()
    cases = 0
    for build, oracle, args in _builder_cases(n, rng):
        values, provenance = oracle(*args)
        assert_point_matches(build(*args), n, values, provenance)
        cases += 1
    assert cases > 3 * 2 * n
    info = reductions._rows_adjacent.cache_info()
    assert (info.misses, info.hits) == (3, cases - 3)


@pytest.mark.parametrize("build,oracle,args", [
    (build_point_qap1, oracle_point_qap1, (C5_PLUS_ISOLATED, 1, 1, 1)),
    (build_point_qap1, oracle_point_qap1, (cycle(5), 1, 1, 2)),
    (build_point_qap1, oracle_point_qap1, (C5_PLUS_ISOLATED, 7, 1, 2)),
    (build_point_qap1, oracle_point_qap1, (C5_PLUS_ISOLATED, 1, 0, 2)),
    (build_point_qap2, oracle_point_qap2, (C5_PLUS_ISOLATED, 3)),
    (build_point_qap2, oracle_point_qap2, (TRIANGLE_7, 0)),
    (build_point_qap4, oracle_point_qap4, (TRIANGLE_7, 5)),
    (build_point_qap4, oracle_point_qap4, (cycle(6), 6)),
])
def test_point_builders_refuse_what_the_fraction_loops_refuse(build, oracle, args):
    with pytest.raises(InvalidParameterError) as expected:
        oracle(*args)
    with pytest.raises(InvalidParameterError) as refused:
        build(*args)
    assert str(refused.value) == str(expected.value)


def test_the_cached_adjacency_table_is_read_only():
    table = reductions._rows_adjacent(TRIANGLE_7)
    assert table is reductions._rows_adjacent(Graph.from_edges(7, [(3, 1), (2, 1), (3, 2)]))
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = True
    for index in reductions._triangle_indices(49):
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 1
    # cell (1,1) is in row 1, joined to rows 2 and 3 only
    assert np.array_equal(np.flatnonzero(table[0]), np.arange(7, 21))


def test_points_round_trip_through_the_vector():
    rng = random.Random(3)
    n = 6
    keys = rng.sample(list(itertools.combinations_with_replacement(range(1, n * n + 1), 2)), 40)
    values = {key: Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for key in keys}
    values = {key: v for key, v in values.items() if v}
    point = YPoint(n=n, values=values, provenance="random")
    assert_point_matches(point, n, values, "random")
    again = YPoint.from_scaled_vector(n, *point.to_scaled_vector(), provenance="random")
    assert again.values == values and again.denom == point.denom
    # a common factor of the vector and the denominator is reduced away
    scaled = YPoint.from_scaled_vector(n, 6 * point.vector, 6 * point.denom)
    assert scaled.denom == point.denom and np.array_equal(scaled.vector, point.vector)
    with pytest.raises(ValueError):
        point.vector[0] = 1  # the stored vector is read-only
    zero = YPoint.zero(n)
    assert_point_matches(zero, n, {}, "zero point")
    for sigma in (Permutation(tuple(range(1, n + 1))),
                  Permutation(tuple(rng.sample(range(1, n + 1), n)))):
        entries = dict.fromkeys(vertex_entries(sigma.image), Fraction(1))
        label = f"vertex {sigma.one_line()}"
        assert_point_matches(YPoint(n, entries, provenance=label), n, entries, label)


# ---------------------------------------------------------------------------
# membership oracle


def test_zero_point_is_member_of_qap1():
    verdict = brute_force_membership(YPoint.zero(6), "qap1")
    assert verdict.member and verdict.forms_checked == 47520


def test_vertices_are_members_of_every_family():
    rng = random.Random(4)
    for _ in range(3):
        sigma = Permutation(tuple(rng.sample(range(1, 8), 7)))
        point = YPoint(7, dict.fromkeys(vertex_entries(sigma.image), 1))
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


def compiled_forms(compiled):
    """(form id, block, row, template) of every compiled form."""
    for block in compiled.blocks:
        for row, base in enumerate(block.ids.tolist()):
            for template in range(len(block.rhs)):
                yield base + template, block, row, template


def assert_compiled_as_built(block, row, template, form):
    """The block's row gives the form's positions, and its template the
    form's signed coefficients and rhs."""
    sign = -1 if form.sense == ">=" else 1
    assert block.positions[row].tolist() == list(form.positions)
    assert block.templates[template].tolist() == [sign * c for c in form.coeffs]
    assert block.rhs[template] == sign * form.rhs


@pytest.mark.parametrize("family,n", [("qap1", 6), ("qap2", 7), ("qap3", 7), ("qap4", 7)])
def test_compile_and_unranking_follow_the_oracle_order(family, n):
    oracle = list(ORACLE[family](n))
    forms = [BUILDERS[family](params) for params in oracle]
    compiled_blocks.cache_clear()
    try:
        compiled = compiled_blocks(family, n)
    finally:
        compiled_blocks.cache_clear()
    assert compiled.forms == len(forms)
    # one block per distinct signed (templates, rhs), in order of first use
    layouts = [(block.templates.tolist(), block.rhs.tolist()) for block in compiled.blocks]
    assert all(layouts.count(layout) == 1 for layout in layouts)
    assert [int(block.ids[0]) for block in compiled.blocks] == sorted(
        int(block.ids[0]) for block in compiled.blocks)
    if family == "qap3":
        assert len({form.params.beta for form in forms}) > 1
    # every form comes back by id: its positions from its block's row, its
    # signed coefficients and rhs from the row's template
    for block in compiled.blocks:
        assert block.positions.dtype == np.int16 and block.ids.dtype == np.int32
        assert np.all(np.diff(block.ids) >= len(block.rhs))
    at = {form_id: place for form_id, *place in compiled_forms(compiled)}
    assert sorted(at) == list(range(len(forms)))
    for form_id, form in enumerate(forms):
        assert_compiled_as_built(*at[form_id], form)
    for index, params in enumerate(oracle):
        assert family_form_at(n, family, index).params == params
    with pytest.raises(InvalidParameterError, match="no form"):
        family_form_at(n, family, len(oracle))


def test_witness_is_the_least_id_across_blocks():
    # at (k, l) = (1, 1) the diagonal 3 outweighs any three of the four
    # compatible cross entries, so the first violated form is an m = 4 form
    # (ids 600..1199), while the m = 3 block, swept first, hits later, from
    # the cross entry at (k, l) = (1, 2)
    n = 6
    special = flat_index(n, 1, 1)
    values = {(special, special): Fraction(3)}
    for r in range(2, 6):
        values[canon_entry(special, flat_index(n, r, r))] = Fraction(1)
    values[canon_entry(flat_index(n, 1, 2), flat_index(n, 2, 1))] = Fraction(1)
    point = YPoint(n=n, values=values)
    violated = [index for index, form in enumerate(enumerate_family(n, "qap1"))
                if not evaluate(form, point).satisfied]
    first_m3 = next(index for index in violated
                    if len(family_form_at(n, "qap1", index).params.i_set) == 3)
    compiled_blocks.cache_clear()
    compiled = compiled_blocks("qap1", n)
    assert compiled.blocks[0].templates.shape == (1, 7)  # m = 3
    block_of = {int(form_id): number for number, block in enumerate(compiled.blocks)
                for form_id in block.ids}
    assert violated[0] < first_m3 and block_of[violated[0]] > block_of[first_m3] == 0
    verdict = brute_force_membership(point, "qap1")
    assert verdict.witness_index == violated[0] and verdict.forms_checked == 47520


@pytest.mark.parametrize("family", ["qap1", "qap2", "qap3", "qap4"])
def test_the_least_violated_id_is_the_least_first_hit_of_every_block(family):
    # the sweep stops at a block that starts past its least hit; every
    # block swept whole gives the same least id
    n = 7
    compiled_blocks.cache_clear()
    try:
        for point in seeded_points(family, n, random.Random(3)):
            yvec, denom = point.to_scaled_vector()
            compiled = compiled_blocks(family, n, column_classes(point))
            hits = [reductions._first_violated(block, yvec, denom * block.rhs)
                    for block in compiled.blocks]
            assert reductions._least_violated(compiled, yvec, denom) == min(
                (hit for hit in hits if hit is not None), default=None)
    finally:
        compiled_blocks.cache_clear()


def test_compiled_qap4_n8_holds_two_bytes_per_entry():
    compiled_blocks.cache_clear()
    try:
        compiled = compiled_blocks("qap4", 8)
    finally:
        compiled_blocks.cache_clear()
    runs = inequalities.family_segments(8, "qap4")
    entries = sum(run.count * run.entries for run in runs)
    forms = sum(run.count for run in runs)
    assert compiled.forms == forms == 362_880
    per_form = sum(block.positions.nbytes + block.ids.nbytes for block in compiled.blocks)
    assert per_form <= 2 * entries + 4 * forms
    # the templates are shared: a few hundred bytes for the whole family
    assert sum(block.templates.nbytes for block in compiled.blocks) <= 8 * (28 + 36)


def test_qap3_at_n8_stores_each_row_once_for_its_betas():
    # 723,240 forms in 384,552 (P1, P2) rows, with 1, 2 or 3 betas a row;
    # storing a row once per beta would take 72,984,128 entries
    compiled_blocks.cache_clear()
    try:
        compiled = compiled_blocks("qap3", 8)
    finally:
        compiled_blocks.cache_clear()
    assert compiled.forms == 723_240
    assert sum(block.ids.size for block in compiled.blocks) == 384_552
    assert sum(block.positions.size for block in compiled.blocks) == 44_581_376
    assert sum(block.positions.nbytes + block.ids.nbytes for block in compiled.blocks) <= 91e6
    assert {len(block.rhs) for block in compiled.blocks} == {1, 2, 3}
    form_ids = np.concatenate([(block.ids[:, None] + np.arange(len(block.rhs))).ravel()
                               for block in compiled.blocks])
    assert np.array_equal(np.sort(form_ids), np.arange(723_240))
    rng = random.Random(8)
    for _ in range(300):
        block = rng.choice(compiled.blocks)
        row, template = rng.randrange(block.ids.size), rng.randrange(len(block.rhs))
        form_id = int(block.ids[row]) + template
        form = BUILDERS["qap3"](family_form_at(8, "qap3", form_id).params)
        assert_compiled_as_built(block, row, template, form)


def test_qap3_at_n8_rows_with_several_betas_follow_the_oracle():
    # under one class of all columns only the runs with Q = {1, 2, 3} or
    # {1, 2, 3, 4} are kept; the former are the family's first 9,100 forms
    runs = family_segments(8, "qap3")
    first = sum(run.count for run in runs if run.q_set == (1, 2, 3))
    oracle = list(itertools.islice(ORACLE["qap3"](8), first))
    assert first == 9100
    assert {len(run.rhs) for run in runs if run.q_set == (1, 2, 3)} == {2, 3}
    compiled_blocks.cache_clear()
    try:
        compiled = compiled_blocks("qap3", 8, (tuple(range(1, 9)),))
    finally:
        compiled_blocks.cache_clear()
    forms = sorted(compiled_forms(compiled), key=lambda place: place[0])
    assert [form_id for form_id, *_ in forms[:first]] == list(range(first))
    assert {family_form_at(8, "qap3", form_id).params.q_set
            for form_id, *_ in forms[first:]} == {frozenset({1, 2, 3, 4})}
    for form_id, block, row, template in forms:
        params = family_form_at(8, "qap3", form_id).params
        if form_id < first:
            assert params == oracle[form_id]
        assert_compiled_as_built(block, row, template, BUILDERS["qap3"](params))


@pytest.mark.parametrize("rows,block_forms,witness", [
    ((1, 2), 50_000, 1),   # the family's first row: beta = -1 holds, beta = 0 not
    ((7, 8), 97, 97),      # a window boundary between the row's two forms
])
def test_a_witness_can_follow_a_form_of_its_row_that_holds(rows, block_forms, witness,
                                                           monkeypatch):
    # cross entries 1/18 between the cells of rows a and b in the columns of
    # Q = {1, 2, 3}: the qap3 row P1 = {a}, P2 = {b} (betas -1 and 0) has
    # lhs -1, which holds against -2 and is violated against 0
    n, (a, b) = 8, rows
    values = {canon_entry(flat_index(n, a, c), flat_index(n, b, d)): Fraction(1, 18)
              for c in (1, 2, 3) for d in (1, 2, 3)}
    point = YPoint(n=n, values=values)
    violated = (index for index, form in enumerate(enumerate_family(n, "qap3"))
                if not evaluate(form, point).satisfied)
    assert next(violated) == witness
    held, hit = (family_form_at(n, "qap3", index) for index in (witness - 1, witness))
    assert evaluate(held, point).satisfied
    assert (held.params.p1_set, held.params.p2_set) == (hit.params.p1_set, hit.params.p2_set)
    assert (held.params.beta, hit.params.beta) == (-1, 0)
    monkeypatch.setattr(reductions, "BLOCK_FORMS", block_forms)
    compiled_blocks.cache_clear()
    try:
        verdict = brute_force_membership(point, "qap3")
    finally:
        compiled_blocks.cache_clear()
    assert verdict.witness_index == witness and verdict.witness == hit
    assert verdict.forms_checked == (witness // block_forms + 1) * block_forms


def test_membership_refuses_a_point_past_the_int64_bound():
    # 2**62 on every cross entry of cell (1, 1): an m = 3 qap1 lhs reaches
    # 3 * 2**62, which wraps in int64 (a wrapping sweep reports form 1200,
    # while form 0 is the first violated); the sweep refuses the point
    n = 6
    special = flat_index(n, 1, 1)
    values = {canon_entry(special, f): Fraction(2 ** 62)
              for f in range(1, n * n + 1) if f != special}
    point = YPoint(n=n, values=values)
    first = next(index for index, form in enumerate(enumerate_family(n, "qap1"))
                 if not evaluate(form, point).satisfied)
    assert first == 0
    with pytest.raises(QappolyError, match="too large for an exact int64"):
        brute_force_membership(point, "qap1")
    # below the bound the sweep runs and agrees with the evaluator
    small = YPoint(n=n, values={key: Fraction(2 ** 20) for key in values})
    assert brute_force_membership(small, "qap1").witness_index == 0


def test_points_past_int64_are_refused_with_a_clear_error():
    key = (1, 2)
    with pytest.raises(QappolyError, match="scaled value"):
        YPoint(n=6, values={key: Fraction(2 ** 63)})
    with pytest.raises(QappolyError, match="scaled value"):
        YPoint(n=6, values={key: Fraction(-2 ** 63)})
    # the scaling by the lcm of the denominators can push a value past it
    with pytest.raises(QappolyError, match="scaled value"):
        YPoint(n=6, values={key: Fraction(2 ** 62), (1, 1): Fraction(1, 3)})
    with pytest.raises(QappolyError, match="denominator"):
        YPoint(n=6, values={key: Fraction(1, 2 ** 63)})
    assert YPoint(n=6, values={key: Fraction(2 ** 63 - 1)}).get_flat(2, 1) == 2 ** 63 - 1


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


def test_a_point_without_column_classes_is_refused_before_any_table_is_built(monkeypatch):
    # every form is kept, so the entries are counted from the runs alone
    rng = np.random.default_rng(10)
    point = YPoint.from_scaled_vector(10, rng.integers(0, 10, triangle_dimension(10)), 1)
    assert column_classes(point) == ()

    def refuse(*args):
        raise AssertionError("an index table was built")

    monkeypatch.setattr(inequalities, "_index_table", refuse)
    with pytest.raises(CapExceededError, match="more than 140000000"):
        brute_force_membership(point, "qap4", cap=10)


# ---------------------------------------------------------------------------
# the orbit sweep over the point's column classes
#
# Column relabellings written as plain loops: the oracles of the stabilizer
# check and of the orbit minima.


def column_image(n, image):
    """The triangle position each position moves to when every cell (i, c)
    moves to (i, image[c - 1])."""
    def cell(f):
        i, j = pair_from_flat(n, f)
        return flat_index(n, i, image[j - 1])

    moved = np.empty(triangle_dimension(n), dtype=np.intp)
    for f1 in range(1, n * n + 1):
        for f2 in range(f1, n * n + 1):
            moved[triangle_position(n, f1, f2)] = triangle_position(
                n, *canon_entry(cell(f1), cell(f2)))
    return moved


def column_group(n, classes):
    """Every element of Sym(C1) x Sym(C2) x ..., as the list of column images."""
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        image = list(range(1, n + 1))
        for members, images in zip(classes, parts):
            for c, d in zip(members, images):
                image[c - 1] = d
        yield image


def relabel(params, image):
    """The parameters with every column c replaced by image[c - 1]."""
    def g(columns):
        return type(columns)(image[c - 1] for c in columns)

    if isinstance(params, Qap1Params):
        return dataclasses.replace(params, j_set=g(params.j_set), l=image[params.l - 1])
    if isinstance(params, Qap4Params):
        return dataclasses.replace(params, j_set=g(params.j_set))
    return dataclasses.replace(params, q_set=g(params.q_set))


def random_classes(n, rng):
    """Up to three disjoint sorted column classes of two or more columns."""
    columns = rng.sample(range(1, n + 1), n)
    cuts = sorted(rng.sample(range(1, n), 2))
    parts = (columns[:cuts[0]], columns[cuts[0]:cuts[1]], columns[cuts[1]:])
    return tuple(sorted(tuple(sorted(part)) for part in parts if len(part) > 1))


def vertex_vector(n, rng):
    """The scaled vector of a random vertex."""
    sigma = rng.sample(range(1, n + 1), n)
    cells = [flat_index(n, i, sigma[i - 1]) for i in range(1, n + 1)]
    vector = np.zeros(triangle_dimension(n), dtype=np.int64)
    for f1, f2 in itertools.combinations_with_replacement(cells, 2):
        vector[triangle_position(n, f1, f2)] = 1
    return vector


def seeded_points(family, n, rng):
    """Midpoints of two random vertices (members of every family), the same
    raised on two random entries and two random diagonal entries, each also
    averaged over the column relabellings of random classes; reduction
    points of a random graph; and for qap4 a point violated only late in
    the family."""
    diagonal = [triangle_position(n, f, f) for f in range(1, n * n + 1)]
    for raised in (False, False, True, True, True, True):
        vector = vertex_vector(n, rng) + vertex_vector(n, rng)
        if raised:
            for position in rng.sample(range(vector.size), 2) + rng.sample(diagonal, 2):
                vector[position] += rng.choice((1, 2, 3))
        yield YPoint.from_scaled_vector(n, vector, 2)
        group = list(column_group(n, random_classes(n, rng)))
        averaged = sum(vector[column_image(n, image)] for image in group)
        yield YPoint.from_scaled_vector(n, averaged, 2 * len(group))
    graph = random_graph(n, 0.5, rng)
    if family == "qap1":
        for _ in range(4):
            yield build_point_qap1(graph, rng.randint(1, n), rng.randint(1, n), rng.randint(2, n))
    elif family == "qap2" and n >= 7:
        yield from (build_point_qap2(graph, t) for t in range(1, n - 3))
    elif family == "qap4" and n >= 7:
        yield from (build_point_qap4(graph, t) for t in (6, 7))
        # 1/3 on the diagonal of the cells (r, n + 1 - r), r = 1..4: a form
        # is violated exactly when it passes through all four, so its
        # j-tuple starts with n, in the last n-th of its i-set's forms
        yield YPoint(n=n, values={(f, f): Fraction(1, 3)
                                  for f in (flat_index(n, r, n + 1 - r) for r in range(1, 5))})


def test_column_classes_of_the_reduction_points():
    graph = random_graph(8, 0.5, random.Random(8))
    assert column_classes(build_point_qap4(graph, 7)) == (tuple(range(1, 9)),)
    assert column_classes(build_point_qap2(graph, 2)) == (tuple(range(2, 9)),)
    assert column_classes(build_point_qap1(graph, 5, 3, 4)) == ((1, 2, 4, 5, 6, 7, 8),)
    sigma = Permutation((2, 1, 3, 5, 4, 6))
    assert column_classes(YPoint(6, dict.fromkeys(vertex_entries(sigma.image), 1))) == ()


def test_a_point_broken_in_one_entry_has_no_column_class():
    # row 1's diagonal reads 2, 2, 3, 4, 5, 6 along the columns: only the
    # swap (1 2) fixes the point
    n = 6
    values = {(flat_index(n, 1, j),) * 2: Fraction(max(j, 2)) for j in range(1, n + 1)}
    assert column_classes(YPoint(n=n, values=values)) == ((1, 2),)
    # one more entry, which (1 2) moves onto a zero
    broken = dict(values)
    f = flat_index(n, 2, 1)
    broken[(f, f)] = Fraction(1)
    point = YPoint(n=n, values=broken)
    moved = point.vector[column_image(n, [2, 1, 3, 4, 5, 6])]
    assert np.count_nonzero(moved != point.vector) == 2   # the entry and its image
    assert column_classes(point) == ()


@pytest.mark.parametrize("family,n", [("qap1", 6), ("qap2", 7), ("qap3", 7), ("qap4", 7)])
def test_orbit_minima_are_the_least_ids_of_their_orbits(family, n):
    classes = ((2, 3, 5), (4, 6))
    ids = {params: index for index, params in enumerate(ORACLE[family](n))}
    group = list(column_group(n, classes))
    least = sorted(index for params, index in ids.items()
                   if index == min(ids[relabel(params, image)] for image in group))
    compiled_blocks.cache_clear()
    try:
        compiled = compiled_blocks(family, n, classes)
    finally:
        compiled_blocks.cache_clear()
    assert compiled.forms == len(ids) and 0 < len(least) < len(ids)
    assert sorted(form_id for form_id, *_ in compiled_forms(compiled)) == least
    for block in compiled.blocks:
        for row in (0, len(block.ids) // 2, len(block.ids) - 1):
            for template in range(len(block.rhs)):
                form = family_form_at(n, family, int(block.ids[row]) + template)
                assert_compiled_as_built(block, row, template, form)


def reduction_classes(n, rng):
    """The column classes of the qap1, qap2 and qap4 reduction points of a
    random graph (qap1 with l = 1, as the oracle sweeps it)."""
    graph = random_graph(n, 0.5, rng)
    return [column_classes(build_point_qap1(graph, 2, 1, 3)),
            column_classes(build_point_qap2(graph, 1)),
            column_classes(build_point_qap4(graph, 6))]


@pytest.mark.parametrize("n", [7, 8, 9])
def test_generated_orbit_minima_are_the_whole_table_masks(n):
    # the rows kept per factor, their table entries and so their ids, for
    # the reduction-point classes and three random partitions: generated
    # and ranked, they are the rows of the whole-table mask.  A qap1 run's
    # tables do not depend on k, so one k is masked.
    rng = random.Random(n)
    partitions = reduction_classes(n, rng) + [random_classes(n, rng) for _ in range(3)]
    assert all(partitions)
    for family in ("qap1", "qap2", "qap3", "qap4"):
        runs = [run for run in family_segments(n, family) if getattr(run, "k", 1) == 1]
        for classes in partitions:
            for run in runs:
                generated = run.orbit_minima(classes)
                masked = masked_orbit_minima(run, classes)
                count = math.prod(rows.size for rows, _ in masked)
                assert math.prod(rows.size for rows, _ in generated) == count
                if count and run.column_factor is not None:
                    (rows, picks), (want, table) = (
                        axes[run.column_factor] for axes in (generated, masked))
                    assert rows.tobytes() == want.astype(np.int64).tobytes()
                    assert picks.dtype == table.dtype and picks.tobytes() == table.tobytes()


def _compiled_bytes(compiled):
    return (compiled.forms, compiled.weight, compiled.rhs_bound,
            [tuple((a.dtype.str, a.shape, a.tobytes())
                   for a in (block.positions, block.templates, block.rhs, block.ids))
             for block in compiled.blocks])


@pytest.mark.parametrize("n", [7, 8])
def test_compiled_blocks_equal_the_whole_table_mask_compile(n, monkeypatch):
    rng = random.Random(10 + n)
    partitions = reduction_classes(n, rng) + [random_classes(n, rng) for _ in range(3)]
    for family in ("qap1", "qap2", "qap3", "qap4"):
        for classes in partitions:
            compiled_blocks.cache_clear()
            try:
                generated = compiled_blocks(family, n, classes)
                with monkeypatch.context() as masked:
                    for run in family_segments(n, family):
                        masked.setattr(run, "orbit_minima",
                                       functools.partial(masked_orbit_minima, run))
                    compiled_blocks.cache_clear()
                    oracle = compiled_blocks(family, n, classes)
            finally:
                compiled_blocks.cache_clear()
            assert _compiled_bytes(generated) == _compiled_bytes(oracle)


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
def test_reduction_point_compiles_build_no_ordered_table(n, monkeypatch):
    # the j-tables at n = 12 would hold up to 479,001,600 rows: the orbit
    # minima are generated, so only the small combination tables are read
    index_table = inequalities._index_table

    def unordered_only(size, r, ordered):
        if ordered:
            raise AssertionError(f"the ordered table ({size}, {r}) was built")
        return index_table(size, r, ordered)

    monkeypatch.setattr(inequalities, "_index_table", unordered_only)
    compiled_blocks.cache_clear()
    try:
        partitions = reduction_classes(n, random.Random(n))
        for family, classes in zip(("qap1", "qap2", "qap4"), partitions):
            compiled = compiled_blocks(family, n, classes)
            assert compiled.forms == sum(run.count for run in family_segments(n, family))
            assert 0 < sum(block.ids.size for block in compiled.blocks) < compiled.forms
    finally:
        compiled_blocks.cache_clear()


@pytest.mark.parametrize("n", range(3, 13))
def test_column_swaps_move_positions_as_the_column_image_loops(n):
    swaps, images = reductions._column_swaps(n)
    assert swaps == list(itertools.combinations(range(1, n + 1), 2))
    assert images.dtype == np.intp and images.shape == (len(swaps), triangle_dimension(n))
    assert images.flags.c_contiguous   # one swap's images per row, as column_classes reads them
    for (a, b), moved in zip(swaps, images):
        image = list(range(1, n + 1))
        image[a - 1], image[b - 1] = b, a
        assert np.array_equal(moved, column_image(n, image))


def test_form_ids_past_int32_are_compiled_and_swept_exactly():
    # every qap4 run at n=7 moved past 2**31 - 1: the compile stores int64
    # ids, each the plain one plus the offset, and each point's least
    # violated id moves by the same offset (int32 would wrap it negative)
    offset = 2 ** 31 + 5
    runs = family_segments(7, "qap4")
    points = [point.to_scaled_vector() for point in seeded_points("qap4", 7, random.Random(7))]
    compiled_blocks.cache_clear()
    try:
        plain = compiled_blocks("qap4", 7)
        for run in runs:
            run.start += offset
        try:
            compiled_blocks.cache_clear()
            shifted = compiled_blocks("qap4", 7)
        finally:
            for run in runs:
                run.start -= offset
    finally:
        compiled_blocks.cache_clear()
    assert len(shifted.blocks) == len(plain.blocks)
    for before, after in zip(plain.blocks, shifted.blocks):
        assert (before.ids.dtype, after.ids.dtype) == (np.int32, np.int64)
        assert np.array_equal(after.ids, before.ids.astype(np.int64) + offset)
    least = [reductions._least_violated(plain, *point) for point in points]
    assert any(idx is not None for idx in least) and None in least
    assert [reductions._least_violated(shifted, *point) for point in points] == [
        None if idx is None else idx + offset for idx in least]


@pytest.mark.parametrize("family,n", [("qap1", 7), ("qap2", 7), ("qap3", 7), ("qap4", 7)])
def test_relabelling_columns_moves_the_positions_and_keeps_the_template(family, n):
    rng = random.Random(n)
    forms = sum(run.count for run in family_segments(n, family))
    for _ in range(4):
        vector = vertex_vector(n, rng)
        group = list(column_group(n, random_classes(n, rng)))
        point = YPoint.from_scaled_vector(
            n, sum(vector[column_image(n, image)] for image in group), 1)
        found = column_classes(point)
        assert found
        for _ in range(10):
            image = rng.choice(list(column_group(n, found)))
            form = family_form_at(n, family, rng.randrange(forms))
            params = relabel(form.params, image)
            params.validate()
            moved = BUILDERS[family](params)
            assert (sorted(zip(moved.positions, moved.coeffs))
                    == sorted(zip(column_image(n, image)[list(form.positions)].tolist(),
                                  form.coeffs)))
            assert (moved.rhs, moved.sense, moved.scale) == (form.rhs, form.sense, form.scale)


def _verdicts(points, family):
    return [(v.member, v.witness_index, v.forms_checked,
             v.witness.params if v.witness else None)
            for v in (brute_force_membership(point, family) for point in points)]


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("family", ["qap1", "qap2", "qap3", "qap4"])
def test_the_orbit_sweep_matches_the_whole_family(family, n, monkeypatch):
    points = list(seeded_points(family, n, random.Random(10 * n)))
    # small windows, so that witnesses lie past the first window
    monkeypatch.setattr(reductions, "BLOCK_FORMS", 1000)
    compiled_blocks.cache_clear()
    try:
        orbit = _verdicts(points, family)
        with monkeypatch.context() as trivial:
            trivial.setattr(reductions, "column_classes", lambda point: ())
            whole = _verdicts(points, family)
    finally:
        compiled_blocks.cache_clear()
    assert orbit == whole
    classes = [column_classes(point) for point in points]
    assert () in classes and any(classes)
    forms = sum(run.count for run in family_segments(n, family))
    if forms:
        assert {member for member, *_ in orbit} == {True, False}
    if forms > 2000:
        assert any(index is not None and index >= 1000 for _, index, *_ in orbit)


def test_qap4_oracle_at_n9_matches_the_exact_clique_number():
    rng = random.Random(9)
    graphs = [random_graph(9, 0.5, rng)]
    for size in (7, 8):
        clique = rng.sample(range(1, 10), size)
        planted = set(itertools.combinations(sorted(clique), 2))
        graphs.append(Graph.from_edges(9, sorted(planted | set(random_graph(9, 0.3, rng).edges))))
    graphs.append(Graph.from_edges(9, [e for e in Graph.complete(9).edges if e != (4, 7)]))
    sizes = []
    for graph in graphs:
        report = clique_via_membership_oracle(graph, "qap4")
        assert report.clique_size == max_clique_bruteforce(graph)[0]
        sizes.append(report.clique_size)
    assert sizes[1:] == [7, 8, 8] and sizes[0] <= 6


def test_qap4_oracle_at_n10_matches_the_exact_clique_number():
    # past the default enumeration cap: a planted 8-clique is found by the
    # t-sweep, with a witness at t = 6 and t = 7
    rng = random.Random(10)
    clique = rng.sample(range(1, 11), 8)
    planted = set(itertools.combinations(sorted(clique), 2))
    graph = Graph.from_edges(10, sorted(planted | set(random_graph(10, 0.3, rng).edges)))
    report = clique_via_membership_oracle(graph, "qap4", cap=10)
    assert report.clique_size == max_clique_bruteforce(graph)[0] == 8
    assert report.queries == [(6, False), (7, False), (8, True)]


def test_qap1_oracle_at_n9_matches_the_exact_clique_number():
    rng = random.Random(9)
    for p in (0.5, 0.8):
        graph = random_graph(9, p, rng)
        report = clique_via_membership_oracle(graph, "qap1")
        assert report.clique_size == max_clique_bruteforce(graph)[0]


def test_qap4_at_n9_with_a_trivial_stabilizer_is_refused_up_front(monkeypatch):
    def refuse(*args):
        raise AssertionError("a form was built")

    point = build_point_qap4(random_graph(9, 0.5, random.Random(9)), 7)
    vector = point.vector.copy()
    for j in range(1, 10):   # row 1's diagonal now differs in every column
        f = flat_index(9, 1, j)
        vector[triangle_position(9, f, f)] += j
    asymmetric = YPoint.from_scaled_vector(9, vector, point.denom)
    assert column_classes(point) == (tuple(range(1, 10)),)
    assert column_classes(asymmetric) == ()
    monkeypatch.setattr(inequalities.Segment, "arrays", refuse)
    compiled_blocks.cache_clear()
    with pytest.raises(CapExceededError, match="more than 140000000"):
        brute_force_membership(asymmetric, "qap4")
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
        clique_via_membership_oracle(cycle(5), "qap1")
    with pytest.raises(InvalidParameterError, match="qap1, qap2, qap4"):
        clique_via_membership_oracle(TRIANGLE_7, "qap3")


def test_oracle_edgeless_and_single_edge():
    edgeless = Graph.from_edges(6, [])
    assert clique_via_membership_oracle(edgeless, "qap1").clique_size == 1
    one_edge = Graph.from_edges(6, [(2, 5)])
    assert clique_via_membership_oracle(one_edge, "qap1").clique_size == 2
    assert clique_via_membership_oracle(one_edge, "qap2").clique_size == 2
