"""Max-clique membership reductions and the brute-force membership oracle.

Each reduction turns a graph into a rational candidate point whose
membership in one inequality family's relaxation encodes a clique-number
threshold; sweeping the threshold parameter t and watching where the point
becomes feasible recovers the clique number, which is cross-checked against
an independent exact branch-and-bound solver.

A point is built directly as its scaled integer vector (``YPoint``): the
n**2 x n**2 matrix is filled from the graph's adjacency broadcast over the
cells, times the lcm of the point's denominators, and its upper triangle
read row-major, which is ``triangle_position`` order.  The per-graph
adjacency table (read-only, kept for the last few graphs) and the
per-size triangle index are built once, so a t-sweep of points over one
graph pays for them once.

Membership is decided against every enumerated form of the family, with
exact integer arithmetic, through one form per orbit of the point's column
symmetry.  ``column_classes`` applies each column transposition (a b),
which moves cell (i, a) to (i, b) and back, to the point's scaled vector
and compares exactly; the position images of all n(n-1)/2 swaps are
built once per n, in one vectorized pass.  The transpositions that fix
the point join its columns into classes C1, C2, ..., and every
permutation in Sym(C1) x Sym(C2) x ... fixes the point.  Such a
permutation maps each family onto itself and keeps a form's template, so
all forms of one orbit have the same lhs at the point.  The sweep keeps the least form id of each
orbit (``Segment.orbit_minima``).  The ids of one orbit are ordered
lexicographically on the forms' column tuples: (l, j_1..j_m) for qap1,
the j-tuple for qap4, Q for qap2 and qap3.  (A qap1 orbit crosses runs only
through l, which leads its tuple; a qap3 run has one Q, so whole qap3 runs
are kept or dropped.)  So the least id is the form whose entries in each
class are that class's smallest columns in ascending order.  Those column
tuples are generated directly, slot by slot, and each finds its row of
the run's factor by its rank (``inequalities.index_rank``: the Lehmer rank
of an r-permutation, the combinatorial number system for a combination),
so no ordered table is built or masked and the work follows the forms
kept (9 of the 362,880 qap4 forms at n = 8).  The violated forms are a
union of orbits, so the least violated form kept is the first violated
form of the whole family.  With no class every form is kept.

Each (family, n, classes) is compiled once, in numpy, and kept in a
two-entry LRU cache.  The compile reads the family's segments
(``inequalities.family_segments``): runs of forms with fixed index-set
sizes, each the product of a few factors of ranked index sets, and keeps
the product of the rows each factor contributes to the orbit minima,
building their positions from those run rows, unranked.  A row's T forms
share its positions, and each run's layout holds its T templates and
rhs (T is the number of betas of a qap3 run, else 1), so the family
compiles to one block per distinct layout: the int16 triangle positions
of its kept rows, the shared int64 templates, and each row's base id,
increasing (int32, or int64 where the family's ids pass 2**31 - 1).  A
query is a gather and a small integer product, ``y[positions] @
templates.T``, CHUNK_FORMS rows at a time.  A block's base ids increase,
so its first hit in row-major order is its least violated id, and the
sweep passes over each block once, up to that hit.  Blocks come in
increasing first base id, so the sweep stops at a block that starts past
the least hit so far.  The least of the blocks' first hits is the
witness, and ``forms_checked`` counts the family's forms up to the end of
the witness's window of BLOCK_FORMS ids, as a sweep over every form in
windows of that size would.

The products run in int64, so a query first checks that no lhs (max |y|
times the largest sum of |coefficients| of a template) and no scaled rhs
can pass INT64_MAX, and refuses a point past that bound.  The rows of a
run have one entry count, so the kept entries are known before any form
is built, and a sweep past COMPILE_ENTRY_LIMIT is refused up front.  A
witness is decoded from its form id by unranking its one run row.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, InvalidParameterError, QappolyError
from .graphs import (
    Graph,
    cliques_of_size_at_least,
    max_clique_capped,
)
from .indexing import flat_index, triangle_dimension
from .inequalities import (
    CHUNK_FORMS,
    INT64_MAX,
    MEMBERSHIP_FAMILIES,
    LinearForm,
    Segment,
    YPoint,
    evaluate,
    family_form_at,
    family_segments,
)
from .perms import DEFAULT_ENUMERATION_CAP, require_enumerable

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# reduction points


@functools.lru_cache(maxsize=8)
def _rows_adjacent(graph: Graph) -> np.ndarray:
    """n**2 x n**2 booleans, indexed by flat index - 1: whether the rows of
    the two cells are joined in the graph.  Read-only and kept for the last
    few graphs, since a sweep builds many points of one graph."""
    n = graph.n
    adjacent = np.zeros((n, n), dtype=bool)
    if graph.edges:
        u, v = np.array(sorted(graph.edges)).T - 1
        adjacent[u, v] = adjacent[v, u] = True
    row = np.repeat(np.arange(n), n)
    table = adjacent[np.ix_(row, row)]
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _triangle_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(size)``, read-only: row-major, which is
    ``indexing.triangle_position`` order for size n**2."""
    rows, cols = np.triu_indices(size)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _upper_triangle(matrix: np.ndarray) -> np.ndarray:
    """The upper triangle of an n**2 x n**2 matrix, row-major: the order of
    ``indexing.triangle_position``."""
    return matrix[_triangle_indices(len(matrix))]


def build_point_qap1(graph: Graph, k: int, l: int, t: int) -> YPoint:
    """Candidate point for the qap1 relaxation.

    Built over the n-partite expansion of the graph (vertices (i, j),
    edges exactly between partitions joined in the input graph), with the
    designated cell (k, l) getting diagonal value t and every other
    diagonal n**2.  The point is left unscaled: the qap1 family has
    right-hand side 0, so feasibility is invariant under positive scaling.
    """
    n = graph.n
    if t < 2:
        raise InvalidParameterError(f"t >= 2 required, got {t}")
    if n < 6:
        raise InvalidParameterError(f"family requires n >= 6, got {n}")
    if not (1 <= k <= n and 1 <= l <= n):
        raise InvalidParameterError(f"(k,l)=({k},{l}) out of range")
    nn = n * n
    # n between two cells whose rows are not joined in the graph, which
    # includes two cells of one row
    y = np.where(_rows_adjacent(graph), 0, n)
    # cross entries against the special cell: 1 when both the row and the
    # column differ, unspecified cases default to 0
    row, col = np.divmod(np.arange(nn), n)
    special = flat_index(n, k, l) - 1
    y[special, :] = y[:, special] = (row != k - 1) & (col != l - 1)
    np.fill_diagonal(y, nn)
    y[special, special] = t
    return YPoint.from_scaled_vector(
        n, _upper_triangle(y), 1,
        provenance={"reduction": "qap1", "k": k, "l": l, "t": t,
                    "scale": "unscaled; any positive multiple is equivalent"})


def build_point_qap2(graph: Graph, t: int) -> YPoint:
    """Candidate point for the qap2 relaxation: diagonal 1/t on column 1,
    n**2 across non-edges, 0 elsewhere."""
    n = graph.n
    if not (1 <= t <= n - 4):
        raise InvalidParameterError(f"1 <= t <= n-4 required, got t={t} at n={n}")
    nn = n * n
    row, col = np.divmod(np.arange(nn), n)
    # scaled by t: n**2 t across non-edges, 1 on the column-1 diagonal
    y = np.where(_rows_adjacent(graph) | (row[:, None] == row), 0, nn * t)
    np.fill_diagonal(y, col == 0)
    return YPoint.from_scaled_vector(n, _upper_triangle(y), t,
                                     provenance={"reduction": "qap2", "t": t})


def build_point_qap4(graph: Graph, t: int) -> YPoint:
    """Candidate point for the qap4 relaxation: diagonal 1/t, n/6 across
    non-edges, 0 elsewhere."""
    n = graph.n
    if t < 6:
        raise InvalidParameterError(f"t >= 6 is a natural number, got {t}")
    if n < 7:
        raise InvalidParameterError(f"family requires n >= 7, got {n}")
    nn = n * n
    row = np.arange(nn) // n
    # scaled by 6t: n t across non-edges, 6 on the diagonal
    y = np.where(_rows_adjacent(graph) | (row[:, None] == row), 0, n * t)
    np.fill_diagonal(y, 6)
    return YPoint.from_scaled_vector(n, _upper_triangle(y), 6 * t,
                                     provenance={"reduction": "qap4", "t": t})


# ---------------------------------------------------------------------------
# compiled membership sweeps


# Form ids per window of the reported ``forms_checked``: a violated point
# counts the family's forms up to the end of its witness's window.  The
# sweep itself passes over each compiled block once.
BLOCK_FORMS = 50_000

# Most position entries one compiled sweep may store, each row's once for
# its T forms, counted from the run sizes and the kept rows before any form
# is built.  Every whole family at n <= 8 fits: the largest is qap1 at
# n = 8 with 137,208,960 entries (about 0.3 GB as int16 positions plus an
# int32 id per row), then qap3 at n = 8 with 44,581,376.  Whole qap1, qap3
# and qap4 families at n = 9 do not fit and are refused up front; the orbit
# minima of a symmetric point may.
COMPILE_ENTRY_LIMIT = 140_000_000

# Positions are stored as int16, which holds the triangle up to n = 15.
POSITION_DTYPE = np.int16


@dataclass(frozen=True)
class TemplateBlock:
    """The compiled forms of one family's runs with one layout: T templates
    and right-hand sides, both negated for a ">=" family.  Form ids[r] + t
    is row r with template t, violated at a point with scaled vector y and
    denominator d exactly when ``y[positions[r]] @ templates[t] > d * rhs[t]``."""

    positions: np.ndarray   # int16 (rows, entries): each row's triangle positions
    templates: np.ndarray   # int64 (T, entries)
    rhs: np.ndarray         # int64 (T,)
    ids: np.ndarray         # (rows,): each row's base id, increasing; int32 or int64


@dataclass(frozen=True)
class CompiledFamily:
    blocks: tuple[TemplateBlock, ...]
    forms: int   # the whole family's, kept or not
    weight: int  # largest |lhs| per unit of max |y|: the largest sum of |template|
    rhs_bound: int   # the largest |rhs|


@functools.lru_cache(maxsize=None)
def _column_swaps(n: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The column transpositions (a, b), a < b, and for each the triangle
    position that every triangle position maps to: swapping the columns
    moves cell (i, a) to (i, b) and back.  Every swap at once: each one's
    cell images, then each moved entry's position, read from a table of
    the position of every ordered cell pair.  The images are row-major, one
    swap per row (``np.take`` keeps that order; a column-major table makes
    each check of a point twice as slow)."""
    nn = n * n
    f1, f2 = _triangle_indices(nn)   # 0-based, in triangle_position order
    position = np.empty((nn, nn), dtype=np.intp)
    position[f1, f2] = position[f2, f1] = np.arange(f1.size)
    row, col = np.divmod(np.arange(nn), n)
    a, b = (column[:, None] for column in np.triu_indices(n, 1))   # in combinations order
    cell = n * row + np.where(col == a, b, np.where(col == b, a, col))
    images = position.ravel()[np.take(cell, f1, axis=1) * nn + np.take(cell, f2, axis=1)]
    return list(zip((a[:, 0] + 1).tolist(), (b[:, 0] + 1).tolist())), images


def column_classes(point: YPoint) -> tuple[tuple[int, ...], ...]:
    """The classes of two or more columns that the point's fixing column
    transpositions join, each sorted, ordered by their least column.

    A transposition (a b) fixes the point when it maps the scaled vector
    onto itself, compared exactly.  Transpositions that fix a point form an
    equivalence on the columns, since (a c) = (a b)(b c)(a b); so every
    permutation of the columns within each class fixes the point.
    """
    swaps, images = _column_swaps(point.n)
    fixing = {swap for swap, fixed in zip(
        swaps, np.all(point.vector[images] == point.vector, axis=1).tolist()) if fixed}
    classes: dict[int, list[int]] = {}
    for b in range(1, point.n + 1):
        # the least column in b's class: the least one whose swap with b fixes
        least = next((a for a in range(1, b) if (a, b) in fixing), b)
        classes.setdefault(least, []).append(b)
    return tuple(tuple(members) for members in classes.values() if len(members) > 1)


def _product_rows(run: Segment, axes: list, lo: int, hi: int) -> np.ndarray:
    """The run rows of rows lo..hi-1 of the product of the kept rows ``axes``."""
    digits = np.unravel_index(np.arange(lo, hi), tuple(kept.size for kept in axes))
    return np.ravel_multi_index(tuple(kept[digit] for kept, digit in zip(axes, digits)),
                                run.shape)


def _check_entries(family: str, n: int, entries: int) -> None:
    if entries > COMPILE_ENTRY_LIMIT:
        raise CapExceededError(
            f"{family} at n={n} compiles to {entries} coefficient entries, more "
            f"than {COMPILE_ENTRY_LIMIT}; its membership sweep is refused")


@functools.lru_cache(maxsize=2)
def compiled_blocks(family: str, n: int, classes: tuple = ()) -> CompiledFamily:
    """The family's forms at size n that are least in their orbit under
    the column classes ``classes`` (``Segment.orbit_minima``; every form when
    there are none), one TemplateBlock per distinct (templates, rhs) run
    shape, in order of first appearance.

    The rows come straight from the family's runs (``family_segments``),
    CHUNK_FORMS run rows at a time, unranked (``Segment.arrays``), each
    row's positions stored once for its T forms.  Every block is allocated
    once, at its size counted from the runs, and filled in place.  Raises
    CapExceededError, before any form is built (with no classes, before
    any row is unranked), when the kept position entries pass
    COMPILE_ENTRY_LIMIT.  The enumeration cap is the caller's to check.
    """
    runs = family_segments(n, family)
    forms = sum(run.count for run in runs)
    if not classes:   # every row is kept
        _check_entries(family, n, sum(run.row_count * run.entries for run in runs))
    kept = []   # (run, per factor its orbit minima's rows, their count)
    for run in runs:
        axes = run.orbit_minima(classes)
        count = math.prod(rows.size for rows in axes)
        if count:
            kept.append((run, axes, count))
    _check_entries(family, n, sum(count * run.entries for run, _, count in kept))
    assert triangle_dimension(n) <= np.iinfo(POSITION_DTYPE).max
    keys: dict[tuple, int] = {}     # signed (templates, rhs) -> block
    run_blocks = []                 # each kept run's block
    for run, _, _ in kept:
        sign = -1 if run.sense == ">=" else 1
        key = (tuple(map(tuple, (sign * run.templates).tolist())),
               tuple((sign * run.rhs).tolist()))
        run_blocks.append(keys.setdefault(key, len(keys)))
    sizes = [0] * len(keys)
    for (_, _, count), block in zip(kept, run_blocks):
        sizes[block] += count
    positions = [np.empty((size, len(templates[0])), dtype=POSITION_DTYPE)
                 for (templates, _), size in zip(keys, sizes)]
    # int32 ids while the family's largest id fits: numpy would wrap it silently
    largest = max((run.start + run.count for run in runs), default=0) - 1
    id_dtype = np.int32 if largest <= np.iinfo(np.int32).max else np.int64
    ids = [np.empty(size, dtype=id_dtype) for size in sizes]
    filled = [0] * len(sizes)
    for (run, axes, count), block in zip(kept, run_blocks):
        for lo in range(0, count, CHUNK_FORMS):
            rows = _product_rows(run, axes, lo, min(lo + CHUNK_FORMS, count))
            start, stop = filled[block], filled[block] + rows.size
            positions[block][start:stop] = run.arrays(rows)
            ids[block][start:stop] = run.start + rows * len(run.rhs)
            filled[block] = stop
    blocks = tuple(TemplateBlock(positions=pos, templates=np.array(templates, dtype=np.int64),
                                 rhs=np.array(rhs, dtype=np.int64), ids=base_ids)
                   for (templates, rhs), pos, base_ids in zip(keys, positions, ids))
    log.debug("%s at n=%d under column classes %s: %d of %d forms kept",
              family, n, classes, sum(count * len(run.rhs) for run, _, count in kept), forms)
    return CompiledFamily(
        blocks=blocks, forms=forms,
        weight=max((sum(map(abs, t)) for templates, _ in keys for t in templates), default=0),
        rhs_bound=max((abs(r) for _, rhs in keys for r in rhs), default=0))


@dataclass
class MembershipVerdict:
    member: bool
    family: str
    n: int
    forms_checked: int
    witness: LinearForm | None = None
    witness_index: int | None = None

    def __bool__(self) -> bool:
        return self.member


def _first_violated(block: TemplateBlock, yvec: np.ndarray,
                    thresholds: np.ndarray) -> int | None:
    """The least form id of the block whose lhs at yvec exceeds its
    template's threshold, or None.  A row's ids follow its templates, and
    rows follow their base ids, so that is the first hit in row-major order."""
    for lo in range(0, block.ids.size, CHUNK_FORMS):
        rows = block.positions[lo:lo + CHUNK_FORMS]
        hits = np.flatnonzero(yvec[rows.astype(np.intp)] @ block.templates.T > thresholds)
        if hits.size:
            row, template = divmod(int(hits[0]), len(block.rhs))
            return int(block.ids[lo + row]) + template
    return None


def _least_violated(compiled: CompiledFamily, yvec: np.ndarray, denom: int) -> int | None:
    """The least violated form id of the compiled forms: the least of each
    block's first hit.  Blocks come in increasing first base id, so none
    after one that starts past the least hit so far can hold a lesser one."""
    least = None
    for block in compiled.blocks:
        if least is not None and block.ids[0] > least:
            break
        hit = _first_violated(block, yvec, denom * block.rhs)
        if hit is not None and (least is None or hit < least):
            least = hit
    return least


def brute_force_membership(point: YPoint, family: str,
                           cap: int = DEFAULT_ENUMERATION_CAP) -> MembershipVerdict:
    """Decide the point against every enumerated form of the family, through
    one form per orbit of the point's column classes (``column_classes``).

    Exact throughout: the point's scaled integer vector meets each block's
    integer template in int64, after a check that no lhs and no scaled rhs
    can pass INT64_MAX; a point past that bound is refused with a
    QappolyError.  The violated forms are a union of orbits, so the least
    violated orbit minimum is the first violated form in enumeration order;
    it is rematerialized as the witness and re-confirmed by the generic
    evaluator.  Each compiled block is swept once, up to its first hit.
    ``forms_checked`` counts the forms up to the end of the witness's
    window of BLOCK_FORMS ids, or the whole family for a member.
    """
    if family not in MEMBERSHIP_FAMILIES:
        raise InvalidParameterError(
            f"membership supports {MEMBERSHIP_FAMILIES}, got {family!r}")
    n = point.n
    require_enumerable(n, cap)
    yvec, denom = point.to_scaled_vector()
    classes = column_classes(point)
    log.debug("the %s point at n=%d has column classes %s", family, n, classes)
    compiled = compiled_blocks(family, n, classes)
    top = max(int(yvec.max()), -int(yvec.min()))
    if top * compiled.weight > INT64_MAX or denom * compiled.rhs_bound > INT64_MAX:
        raise QappolyError(
            f"the point's scaled values (up to {top}, denominator {denom}) are too "
            f"large for an exact int64 {family} sweep")
    idx = _least_violated(compiled, yvec, denom)
    if idx is None:
        return MembershipVerdict(member=True, family=family, n=n,
                                 forms_checked=compiled.forms)
    witness = family_form_at(n, family, idx, cap=cap)
    if evaluate(witness, point).satisfied:
        raise QappolyError("internal: witness re-evaluation disagrees")
    return MembershipVerdict(member=False, family=family, n=n,
                             forms_checked=min((idx // BLOCK_FORMS + 1) * BLOCK_FORMS,
                                               compiled.forms),
                             witness=witness, witness_index=idx)


# ---------------------------------------------------------------------------
# clique extraction through the membership oracle


@dataclass
class OracleReport:
    family: str
    n: int
    clique_size: int
    mode: str
    queries: list[tuple] = field(default_factory=list)  # (params, member)


def _sweep_qap1(graph: Graph, cap: int) -> OracleReport:
    n = graph.n
    if n < 6:
        raise InvalidParameterError(f"qap1 reduction requires n >= 6, got {n}")
    if graph.is_complete():
        raise InvalidParameterError(
            "qap1 extraction excludes the complete graph (any graph except K_n)")
    queries: list[tuple] = []
    if not graph.edges:
        return OracleReport(family="qap1", n=n, clique_size=1,
                            mode="direct edge test (no edges)", queries=queries)
    best = 2
    for k in range(1, n + 1):
        for t in range(2, n + 1):
            member = brute_force_membership(
                build_point_qap1(graph, k, 1, t), "qap1", cap=cap).member
            queries.append(((k, 1, t), member))
            if member:
                best = max(best, t)
                break
        else:
            raise QappolyError("internal: qap1 sweep found no feasible t")
    return OracleReport(family="qap1", n=n, clique_size=best,
                        mode="t-sweep over k with edge-test floor", queries=queries)


def _sweep_qap2(graph: Graph, cap: int) -> OracleReport:
    n = graph.n
    if n < 5:
        raise InvalidParameterError(
            f"qap2 reduction needs a nonempty t range 1..n-4, got n={n}")
    queries: list[tuple] = []
    # cliques of size >= n-3 are invisible to the family's size conditions;
    # the direct subset check over the O(n^3) largest subsets covers them
    top = cliques_of_size_at_least(graph, n - 3)
    if top is not None:
        return OracleReport(family="qap2", n=n, clique_size=top,
                            mode="direct subset check (sizes >= n-3)",
                            queries=queries)
    for t in range(1, n - 3):
        member = brute_force_membership(
            build_point_qap2(graph, t), "qap2", cap=cap).member
        queries.append((t, member))
        if member:
            if t >= 3:
                return OracleReport(family="qap2", n=n, clique_size=t,
                                    mode="t-sweep", queries=queries)
            size = 2 if graph.edges else 1
            return OracleReport(family="qap2", n=n, clique_size=size,
                                mode=f"edge test below the sweep floor (t*={t})",
                                queries=queries)
    raise QappolyError("internal: qap2 sweep found no feasible t")


def _sweep_qap4(graph: Graph, cap: int) -> OracleReport:
    n = graph.n
    if n < 7:
        raise InvalidParameterError(f"qap4 reduction requires n >= 7, got {n}")
    queries: list[tuple] = []
    member = brute_force_membership(build_point_qap4(graph, 6), "qap4", cap=cap).member
    queries.append((6, member))
    if member:
        # feasibility at t=6 certifies omega <= 6; small cliques are found
        # directly in polynomial time
        return OracleReport(family="qap4", n=n,
                            clique_size=max_clique_capped(graph, 6),
                            mode="direct search after feasible t=6",
                            queries=queries)
    for t in range(7, n + 1):
        member = brute_force_membership(
            build_point_qap4(graph, t), "qap4", cap=cap).member
        queries.append((t, member))
        if member:
            return OracleReport(family="qap4", n=n, clique_size=t,
                                mode="t-sweep", queries=queries)
    raise QappolyError("internal: qap4 sweep found no feasible t")


def clique_via_membership_oracle(graph: Graph, family: str,
                                 cap: int = DEFAULT_ENUMERATION_CAP) -> OracleReport:
    """Clique number computed purely through reduction points and membership
    sweeps, following each construction's extraction procedure."""
    if family == "qap1":
        return _sweep_qap1(graph, cap)
    if family == "qap2":
        return _sweep_qap2(graph, cap)
    if family == "qap4":
        return _sweep_qap4(graph, cap)
    raise InvalidParameterError(
        f"clique extraction exists for qap1, qap2, qap4; got {family!r}")
