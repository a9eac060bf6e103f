"""Max-clique membership reductions and the brute-force membership oracle.

Each reduction turns a graph into a rational candidate point whose
membership in one inequality family's relaxation encodes a clique-number
threshold; sweeping the threshold parameter t and watching where the point
becomes feasible recovers the clique number, which is cross-checked against
an independent exact branch-and-bound solver.

Membership itself is decided by brute force: the point is evaluated against
every enumerated form of the family with exact integer arithmetic (the
point is denominator-cleared first).  Each (family, n) is compiled once, in
numpy, into blocks of the forms' triangle positions and coefficients in
enumeration order, and kept in a two-entry LRU cache, so repeated queries
are fast and the first violated form (lowest form id) is the witness.

The compile reads the family's segments (``inequalities.family_segments``):
runs of forms with fixed index-set sizes, each the product of a few index
tables.  Every form of a run has the same number of entries, so the
family's entry count is known before anything is built, and a family past
COMPILE_ENTRY_LIMIT entries is refused up front.  A witness is decoded from
its form id through the same segments and built alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapExceededError, InvalidParameterError, QappolyError
from .graphs import (
    Graph,
    cliques_of_size_at_least,
    max_clique_capped,
)
from .indexing import pair_from_flat
from .inequalities import (
    CHUNK_FORMS,
    MEMBERSHIP_FAMILIES,
    LinearForm,
    YPoint,
    evaluate,
    family_form_at,
    family_segments,
)
from .perms import DEFAULT_ENUMERATION_CAP, require_enumerable

# ---------------------------------------------------------------------------
# reduction points


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
    values: dict[tuple[int, int], Fraction] = {}
    nn = n * n
    for f1 in range(1, nn + 1):
        i1, j1 = pair_from_flat(n, f1)
        for f2 in range(f1, nn + 1):
            i2, j2 = pair_from_flat(n, f2)
            if f1 == f2:
                v = t if (i1, j1) == (k, l) else nn
            elif (i1, j1) == (k, l) or (i2, j2) == (k, l):
                # cross entries against the special cell: 1 when both the
                # row and the column differ, unspecified cases default to 0
                oi, oj = (i2, j2) if (i1, j1) == (k, l) else (i1, j1)
                v = 1 if (oi != k and oj != l) else 0
            else:
                v = 0 if graph.has_edge(i1, i2) else n  # no within-partition edges
            if v:
                values[(f1, f2)] = Fraction(v)
    return YPoint(n=n, values=values,
                  provenance={"reduction": "qap1", "k": k, "l": l, "t": t,
                              "scale": "unscaled; any positive multiple is equivalent"})


def build_point_qap2(graph: Graph, t: int) -> YPoint:
    """Candidate point for the qap2 relaxation: diagonal 1/t on column 1,
    n**2 across non-edges, 0 elsewhere."""
    n = graph.n
    if not (1 <= t <= n - 4):
        raise InvalidParameterError(f"1 <= t <= n-4 required, got t={t} at n={n}")
    values: dict[tuple[int, int], Fraction] = {}
    nn = n * n
    for f1 in range(1, nn + 1):
        i1, j1 = pair_from_flat(n, f1)
        for f2 in range(f1, nn + 1):
            i2, j2 = pair_from_flat(n, f2)
            if i1 != i2:
                if not graph.has_edge(i1, i2):
                    values[(f1, f2)] = Fraction(nn)
            elif f1 == f2 and j1 == 1:
                values[(f1, f2)] = Fraction(1, t)
    return YPoint(n=n, values=values, provenance={"reduction": "qap2", "t": t})


def build_point_qap4(graph: Graph, t: int) -> YPoint:
    """Candidate point for the qap4 relaxation: diagonal 1/t, n/6 across
    non-edges, 0 elsewhere."""
    n = graph.n
    if t < 6:
        raise InvalidParameterError(f"t >= 6 is a natural number, got {t}")
    if n < 7:
        raise InvalidParameterError(f"family requires n >= 7, got {n}")
    values: dict[tuple[int, int], Fraction] = {}
    nn = n * n
    for f1 in range(1, nn + 1):
        i1, j1 = pair_from_flat(n, f1)
        for f2 in range(f1, nn + 1):
            i2, j2 = pair_from_flat(n, f2)
            if i1 != i2:
                if not graph.has_edge(i1, i2):
                    values[(f1, f2)] = Fraction(n, 6)
            elif f1 == f2:
                values[(f1, f2)] = Fraction(1, t)
    return YPoint(n=n, values=values, provenance={"reduction": "qap4", "t": t})


# ---------------------------------------------------------------------------
# compiled membership sweeps


# Forms per compiled block.  Blocks keep enumeration order, so a violated
# form's id is the number of forms in earlier blocks plus its row.
BLOCK_FORMS = 50_000

# Most coefficient entries one compiled family may hold, counted from the
# run sizes before anything is built.  Every family at n <= 8 fits: the
# largest is qap1 at n = 8 with 137,208,960 entries (about 0.8 GB as int32
# positions plus int16 coefficients), then qap3 at n = 8 with 72,984,128.
# qap1, qap3 and qap4 at n = 9 do not fit and are refused up front.
COMPILE_ENTRY_LIMIT = 140_000_000


@functools.lru_cache(maxsize=2)
def compiled_blocks(family: str, n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The family's forms at size n as blocks (coords, coeffs, offsets, rhs)
    of BLOCK_FORMS forms each: per block the int32 triangle positions and
    int16 coefficients of all its forms concatenated, each form's segment
    start, and each form's scaled right-hand side, all negated for a ">="
    family: a form is violated exactly when its lhs exceeds its rhs.

    The forms come straight from the family's runs (``family_segments``):
    each block is allocated once and filled in place, CHUNK_FORMS forms at
    a time.  Raises CapExceededError, before anything is allocated, when
    the entries pass COMPILE_ENTRY_LIMIT.  The enumeration cap is the
    caller's to check.
    """
    runs = family_segments(n, family)
    entries = sum(run.count * run.entries for run in runs)
    if entries > COMPILE_ENTRY_LIMIT:
        raise CapExceededError(
            f"{family} at n={n} compiles to {entries} coefficient entries, more "
            f"than {COMPILE_ENTRY_LIMIT}; its membership sweep is refused")
    total = sum(run.count for run in runs)
    blocks = []
    for first in range(0, total, BLOCK_FORMS):
        last = min(first + BLOCK_FORMS, total)
        pieces = [(run, max(first - run.start, 0), min(last - run.start, run.count))
                  for run in runs if run.start < last and run.start + run.count > first]
        size = sum((hi - lo) * run.entries for run, lo, hi in pieces)
        coords = np.empty(size, dtype=np.int32)
        coeffs = np.empty(size, dtype=np.int16)
        offsets = np.empty(last - first, dtype=np.int32)
        rhs = np.empty(last - first, dtype=np.int64)
        form = entry = 0
        for run, lo, hi in pieces:
            for chunk in range(lo, hi, CHUNK_FORMS):
                count = min(chunk + CHUNK_FORMS, hi) - chunk
                stop = entry + count * run.entries
                positions, form_coeffs, form_rhs = run.arrays(chunk, chunk + count)
                coords[entry:stop].reshape(count, run.entries)[:] = positions
                coeffs[entry:stop].reshape(count, run.entries)[:] = form_coeffs
                offsets[form:form + count] = np.arange(entry, stop, run.entries)
                rhs[form:form + count] = form_rhs
                form, entry = form + count, stop
        if runs[0].sense == ">=":
            np.negative(coeffs, out=coeffs)
            np.negative(rhs, out=rhs)
        blocks.append((coords, coeffs, offsets, rhs))
    return tuple(blocks)


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


def brute_force_membership(point: YPoint, family: str,
                           cap: int = DEFAULT_ENUMERATION_CAP) -> MembershipVerdict:
    """Evaluate a point against every enumerated form of the family.

    Exact throughout: the point is cleared to integers and each form's
    integer coefficients are applied once.  On violation the first violated
    form in enumeration order is rematerialized as the witness and
    re-confirmed by the generic evaluator.
    """
    if family not in MEMBERSHIP_FAMILIES:
        raise InvalidParameterError(
            f"membership supports {MEMBERSHIP_FAMILIES}, got {family!r}")
    n = point.n
    require_enumerable(n, cap)
    yvec, denom = point.to_scaled_vector()
    checked = 0
    for coords, coeffs, offsets, rhs in compiled_blocks(family, n):
        start = checked
        checked += rhs.size
        lhs = np.add.reduceat(coeffs * yvec[coords], offsets)  # int16 * int64 -> int64
        hits = np.flatnonzero(lhs > denom * rhs)
        if hits.size:
            idx = start + int(hits[0])
            witness = family_form_at(n, family, idx, cap=cap)
            result = evaluate(witness, point)
            if result.satisfied:
                raise QappolyError("internal: witness re-evaluation disagrees")
            return MembershipVerdict(member=False, family=family, n=n,
                                     forms_checked=checked, witness=witness,
                                     witness_index=idx)
    return MembershipVerdict(member=True, family=family, n=n, forms_checked=checked)


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


# ---------------------------------------------------------------------------
# expanded-graph helpers (used to cross-check the qap1 construction)


def expanded_graph_qap1(graph: Graph, k: int, l: int) -> Graph:
    """The n-partite expansion with the extra edges attached to cell (k, l):
    vertices are cells (i, j) labelled by flat index, edges join cells in
    graph-adjacent partitions, and (k, l) is joined to every cell outside
    partition k."""
    n = graph.n
    nn = n * n
    edges = []
    for f1 in range(1, nn + 1):
        i1, _ = pair_from_flat(n, f1)
        for f2 in range(f1 + 1, nn + 1):
            i2, _ = pair_from_flat(n, f2)
            if i1 != i2 and graph.has_edge(i1, i2):
                edges.append((f1, f2))
    klf = (k - 1) * n + l
    for f in range(1, nn + 1):
        i, _ = pair_from_flat(n, f)
        if i != k:
            edges.append((min(klf, f), max(klf, f)))
    return Graph.from_edges(nn, edges)


def neighborhood_clique_number(graph: Graph, k: int, l: int) -> int:
    """Largest clique inside the neighborhood of cell (k, l) in the expanded
    graph; the qap1 point is feasible exactly when this is at most t."""
    from .graphs import max_clique_bruteforce

    expanded = expanded_graph_qap1(graph, k, l)
    adj = expanded.adjacency()
    klf = (k - 1) * graph.n + l
    hood = sorted(adj[klf])
    induced = expanded.induced(hood)
    size, _ = max_clique_bruteforce(induced, cap=graph.n * graph.n)
    return size
