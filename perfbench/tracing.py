"""Spans around calls into qappoly's public functions, from outside src/.

``install`` replaces module attributes such as ``qappoly.modrank.rank_mod_p``
with timing wrappers, in every loaded ``qappoly`` module that holds the same
function object (``from .x import f`` copies the binding), and returns a
function that puts the originals back.  Nothing under src/ is edited.

Two kinds of record:

* a span (name, start, end, parent, op id) for each call of a traced
  function whose calls are few enough to keep one by one;
* a leaf aggregate (count plus total time, keyed by parent span) for hot
  functions with no traced callee, such as ``closed_form_slack`` (about a
  million calls per op) and each ``next()`` of ``enumerate_family``.

Self time is a span's duration minus the part of it that child spans cover
and minus the leaf time recorded under it.  Counters (rows, cells, forms,
queries) are taken from arguments and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """In-memory spans, leaf aggregates and counters of one run.

    A leaf wrapper adds to a per-name cell [calls, seconds]; each span begin
    and end first moves the cells into ``leaves`` under the span then on top
    of the stack, which is the leaf calls' parent because leaves have no
    traced callee.  That keeps the per-call cost of a leaf to two clock reads.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.leaves: dict[tuple[int | None, str], list] = {}  # -> [calls, seconds]
        self.counts: dict[str, float] = defaultdict(int)
        self.op = -1
        self._stack: list[Span] = []
        self._cells: dict[str, list] = {}

    def cell(self, name: str) -> list:
        return self._cells.setdefault(name, [0, 0.0])

    def _flush(self) -> None:
        parent = self._stack[-1].id if self._stack else None
        for name, cell in self._cells.items():
            if cell[0] or cell[1]:
                entry = self.leaves.setdefault((parent, name), [0, 0.0])
                entry[0] += cell[0]
                entry[1] += cell[1]
                cell[0], cell[1] = 0, 0.0

    def begin(self, name: str) -> Span:
        self._flush()
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.op, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._flush()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans],
                "leaves": [{"parent": p, "name": n, "calls": c, "seconds": s}
                           for (p, n), (c, s) in self.leaves.items()]}


def self_times(spans: list[Span], leaves: dict) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its direct
    children's intervals (clipped to the span) minus its leaf time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    leaf_time: dict[int | None, float] = defaultdict(float)
    for (parent, _), (_, seconds) in leaves.items():
        leaf_time[parent] += seconds
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[span.id]):
            start, end = max(start, reach, span.start), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.end - span.start - covered - leaf_time[span.id]
    return result


# ---------------------------------------------------------------------------
# counters taken at the boundaries


def _count_affine_dim(counts, args, kwargs, report):
    counts["geometry.affine_dim.rows"] += report.row_count


def _count_rank_mod_p(counts, args, kwargs, rank):
    rows, cols = args[0].shape
    counts["modrank.rank_mod_p.rows"] += rows
    counts["modrank.rank_mod_p.cells"] += rows * cols
    counts["modrank.rank_mod_p.rank"] += rank


def _count_rank_consensus(counts, args, kwargs, report):
    counts["modrank.rank_consensus.primes"] += len(report.ranks)


def _count_rank_exact(counts, args, kwargs, rank):
    matrix = args[0]
    counts["modrank.rank_exact_rational.cells"] += matrix.shape[0] * matrix.shape[1]


def _count_span_basis(counts, args, kwargs, result):
    counts["modrank.span_basis.rows"] += args[1].shape[0]  # args[0] is self


def _count_family_form_at(counts, args, kwargs, form):
    index = args[2] if len(args) > 2 else kwargs["index"]
    counts["inequalities.family_form_at.forms_rebuilt"] += index + 1


def _count_membership(counts, args, kwargs, verdict):
    counts["reductions.brute_force_membership.forms_checked"] += verdict.forms_checked


# (module, attribute, span name, kind, counter).  Kind "span" keeps every
# call; "leaf" aggregates calls under the caller's span; "gen-leaf" does the
# same for each next() of a generator.
TARGETS = [
    ("qappoly.cli", "main", "cli.main", "span", None),
    ("qappoly.geometry", "vertex_space", "geometry.vertex_space", "span", None),
    ("qappoly.geometry", "verify_facet", "geometry.verify_facet", "span", None),
    ("qappoly.geometry", "check_equality_set", "geometry.check_equality_set",
     "span", None),
    ("qappoly.geometry", "affine_dim", "geometry.affine_dim", "span",
     _count_affine_dim),
    ("qappoly.geometry", "verify_szeroins", "geometry.verify_szeroins", "span", None),
    ("qappoly.modrank", "rank_consensus", "modrank.rank_consensus", "span",
     _count_rank_consensus),
    ("qappoly.modrank", "rank_mod_p", "modrank.rank_mod_p", "span", _count_rank_mod_p),
    ("qappoly.modrank", "rank_exact_rational", "modrank.rank_exact_rational",
     "span", _count_rank_exact),
    ("qappoly.modrank", "ModularSpanBasis.__init__", "modrank.span_basis.build",
     "span", _count_span_basis),
    ("qappoly.modrank", "ModularSpanBasis.contains", "modrank.span_basis.contains",
     "leaf", None),
    ("qappoly.inequalities", "enumerate_family", "inequalities.enumerate_family",
     "gen-leaf", None),
    ("qappoly.inequalities", "LinearForm.scaled_slack_on_match_rows",
     "inequalities.scaled_slack_on_match_rows", "leaf", None),
    ("qappoly.inequalities", "closed_form_slack", "inequalities.closed_form_slack",
     "leaf", None),
    ("qappoly.inequalities", "family_form_at", "inequalities.family_form_at",
     "span", _count_family_form_at),
    ("qappoly.inequalities", "evaluate", "inequalities.evaluate", "leaf", None),
    ("qappoly.reductions", "build_point_qap1", "reductions.build_point", "leaf", None),
    ("qappoly.reductions", "build_point_qap2", "reductions.build_point", "leaf", None),
    ("qappoly.reductions", "build_point_qap4", "reductions.build_point", "leaf", None),
    ("qappoly.reductions", "brute_force_membership",
     "reductions.brute_force_membership", "span", _count_membership),
    ("qappoly.reductions", "clique_via_membership_oracle",
     "reductions.clique_via_membership_oracle", "span", None),
    ("qappoly.graphs", "max_clique_bruteforce", "graphs.max_clique_bruteforce",
     "span", None),
]


def _wrap(tracer: Tracer, fn, name: str, kind: str, counter):
    clock = time.perf_counter  # a local name: leaf wrappers run ~10^6 times
    counts = tracer.counts

    if kind == "span":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result
    elif kind == "leaf":
        cell = tracer.cell(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            cell[1] += clock() - start
            cell[0] += 1
            return result
    elif kind == "gen-leaf":
        cell = tracer.cell(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    cell[1] += clock() - start
                    return
                cell[1] += clock() - start
                cell[0] += 1
                yield item
    else:
        raise ValueError(f"unknown trace kind {kind!r}")
    return wrapper


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    undo = []
    for module_name, attribute, name, kind, counter in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            undo.append((owner, method, original))
            setattr(owner, method, _wrap(tracer, original, name, kind, counter))
            continue
        original = getattr(module, attribute)
        wrapper = _wrap(tracer, original, name, kind, counter)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or loaded_name.split(".")[0] != "qappoly":
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    undo.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
    return restore


# ---------------------------------------------------------------------------
# per-layer metrics


LAYERS = ("cli", "geometry", "modrank", "inequalities", "reductions", "graphs")


def layer_totals(tracer: Tracer):
    """Per traced name: calls, total seconds and self seconds; plus the self
    seconds of the benchmark's own op spans."""
    selfs = self_times(tracer.spans, tracer.leaves)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        own[span.name] += selfs[span.id]
    for (_, name), (count, seconds) in tracer.leaves.items():
        calls[name] += count
        total[name] += seconds
        own[name] += seconds
    return calls, total, own


def op_breakdown(tracer: Tracer) -> list[dict]:
    """For each op span: its duration and the self time of each layer under
    it.  The layer self times plus the op's own self time sum to the op's
    duration, which is what shows that the layers account for it."""
    selfs = self_times(tracer.spans, tracer.leaves)
    rows: dict[int, dict] = {}
    for span in tracer.spans:
        if span.name == "op":
            rows[span.op] = {"op": span.op, "seconds": span.end - span.start,
                             "unattributed_s": selfs[span.id],
                             **{f"{layer}.self_s": 0.0 for layer in LAYERS}}
    for span in tracer.spans:
        if span.name != "op":
            rows[span.op][f"{span.name.split('.')[0]}.self_s"] += selfs[span.id]
    by_id = {span.id: span for span in tracer.spans}
    for (parent, name), (_, seconds) in tracer.leaves.items():
        rows[by_id[parent].op][f"{name.split('.')[0]}.self_s"] += seconds
    return [rows[op] for op in sorted(rows)]


def layer_metrics(tracer: Tracer, polytope_cache_info) -> dict[str, float]:
    """Every per-layer metric named in BENCHMARK.json, as plain numbers.

    A layer that a workload never calls reads 0 (time and counts alike)."""
    calls, total, own = layer_totals(tracer)
    counts = tracer.counts
    rank_rows = counts["modrank.rank_mod_p.rows"]
    witnesses = calls["inequalities.family_form_at"]
    metrics = {
        "geometry.vertex_space.s": total["geometry.vertex_space"],
        "geometry.affine_dim.self_s": own["geometry.affine_dim"],
        "geometry.affine_dim.rows": counts["geometry.affine_dim.rows"],
        "geometry.polytope_affine_dim.hits": polytope_cache_info.hits,
        "geometry.polytope_affine_dim.misses": polytope_cache_info.misses,
        "geometry.verify_szeroins.self_s": own["geometry.verify_szeroins"],
        "modrank.rank_mod_p.s": total["modrank.rank_mod_p"],
        "modrank.rank_mod_p.calls": calls["modrank.rank_mod_p"],
        "modrank.rank_mod_p.rows": rank_rows,
        "modrank.rank_mod_p.cells": counts["modrank.rank_mod_p.cells"],
        "modrank.rank_mod_p.rank_per_row":
            counts["modrank.rank_mod_p.rank"] / rank_rows if rank_rows else 0.0,
        "modrank.rank_consensus.primes": counts["modrank.rank_consensus.primes"],
        "modrank.span_basis.build_s": total["modrank.span_basis.build"],
        "modrank.span_basis.rows": counts["modrank.span_basis.rows"],
        "modrank.span_basis.contains_s": total["modrank.span_basis.contains"],
        "modrank.span_basis.queries": calls["modrank.span_basis.contains"],
        "modrank.rank_exact_rational.s": total["modrank.rank_exact_rational"],
        "modrank.rank_exact_rational.cells": counts["modrank.rank_exact_rational.cells"],
        "inequalities.enumerate_family.s": total["inequalities.enumerate_family"],
        "inequalities.enumerate_family.forms": calls["inequalities.enumerate_family"],
        "inequalities.scaled_slack_on_match_rows.s":
            total["inequalities.scaled_slack_on_match_rows"],
        "inequalities.scaled_slack_on_match_rows.calls":
            calls["inequalities.scaled_slack_on_match_rows"],
        "inequalities.closed_form_slack.s": total["inequalities.closed_form_slack"],
        "inequalities.closed_form_slack.calls": calls["inequalities.closed_form_slack"],
        "inequalities.family_form_at.s": total["inequalities.family_form_at"],
        "inequalities.family_form_at.calls": witnesses,
        "inequalities.family_form_at.forms_rebuilt":
            counts["inequalities.family_form_at.forms_rebuilt"],
        "inequalities.family_form_at.forms_per_witness":
            counts["inequalities.family_form_at.forms_rebuilt"] / witnesses
            if witnesses else 0.0,
        "inequalities.evaluate.s": total["inequalities.evaluate"],
        "reductions.build_point.s": total["reductions.build_point"],
        "reductions.brute_force_membership.self_s":
            own["reductions.brute_force_membership"],
        "reductions.brute_force_membership.queries":
            calls["reductions.brute_force_membership"],
        "reductions.brute_force_membership.forms_checked":
            counts["reductions.brute_force_membership.forms_checked"],
        "graphs.max_clique_bruteforce.s": total["graphs.max_clique_bruteforce"],
        "graphs.max_clique_bruteforce.calls": calls["graphs.max_clique_bruteforce"],
        "cli.main.self_s": own["cli.main"],
    }
    for layer in LAYERS[1:]:
        metrics[f"{layer}.self_s"] = sum(
            seconds for name, seconds in own.items() if name.split(".")[0] == layer)
    metrics["trace.unattributed_s"] = own["op"]
    return metrics
