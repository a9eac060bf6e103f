"""Tests of the benchmark's own logic.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402


def test_self_time_back_to_back_children():
    spans = [Span(0, "op", 0, None, 0.0, 10.0),
             Span(1, "a", 0, 0, 1.0, 3.0),
             Span(2, "b", 0, 0, 3.0, 7.0)]
    selfs = self_times(spans, {})
    assert selfs == {0: pytest.approx(4.0), 1: pytest.approx(2.0), 2: pytest.approx(4.0)}


def test_self_time_nested_children_and_leaves():
    spans = [Span(0, "op", 0, None, 0.0, 10.0),
             Span(1, "outer", 0, 0, 1.0, 9.0),
             Span(2, "inner", 0, 1, 2.0, 5.0),
             Span(3, "inner", 0, 1, 5.0, 6.0)]
    leaves = {(2, "hot"): [1000, 1.5], (0, "hot"): [10, 0.5]}
    selfs = self_times(spans, leaves)
    # grandchildren are covered by their parent, not counted again at the op
    assert selfs[0] == pytest.approx(10.0 - 8.0 - 0.5)
    assert selfs[1] == pytest.approx(8.0 - 4.0)
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[3] == pytest.approx(1.0)
    total_leaf = sum(seconds for _, seconds in leaves.values())
    assert sum(selfs.values()) + total_leaf == pytest.approx(10.0)


def test_self_time_overlapping_children_counted_once():
    spans = [Span(0, "op", 0, None, 0.0, 10.0),
             Span(1, "a", 0, 0, 1.0, 6.0),
             Span(2, "b", 0, 0, 4.0, 8.0)]
    assert self_times(spans, {})[0] == pytest.approx(3.0)


@pytest.mark.parametrize("count, percentile", [(11, 9), (24, 58), (100, 90), (250, 96)])
def test_tail_percentile_keeps_ten_values_beyond(count, percentile):
    values = [float(v) for v in range(count, 0, -1)]
    p, value = run.tail_percentile(values)
    assert p == percentile
    assert sum(v > value for v in values) >= 10
    # one percentile higher would leave fewer than ten beyond
    rank = -(-(p + 1) * count // 100)
    assert count - rank < 10


def test_tail_percentile_needs_more_than_ten_values():
    assert run.tail_percentile([1.0] * 10) is None


def _fake_main(details: dict, code: int = 0):
    def main(argv):
        path = Path(argv[argv.index("--json") + 1])
        path.write_text(json.dumps({"verdicts": [
            {"name": "facet", "passed": True, "details": details}]}))
        return code
    return main


FACET_OP = workloads.facet_ops(seed=1)[0]


def test_pinned_values_pass(tmp_path):
    main = _fake_main({"verdict": "facet", "polytope_dim": 457, "tight_dim": 456})
    assert run.run_op(main, FACET_OP, 0, tmp_path)["ok"]


def test_wrong_pinned_value_fails_the_op(tmp_path):
    main = _fake_main({"verdict": "facet", "polytope_dim": 457, "tight_dim": 455})
    result = run.run_op(main, FACET_OP, 0, tmp_path)
    assert not result["ok"]
    assert "tight_dim=455" in result["problems"][0]


def test_nonzero_exit_and_exception_fail_the_op(tmp_path):
    good = {"verdict": "facet", "polytope_dim": 457, "tight_dim": 456}
    assert not run.run_op(_fake_main(good, code=1), FACET_OP, 0, tmp_path)["ok"]

    def broken(argv):
        raise ValueError("boom")
    assert not run.run_op(broken, FACET_OP, 1, tmp_path)["ok"]


def test_clique_graphs_are_seeded(tmp_path):
    def graphs(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        return [Path(op.argv[-1]).read_text()
                for op in workloads.clique_ops(seed, 0, workdir)]

    assert graphs(5, "a") == graphs(5, "b")
    assert graphs(5, "a2") != graphs(6, "c")


def test_traced_op_accounts_for_its_duration(tmp_path):
    cli = run.import_program()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        op = workloads.Op(["verify-slack", "--family", "qap1", "--n", "6",
                           "--limit", "3"], workloads._slack_check(3, 720))
        assert run.run_op(cli.main, op, 0, tmp_path, tracer)["ok"]
    finally:
        restore()
    import qappoly.inequalities

    assert not hasattr(qappoly.inequalities.closed_form_slack, "__wrapped__")
    metrics = tracing.layer_metrics(tracer, qappoly.geometry.polytope_affine_dim.cache_info())
    assert metrics["inequalities.enumerate_family.forms"] == 3
    assert metrics["inequalities.closed_form_slack.calls"] == 3 * 720
    assert metrics["inequalities.scaled_slack_on_match_rows.calls"] == 3
    (row,) = tracing.op_breakdown(tracer)
    parts = [value for key, value in row.items() if key.endswith("_s")]
    assert sum(parts) == pytest.approx(row["seconds"])
