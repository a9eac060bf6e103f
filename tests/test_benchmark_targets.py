"""The benchmark harness wraps qappoly functions by name; a refactor that
renames or removes one breaks the benchmark, so check the names here too."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qappoly import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing in perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracing):
    assert tracing.TARGETS
    missing = []
    for module_name, attribute, *_ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if name not in vars(owner):
            missing.append(f"{module_name}.{attribute}")
    assert not missing, missing


def test_a_traced_lemma_run_reaches_the_span_basis(tracing):
    # a name can still resolve yet have left the call path; a real run shows it
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        # below m = 7 the lemma's verdict is FAIL; only the call path matters
        cli.main(["verify-lemmas", "--which", "szeroins", "--n", "5",
                  "--samples", "2"])
    finally:
        restore()
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "geometry.verify_szeroins",
            "modrank.span_basis.build"} <= names
    contains = sum(calls for (_, name), (calls, _) in tracer.leaves.items()
                   if name == "modrank.span_basis.contains")
    assert contains == 1   # one batch per generator set, not one call per sample
    assert not hasattr(cli.main, "__wrapped__")  # restored


def test_a_traced_slack_run_checks_each_form_in_one_closed_form_call(tracing):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert cli.main(["verify-slack", "--family", "qap1", "--n", "6",
                         "--limit", "3"]) == 0
    finally:
        restore()
    calls = {}
    for (_, name), (count, _) in tracer.leaves.items():
        calls[name] = calls.get(name, 0) + count
    # one batched call over every vertex per form, none per vertex
    assert calls["inequalities.closed_form_slack"] == 3
    assert calls["inequalities.scaled_slack_on_match_rows"] == 3
    assert not hasattr(cli.closed_form_slack, "__wrapped__")  # restored
