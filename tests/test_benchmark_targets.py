"""The benchmark harness wraps qappoly functions by name; a refactor that
renames or removes one breaks the benchmark, so check the names here too."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing in perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for module_name, attribute, *_ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if name not in vars(owner):
            missing.append(f"{module_name}.{attribute}")
    assert not missing, missing
