import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_benchmark_op_reports_without_timings(tmp_path):
    out = tmp_path / "reports"
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "dump_reports.py"),
                             str(ROOT), str(out), "--seeds", "1"],
                            cwd=tmp_path, env={**os.environ, "PYTHONPATH": ""},
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    reports = sorted(out.rglob("*.json"))
    assert {path.parent.relative_to(out).as_posix() for path in reports} == {
        "facet-n7/seed1", "clique-oracle/seed1"}
    assert len(list((out / "facet-n7" / "seed1").iterdir())) == 5
    for path in reports:
        assert "timings" not in path.read_text()
        assert all(verdict["passed"] for verdict in json.loads(path.read_text())["verdicts"])
