"""Write the --json report of every benchmark op of a checkout, timings dropped.

Usage, from anywhere:

    python3 tools/dump_reports.py TREE OUTDIR --seeds 1-3

TREE is a checkout of this repository.  The op lists are those of its
benchmark (``perfbench/workloads.py``, imported and never changed), at each
seed and at the run length that ``BENCHMARK.json`` names.  Every op runs in
this process through TREE's ``qappoly.cli.main``.  Graph inputs are written
under a temporary working directory and named by relative paths, so the
reports of two checkouts name the same files.  Each report is written, with
its ``timings`` field dropped, to OUTDIR/<workload>/seed<seed>/<op>.json, so
that ``diff -r`` compares two checkouts' reports:

    python3 tools/dump_reports.py . /tmp/new --seeds 1-3
    python3 tools/dump_reports.py ../parent /tmp/old --seeds 1-3
    diff -r /tmp/old /tmp/new

The exit status is 1 when any op exits non-zero or fails its benchmark
check, each such op named on standard error, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path


def seed_range(text: str) -> range:
    """'3' or '1-3': an inclusive range of seeds."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="checkout whose src/ and perfbench/ run")
    parser.add_argument("outdir", type=Path, help="directory that receives the reports")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1"),
                        help="seeds as N or FIRST-LAST (default 1)")
    args = parser.parse_args(argv)
    tree, outdir = args.tree.resolve(), args.outdir.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    sys.dont_write_bytecode = True   # nothing is written into the checkout
    import qappoly.cli
    import workloads

    if tree / "src" not in Path(qappoly.cli.__file__).resolve().parents:
        parser.error(f"qappoly was imported from {qappoly.cli.__file__}, not from {tree}")
    seconds = json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            failed = _dump(qappoly.cli.main, workloads, args.seeds, seconds, outdir)
        finally:
            os.chdir(home)
    return 1 if failed else 0


def _dump(cli_main, workloads, seeds, seconds: float, outdir: Path) -> int:
    """Run and write every op, from a scratch working directory; the number
    of ops that failed."""
    failed = 0
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            inputs = Path(f"{workload}-seed{seed}")
            inputs.mkdir()
            reports = outdir / workload / f"seed{seed}"
            reports.mkdir(parents=True, exist_ok=True)
            for index, op in enumerate(workloads.build_ops(workload, seed, seconds, inputs)):
                path = reports / f"{index:03d}.json"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(op.argv + ["--json", str(path)])
                report = json.loads(path.read_text())
                report.pop("timings")
                path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
                problems = op.check(report) if code == 0 else [f"exit status {code}"]
                if problems:
                    failed += 1
                    print(f"{path}: {op.label}: {'; '.join(problems)}", file=sys.stderr)
    return failed


if __name__ == "__main__":
    sys.exit(main())
