"""qappoly benchmark: one workload run, in-process through ``qappoly.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload facet-n7 --seed 1 --seconds 25 --trace 0

A run is one fresh process driving a closed loop with one client: the ops of
the workload run back to back, each one ``qappoly.cli.main(argv)`` with
``--json`` and the default ``--workers 1``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the program's public functions (see
tracing.py) and reports the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Spans, op times and the environment go to
``.perfbench_out/`` in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One client and no helper threads: keep numpy's thread pools at one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
TAIL_BEYOND = 10  # op_tail_s keeps at least this many op times above it

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402
import workloads  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program sources)."""


def import_program():
    """Import qappoly.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "qappoly" / "cli.py").is_file():
        raise SetupError(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qappoly.cli

    location = Path(qappoly.cli.__file__).resolve()
    if SRC not in location.parents:
        raise SetupError(f"qappoly was imported from {location}, not from {SRC}")
    return qappoly.cli


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(values: list[float]):
    """The highest integer percentile with at least TAIL_BEYOND values above
    it, by nearest rank, as (percentile, value); None with too few values."""
    count = len(values)
    if count <= TAIL_BEYOND:
        return None
    percentile = 100 * (count - TAIL_BEYOND) // count
    rank = math.ceil(percentile * count / 100)
    return percentile, sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# ops


def run_op(main, op: workloads.Op, index: int, workdir: Path, tracer=None) -> dict:
    """Run one op and check its report.  An op fails on a nonzero exit, an
    exception, or a report value that differs from its expected value."""
    report_path = workdir / f"report{index:03d}.json"
    argv = op.argv + ["--json", str(report_path)]
    problems: list[str] = []
    captured = io.StringIO()
    if tracer is not None:
        tracer.op = index
        span = tracer.begin("op")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = main(argv)
    except (Exception, SystemExit):
        code = None
        problems.append("raised: " + traceback.format_exc().strip().splitlines()[-1])
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end(span)
    if code is not None and code != 0:
        problems.append(f"exit status {code}")
    if code == 0:
        try:
            problems += op.check(json.loads(report_path.read_text()))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"bad report: {exc!r}")
    for problem in problems:
        print(f"op {index} failed: {op.label}: {problem}", file=sys.stderr)
    return {"op": index, "argv": op.argv, "seconds": seconds, "ok": not problems,
            "problems": problems}


# ---------------------------------------------------------------------------
# environment and records


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qappoly").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (no git)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes: interpreter start, imports and input
    generation, up to the probe's "ready" line."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise SetupError(f"set-up probe failed with status {probe.returncode}")
        samples.append(ready - start)
    return samples


def check_counts(counts: dict, args) -> list[str]:
    """Compare this traced run's counts with an earlier traced run of the same
    seed, op list and program sources; the first such run records them."""
    path = OUT / (f"counts-{args.workload}-seed{args.seed}-sec{args.seconds}"
                  f"-{source_digest()}.json")
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True, indent=1))
        return []
    earlier = json.loads(path.read_text())
    return [f"{name}: {earlier.get(name)} earlier, {value} now"
            for name, value in sorted(counts.items()) if earlier.get(name) != value]


def tracing_overhead(traced_run_s: float, env: dict):
    """Traced run_s minus the run_s of the untraced run with the same seed,
    seconds and sources, when that run's result is in the output directory."""
    untraced = OUT / f"result-{env['workload']}-seed{env['seed']}-trace0.json"
    if not untraced.exists():
        return None
    record = json.loads(untraced.read_text())
    same = all(record["environment"].get(key) == env[key]
               for key in ("seconds", "source_sha256"))
    return traced_run_s - record["metrics"]["run_s"] if same else None


def is_count(name: str) -> bool:
    """Counts and ratios of counts, as opposed to times."""
    return not (name.endswith(".s") or name.endswith("_s"))


def layer_unit(name: str) -> str:
    if not is_count(name):
        return "s"
    return "ratio" if "_per_" in name else "count"


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sizes the op list to about this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_program()
    except (SetupError, ImportError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            workloads.build_ops(args.workload, args.seed, args.seconds, Path(workdir))
            print("ready", flush=True)
        return 0

    load_start = os.getloadavg()
    if not args.trace:  # a traced run reports no setup_s
        try:
            setup = measure_setup(args)
        except SetupError as exc:
            print(f"benchmark cannot start: {exc}", file=sys.stderr)
            return 2
    env = environment(args)
    env["load_start"] = load_start

    tracer = None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        ops = workloads.build_ops(args.workload, args.seed, args.seconds, workdir)
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
        ready = time.perf_counter()
        results = [run_op(cli.main, op, index, workdir, tracer)
                   for index, op in enumerate(ops)]
        run_s = time.perf_counter() - ready
        if args.trace:
            restore()
    env["load_end"] = os.getloadavg()

    times = [r["seconds"] for r in results]
    failed = sum(not r["ok"] for r in results)
    record = {"environment": env, "ops": results}
    problems = []
    if args.trace:
        import qappoly.geometry

        metrics = tracing.layer_metrics(
            tracer, qappoly.geometry.polytope_affine_dim.cache_info())
        metrics["trace.run_s"] = run_s
        problems = check_counts({k: v for k, v in metrics.items() if is_count(k)}, args)
        for problem in problems:
            print(f"count differs between traced runs: {problem}", file=sys.stderr)
        record.update(op_breakdown=tracing.op_breakdown(tracer), **tracer.to_json())
        record["tracing_overhead_s"] = tracing_overhead(run_s, env)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {"setup_s": statistics.median(setup), "run_s": run_s,
                   "first_op_s": times[0], "op_p50_s": statistics.median(times),
                   "peak_rss_mb":
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = {"setup_s": "s", "run_s": "s", "first_op_s": "s", "op_p50_s": "s",
                 "peak_rss_mb": "MB"}
        record["setup_samples_s"] = setup
        tail = tail_percentile(times)
        record["op_tail"] = ({"percentile": tail[0], "seconds": tail[1]}
                             if tail else None)
    record["metrics"] = metrics
    OUT.joinpath(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, default=str))

    print("environment " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6f} {units[name]}")
    if args.trace:
        overhead = record["tracing_overhead_s"]
        print(f"{'tracing overhead (traced - untraced run_s)':52s} " + (
            f"{overhead:14.6f} s" if overhead is not None else
            f"{'-':>14s}   (no untraced result for this seed and sources)"))
    else:
        print(f"{'fail_ratio':52s} {failed / len(results):14.6f} "
              f"({failed} failed of {len(results)} ops)")
        print(f"{'op_tail_s':52s} " + (
            f"{tail[1]:14.6f} s (p{tail[0]} of {len(times)} ops)" if tail else
            f"{'-':>14s}   (needs more than 10 ops; this run has {len(times)})"))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
