#!/usr/bin/env python3
"""CLI-level benchmark for sbbd.

    python3 perfbench/run.py --workload design-ladder --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke        # every workload at its smallest inputs

A closed loop with one client: each `python -m sbbd.cli` child starts only
after the previous one exits, so exactly one child runs at a time.  Passes
over the workload's invocations repeat while another pass of median length
still ends within --seconds (at least one pass), and each metric is the
median over passes.

--trace 0 times the CLI children and reports the end-to-end metrics.
--trace 1 replays the same invocations in-process through sbbd.cli.main,
once untraced and once with spans around every public layer function, and
reports per-layer self times and counts.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Each run also writes a result file (with an environment record) under
.perfbench/results/ and, when traced, the spans under .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread for the children and for this process (set before numpy is
# imported).  The loop runs one child at a time on a 2-core machine; a second
# BLAS thread only spins in simulate's small per-chunk matmuls, doubling CPU
# use without lowering wall time, and ties each child to a free second core
# (fano simulate: coefficient of variation 0.27 with two threads, 0.17 with one).
os.environ.update({var: "1" for var in THREAD_VARS})

from checks import check_call  # noqa: E402
from tracing import PER_LAYER, Recorder, aggregate, instrument, layer_sum  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT = 150.0

# Gated end-to-end metrics: every workload reports each of them.
END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")]
# Stage metrics, reported for the workloads that exercise them.
STAGES = [
    ("compose_s", "s"), ("analyze_s", "s"), ("reject_s", "s"), ("mask_s", "s"),
    ("simulate_runs_per_s", "replications/s"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list, work: Path):
    """Run one child to completion; returns (wall_s, exit code, stdout, stderr).

    The wait blocks until the child exits, and a timer kills a child that
    overruns.  Popen.wait(timeout=...) would instead poll with sleeps of up
    to 50 ms, adding up to 50 ms to each measured wall time.
    """
    with open(work / "child.out", "w+b") as out, open(work / "child.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=work, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        if wall >= CHILD_TIMEOUT:
            code = "timeout"
        out.seek(0)
        err.seek(0)
        return wall, code, out.read().decode(errors="replace"), err.read().decode(errors="replace")


def warm_import(work: Path) -> float:
    wall, code, _, err = run_child([sys.executable, "-c", "import sbbd.cli"], work)
    if code != 0:
        raise SystemExit(f"cannot import sbbd.cli from {SRC}: {err.strip()[-500:]}")
    return wall


def setup(workload: str, work: Path, seed: int, smoke: bool, repeats: int):
    """Generate the inputs and warm the CLI import `repeats` times; time each."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        calls = prepare(workload, work, seed, smoke)
        warm_import(work)
        times.append(time.perf_counter() - start)
    return calls, times


def cli_pass(calls: list, work: Path) -> tuple:
    """One pass of CLI children; returns (metrics, failures)."""
    sums = defaultdict(float)
    sim_runs = sim_wall = 0.0
    failures = []
    for call in calls:
        wall, code, out, err = run_child([sys.executable, "-m", "sbbd.cli", *call.argv], work)
        sums[f"{call.stage}_s"] += wall
        sums["pass_s"] += wall
        if call.runs:
            sim_runs += call.runs
            sim_wall += wall
        failures += [f"{call.label}: {p}" for p in check_call(call.check, code, call.exit_code, out, err)]
    if sim_wall:
        sums["simulate_runs_per_s"] = sim_runs / sim_wall
    sums.pop("simulate_s", None)
    return dict(sums), failures


def inprocess_pass(calls: list, main, rec: Recorder | None = None) -> tuple:
    """One pass through `main` in this process; returns (wall_s, failures)."""
    total = 0.0
    failures = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        if rec is not None:
            rec.run += 1
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(call.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed invocation, not a benchmark error
                code = f"uncaught {type(exc).__name__}: {exc}"
            total += time.perf_counter() - start
        problems = check_call(call.check, code, call.exit_code, out.getvalue(), err.getvalue())
        failures += [f"{call.label}: {p}" for p in problems]
    return total, failures


def median_of(rows: list, name: str) -> float:
    return statistics.median(row[name] for row in rows)


def another_pass(start: float, lengths: list, seconds: float) -> bool:
    """True while a pass of the median length so far still ends within `seconds`.

    Always true before the first pass.  Stopping at the deadline, rather
    than overrunning it by up to one pass, keeps every run within `seconds`
    plus set-up however long a pass takes.
    """
    if not lengths:
        return True
    return time.perf_counter() - start + statistics.median(lengths) <= seconds


def measure_cli(calls: list, work: Path, seconds: float) -> dict:
    passes, failures, lengths = [], [], []
    start = time.perf_counter()
    while another_pass(start, lengths, seconds):
        begun = time.perf_counter()
        row, bad = cli_pass(calls, work)
        lengths.append(time.perf_counter() - begun)
        passes.append(row)
        failures += bad
    metrics = {name: median_of(passes, name) for name in passes[0]}
    # largest max RSS of any child this process waited for (KiB on Linux)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"metrics": metrics, "passes": passes, "failures": failures,
            "attempted": len(passes) * len(calls)}


def measure_traced(calls: list, work: Path, seconds: float, trace_path: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import sbbd.cli as cli

    import_times = [warm_import(work) for _ in range(IMPORT_REPEATS)]
    rec = Recorder()
    root = rec.wrap("cli.main", cli.main)
    passes, failures, lengths = [], [], []
    start = time.perf_counter()
    while another_pass(start, lengths, seconds):
        begun = time.perf_counter()
        first = len(rec.spans)
        untraced_first = len(passes) % 2 == 0  # alternate which side runs first
        if untraced_first:
            plain_wall, bad = inprocess_pass(calls, cli.main)
            failures += bad
        undo = instrument(rec)
        try:
            _, bad = inprocess_pass(calls, root, rec)
        finally:
            undo()
        failures += bad
        if not untraced_first:
            plain_wall, bad = inprocess_pass(calls, cli.main)
            failures += bad
        row = aggregate(rec.spans[first:])
        row["trace.untraced_wall_s"] = plain_wall
        row["trace.overhead_ratio"] = row["trace.wall_s"] / plain_wall
        gap = layer_sum(row) - row["trace.wall_s"]
        if abs(gap) > 1e-9 * max(1.0, row["trace.wall_s"]):
            failures.append(f"layer self times miss the traced wall time by {gap} s")
        passes.append(row)
        lengths.append(time.perf_counter() - begun)
    rec.write_jsonl(trace_path)
    # every per-layer number comes from the pass with the median traced wall
    # time, so the reported layer self times add up to the reported wall time
    median_pass = sorted(passes, key=lambda row: row["trace.wall_s"])[(len(passes) - 1) // 2]
    metrics = {name: median_pass[name] for name, _ in PER_LAYER if name != "cli.import_s"}
    metrics["cli.import_s"] = statistics.median(import_times)
    return {"metrics": metrics, "passes": passes, "failures": failures,
            "attempted": 2 * len(passes) * len(calls), "import_runs": import_times}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "commit": commit(),
    }


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Measure one workload; returns the result record (also written to disk)."""
    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    for sub in ("results", "traces"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    try:
        calls, setup_times = setup(workload, work, seed, smoke, 1 if trace else SETUP_REPEATS)
        if trace:
            res = measure_traced(calls, work, seconds, OUT / "traces" / f"{tag}.jsonl")
            units = dict(PER_LAYER)
        else:
            res = measure_cli(calls, work, seconds)
            res["metrics"]["setup_s"] = statistics.median(setup_times)
            units = dict(END_TO_END + STAGES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(res["failures"])
    res["metrics"]["failed_ratio"] = failed / res["attempted"]
    units["failed_ratio"] = "ratio"
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "environment": environment(seed), "setup_runs": setup_times,
        "invocations": [c.label for c in calls],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(res["metrics"].items())},
        "passes": res["passes"], "attempted": res["attempted"], "failed": failed,
        "failures": res["failures"],
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def report(record: dict) -> dict:
    """Print every metric by name and unit; return the object for the last line."""
    for name, m in record["metrics"].items():
        print(f"{record['workload']:<14} {name:<34} {m['value']:<14.6g} {m['unit']}")
    print(f"{record['workload']:<14} attempted={record['attempted']} failed={record['failed']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    gated = dict(PER_LAYER) if record["trace"] else dict(END_TO_END)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: record["metrics"][k] for k in gated},
    }


def smoke() -> int:
    """Every workload at its smallest inputs, untraced and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END] and [
        m["name"] for m in spec["per_layer"]
    ] == [n for n, _ in PER_LAYER] and [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    if not ok:
        print("BENCHMARK.json metric or workload names differ from the benchmark's", file=sys.stderr)
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = report(run(workload, 1, 0.0, trace, smoke=True))
            ok = ok and result["correct"]
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads, smallest inputs")
    args = parser.parse_args(argv)
    if not (SRC / "sbbd" / "cli.py").is_file():
        print(f"no sbbd sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    print(json.dumps(report(run(args.workload, args.seed, args.seconds, args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
