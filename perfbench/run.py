#!/usr/bin/env python3
"""Benchmark of the driftinv command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One workload runs in one process with BLAS and OpenMP pinned to one
thread.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
wraps the layer boundaries and reports per-layer metrics.  The last line
of standard output is one JSON object; the exit code is 0 only when
every invocation passed its output checks.  ``--workload all`` runs each
workload in its own child process, one after another.

Results records (environment, metrics, failures, spans) are written to
``.perfbench/results/``; the commands' own outputs go to a working
directory under ``.perfbench/`` that is removed at exit.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("mc", "closed-form", "forecast-arima", "forecast-croston")
SETUP_PROBES = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metric_units(root: Path, kind: str) -> dict:
    """Units of the ``end_to_end`` or ``per_layer`` metrics, as
    BENCHMARK.json at the root of the checkout declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_all(args, root: Path) -> int:
    """Each workload in its own process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: workload {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst


def report_failures(results) -> None:
    for r in results:
        if not r.failed:
            continue
        print(f"FAILED {r.inv.command} {r.group} rc={r.rc}", file=sys.stderr)
        for p in r.problems[:5]:
            print(f"  {p}", file=sys.stderr)
        if r.error:
            print(r.error, file=sys.stderr)
        elif not r.problems:
            print(r.log[-2000:], file=sys.stderr)


def traced_run(session, seconds, root, record) -> dict:
    units = metric_units(root, "per_layer")
    traced = session.run_traced(seconds)
    session.check()
    metrics = {}
    for name, value in traced["metrics"].items():
        unit = units[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:34s} {value:.6g} {unit}")
    for target in traced["missing"]:
        print(f"  boundary missing: {target}")
    for target, n in traced["hook_errors"].items():
        print(f"  counting hook failed {n}x at {target}")
    print(f"  ({traced['cycles']} traced cycles, {traced['spans_total']} spans)")
    record["trace_result"] = traced
    return metrics


def untraced_run(session, seconds, root, work, record) -> dict:
    import bench

    units = metric_units(root, "end_to_end")
    work.mkdir(parents=True)
    probe_config = work / "setup.json"
    probe_config.write_text(json.dumps(session.workload.cycle(session.seed, 0)[0].config))
    setup = bench.SetupProbe(root, probe_config)
    setup.measure()  # compiles bytecode; dropped
    setup.samples.clear()

    def between(fraction):
        # spread the set-up probes evenly over the run
        if len(setup.samples) < SETUP_PROBES * min(fraction, 1.0):
            setup.measure()

    session.run_timed(seconds, between)
    while len(setup.samples) < SETUP_PROBES:
        setup.measure()
    peak = session.measure_peak_rss(root)
    session.check()
    e2e = session.end_to_end()
    raw_units = e2e["raw_units_per_s"]
    values = {
        "setup_s": setup.value(),
        "units_per_s": e2e["units_per_s"],
        "peak_rss_mb": peak,
    }
    raw_setup = statistics.median(s for s, _ in setup.samples)
    reference = statistics.median(r for _, r in setup.samples)
    print(f"  setup_s          {values['setup_s']:.4f} s   (median of {SETUP_PROBES} probes; "
          f"raw {raw_setup:.4f} s CPU, reference {reference:.4f} s)")
    print(f"  units_per_s      {values['units_per_s']:.6g} 1/s (raw {raw_units:.6g}; "
          f"{session.workload.unit})")
    print(f"  peak_rss_mb      {peak:.2f} MB  (highest CLI process of one cycle)")
    print(f"  speed probe      {e2e['probe_s'] * 1e3:.3f} ms (reference "
          f"{bench.PROBE_REF_S * 1e3:g} ms)")
    for name, (median, n) in sorted(e2e["commands"].items()):
        print(f"  {name:16s} {median:.4f} s   (median of n={n}, raw)")
    record.update(
        raw_units_per_s=raw_units,
        probe_median_s=e2e["probe_s"],
        setup_probes_cpu_s=setup.samples,
        commands=e2e["commands"],
    )
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "driftinv" / "__init__.py").is_file():
        print("perfbench: ./src/driftinv not found; run from the root of a driftinv "
              "checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args, root)

    sys.path.insert(0, str(src))
    import numpy as np
    import driftinv

    if not Path(driftinv.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported driftinv from {driftinv.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = root / ".perfbench"
    work = state / f"work-{os.getpid()}"
    results_dir = state / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    session = bench.Session(workload, args.seed, work)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "processes": 1,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "jit_enabled": getattr(driftinv, "JIT_ENABLED", None),
            "commit": git_commit(root),
        },
    }
    try:
        print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}: {workload.why}")
        if args.trace:
            metrics = traced_run(session, args.seconds, root, record)
        else:
            metrics = untraced_run(session, args.seconds, root, work, record)
        attempted = len(session.results)
        failed = sum(r.failed for r in session.results)
        print(f"  ops_failed_frac  {failed / attempted:.4g} ({failed} of {attempted} invocations)")
        report_failures(session.results)
        notes = sorted({f"{r.inv.command}: {n}" for r in session.results for n in r.notes})
        for note in notes:
            print(f"  warning: {note}")
        record.update(
            metrics=metrics,
            attempted=attempted,
            failed=failed,
            notes=notes,
            invocations=[
                {"command": r.inv.command, "group": r.group, "slot": r.inv.slot,
                 "wall_s": r.wall_s, "probe_s": r.probe_s, "rc": r.rc}
                for r in session.results
            ],
            failures=[
                {"command": r.inv.command, "group": r.group, "rc": r.rc,
                 "problems": r.problems, "error": r.error}
                for r in session.results if r.failed
            ],
        )
        stamp = time.strftime("%Y%m%dT%H%M%S")
        out = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
        out.write_text(json.dumps(record, indent=1, default=str))
        print(f"  record: {out.relative_to(root)}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
