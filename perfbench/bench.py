"""One workload run: invoke ``driftinv.cli.main`` in-process and time it.

The program sees only the generated config files.  Each invocation gets
its own directory holding ``config.json`` and the command's ``--out``
directory; outputs stay on disk until the checks have read them.
"""

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Optional

import driftinv.cli
import numpy as np

from layers import BOUNDARIES, COUNTING, QUADRATURE, layer_metrics
from spans import Tracer
from workloads import Invocation, Workload

# median speed_probe() on the reference machine (2-core shared VM, Python
# 3.11, numpy 2.4); normalised times read as if the run had that speed
PROBE_REF_S = 0.028
# set-up: what every CLI call pays before it starts work, and a reference
# interpreter start that runs no program code; REFERENCE_CPU_S is the
# median CPU time of the reference on the reference machine
SETUP_CODE = "import sys; from driftinv.cli import load_config; load_config(sys.argv[1])"
REFERENCE_CODE = "import numpy"
REFERENCE_CPU_S = 0.228
# one CLI command in a fresh interpreter, which then writes the VmHWM line
# of /proc/self/status (Linux) to argv[1]: the peak resident memory of its
# own address space.  ru_maxrss would not do, because a child's starts
# from the RSS of the process that spawned it.
CLI_CODE = """\
import sys
from driftinv.cli import main
rc = main(sys.argv[2:])
with open("/proc/self/status") as status, open(sys.argv[1], "w") as out:
    out.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(rc)
"""

METRIC_OF_COMMAND = {
    "expected-cost": "expected_cost_s",
    "sweep": "sweep_s",
    "simulate": "simulate_s",
    "validate": "validate_s",
    "fpt-diag": "fpt_diag_s",
    "table1": "table1_s",
    "compare": "compare_s",
}


@dataclass
class Result:
    inv: Invocation
    group: tuple  # (pass, cycle): invocations of one cycle in one pass
    out: Path
    wall_s: float
    rc: Optional[int]
    error: Optional[str] = None  # traceback when the command raised
    log: str = ""
    probe_s: float = 0.0  # speed_probe() right after the invocation
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # defects that leave values right

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def speed_probe(buf: np.ndarray) -> float:
    """Seconds for a fixed slice of work shaped like the program's:
    interpreted scalar arithmetic, generator construction and draws, and
    in-place vector arithmetic on ``buf``, which is allocated once.  It
    runs no program code."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += (i % 7) * 0.5
    for i in range(200):
        acc += np.random.Generator(np.random.PCG64(i)).exponential(1.0, 16).sum()
    buf.fill(2.0)
    for _ in range(20):
        np.multiply(buf, 1.0001, out=buf)
        np.sqrt(buf, out=buf)
    return perf_counter() - t0


def run_child(argv, cwd: Path, env: dict, timeout: float = 120.0):
    """Run one child process to its end; return its exit code and its own
    resource usage."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = perf_counter() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if perf_counter() > deadline:
            proc.kill()
            proc.wait()
            raise subprocess.TimeoutExpired(argv, timeout)
        sleep(0.002)


class SetupProbe:
    """Set-up time: a fresh interpreter that imports the CLI and loads one
    config, timed in CPU seconds next to a reference interpreter that only
    imports numpy.  The two run back to back, in alternating order.

    The host's speed drifts by tens of percent over minutes, and the
    reference tracks that drift where the in-process speed probe does
    not, because it does the same kind of work.  ``value()`` is the
    median of ``setup * REFERENCE_CPU_S / reference``: set-up time at the
    reference machine's speed.  The reference runs no program code, so a
    change to the program moves this figure exactly as it moves the raw
    CPU time.
    """

    def __init__(self, root: Path, config: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.setup_argv = [sys.executable, "-c", SETUP_CODE, str(config)]
        self.reference_argv = [sys.executable, "-c", REFERENCE_CODE]
        self.samples = []  # (setup_cpu_s, reference_cpu_s)

    def measure(self) -> None:
        def run(argv):
            rc, usage = run_child(argv, self.root, self.env)
            if rc != 0:
                raise RuntimeError(f"set-up probe {argv[2]!r} exited {rc}")
            return usage.ru_utime + usage.ru_stime

        if len(self.samples) % 2 == 0:
            setup = run(self.setup_argv)
            reference = run(self.reference_argv)
        else:
            reference = run(self.reference_argv)
            setup = run(self.setup_argv)
        self.samples.append((setup, reference))

    def value(self) -> float:
        return statistics.median(s * REFERENCE_CPU_S / r for s, r in self.samples)


def _dir_size(path: Path):
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


class Session:
    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.results = []
        self._probe_buf = np.empty(250_000)

    def _argv(self, inv: Invocation):
        """A fresh directory with the invocation's config; its CLI argv."""
        d = self.work_dir / f"{len(self.results):05d}"
        d.mkdir(parents=True)
        config = d / "config.json"
        config.write_text(json.dumps(inv.config, indent=1))
        return [inv.command, "--config", str(config), "--out", str(d / "out")], d / "out"

    def invoke(self, inv: Invocation, group: tuple) -> Result:
        argv, out = self._argv(inv)
        log = io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = driftinv.cli.main(argv)
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation, not a failed run
            rc, error = None, traceback.format_exc()
        wall = perf_counter() - t0
        result = Result(inv, group, out, wall, rc, error, log.getvalue())
        result.probe_s = speed_probe(self._probe_buf)
        self.results.append(result)
        return result

    # -- untraced run -------------------------------------------------
    def run_timed(self, seconds: float, between=None) -> None:
        """Whole first cycle, then invocations until ``seconds`` of their
        time have passed.  ``between(fraction)``, if given, runs after each
        invocation with the share of ``seconds`` used so far; its own time
        is not counted."""
        start = perf_counter()
        j = 0
        while True:
            for inv in self.workload.cycle(self.seed, j):
                if j > 0 and perf_counter() - start >= seconds:
                    return
                self.invoke(inv, ("run", j))
                if between is not None:
                    t0 = perf_counter()
                    between((t0 - start) / seconds if seconds > 0 else 1.0)
                    start += perf_counter() - t0
            j += 1

    def measure_peak_rss(self, root: Path) -> float:
        """Peak resident memory of the CLI as a user runs it: each
        invocation of cycle 0 in a fresh interpreter (``CLI_CODE``), so no
        harness memory is counted.  Returns the highest, in MB.  Their
        outputs are checked like any other."""
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        peaks = []
        for inv in self.workload.cycle(self.seed, 0):
            argv, out = self._argv(inv)
            hwm = out.parent / "vmhwm"
            t0 = perf_counter()
            rc, _ = run_child([sys.executable, "-c", CLI_CODE, str(hwm), *argv], root, env)
            result = Result(inv, ("rss", 0), out, perf_counter() - t0, rc)
            if hwm.exists():
                peaks.append(int(hwm.read_text().split()[1]) / 1024.0)  # "VmHWM: <n> kB"
            else:
                result.error = f"{inv.command} exited {rc} before it recorded its peak memory"
            self.results.append(result)
        return max(peaks, default=0.0)

    def end_to_end(self) -> dict:
        """units_per_s (normalised and raw), the probe median and the
        per-command medians of an untraced run.

        units_per_s divides the units of one cycle by the sum over its
        slots of each slot's median time, so a run that stops inside a
        cycle does not tilt the mix.  The normalised figure times each
        invocation as ``wall_s * PROBE_REF_S / probe_s``, in units of the
        probe taken right after it.
        """
        by_slot, by_command = {}, {}
        for r in self.results:
            if r.group[0] != "run":
                continue
            by_slot.setdefault(r.inv.slot, []).append(r)
            by_command.setdefault(r.inv.command, []).append(r.wall_s)
        units = sum(rs[0].inv.units for rs in by_slot.values())

        def busy(time_of):
            return sum(statistics.median(time_of(r) for r in rs) for rs in by_slot.values())

        return {
            "units_per_s": units / busy(lambda r: r.wall_s * PROBE_REF_S / r.probe_s),
            "raw_units_per_s": units / busy(lambda r: r.wall_s),
            "probe_s": statistics.median(r.probe_s for rs in by_slot.values() for r in rs),
            "commands": {
                METRIC_OF_COMMAND[c]: (statistics.median(ts), len(ts))
                for c, ts in by_command.items()
            },
        }

    # -- traced run ---------------------------------------------------
    def run_traced(self, seconds: float) -> dict:
        """Repeat cycle 0 until ``seconds`` have passed, each invocation
        once untraced and once traced, and return per-cycle layer metrics.

        When the cycle reaches the quadrature, one more pass over it counts
        integrand evaluations with the ``COUNTING`` hooks, which would
        distort the timed pass.

        The wrappers exist only while a traced or counted invocation runs.
        """
        tracer = Tracer()
        cycle = self.workload.cycle(self.seed, 0)
        untraced = traced = 0.0
        io_bytes = io_files = 0
        reps = 0
        start = perf_counter()
        while reps == 0 or perf_counter() - start < seconds:
            for inv in cycle:
                untraced += self.invoke(inv, ("plain", reps)).wall_s
                tracer.install(BOUNDARIES)
                try:
                    r = self.invoke(inv, ("traced", reps))
                finally:
                    tracer.uninstall()
                traced += r.wall_s
                nbytes, nfiles = _dir_size(r.out)
                io_bytes += nbytes
                io_files += nfiles
            reps += 1
        integrand_evals = 0
        if tracer.calls([QUADRATURE]):
            counter = Tracer()
            counter.install(COUNTING)
            try:
                for inv in cycle:
                    self.invoke(inv, ("counted", 0))
            finally:
                counter.uninstall()
            integrand_evals = counter.counters["quadrature.integrand_evals"]
            tracer.hook_errors.update(counter.hook_errors)
        metrics = layer_metrics(tracer, reps, traced, untraced, io_bytes, io_files,
                                integrand_evals)
        return {
            "cycles": reps,
            "metrics": metrics,
            "missing": list(tracer.missing),
            "hook_errors": dict(tracer.hook_errors),
            "spans": tracer.span_records(),
            "spans_total": tracer._next_id,
        }

    # -- checks -------------------------------------------------------
    def check(self) -> None:
        """Run the output checks on every result (outside any timing)."""
        import checks  # scipy loads here, outside any timing

        for r in self.results:
            if r.error is None:
                r.problems = checks.check_invocation(r.inv.command, r.inv.config, r.rc, r.out)
                r.notes = checks.format_notes(r.out)
        tables = {
            (r.group, json.dumps(r.inv.config, sort_keys=True)): r
            for r in self.results
            if r.inv.command == "table1" and not r.failed
        }
        for r in self.results:
            if r.inv.command != "compare" or r.failed:
                continue
            t = tables.get((r.group, json.dumps(r.inv.config, sort_keys=True)))
            if t is not None:
                r.problems += checks.check_table_matches_compare(r.inv.config, t.out, r.out)
