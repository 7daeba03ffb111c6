"""End-to-end benchmark of the mqcsim command line.

    python3 bench/run.py --workload fig4 --seed 1 --seconds 20 --trace 0

Every timed run is a fresh ``python -m mqcsim.cli`` process, started from
the root of the checkout with ``src`` on ``PYTHONPATH``: CLI users pay
interpreter start, imports and lazy cache fills on every call, and a
fresh process keeps any in-process cache from carrying results from one
run to the next.  Workload processes are started one at a time until
``--seconds`` have passed (at least one), and every run's outputs are
checked (see ``checks.py``).

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``,
the median wall time of ``python -m mqcsim.cli --version`` (interpreter
start plus every import the CLI makes) over several spawns, and the
median ``wall_s`` and ``peak_rss_mb`` of the workload processes.  With
``--trace 1`` the workload runs traced under ``tracer.py``, untraced, and
traced again, however long that takes; the result holds the per-layer
metrics of the traced runs and ``trace.overhead_ratio``, and the run
fails unless both traced runs left spans and their counts agree
exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, and the environment record.
The full record, environment included, is also written under
``bench/_work/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
TRACER = BENCH / "tracer.py"
PYTHON = sys.executable

#: why each workload is in the benchmark is recorded in README.md
WORKLOADS = {
    "fig4": ["spectrum", "--preset", "fig4"],
    "oracle_check": ["oracle-check", "--oracle-directions", "4"],
}
REPORTS = {"oracle_check": "oracle_check.txt"}

SETUP_ARGV = ["--version"]
#: setup spawns per run, half before the workload processes and half
#: after, so that a burst of machine-wide slowness rarely covers most;
#: each spawn takes about 0.7 s on two cores, so 20 add about 14 s to a
#: run of 20-30 s
SETUP_REPEATS = 20

#: one BLAS thread per child: on two cores a second thread cost fig4 about
#: 1.6 times the CPU for a smaller, noisier wall-time gain; one malloc arena,
#: so that peak RSS cannot depend on which thread allocates first; no
#: transparent huge pages for numpy arrays, so that peak RSS cannot depend
#: on how many free huge pages the machine has at the time (they added
#: 4% to oracle_check when there were); a fixed hash seed removes one
#: more source of run-to-run variation
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_ARENA_MAX": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "PYTHONHASHSEED": "0",
}

#: a child still running this many seconds after the benchmark started
#: is killed, so that the benchmark ends within three minutes
DEADLINE_S = 170.0
#: no new workload child starts if it and the remaining setup spawns
#: would end the run after this
RUN_BUDGET_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MODULE_UNITS = {"calls": "count", "self_s": "s", "errors": "count"}
LAYER_UNITS = {
    "expansion.resolvent_term_points": "count",
    "expansion.resolvent_ns_per_term_point": "ns",
    "expansion.terms_out": "count",
    "expansion.kick_keep_ratio": "ratio",
    "disorder.distinct_call_ratio": "ratio",
    "oracle.term_table_s": "s",
    "oracle.term_table_terms": "count",
    "oracle.term_table_bytes": "B",
    "oracle.term_table_distinct_ratio": "ratio",
    "oracle.generator_s": "s",
    "oracle.binned_kick_s": "s",
    "oracle.laplace_self_s": "s",
    "oracle.solves": "count",
    "config.bytes_written": "B",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in the order they are reported."""
    units = {f"{layer}.{kind}": unit for layer in tracer.LAYERS
             for kind, unit in MODULE_UNITS.items()}
    units.update(LAYER_UNITS)
    return units


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if key != "MQCSIM_WORKERS"}
    env.update(CHILD_ENV, PYTHONPATH=str(SOURCE))
    return env


class Child:
    """One finished child process: wall time, peak RSS, exit code, output."""

    def __init__(self, argv, label: str, deadline: float):
        self.argv = argv
        WORK.mkdir(parents=True, exist_ok=True)
        out_path = WORK / f"{label}.stdout"
        err_path = WORK / f"{label}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                    stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(deadline - start, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = err_path.read_text(errors="replace")


def output_problems(workload: str, child: Child, output_dir: Path,
                    reference) -> list:
    problems = checks.run_problems(child.exit_code, child.stderr)
    if workload == "fig4":
        problems += checks.fig4_problems(output_dir, reference)
    else:
        problems += checks.report_problems(output_dir / REPORTS[workload])
    return problems


def run_workload(workload: str, seed: int, reference, deadline: float,
                 spans=None):
    """Run the workload once in a fresh process and check its outputs.

    With ``spans``, the process runs under the tracer, which writes its
    spans there, and ``child.layers`` holds the per-layer metrics.
    """
    output_dir = WORK / "out" / workload
    shutil.rmtree(output_dir, ignore_errors=True)
    args = WORKLOADS[workload] + ["--seed", str(seed), "--output-dir",
                                  str(output_dir.relative_to(ROOT))]
    if spans is None:
        child = Child([PYTHON, "-m", "mqcsim.cli"] + args, workload,
                      deadline)
    else:
        spans.unlink(missing_ok=True)
        child = Child([PYTHON, str(TRACER.relative_to(ROOT)),
                       str(spans.relative_to(ROOT))] + args,
                      f"{workload}.traced", deadline)
    child.problems = output_problems(workload, child, output_dir, reference)
    if spans is not None:
        child.layers = None
        if spans.is_file():
            child.layers = tracer.layer_metrics(json.loads(spans.read_text()))
        else:
            child.problems.append("traced run left no spans")
    return child


def measure_setup(count: int, deadline: float):
    """Wall times of ``count`` setup spawns, and the spawns that failed."""
    times, failed = [], []
    for _ in range(count):
        child = Child([PYTHON, "-m", "mqcsim.cli"] + SETUP_ARGV, "setup",
                      deadline)
        child.problems = checks.run_problems(child.exit_code, child.stderr)
        if child.problems:
            failed.append(child)
        else:
            times.append(child.wall_s)
    return times, failed


def blas_record() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, argv: list) -> dict:
    import numpy
    import scipy
    return {
        "commit": git_commit(),
        "seed": seed,
        "argv": argv,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "malloc_arena_max": CHILD_ENV["MALLOC_ARENA_MAX"],
        "numpy_madvise_hugepage": CHILD_ENV["NUMPY_MADVISE_HUGEPAGE"],
        "mqcsim_workers": "unset (program default)",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def timed_runs(workload, seed, seconds, reference, deadline,
               reserve_s: float) -> list:
    """Workload runs until ``seconds`` have passed, at least one.

    ``reserve_s`` of the run budget is kept for the setup spawns that
    follow the workload runs.
    """
    runs, start = [], time.perf_counter()
    while True:
        runs.append(run_workload(workload, seed, reference, deadline))
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds
                or elapsed + runs[-1].wall_s + reserve_s > RUN_BUDGET_S):
            return runs


def end_to_end(workload, seed, seconds, reference, deadline):
    """Workload runs between two halves of the setup spawns.

    A failed setup spawn counts as a failed run; ``setup_s`` is the
    median of the spawns that succeeded.
    """
    before = SETUP_REPEATS // 2
    after = SETUP_REPEATS - before
    setup, failed = measure_setup(before, deadline)
    runs = timed_runs(workload, seed, seconds, reference, deadline,
                      reserve_s=after * max(setup, default=0.0))
    more, more_failed = measure_setup(after, deadline)
    setup += more
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    notes = {"wall_s": f"median of {len(runs)} runs",
             "setup_s": f"median of {len(setup)} spawns",
             "peak_rss_mb": f"median of {len(runs)} runs"}
    return runs + failed + more_failed, metrics, END_TO_END_UNITS, notes


def traced(workload, seed, reference, deadline):
    runs = [run_workload(workload, seed, reference, deadline,
                         spans=WORK / f"{workload}.spans1.json"),
            run_workload(workload, seed, reference, deadline),
            run_workload(workload, seed, reference, deadline,
                         spans=WORK / f"{workload}.spans2.json")]
    traced_runs = [runs[0], runs[2]]
    layers = [run.layers for run in traced_runs if run.layers is not None]
    if len(layers) < 2:
        runs[0].problems.append(f"{len(layers)} of 2 traced runs left "
                                "spans, so their counts were not compared")
    units = per_layer_units()
    metrics = {}
    for name, unit in units.items():
        values = [layer.get(name) for layer in layers]
        if not values or None in values:
            metrics[name] = None
        elif unit in ("s", "ns", "1/s"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                runs[0].problems.append(
                    f"{name} differs between traced runs: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.wall_s for r in traced_runs) / runs[1].wall_s
        - 1.0)
    notes = {"trace.overhead_ratio": "2 traced runs over 1 untraced run"}
    return runs, metrics, units, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "mqcsim" / "cli.py").is_file():
        print(f"mqcsim sources not found under {SOURCE}", file=sys.stderr)
        return 2
    reference = checks.load_reference() if args.workload == "fig4" else None
    deadline = time.perf_counter() + DEADLINE_S

    if args.trace:
        runs, values, units, notes = traced(args.workload, args.seed,
                                            reference, deadline)
    else:
        runs, values, units, notes = end_to_end(args.workload, args.seed,
                                                args.seconds, reference,
                                                deadline)
    failed = [run for run in runs if run.problems]
    env = environment(args.seed, runs[0].argv)
    for name, value in values.items():
        note = f" ({notes[name]})" if name in notes else ""
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {units[name]}{note}")
    print(f"{args.workload} error_rate = {len(failed) / len(runs):.6g} "
          f"ratio ({len(failed)} of {len(runs)} runs failed)")
    for run in failed:
        print(f"failed run: {' '.join(run.argv)}: {'; '.join(run.problems)}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace,
                  environment=env,
                  runs=[{"argv": r.argv, "wall_s": r.wall_s,
                         "peak_rss_mb": r.peak_rss_mb,
                         "exit_code": r.exit_code, "problems": r.problems}
                        for r in runs])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
