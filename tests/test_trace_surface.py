"""The surface the bench tracer probes, checked by running it.

``bench/tracer.py`` wraps the package's public functions and reads work
counts off a few of them (``expansion.apply_kick``, ``apply_resolvent``
and ``apply_interaction``, ``oracle.demodulated_term_table`` and
``demodulated_laplace``).  A probe that no longer fits its function
turns its metrics into ``None`` without failing the run, so these tests
run the tracer unchanged, in a subprocess, on one run of each kind of
chain: a spectrum long enough for exact pole labels on z1, and an
oracle check, whose order-3 tables keep their 7-point grid.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"

RUNS = {
    "spectrum": ["spectrum", "--detuning-count", "41"],
    "oracle_check": ["oracle-check", "--oracle-directions", "1"],
}

#: metrics that time work; every other metric is a count, a byte count
#: or a ratio of counts, and must not change between identical runs
TIMED_SUFFIXES = ("_s", "_ns_per_term_point")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_metrics(tracer, args, directory: Path, label: str) -> dict:
    # both runs write to one output directory, as the bench's do: the
    # sidecar records its path, and its size is one of the counts
    spans = directory / f"{label}.spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *args,
         "--output-dir", str(directory / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return tracer.layer_metrics(json.loads(spans.read_text()))


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_traced_run_yields_every_metric_identically(kind, tmp_path):
    tracer = _tracer_module()
    first, second = (_traced_metrics(tracer, RUNS[kind], tmp_path, label)
                     for label in ("first", "second"))
    for metrics in (first, second):
        unreadable = {name: value for name, value in metrics.items()
                      if isinstance(value, bool)
                      or not isinstance(value, (int, float))
                      or not math.isfinite(value)}
        assert not unreadable
    counts = [name for name in first if not name.endswith(TIMED_SUFFIXES)]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    # the probes saw work: resolvent points, and term tables where built
    assert first["expansion.resolvent_term_points"] > 0
    if kind == "oracle_check":
        assert first["oracle.term_table_terms"] > 0
        assert first["oracle.solves"] > 0
