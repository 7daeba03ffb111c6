"""Tests of the benchmark itself: span arithmetic, wrapper coverage,
output checks, and agreement of BENCHMARK.json with the code."""

import json
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import tracer


def span(sid, name, start, end, parent=None, thread=1, failed=False,
         extra=None):
    return (sid, name, start, end, parent, thread, failed, extra)


def trace_of(functions, spans):
    index = {name: i for i, name in enumerate(functions)}
    return {"functions": list(functions),
            "spans": [(s[0], index[s[1]]) + s[2:] for s in spans]}


def test_self_time_subtracts_nested_same_module_spans():
    trace = trace_of(
        ["m.outer", "m.inner", "o.leaf"],
        [span(0, "m.outer", 0.0, 10.0),
         span(1, "m.inner", 2.0, 5.0, parent=0),
         span(2, "o.leaf", 3.0, 4.0, parent=1),
         span(3, "m.inner", 6.0, 7.0, parent=0)])
    metrics = tracer.layer_metrics(trace, layers=("m", "o"))
    assert metrics["m.calls"] == 3
    assert metrics["m.self_s"] == pytest.approx(9.0)
    assert metrics["o.self_s"] == pytest.approx(1.0)
    assert tracer.self_times(trace["spans"]) == pytest.approx(
        {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_pool_spans_once():
    # two pool threads run children of the submitting span concurrently
    trace = trace_of(
        ["cli.run", "oracle.solve"],
        [span(0, "cli.run", 0.0, 10.0, thread=1),
         span(1, "oracle.solve", 1.0, 6.0, parent=0, thread=2),
         span(2, "oracle.solve", 4.0, 8.0, parent=0, thread=3),
         span(3, "oracle.solve", 9.5, 12.0, parent=0, thread=2)])
    selfs = tracer.self_times(trace["spans"])
    assert selfs[0] == pytest.approx(10.0 - 7.0 - 0.5)
    metrics = tracer.layer_metrics(trace, layers=("cli", "oracle"))
    assert metrics["oracle.self_s"] == pytest.approx(5.0 + 4.0 + 2.5)


def test_errors_count_exceptions_leaving_a_module_once():
    trace = trace_of(
        ["m.outer", "m.inner", "o.caller"],
        [span(0, "o.caller", 0.0, 4.0),
         span(1, "m.outer", 1.0, 3.0, parent=0, failed=True),
         span(2, "m.inner", 1.5, 2.0, parent=1, failed=True)])
    metrics = tracer.layer_metrics(trace, layers=("m", "o"))
    assert metrics["m.errors"] == 1
    assert metrics["o.errors"] == 0


def test_missing_functions_give_null_metrics():
    trace = trace_of(["cli.main"], [span(0, "cli.main", 0.0, 1.0)])
    metrics = tracer.layer_metrics(trace)
    assert metrics["cli.calls"] == 1
    assert metrics["oracle.calls"] == 0
    assert metrics["expansion.resolvent_term_points"] is None
    assert metrics["oracle.term_table_s"] is None
    assert metrics["disorder.distinct_call_ratio"] is None


def test_probe_counts_become_layer_metrics():
    trace = trace_of(
        ["expansion.apply_kick", "expansion.apply_resolvent",
         "expansion.apply_interaction", "disorder.averaged_solution",
         "oracle.demodulated_term_table"],
        [span(0, "expansion.apply_kick", 0.0, 1.0,
              extra={"terms_in": 2, "terms_out": 5}),
         span(1, "expansion.apply_resolvent", 1.0, 3.0,
              extra={"terms_in": 5, "z_size": 10, "terms_out": 5}),
         span(2, "expansion.apply_interaction", 3.0, 4.0,
              extra={"terms_out": 7}),
         span(3, "disorder.averaged_solution", 4.0, 5.0,
              extra={"key": "a"}),
         span(4, "disorder.averaged_solution", 5.0, 6.0,
              extra={"key": "a"})])
    metrics = tracer.layer_metrics(trace)
    assert metrics["expansion.resolvent_term_points"] == 50
    assert metrics["expansion.resolvent_ns_per_term_point"] == \
        pytest.approx(2e9 / 50)
    assert metrics["expansion.terms_out"] == 17
    assert metrics["expansion.kick_keep_ratio"] == pytest.approx(5 / 50)
    assert metrics["disorder.distinct_call_ratio"] == 0.5
    # the function exists but did not run: its ratio's base is zero
    assert metrics["oracle.term_table_distinct_ratio"] == 0.0


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    root = tmp_path / "fakepkg"
    root.mkdir()
    (root / "__init__.py").write_text("from .b import outer\n")
    (root / "a.py").write_text(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def leaf(x):\n"
        "    return x + 1\n"
        "def pooled(values):\n"
        "    with ThreadPoolExecutor(max_workers=2) as pool:\n"
        "        return list(pool.map(leaf, values))\n")
    (root / "b.py").write_text(
        "from .a import leaf\n"
        "def outer(x):\n"
        "    return leaf(x) * 2\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [n for n in sys.modules if n.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def test_wrappers_cover_from_imports_and_pool_threads(fake_package):
    import fakepkg
    import fakepkg.a
    import fakepkg.b
    original = fakepkg.a.leaf
    recorder = tracer.Tracer()
    restore = tracer.install(recorder, package=fake_package,
                             layers=("a", "b"))
    try:
        assert fakepkg.b.leaf is not original
        assert fakepkg.b.leaf is fakepkg.a.leaf
        assert fakepkg.outer(1) == 4
        assert fakepkg.a.pooled([1, 2, 3]) == [2, 3, 4]
    finally:
        restore()
    assert fakepkg.b.leaf is original and fakepkg.a.leaf is original
    names = recorder.names
    spans = {s[0]: s for s in recorder.spans}
    by_name = lambda n: [s for s in spans.values() if names[s[1]] == n]
    (outer,) = by_name("b.outer")
    (pooled,) = by_name("a.pooled")
    leaves = by_name("a.leaf")
    assert len(leaves) == 4
    assert [s[4] for s in leaves].count(outer[0]) == 1
    pool_leaves = [s for s in leaves if s[4] == pooled[0]]
    assert len(pool_leaves) == 3
    assert all(s[5] != threading.get_ident() for s in pool_leaves)


def test_wrappers_reach_the_cli_bindings_of_mqcsim():
    import mqcsim.cli
    import mqcsim.spectra
    original = mqcsim.spectra.spectrum
    recorder = tracer.Tracer()
    restore = tracer.install(recorder)
    try:
        assert mqcsim.cli.spectrum is mqcsim.spectra.spectrum
        assert mqcsim.cli.spectrum is not original
        mqcsim.cli.spectrum(2, "parallel", "y", 0.1, np.array([0.0]),
                            xi_bar=80.0)
    finally:
        restore()
    assert mqcsim.cli.spectrum is original
    called = {recorder.names[s[1]] for s in recorder.spans}
    assert {"spectra.spectrum", "disorder.averaged_solution",
            "expansion.apply_kick"} <= called


def write_tsv(path, grid, values):
    rows = "\n".join(f"{d:.17g}\t{v.real:.17g}\t{v.imag:.17g}"
                     for d, v in zip(grid, values))
    path.write_text("# kappa = 1\n# units = \"f^2/gamma^2\"\n"
                    "omega_detuning_over_gamma\tRe_S\tIm_S\n" + rows + "\n")


@pytest.fixture
def fig4_dir(tmp_path):
    reference = checks.load_reference()

    def make(changes=None):
        for name in checks.FIG4_SERIES:
            values = reference[name]
            if changes and name in changes:
                values = changes[name](values)
            write_tsv(tmp_path / f"{name}.tsv", reference["detunings"],
                      values)
        return tmp_path

    return reference, make


def test_fig4_check_accepts_the_reference(fig4_dir):
    reference, make = fig4_dir
    assert checks.fig4_problems(make(), reference) == []


def test_fig4_check_rejects_a_small_change_in_the_weak_channel(fig4_dir):
    reference, make = fig4_dir
    name = "spectrum_k1_parallel_x"
    problems = checks.fig4_problems(
        make({name: lambda v: v * (1.0 + 1e-6)}), reference)
    assert len(problems) == 1 and problems[0].startswith(name)


def test_fig4_check_accepts_roundoff_in_the_zero_series(fig4_dir):
    reference, make = fig4_dir
    kappa1 = max(np.max(np.abs(reference[n])) for n in checks.FIG4_SERIES
                 if n.startswith("spectrum_k1"))
    noise = lambda v: v + 4.0 * np.finfo(float).eps * kappa1 * (1 + 1j)
    zero = lambda v: np.zeros_like(v)
    changes = {"spectrum_k1_perpendicular_x": noise,
               "spectrum_k1_perpendicular_y_gamma0": zero,
               "spectrum_k2_perpendicular_x_gamma0": zero,
               "spectrum_k2_perpendicular_y_gamma0": zero}
    assert checks.fig4_problems(make(changes), reference) == []


def test_fig4_check_reports_a_missing_series(fig4_dir):
    reference, make = fig4_dir
    directory = make()
    (directory / "spectrum_k2_parallel_y.tsv").unlink()
    assert checks.fig4_problems(directory, reference) == [
        "spectrum_k2_parallel_y: missing"]


def test_output_check_rejects_exit_one_and_fail_lines(tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    report = tmp_path / "oracle_check.txt"
    report.write_text("# seed = 1\nPASS oracle xi=1000\nPASS oracle xi=80\n"
                      "seed = 1\n")
    passed = SimpleNamespace(exit_code=0, stderr="")
    failed = run.Child([sys.executable, "-c", "import sys; sys.exit(1)"],
                       "exit1", time.perf_counter() + 60.0)
    assert run.output_problems("oracle_check", passed, tmp_path, None) == []
    assert run.output_problems("oracle_check", failed, tmp_path, None) == [
        "exit code 1"]
    report.write_text("PASS oracle xi=1000\nFAIL oracle xi=80\n")
    assert checks.report_problems(report) == [
        "oracle_check.txt: FAIL oracle xi=80"]
    assert checks.run_problems(0, "Traceback (most recent call last):") \
        == ["traceback on stderr"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    layer_names = set(tracer.layer_metrics(
        {"functions": [], "spans": []}))
    assert layer_names | {"trace.overhead_ratio"} == set(
        run.per_layer_units())


def test_a_child_past_the_deadline_is_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    child = run.Child([sys.executable, "-c", "import time; time.sleep(60)"],
                      "hung", time.perf_counter() + 1.0)
    assert child.exit_code != 0
    assert child.wall_s < 30.0


def fake_run(wall_s=1.0, layers=None):
    return SimpleNamespace(argv=["fake"], wall_s=wall_s, peak_rss_mb=1.0,
                           exit_code=0, problems=[], layers=layers)


def test_a_failed_setup_spawn_is_a_failed_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_ARGV", ["--no-such-option"])
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "run_workload", lambda *args: fake_run())
    runs, metrics, _, _ = run.end_to_end("fig4", 1, 0.0, None,
                                         time.perf_counter() + 60.0)
    assert [r.problems for r in runs] == [[], ["exit code 2"],
                                          ["exit code 2"]]
    assert metrics["setup_s"] is None and metrics["wall_s"] == 1.0


def test_traced_runs_fail_unless_both_leave_matching_counts(monkeypatch):
    counts = iter([{"cli.calls": 3}, {"cli.calls": 4}])
    monkeypatch.setattr(run, "run_workload", lambda *args, spans=None:
                        fake_run(layers=next(counts)) if spans else
                        fake_run())
    runs, metrics, _, _ = run.traced("fig4", 1, None, 0.0)
    assert runs[0].problems == ["cli.calls differs between traced runs: "
                                "[3, 4]"]
    assert metrics["trace.overhead_ratio"] == 0.0

    monkeypatch.setattr(run, "run_workload",
                        lambda *args, spans=None: fake_run())
    runs, metrics, _, _ = run.traced("fig4", 1, None, 0.0)
    assert runs[0].problems == ["0 of 2 traced runs left spans, so their "
                                "counts were not compared"]
    assert metrics["cli.calls"] is None
