"""Command-line interface: exit codes, file layout, determinism."""

import ast
import contextlib
import gc
import importlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

import mqcsim
from mqcsim import __version__, expansion, oracle
from mqcsim.cli import MC_FALSE_ALARM, family_z_limit, main, script
from mqcsim.config import (MAX_DETUNING_COUNT, MAX_MC_SAMPLES,
                           MAX_ORACLE_DIRECTIONS, MIN_MC_SAMPLES, RunConfig)
from mqcsim.spectra import (
    leading_order_peaks,
    mean_free_path,
    mean_scattering_cross_section,
    spectrum,
)


def read_data(path):
    lines = path.read_text().splitlines()
    skip = sum(1 for line in lines if line.startswith("# "))
    return np.genfromtxt(path, names=True, delimiter="\t",
                         skip_header=skip, dtype=None, encoding="utf-8")


def read_metadata(path):
    pairs = (line[2:].split(" = ", 1)
             for line in path.read_text().splitlines()
             if line.startswith("# "))
    return {key: json.loads(value) for key, value in pairs}


def test_version_flag_reports_package_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out


ROOT = Path(__file__).resolve().parents[1]


def _spawn(argv, cwd):
    """``python -m mqcsim.cli argv`` in a fresh interpreter, its output
    piped."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "mqcsim.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def test_console_script_enters_through_the_script_entry():
    project = (ROOT / "pyproject.toml").read_text()
    scripts = project.split("[project.scripts]\n")[1].split("\n\n")[0]
    assert scripts == 'mqcsim = "mqcsim.cli:script"'


def test_script_reports_version(tmp_path):
    done = _spawn(["--version"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0.1.0\n", "")
    assert __version__ == "0.1.0"


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--theta", "abc"], "invalid float value: 'abc'"),
    (["cross-section", "--density", "-1"],
     "invalid configuration: density must be positive, got -1.0"),
], ids=["flag", "configuration"])
def test_script_exits_two_on_invalid_input(tmp_path, argv, message):
    done = _spawn(argv + ["--output-dir", str(tmp_path / "out")], tmp_path)
    assert done.returncode == 2
    assert message in done.stderr
    assert done.stdout == ""
    assert not (tmp_path / "out").exists()


def test_script_writes_its_whole_stdout_to_a_pipe(tmp_path, capsys):
    # the frozen heap at exit loses no buffered output: a piped run
    # prints what an in-process run prints, and writes the same table
    argv = ["cross-section", "--density", "1e14", "--output-dir"]
    done = _spawn(argv + ["piped"], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert main(argv + [str(tmp_path / "direct")]) == 0
    assert done.stdout == capsys.readouterr().out
    assert [line.split(" = ")[0] for line in done.stdout.splitlines()] == [
        "mean_cross_section", "cold_limit", "mean_free_path"]
    piped, direct = ([line for line in
                      (tmp_path / name / "cross_section.tsv").read_text()
                      .splitlines() if not line.startswith("# output_dir")]
                     for name in ("piped", "direct"))
    assert piped == direct


def test_main_leaves_the_heap_unfrozen(tmp_path):
    assert gc.get_freeze_count() == 0
    assert main(["cross-section", "--output-dir", str(tmp_path)]) == 0
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("ending", ["return", "exit", "raise"])
def test_script_freezes_the_heap_however_main_ends(monkeypatch, ending):
    def fake_main(argv):
        if ending == "exit":
            raise SystemExit(2)
        if ending == "raise":
            raise KeyboardInterrupt
        return 0

    monkeypatch.setattr("mqcsim.cli.main", fake_main)
    try:
        if ending == "return":
            assert script([]) == 0
        else:
            with pytest.raises((SystemExit, KeyboardInterrupt)):
                script([])
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert gc.get_freeze_count() == 0


def test_every_exported_name_resolves():
    import mqcsim

    missing = [name for name in mqcsim.__all__ if not hasattr(mqcsim, name)]
    assert not missing


def _library_names():
    """Every public top-level function and class of every library module,
    found as the reachability guard below finds definitions: by its
    exported name where ``mqcsim.__all__`` holds it, else as module.name."""
    names = list(mqcsim.__all__)
    for path in sorted(Path(mqcsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names += [f"{path.stem}.{node.name}" for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and node.name not in mqcsim.__all__]
    return names


LIBRARY_NAMES = _library_names()


def _parameters(name):
    """Parameter names of an exported ``name`` or of module.name."""
    module, _, attribute = name.rpartition(".")
    owner = importlib.import_module(f"mqcsim.{module}") if module else mqcsim
    try:
        return inspect.signature(getattr(owner, attribute)).parameters
    except ValueError:   # exception classes have no introspectable signature
        return {}


#: the only callables taking an SI decay rate: the SI helpers and the run
#: configuration that feeds them; everything else works in units of the
#: decay rate
SI_HELPERS = ("mean_scattering_cross_section", "dipole_from_gamma",
              "config.RunConfig")


@pytest.mark.parametrize("name", [
    name for name in LIBRARY_NAMES if name not in SI_HELPERS])
def test_only_the_si_helpers_take_gamma(name):
    assert "gamma" not in _parameters(name)


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_no_function_takes_a_picture(name):
    # every superoperator acts on density-operator coefficients
    assert "picture" not in _parameters(name)


#: settings of the chain and its readers that no run varies: the chain
#: computes only the detected signal, integrated over the detection time
#: (z2 = 0, stationary mode projected out), summed over orders 0 and 2,
#: and sampled in fixed batches
FIXED_SETTINGS = ("z2", "restrict_stationary", "initial", "orders",
                  "batch_size", "keep_traces")


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_no_function_takes_a_fixed_setting(name):
    fixed = set(FIXED_SETTINGS)
    if name == "oracle.demodulated_term_table":
        # the chain runs to different orders in different runs: spectrum
        # and mc-average (0, 2), oracle-check 0-3
        fixed.discard("orders")
    assert not fixed & set(_parameters(name))


@pytest.mark.parametrize("path", sorted(
    p for p in Path(mqcsim.__file__).parent.glob("*.py") if p.name != "cli.py"),
    ids=lambda p: p.name)
def test_no_library_module_calls_print(path):
    # only the command line prints its report; the library logs
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert not calls, f"print called at {path.name} lines {calls}"


#: library definitions that no run calls, kept as the independent
#: references the tests check the fast paths against
KEPT_REFERENCES = {
    "average_state": "disorder average of a full state, behind averaged_solution",
    "scattering_solution": "forward chain, behind the detector-first chain",
    "detection_projection": "detector rows of a full state, behind the tails",
    "spectrum": "one-series view of directional_spectra, read by the bench",
    "pair_generator": "full generator, behind the order blocks and the "
                      "transients",
}


def _names_read(node):
    return {child.id if isinstance(child, ast.Name) else child.attr
            for child in ast.walk(node)
            if isinstance(child, (ast.Name, ast.Attribute))}


def test_every_library_definition_is_reached_by_a_run():
    # code that exists only for the tests lives under tests/: every
    # top-level function and class is read by module-level code, by a
    # kept reference or dunder, or by a definition those reach in turn
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in
             sorted(Path(mqcsim.__file__).parent.glob("*.py"))]
    definitions = {node.name: node for tree in trees for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    module_reads = set().union(*(
        _names_read(node) for tree in trees for node in tree.body
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef))))
    reads = {name: _names_read(node) - {name}
             for name, node in definitions.items()}
    for name in KEPT_REFERENCES:
        assert name in definitions
        assert name not in module_reads, name
        assert not any(name in names for names in reads.values()), name
    live = {name for name in definitions if name in module_reads
            or name in KEPT_REFERENCES or name.startswith("__")}
    while True:
        reached = live | {name for name in definitions
                          if any(name in reads[other] for other in live)}
        if reached == live:
            break
        live = reached
    assert sorted(set(definitions) - live) == []


def test_gamma_flag_leaves_spectrum_data_unchanged(tmp_path):
    # --gamma is the SI rate of the cross-section and the energy budget;
    # the spectra are computed in units of the decay rate
    rows = {}
    for label, extra in (("default", []), ("gamma", ["--gamma", "1e3"])):
        out = tmp_path / label
        assert main(SMALL_SPECTRUM + extra + ["--output-dir", str(out)]) == 0
        rows[label] = {
            path.name: [line for line in path.read_text().splitlines()
                        if not line.startswith("# ")]
            for path in sorted(out.glob("*.tsv"))}
    assert len(rows["default"]) == 2
    assert rows["gamma"] == rows["default"]


#: settings that one subcommand alone reads: that subcommand, the flag,
#: and the value other than the default that a config file can hold
SINGLE_READER_SETTINGS = {
    "gamma_to_zero": ("spectrum", ["--gamma-to-zero"], True),
    "interactions_between_pulses": (
        "spectrum", ["--no-interactions-between-pulses"], False),
    "tensor_mode": ("mc-average", ["--tensor-mode", "far_field"],
                    "far_field"),
}


@pytest.mark.parametrize("command, setting", [
    (command, setting) for setting, (reader, _, _) in
    SINGLE_READER_SETTINGS.items()
    for command in ("spectrum", "table1", "oracle-check", "mc-average",
                    "cross-section") if command != reader])
def test_a_setting_the_subcommand_ignores_exits_with_two(command, setting,
                                                         tmp_path, capsys):
    # recorded in the sidecar, the setting would claim numbers that it
    # never changed; from a flag or a config file alike, the run stops
    # before it makes its output directory
    _, flag, value = SINGLE_READER_SETTINGS[setting]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({setting: value}))
    out = tmp_path / "run"
    for extra in (flag, ["--config", str(config)]):
        assert main([command, *extra, "--seed", "3",
                     "--output-dir", str(out)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("invalid configuration: ")
        assert setting in line
    assert not out.exists()


def test_invalid_configuration_exits_with_two(tmp_path, capsys):
    assert main(["spectrum", "--gamma", "-1"]) == 2
    assert main(["spectrum", "--kappas"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_field": 1}))
    assert main(["spectrum", "--config", str(bad)]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_unreadable_config_file_exits_with_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for content in (b'{"theta": "\xff"}', b"[" * 100_000 + b"]" * 100_000):
        bad.write_bytes(content)
        assert main(["cross-section", "--config", str(bad)]) == 2
        assert "cannot read config file" in capsys.readouterr().err


SMALL_SPECTRUM = ["spectrum", "--kappas", "2", "--channels", "parallel",
                  "--detuning-count", "5"]


@pytest.mark.parametrize("argv,config", [
    (SMALL_SPECTRUM + ["--theta", "nan"], None),
    (SMALL_SPECTRUM + ["--detuning-half-range", "nan"], None),
    (["mc-average", "--kappas", "2", "--channels", "parallel",
      "--detuning-count", "5", "--window", "1", "inf",
      "--mc-samples", str(MIN_MC_SAMPLES)], None),
    (["spectrum"], {"detuning_count": 5.5}),
    (["cross-section", "--delta-bar", "inf"], None),
    (SMALL_SPECTRUM + ["--xi-bar", "1e-200"], None),
    (SMALL_SPECTRUM + ["--mean-separation", "1e-250"], None),
    (SMALL_SPECTRUM + ["--xi-bar", "1e-160"], None),
    (SMALL_SPECTRUM + ["--xi-bar", "1e200"], None),
    (SMALL_SPECTRUM + ["--mean-separation", "1e200"], None),
    (SMALL_SPECTRUM + ["--pulse-energy", "1e300", "--pulse-duration", "1e300",
                       "--beam-cross-section", "1e-300"], None),
    (["cross-section", "--wavelength", "1e160"], None),
    (["cross-section", "--gamma", "1e-320"], None),
    (["cross-section", "--density", "1e-300"], None),
    (["mc-average", "--window", "1e-200", "1e-150", "--kappas", "2",
      "--channels", "parallel", "--detuning-count", "3",
      "--mc-samples", str(MIN_MC_SAMPLES)], None),
    (["mc-average", "--window", "1e200", "1e250", "--kappas", "2",
      "--channels", "parallel", "--detuning-count", "3",
      "--mc-samples", str(MIN_MC_SAMPLES)], None),
    (SMALL_SPECTRUM + ["--theta", "1e200"], None),
    (SMALL_SPECTRUM + ["--theta", "13"], None),
    (["mc-average", "--kappas", "2", "--channels", "parallel",
      "--detuning-count", "3", "--mc-samples", "1"], None),
    (SMALL_SPECTRUM + ["--detuning-half-range", "1e-320"], None),
    (SMALL_SPECTRUM + ["--detuning-half-range", "1e308"], None),
    (["spectrum", "--kappas", "2", "--channels", "parallel",
      "--detuning-count", "100000000000000000000"], None),
    (SMALL_SPECTRUM + ["--detuning-count", str(MAX_DETUNING_COUNT + 1)], None),
    # a repeated selection would redo its series
    (["spectrum", "--kappas", "1", "1", "--channels", "parallel", "parallel",
      "--detuning-count", "5"], None),
    (["mc-average", "--kappas", "2", "2", "--channels", "parallel",
      "--detuning-count", "3", "--mc-samples", str(MIN_MC_SAMPLES)],
     None),
    (["oracle-check", "--kappas", "1", "--channels", "perpendicular",
      "perpendicular", "--oracle-directions", "1"], None),
    (["spectrum"], {"kappas": [2, 1, 2], "channels": ["parallel"],
                    "detuning_count": 5}),
    # counts above their caps are refused before anything is allocated
    (["oracle-check", "--oracle-directions", "100000000000"], None),
    (["oracle-check", "--oracle-directions",
      str(MAX_ORACLE_DIRECTIONS + 1)], None),
    (["mc-average", "--kappas", "2", "--channels", "parallel",
      "--detuning-count", "3", "--mc-samples", str(MAX_MC_SAMPLES + 1)],
     None),
    # too few samples for the normal approximation of the z-scores
    (["mc-average", "--kappas", "2", "--channels", "parallel",
      "--detuning-count", "3", "--mc-samples", str(MIN_MC_SAMPLES - 1)],
     None),
])
def test_bad_inputs_exit_with_two(tmp_path, capsys, argv, config):
    argv = argv + ["--output-dir", str(tmp_path / "run")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("invalid configuration: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("subcommand,flag,cap", [
    ("oracle-check", "--oracle-directions", MAX_ORACLE_DIRECTIONS),
    ("mc-average", "--mc-samples", MAX_MC_SAMPLES),
])
def test_count_caps_are_named(tmp_path, capsys, subcommand, flag, cap):
    # validation only: the count is refused before anything runs
    assert main([subcommand, flag, str(cap + 1),
                 "--output-dir", str(tmp_path / "run")]) == 2
    assert f"{cap}, got {cap + 1}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


#: flags taking one real or one integer value; every subcommand
#: validates the same configuration, so cross-section fuzzes them cheaply
REAL_FLAGS = ("--gamma", "--wavelength", "--delta-bar", "--density",
              "--theta", "--pulse-energy", "--pulse-duration",
              "--beam-cross-section", "--xi-bar", "--mean-separation",
              "--detuning-half-range")
INTEGER_FLAGS = ("--kappas", "--detuning-count", "--mc-samples", "--seed",
                 "--oracle-directions")
_EXTREME_REALS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e300,
     1e308, 1.7976931348623157e308])
_EXTREME_INTEGERS = st.integers(-3, 5) | st.integers(-10**30, 10**30)


@settings(max_examples=300, deadline=None)
@given(reals=st.dictionaries(st.sampled_from(REAL_FLAGS), _EXTREME_REALS,
                             max_size=5),
       integers=st.dictionaries(st.sampled_from(INTEGER_FLAGS),
                                _EXTREME_INTEGERS, max_size=3))
def test_fuzzed_flags_exit_zero_or_two(reals, integers):
    # --flag=value, so that a value such as -inf is not read as a flag
    argv = ([f"{flag}={value!r}" for flag, value in reals.items()]
            + [f"{flag}={value}" for flag, value in integers.items()])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as directory, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["cross-section", *argv, "--output-dir", directory])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("invalid configuration: ")


@pytest.mark.parametrize("argv", [
    SMALL_SPECTRUM, ["table1"], ["oracle-check", "--oracle-directions", "1"],
    ["mc-average", "--mc-samples", str(MIN_MC_SAMPLES)], ["cross-section"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["file", "below_file", "empty",
                                    "empty_in_config"])
def test_unusable_output_dir_exits_with_two(tmp_path, capsys, monkeypatch,
                                            argv, target):
    # an existing file, a path through one, or an empty path (which would
    # name the working directory) cannot be the directory
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": ""}))
    flags = {"file": ["--output-dir", str(blocker)],
             "below_file": ["--output-dir", str(blocker / "run")],
             "empty": ["--output-dir", ""],
             "empty_in_config": ["--config", str(config)]}[target]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("invalid configuration: output_dir ")
    assert blocker.read_text() == "kept"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "config.json", "file"]


def test_unexpected_exceptions_exit_with_three(tmp_path, capsys,
                                              monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr("mqcsim.cli.directional_spectra", fail)
    assert main(SMALL_SPECTRUM + ["--output-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ["unexpected failure: RuntimeError: "
                                "unexpected state"]


def test_spectrum_writes_selected_series(tmp_path):
    out = tmp_path / "run"
    assert main(["spectrum", "--kappas", "1", "--channels", "parallel",
                 "--detuning-count", "5", "--output-dir", str(out)]) == 0
    for direction in ("x", "y"):
        path = out / f"spectrum_k1_parallel_{direction}.tsv"
        data = read_data(path)
        config = RunConfig(kappas=(1,), channels=("parallel",),
                           detuning_count=5)
        closed = spectrum(1, "parallel", direction,
                          config.resolved_theta(), config.detunings(),
                          xi_bar=config.resolved_xi_bar())
        assert np.allclose(data["Re_S"], closed.values.real)
        assert np.allclose(data["Im_S"], closed.values.imag)
        metadata = read_metadata(path)
        assert metadata["seed"] == RunConfig().seed
        assert metadata["direction"] == direction
    sidecar = json.loads((out / "spectrum.json").read_text())
    assert sidecar["files"] == ["spectrum_k1_parallel_x.tsv",
                                "spectrum_k1_parallel_y.tsv"]
    assert "timestamp" in sidecar


def test_vanishing_linewidth_flag_adds_suffix(tmp_path):
    out = tmp_path / "run"
    assert main(["spectrum", "--kappas", "2", "--channels", "parallel",
                 "--detuning-count", "5", "--gamma-to-zero",
                 "--output-dir", str(out)]) == 0
    path = out / "spectrum_k2_parallel_x_gamma0.tsv"
    assert path.exists()
    assert read_metadata(path)["average_mode"] == "level_shift_only"


def test_no_interactions_between_pulses_runs_the_fast_chain(tmp_path):
    # photon exchange restricted to the detection stage is the fast
    # chain.  It changes the one-quantum series; the two-quantum ones
    # come out the same, because exchange annihilates the |ee><gg|
    # coherence that is all the first pulse leaves at kappa = 2.
    fast, full = tmp_path / "fast", tmp_path / "full"
    argv = ["spectrum", "--kappas", "1", "2", "--channels", "parallel",
            "--detuning-count", "5"]
    assert main(argv + ["--no-interactions-between-pulses",
                        "--output-dir", str(fast)]) == 0
    assert main(argv + ["--output-dir", str(full)]) == 0
    sidecar = json.loads((fast / "spectrum.json").read_text())
    assert sidecar["config"]["interactions_between_pulses"] is False
    config = RunConfig(channels=("parallel",), detuning_count=5)
    for kappa in (1, 2):
        for direction in ("x", "y"):
            name = f"spectrum_k{kappa}_parallel_{direction}.tsv"
            assert read_metadata(fast / name)[
                "interactions_between_pulses"] is False
            data, other = read_data(fast / name), read_data(full / name)
            values = data["Re_S"] + 1j * data["Im_S"]
            reference = spectrum(kappa, "parallel", direction,
                                 config.resolved_theta(), config.detunings(),
                                 xi_bar=config.resolved_xi_bar(), fast=True)
            scale = np.max(np.abs(reference.values))
            assert np.max(np.abs(values - reference.values)) <= 1e-12 * scale
            change = np.max(np.abs(values - other["Re_S"]
                                   - 1j * other["Im_S"]))
            if kappa == 1:
                assert change > 1e-5 * scale
            else:
                assert change == 0.0


def test_config_file_fields_are_overridden_by_flags(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps(
        {"kappas": [2], "channels": ["perpendicular"],
         "detuning_count": 9}))
    out = tmp_path / "run"
    assert main(["spectrum", "--config", str(config_file),
                 "--detuning-count", "5", "--output-dir", str(out)]) == 0
    data = read_data(out / "spectrum_k2_perpendicular_x.tsv")
    assert data.shape == (5,)


def test_reruns_are_byte_identical_outside_the_sidecar(tmp_path):
    out = tmp_path / "run"
    args = ["spectrum", "--kappas", "1", "--channels", "parallel",
            "--detuning-count", "5", "--output-dir", str(out)]
    name = "spectrum_k1_parallel_y.tsv"
    assert main(args) == 0
    data = (out / name).read_bytes()
    sidecar = json.loads((out / "spectrum.json").read_text())
    assert main(args) == 0
    assert (out / name).read_bytes() == data
    rerun = json.loads((out / "spectrum.json").read_text())
    sidecar.pop("timestamp")
    rerun.pop("timestamp")
    assert rerun == sidecar


def test_fig4_preset_emits_sixteen_series(tmp_path):
    out = tmp_path / "fig4"
    assert main(["spectrum", "--preset", "fig4",
                 "--output-dir", str(out)]) == 0
    files = sorted(p.name for p in out.glob("spectrum_*.tsv"))
    assert len(files) == 16
    for kappa in (1, 2):
        for channel in ("parallel", "perpendicular"):
            for direction in ("x", "y"):
                base = f"spectrum_k{kappa}_{channel}_{direction}"
                assert f"{base}.tsv" in files
                assert f"{base}_gamma0.tsv" in files
    sidecar = json.loads((out / "spectrum.json").read_text())
    assert sidecar["preset"] == "fig4"
    assert len(sidecar["files"]) == 16


def test_fig4_preset_refuses_every_other_parameter(tmp_path, capsys):
    # the preset sets every parameter but the seed and the output
    # directory; any other flag, or a config file, exits 2 naming the
    # flags instead of being dropped
    out = tmp_path / "fig4"
    config = tmp_path / "run.json"
    config.write_text("{}")
    for extra, named in (
            (["--kappas", "1", "--channels", "parallel",
              "--detuning-count", "5", "--theta", "0.3",
              "--no-interactions-between-pulses"],
             ("--kappas", "--channels", "--detuning-count", "--theta",
              "--no-interactions-between-pulses")),
            (["--config", str(config)], ("--config",)),
            (["--seed", "3", "--gamma-to-zero"], ("--gamma-to-zero",))):
        assert main(["spectrum", "--preset", "fig4", *extra,
                     "--output-dir", str(out)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("invalid configuration: ")
        assert all(flag in line for flag in named)
        assert "--seed" not in line.split("drop")[-1]
    assert not out.exists()


def test_table1_reports_closed_and_fitted_coefficients(tmp_path):
    out = tmp_path / "table"
    assert main(["table1", "--output-dir", str(out)]) == 0
    data = read_data(out / "table1.tsv")
    assert set(data.dtype.names) >= {
        "kappa", "closed_form", "computed", "fitted_coefficient",
        "closed_coefficient", "fitted_exponent"}
    assert data.shape == (8,)
    nonzero = data["closed_form"] != 0.0
    assert np.count_nonzero(nonzero) == 6
    expected = np.where(data["kappa"][nonzero] == 1, 2.0, 4.0)
    assert np.allclose(data["fitted_exponent"][nonzero], expected,
                       atol=0.05)
    assert np.allclose(data["fitted_coefficient"][nonzero],
                       data["closed_coefficient"][nonzero], rtol=0.02)


@pytest.mark.parametrize("theta,code", [("0", 2), ("1e-200", 2),
                                        ("1e-100", 0)])
def test_table1_at_vanishing_pulse_areas(tmp_path, capsys, theta, code):
    # at 0 and 1e-200 the one-quantum peak that normalizes the table is 0
    # (theta^2 underflows); at 1e-100 it is not, and the closed-form
    # coefficients do not depend on theta
    out = tmp_path / "table"
    assert main(["table1", "--theta", theta, "--output-dir", str(out)]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ")
        assert not out.exists()
        return
    data = read_data(out / "table1.tsv")
    closed = leading_order_peaks(1.0, 80.0)
    for row in data:
        key = (int(row["kappa"]), str(row["direction"]), str(row["channel"]))
        assert row["closed_coefficient"] == closed[key]
    nonzero = data["closed_form"] != 0.0
    assert np.allclose(data["fitted_coefficient"][nonzero],
                       data["closed_coefficient"][nonzero], rtol=0.02)


def test_cross_section_matches_library_values(tmp_path):
    out = tmp_path / "xs"
    assert main(["cross-section", "--density", "1e14",
                 "--output-dir", str(out)]) == 0
    data = read_data(out / "cross_section.tsv")
    config = RunConfig(density=1e14)
    averaged = mean_scattering_cross_section(
        config.wavelength, config.gamma, config.delta_bar)
    values = dict(zip(("mean_cross_section", "cold_limit",
                       "mean_free_path"), data["value"]))
    assert values["mean_cross_section"] == pytest.approx(averaged)
    assert values["cold_limit"] == pytest.approx(
        3.0 * config.wavelength ** 2 / (2.0 * np.pi))
    assert values["mean_free_path"] == pytest.approx(
        mean_free_path(1e14, averaged))
    # without a density there is no mean free path to report
    bare = tmp_path / "bare"
    assert main(["cross-section", "--output-dir", str(bare)]) == 0
    assert read_data(bare / "cross_section.tsv").shape == (2,)


def test_mc_average_passes_and_writes_report(tmp_path):
    out = tmp_path / "mc"
    assert main(["mc-average", "--mc-samples", "4000",
                 "--detuning-count", "9", "--output-dir", str(out)]) == 0
    report = (out / "mc_average.txt").read_text()
    body = [line for line in report.splitlines()
            if not line.startswith("# ")]
    checks = [line for line in body if line.startswith(("PASS", "FAIL"))]
    assert len(checks) == 9 and all(c.startswith("PASS") for c in checks)
    # 36 tensor moments and 8 peaks, with a real score each
    assert all(c.endswith(f"limit={family_z_limit(44):.2f}") for c in checks)
    assert f"seed = {RunConfig().seed}" in body
    series = read_data(out / "mc_k1_parallel_y.tsv")
    assert {"Re_err", "Im_err"} <= set(series.dtype.names)
    # a peak is scored on its real part alone: Im S vanishes at resonance
    config = RunConfig(detuning_count=9)
    center = int(np.argmin(np.abs(config.detunings())))
    for kappa in (1, 2):
        sampled = read_data(out / f"mc_k{kappa}_parallel_y.tsv")[center]
        closed = spectrum(kappa, "parallel", "y", config.resolved_theta(),
                          config.detunings(), window=(67.2, 92.8))
        z = (abs(sampled["Re_S"] - closed.values.real[center])
             / sampled["Re_err"])
        line = next(c for c in checks if f"mc_peak kappa={kappa} "
                    "channel=parallel direction=y " in c)
        assert f"peak_z={z:.2f} " in line


def test_mc_average_builds_one_chain_per_kappa_and_channel(monkeypatch,
                                                           tmp_path):
    # the sampled tables and the closed forms read one cached zero-phase
    # chain per kappa, which serves both channels, built from a cold cache
    expansion._chain.cache_clear()
    built = []

    def counted(*args, **kwargs):
        built.append(args[3])
        return chain_rows(*args, **kwargs)

    chain_rows = expansion._chain_rows
    monkeypatch.setattr(expansion, "_chain_rows", counted)
    assert main(["mc-average", "--mc-samples", "1000", "--detuning-count",
                 "5", "--output-dir", str(tmp_path)]) == 0
    assert sorted(built) == [1, 2]


def test_oracle_check_builds_one_chain_per_kappa(monkeypatch, tmp_path):
    # the term tables of both channels at one kappa read one chain, whose
    # kick 1 and interpulse prefixes serve both, built from a cold cache
    expansion._chain.cache_clear()
    built = []

    def counted(*args, **kwargs):
        built.append(args[3])
        return chain_rows(*args, **kwargs)

    chain_rows = expansion._chain_rows
    monkeypatch.setattr(expansion, "_chain_rows", counted)
    assert main(["oracle-check", "--output-dir", str(tmp_path)]) == 0
    assert built == [1, 2]


def test_family_z_limit_holds_a_run_at_three_sigma():
    # one score: the plain two-sided three-sigma limit
    assert abs(family_z_limit(1) - 3.0) < 1e-3
    assert round(family_z_limit(72), 2) == 4.12
    assert round(family_z_limit(88), 2) == 4.17


@pytest.mark.parametrize("count", [1, 98, 1000])
def test_family_z_limit_matches_scipy_ndtri(count):
    reference = -ndtri(MC_FALSE_ALARM / (2.0 * count))
    assert abs(family_z_limit(count) - reference) < 1e-14


def test_mc_average_failure_exits_with_one(tmp_path):
    # in the near field the sampled spectra leave the far-field closed
    # form by some twenty standard errors; the far-field tensor moments
    # still hold
    out = tmp_path / "mc"
    assert main(["mc-average", "--window", "1", "2", "--mc-samples", "2000",
                 "--kappas", "1", "--channels", "parallel",
                 "--detuning-count", "3", "--seed", "1",
                 "--output-dir", str(out)]) == 1
    report = (out / "mc_average.txt").read_text()
    assert "PASS tensor_moments" in report
    assert report.count("FAIL mc_peak") == 2


def test_zero_pulse_area_checks_pass_with_zero_signal(tmp_path):
    # a zero area prunes every monomial: the term tables hold no terms
    for argv in (["oracle-check", "--oracle-directions", "1"],
                 ["mc-average", "--mc-samples", str(MIN_MC_SAMPLES),
                  "--detuning-count", "3"]):
        out = tmp_path / argv[0]
        assert main(argv + ["--theta", "0", "--output-dir", str(out)]) == 0
        (report,) = out.glob("*.txt")
        checks = [line for line in report.read_text().splitlines()
                  if line.startswith(("PASS", "FAIL"))]
        assert checks and all(c.startswith("PASS") for c in checks)
    series = sorted((tmp_path / "mc-average").glob("mc_*.tsv"))
    assert len(series) == 8
    for path in series:
        data = read_data(path)
        assert not np.any(data["Re_S"]) and not np.any(data["Im_S"])


def test_oracle_check_passes_at_one_orientation(tmp_path):
    out = tmp_path / "oracle"
    assert main(["oracle-check", "--oracle-directions", "1",
                 "--output-dir", str(out)]) == 0
    report = (out / "oracle_check.txt").read_text()
    assert report.count("PASS oracle") == 2
    assert "FAIL" not in report
    sidecar = json.loads((out / "oracle_check.json").read_text())
    assert sidecar["files"] == ["oracle_check.txt"]


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_check_prices_isotropic_axes_of_its_seed(seed, monkeypatch,
                                                        tmp_path):
    # each orientation takes two random() draws of a standard-library
    # generator seeded with the run's seed, cos of the polar angle and
    # then the azimuth: the isotropic law of oracle.sample_configurations
    priced = []
    price = oracle.fixed_configuration_components

    def captured(table, xi, n_hat):
        priced.append(np.array(n_hat))
        return price(table, xi, n_hat)

    monkeypatch.setattr(oracle, "fixed_configuration_components", captured)
    assert main(["oracle-check", "--oracle-directions", "3", "--seed",
                 str(seed), "--output-dir", str(tmp_path)]) == 0
    draw = random.Random(seed).random
    want = []
    for _ in range(3):
        cos_polar = 2.0 * draw() - 1.0
        azimuth = 2.0 * np.pi * draw()
        sin_polar = np.sqrt(1.0 - cos_polar**2)
        want.append([sin_polar * np.cos(azimuth),
                     sin_polar * np.sin(azimuth), cos_polar])
    # one call per term table and checked separation
    assert len(priced) == 4 * 2
    for axes in priced:
        np.testing.assert_allclose(axes, want, rtol=0, atol=1e-15)
        assert np.all(np.abs(np.linalg.norm(axes, axis=1) - 1.0) <= 1e-15)
