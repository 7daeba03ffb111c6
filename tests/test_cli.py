"""Command-line interface: exit codes, file layout, determinism."""

import contextlib
import inspect
import io
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mqcsim
from mqcsim import __version__
from mqcsim.cli import family_z_limit, main
from mqcsim.config import RunConfig
from mqcsim.spectra import (
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


def test_every_exported_name_resolves():
    import mqcsim

    missing = [name for name in mqcsim.__all__ if not hasattr(mqcsim, name)]
    assert not missing


def _parameters(name):
    """Parameter names of the dotted ``name`` under ``mqcsim``."""
    target = mqcsim
    for part in name.split("."):
        target = getattr(target, part)
    try:
        return inspect.signature(target).parameters
    except ValueError:   # exception classes have no introspectable signature
        return {}


#: the only functions taking an SI decay rate; everything else works in
#: units of the decay rate
SI_HELPERS = ("mean_scattering_cross_section", "dipole_from_gamma",
              "gamma_from_dipole")


@pytest.mark.parametrize("name", [
    name for name in mqcsim.__all__ if name not in SI_HELPERS
] + ["oracle.demodulated_term_table"])
def test_only_the_si_helpers_take_gamma(name):
    assert "gamma" not in _parameters(name)


@pytest.mark.parametrize("name", mqcsim.__all__)
def test_no_function_takes_a_picture(name):
    # every superoperator acts on density-operator coefficients
    assert "picture" not in _parameters(name)


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


def test_invalid_configuration_exits_with_two(tmp_path, capsys):
    assert main(["spectrum", "--gamma", "-1"]) == 2
    assert main(["spectrum", "--kappas"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_field": 1}))
    assert main(["spectrum", "--config", str(bad)]) == 2
    assert "invalid configuration" in capsys.readouterr().err


SMALL_SPECTRUM = ["spectrum", "--kappas", "2", "--channels", "parallel",
                  "--detuning-count", "5"]


@pytest.mark.parametrize("argv,config", [
    (SMALL_SPECTRUM + ["--theta", "nan"], None),
    (SMALL_SPECTRUM + ["--detuning-half-range", "nan"], None),
    (["mc-average", "--kappas", "2", "--channels", "parallel",
      "--detuning-count", "5", "--window", "1", "inf",
      "--mc-samples", "10"], None),
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
      "--mc-samples", "10"], None),
    (["mc-average", "--window", "1e200", "1e250", "--kappas", "2",
      "--channels", "parallel", "--detuning-count", "3",
      "--mc-samples", "10"], None),
    (SMALL_SPECTRUM + ["--theta", "1e200"], None),
    (SMALL_SPECTRUM + ["--theta", "13"], None),
    (["mc-average", "--kappas", "2", "--channels", "parallel",
      "--detuning-count", "3", "--mc-samples", "1"], None),
    (SMALL_SPECTRUM + ["--detuning-half-range", "1e-320"], None),
    (SMALL_SPECTRUM + ["--detuning-half-range", "1e308"], None),
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
    # 36 tensor moments with a real and an imaginary score each, and 8
    # peaks with a real score each
    assert all(c.endswith(f"limit={family_z_limit(80):.2f}") for c in checks)
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


def test_family_z_limit_holds_a_run_at_three_sigma():
    # one score: the plain two-sided three-sigma limit
    assert abs(family_z_limit(1) - 3.0) < 1e-3
    assert round(family_z_limit(72), 2) == 4.12
    assert round(family_z_limit(88), 2) == 4.17


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


def test_oracle_check_passes_at_one_orientation(tmp_path):
    out = tmp_path / "oracle"
    assert main(["oracle-check", "--oracle-directions", "1",
                 "--output-dir", str(out)]) == 0
    report = (out / "oracle_check.txt").read_text()
    assert report.count("PASS oracle") == 2
    assert "FAIL" not in report
    sidecar = json.loads((out / "oracle_check.json").read_text())
    assert sidecar["files"] == ["oracle_check.txt"]
