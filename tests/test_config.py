"""Run-configuration validation, resolution rules, and file writers."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mqcsim.config import (
    ConfigError,
    PACKING_CONSTANT,
    RunConfig,
    write_series,
    write_sidecar,
    write_table,
)
from mqcsim.disorder import mean_inverse_xi_squared
from mqcsim.spectra import (dipole_from_gamma, mean_free_path,
                            mean_scattering_cross_section,
                            pulse_area_from_energy)
from scipy.constants import c as C_LIGHT


def test_defaults_resolve_to_reference_parameters():
    config = RunConfig()
    assert config.resolved_theta() == pytest.approx(0.14 * np.pi)
    assert config.resolved_xi_bar() == pytest.approx(80.0)
    grid = config.detunings()
    assert len(grid) == config.detuning_count
    assert grid[0] == -config.detuning_half_range
    assert grid[-1] == config.detuning_half_range
    assert np.allclose(grid, -grid[::-1])


def test_theta_and_energy_budget_are_mutually_exclusive():
    with pytest.raises(ConfigError):
        RunConfig(theta=0.1, pulse_energy=1e-9, pulse_duration=1e-13,
                  beam_cross_section=1e-8)
    with pytest.raises(ConfigError):
        RunConfig(pulse_energy=1e-9)   # incomplete triplet
    config = RunConfig(pulse_energy=1e-9, pulse_duration=1e-13,
                       beam_cross_section=1e-8)
    omega0 = 2.0 * np.pi * C_LIGHT / config.wavelength
    expected = pulse_area_from_energy(
        1e-9, 1e-13, 1e-8, dipole_from_gamma(config.gamma, omega0))
    assert config.resolved_theta() == pytest.approx(expected)


def test_separation_sources_resolve_and_conflict():
    with pytest.raises(ConfigError):
        RunConfig(xi_bar=80.0, mean_separation=1e-5)
    direct = RunConfig(xi_bar=120.0)
    assert direct.resolved_xi_bar() == 120.0
    metric = RunConfig(mean_separation=1e-5)
    assert metric.resolved_xi_bar() == pytest.approx(
        2.0 * np.pi / metric.wavelength * 1e-5)
    density = 1e14
    implied = PACKING_CONSTANT * density ** (-1.0 / 3.0)
    from_density = RunConfig(density=density)
    assert from_density.resolved_xi_bar() == pytest.approx(
        2.0 * np.pi / from_density.wavelength * implied)
    # a consistent explicit separation is accepted, an inconsistent
    # one is rejected at the one-percent level
    RunConfig(density=density, mean_separation=implied * 1.005)
    with pytest.raises(ConfigError):
        RunConfig(density=density, mean_separation=implied * 1.05)


@pytest.mark.parametrize("fields", [
    {"gamma": -1.0},
    {"wavelength": 0.0},
    {"density": -1e12},
    {"kappas": ()},
    {"kappas": (3,)},
    {"channels": ()},
    {"channels": ("diagonal",)},
    {"tensor_mode": "near"},
    {"detuning_half_range": 0.0},
    {"detuning_count": 2},
    {"mc_samples": 0},
    {"window": (92.8, 67.2)},
    {"window": (-1.0, 5.0)},
    {"oracle_directions": 0},
    {"theta": float("nan")},
    {"delta_bar": float("inf")},
    {"detuning_count": 5.5},
    {"mc_samples": True},
    {"seed": -1},
    {"kappas": (1.0,)},
    {"window": (1.0, float("inf"))},
    {"window": (1.0, 2.0, 3.0)},
    {"gamma_to_zero": "yes"},
    {"output_dir": 5},
    {"mc_samples": 1},
])
def test_invalid_fields_are_rejected(fields):
    with pytest.raises(ConfigError):
        RunConfig(**fields)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_MAYBE = st.none() | _FINITE


@settings(max_examples=200, deadline=None)
@given(xi_bar=_MAYBE, mean_separation=_MAYBE, density=_MAYBE,
       wavelength=_MAYBE, theta=_MAYBE,
       pulse=st.none() | st.tuples(_FINITE, _FINITE, _FINITE))
@example(xi_bar=1e200, mean_separation=None, density=None,
         wavelength=None, theta=None, pulse=None)
@example(xi_bar=None, mean_separation=1e200, density=None,
         wavelength=None, theta=None, pulse=None)
@example(xi_bar=None, mean_separation=None, density=None,
         wavelength=None, theta=None, pulse=(1e300, 1e300, 1e-300))
@example(xi_bar=None, mean_separation=None, density=None,
         wavelength=1e300, theta=None, pulse=(1.0, 1.0, 1.0))
def test_accepted_configurations_resolve_to_finite_scales(
        xi_bar, mean_separation, density, wavelength, theta, pulse):
    # any finite input is either refused as a configuration error or
    # resolves to a finite pulse area, a usable <1/xi^2>, and a positive
    # finite cross-section and mean free path
    fields = dict(xi_bar=xi_bar, mean_separation=mean_separation,
                  density=density, wavelength=wavelength, theta=theta)
    if pulse is not None:
        fields.update(zip(("pulse_energy", "pulse_duration",
                           "beam_cross_section"), pulse))
    try:
        config = RunConfig.from_sources(None, **fields)
    except ConfigError:
        return
    assert abs(config.resolved_theta()) <= 4.0 * np.pi
    inverse = mean_inverse_xi_squared(xi_bar=config.resolved_xi_bar())
    assert 0.0 < inverse < math.inf
    sigma = mean_scattering_cross_section(config.wavelength, config.gamma,
                                          config.delta_bar)
    assert 0.0 < sigma < math.inf
    if config.density is not None:
        assert 0.0 < mean_free_path(config.density, sigma) < math.inf


def test_from_sources_merges_file_and_overrides(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({
        "theta": 0.3, "kappas": [1], "window": [50.0, 70.0],
        "detuning_count": 11}))
    config = RunConfig.from_sources(config_file, detuning_count=5,
                                    seed=None)
    assert config.theta == 0.3
    assert config.kappas == (1,)
    assert config.window == (50.0, 70.0)
    assert config.detuning_count == 5      # flag beats file
    assert config.seed == RunConfig().seed  # None leaves the default

    config_file.write_text(json.dumps({"not_a_field": 1}))
    with pytest.raises(ConfigError):
        RunConfig.from_sources(config_file)
    config_file.write_text("[]")
    with pytest.raises(ConfigError):
        RunConfig.from_sources(config_file)
    with pytest.raises(ConfigError):
        RunConfig.from_sources(tmp_path / "missing.json")


def test_metadata_is_json_serializable_and_complete():
    config = RunConfig(kappas=(2,))
    metadata = config.as_metadata()
    json.dumps(metadata)
    assert metadata["kappas"] == [2]
    assert metadata["version"]
    assert metadata["resolved_theta"] == pytest.approx(0.14 * np.pi)
    assert metadata["resolved_xi_bar"] == pytest.approx(80.0)


def test_write_table_is_byte_identical_and_parseable(tmp_path):
    columns = {"name": ["a", "b"], "value": [1.0 / 3.0, 2e-16]}
    metadata = {"seed": 7, "window": [67.2, 92.8]}
    first, second = tmp_path / "one.tsv", tmp_path / "two.tsv"
    write_table(first, columns, metadata)
    write_table(second, columns, metadata)
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    header = [line for line in lines if line.startswith("# ")]
    assert "# seed = 7" in header
    body = [line for line in lines if not line.startswith("# ")]
    assert body[0].split("\t") == ["name", "value"]
    # full double precision survives the round trip
    assert float(body[1].split("\t")[1]) == 1.0 / 3.0


def test_write_series_emits_error_columns_when_present(tmp_path):
    from mqcsim.spectra import SpectrumSeries
    series = SpectrumSeries(
        detunings=np.array([-1.0, 0.0, 1.0]),
        values=np.array([1 + 2j, 3 + 4j, 5 + 6j]),
        kappa=1, channel="parallel", direction="y",
        errors=np.array([0.1 + 0.2j, 0.1 + 0.2j, 0.1 + 0.2j]))
    path = tmp_path / "series.tsv"
    write_series(path, series, {"seed": 1})
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("# ")]
    assert lines[0].split("\t") == [
        "omega_detuning_over_gamma", "Re_S", "Im_S", "Re_err", "Im_err"]
    row = lines[2].split("\t")
    assert float(row[1]) == 3.0 and float(row[2]) == 4.0
    header = path.read_text()
    assert '# kappa = 1' in header
    assert '# channel = "parallel"' in header


def test_sidecar_carries_the_only_timestamp(tmp_path):
    path = tmp_path / "run.json"
    write_sidecar(path, {"config": {"seed": 3}})
    record = json.loads(path.read_text())
    assert "timestamp" in record
    assert record["config"]["seed"] == 3
