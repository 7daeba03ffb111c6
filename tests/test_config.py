"""Run-configuration validation, resolution rules, and file writers."""

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mqcsim.config import (
    ConfigError,
    MAX_DETUNING_COUNT,
    MAX_MC_SAMPLES,
    MIN_MC_SAMPLES,
    MAX_ORACLE_DIRECTIONS,
    PACKING_CONSTANT,
    RunConfig,
    write_report,
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
    {"detuning_count": 10**20},
    {"detuning_count": MAX_DETUNING_COUNT + 1},
    {"kappas": (1, 1)},
    {"channels": ("parallel", "perpendicular", "parallel")},
    {"mc_samples": MAX_MC_SAMPLES + 1},
    {"oracle_directions": MAX_ORACLE_DIRECTIONS + 1},
    {"oracle_directions": 10**11},
    {"output_dir": ""},
    {"mc_samples": MIN_MC_SAMPLES - 1},
])
def test_invalid_fields_are_rejected(fields):
    with pytest.raises(ConfigError):
        RunConfig(**fields)


def test_repeated_selections_are_named():
    with pytest.raises(ConfigError, match=r"kappas .*\(2,\)"):
        RunConfig(kappas=(2, 1, 2))
    with pytest.raises(ConfigError, match="channels .*'perpendicular'"):
        RunConfig(channels=("perpendicular", "perpendicular"))


def test_largest_detuning_grid_is_accepted():
    grid = RunConfig(detuning_count=MAX_DETUNING_COUNT).detunings()
    assert grid.size == MAX_DETUNING_COUNT


def test_count_caps_admit_the_defaults_and_themselves():
    # validation only: nothing is sampled or solved here
    defaults = RunConfig()
    assert defaults.mc_samples <= MAX_MC_SAMPLES
    assert defaults.oracle_directions <= MAX_ORACLE_DIRECTIONS
    RunConfig(mc_samples=MAX_MC_SAMPLES,
              oracle_directions=MAX_ORACLE_DIRECTIONS)
    RunConfig(mc_samples=MIN_MC_SAMPLES)


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
@example(xi_bar=None, mean_separation=None, density=None,
         wavelength=None, theta=None, pulse=(1.0, 1.0, 5e-324))
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
    for content in UNREADABLE_CONFIGS:
        config_file.write_bytes(content)
        with pytest.raises(ConfigError, match="cannot read config file"):
            RunConfig.from_sources(config_file)


#: a file that is not UTF-8, and a JSON array nested deeper than the
#: decoder's recursion limit
UNREADABLE_CONFIGS = (b'{"theta": "\xff"}',
                      b"[" * 100_000 + b"]" * 100_000)


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


def test_write_table_text_of_mixed_columns(tmp_path):
    target = tmp_path / "mixed.tsv"
    write_table(target, {"n": [1, -2, 3], "label": ["a", "b c", ""],
                         "x": [-0.0, float("nan"), 1e-300]}, {"seed": 1})
    assert target.read_text() == (
        "# seed = 1\n"
        "n\tlabel\tx\n"
        "1\ta\t-0\n"
        "-2\tb c\tnan\n"
        "3\t\t1e-300\n")


@pytest.mark.parametrize("write", [
    lambda path, text: write_table(path, {"name": ["ok", text]}, {"seed": 1}),
    lambda path, text: write_report(path, ["PASS ok", text], {"seed": 1}),
], ids=["table", "report"])
def test_failed_write_leaves_no_partial_file(tmp_path, write):
    # a lone surrogate has no UTF-8 encoding, so the write fails after the
    # file is opened
    target = tmp_path / "out.tsv"
    with pytest.raises(UnicodeEncodeError):
        write(target, "\ud800")
    assert list(tmp_path.iterdir()) == []
    # an earlier file of that name survives a failed write unchanged
    write(target, "fine")
    before = target.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write(target, "\ud800")
    assert target.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == ["out.tsv"]


def test_failed_rename_leaves_no_sidecar(tmp_path, monkeypatch):
    def refuse(source, target):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        write_sidecar(tmp_path / "run.json", {"config": {"seed": 3}})
    assert list(tmp_path.iterdir()) == []


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


def _per_cell_body(columns: dict) -> str:
    """The table body as a writer formatting one cell at a time renders
    it, an array column taken as a list of Python floats: the reference
    of the column-wise writer."""
    names = list(columns)
    values = [[float(value) for value in column]
              if isinstance(column, np.ndarray) else column
              for column in columns.values()]
    cells = [[f"{value:.17g}" if isinstance(value, float) else str(value)
              for value in column] for column in values]
    return "\n".join(["\t".join(names)]
                     + ["\t".join(row) for row in zip(*cells)]) + "\n"


def _body(path) -> str:
    return "".join(line for line in path.read_text().splitlines(True)
                   if not line.startswith("# "))


#: doubles whose text is easy to get wrong: signed zeros, nan, the
#: infinities, subnormals, the extremes and 17-digit values
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                  5e-324, -5e-324, 2.2250738585072009e-308,
                  2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 1e17,
                  123456789012345680.0, -2.5, 1e-300]


def test_write_table_matches_the_per_cell_text(tmp_path):
    columns = {"x": np.array(SPECIAL_FLOATS),
               "y": np.array(SPECIAL_FLOATS[::-1]),
               "n": list(range(len(SPECIAL_FLOATS))),
               "listed": SPECIAL_FLOATS}
    write_table(tmp_path / "special.tsv", columns, {"seed": 1})
    assert _body(tmp_path / "special.tsv") == _per_cell_body(columns)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40),
       st.lists(st.one_of(st.floats(), st.integers(), st.booleans(),
                          st.text(alphabet="ab c"), st.none()),
                min_size=40, max_size=40))
def test_write_table_matches_the_per_cell_text_on_any_column(floats, mixed):
    # a float64 array is formatted in one piece, any other column cell
    # by cell; a float subclass such as numpy's takes the same text
    columns = {"array": np.array(floats), "listed": floats,
               "mixed": mixed[:len(floats)],
               "scalars": list(np.array(floats)),
               "strided": np.array(floats + floats)[::2]}
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "any.tsv")
        write_table(path, columns, {"seed": 1})
        assert _body(Path(path)) == _per_cell_body(columns)


def test_a_recurring_grid_is_not_confused_with_an_equal_length_one(
        tmp_path):
    # grids of one length that differ in value, or only in the sign of
    # a zero, each keep their own text however they alternate
    grids = [[-1.0, 0.0, 1.0], [-1.0, -0.0, 1.0], [-2.0, 0.5, 3.0],
             [-1.0, 0.0, 1.0], [-1.0, -0.0, 1.0]]
    for i, grid in enumerate(grids):
        columns = {"grid": np.array(grid), "value": np.full(3, float(i))}
        write_table(tmp_path / f"{i}.tsv", columns, {"seed": 1})
        assert _body(tmp_path / f"{i}.tsv") == _per_cell_body(columns)


@pytest.mark.parametrize("argv", [
    ["table1"],
    ["cross-section", "--density", "1e14"],
    ["mc-average", "--mc-samples", str(MIN_MC_SAMPLES), "--kappas", "2",
     "--detuning-count", "5"],
], ids=lambda argv: argv[0])
def test_written_tables_match_the_per_cell_text(tmp_path, monkeypatch,
                                                argv):
    # the mixed int, str and float columns of table1 and cross-section,
    # and the series with error columns of mc-average, as one value at a
    # time renders them; a series' columns as its writer took them
    from mqcsim import cli

    expected = {}
    write_table_, write_series_ = cli.write_table, cli.write_series

    def table(path, columns, metadata):
        expected[Path(path).name] = _per_cell_body(columns)
        write_table_(path, columns, metadata)

    def series(path, series, metadata):
        columns = {"omega_detuning_over_gamma":
                   [float(d) for d in series.detunings],
                   "Re_S": [float(v) for v in series.values.real],
                   "Im_S": [float(v) for v in series.values.imag],
                   "Re_err": [float(e) for e in series.errors.real],
                   "Im_err": [float(e) for e in series.errors.imag]}
        expected[Path(path).name] = _per_cell_body(columns)
        write_series_(path, series, metadata)

    monkeypatch.setattr(cli, "write_table", table)
    monkeypatch.setattr(cli, "write_series", series)
    assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 0
    assert len(expected) == {"table1": 1, "cross-section": 1,
                             "mc-average": 4}[argv[0]]
    for name, body in expected.items():
        assert _body(tmp_path / name) == body, name


def test_sidecar_carries_the_only_timestamp(tmp_path):
    path = tmp_path / "run.json"
    write_sidecar(path, {"config": {"seed": 3}})
    record = json.loads(path.read_text())
    assert "timestamp" in record
    assert record["config"]["seed"] == 3
