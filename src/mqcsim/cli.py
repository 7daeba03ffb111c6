"""Command-line front end: spectra, peak tables, and validation suites.

Subcommands:

* ``spectrum``: disorder-averaged spectra for the selected demodulation
  orders, channels, and detector directions, one data file each; the
  ``fig4`` preset emits the full sixteen-series set (both orders, both
  channels, both directions, with and without the vanishing-linewidth
  variant).
* ``table1``: closed-form peak amplitudes next to coefficients fitted
  from computed spectra at several small pulse areas.
* ``oracle-check``: compares the perturbative demodulated Laplace
  components against the untruncated resolvent oracle at fixed
  configurations.
* ``mc-average``: Monte-Carlo configuration averages (coupling-tensor
  moments and full spectra) against their closed forms.
* ``cross-section``: Doppler-averaged scattering cross-section and the
  resulting mean free path.

Exit codes: 0 success, 1 validation-suite failure, 2 invalid
configuration, 3 numeric or any other unexpected failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import __version__
from .atom import PoleError
from .config import (
    ConfigError,
    RunConfig,
    TENSOR_MODES,
    write_report,
    write_series,
    write_sidecar,
    write_table,
)
from .disorder import angular_average, mean_inverse_xi_squared
from .oracle import (
    IntegrationError,
    demodulated_laplace,
    demodulated_term_table,
    fixed_configuration_components,
    monte_carlo_pair_averages,
    monte_carlo_spectrum,
    surviving_term_table,
)
from .spectra import (
    DETECTION_DIRECTIONS,
    POLARIZATION_CHANNELS,
    directional_spectra,
    leading_order_peaks,
    mean_free_path,
    mean_scattering_cross_section,
    spectrum,  # unused here; the bench checks that its tracer reaches it
)

EXIT_FAILED_CHECK = 1
EXIT_INVALID_CONFIG = 2
EXIT_NUMERIC_FAILURE = 3

#: pulse areas used to fit the small-area scaling of each peak
FIT_AREAS = (0.006 * np.pi, 0.01 * np.pi, 0.014 * np.pi)

#: orders kept on the analytic side of the oracle comparison and the
#: relative tolerances at the two checked separations
ORACLE_ORDERS = (0, 1, 2, 3)
ORACLE_POINTS = ((1000.0, 1e-4), (80.0, 2e-2))

#: interaction orders of the sampled chain in mc-average
MC_ORDERS = (0, 1, 2)

#: chance that one mc-average run of correct code reports a failure, the
#: two-sided three-sigma level
MC_FALSE_ALARM = 0.0027


def family_z_limit(count: int) -> float:
    """|z| limit for ``count`` real z-scores judged together.

    Bonferroni: each score is held to the two-sided level
    ``MC_FALSE_ALARM / count``, so the chance that any of them exceeds
    the limit on correct code is at most ``MC_FALSE_ALARM``, however the
    scores are correlated.
    """
    return float(-ndtri(MC_FALSE_ALARM / (2.0 * count)))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, metavar="FILE",
                        help="JSON file with RunConfig fields; flags override")
    parser.add_argument("--gamma", type=float,
                        help="SI decay rate (rad/s), used by cross-section "
                             "and the pulse energy budget")
    parser.add_argument("--wavelength", type=float,
                        help="transition wavelength (m)")
    parser.add_argument("--delta-bar", type=float,
                        help="rms Doppler shift per velocity component "
                             "(same units as gamma)")
    parser.add_argument("--density", type=float, help="gas density (m^-3)")
    parser.add_argument("--theta", type=float,
                        help="pulse area (rad), |theta| <= 4 pi; -theta "
                             "gives the same spectra as theta")
    parser.add_argument("--pulse-energy", type=float,
                        help="energy per pulse (J)")
    parser.add_argument("--pulse-duration", type=float,
                        help="Gaussian pulse time constant (s)")
    parser.add_argument("--beam-cross-section", type=float,
                        help="transverse beam cross-section (m^2)")
    parser.add_argument("--xi-bar", type=float,
                        help="dimensionless mean separation k0*r")
    parser.add_argument("--mean-separation", type=float,
                        help="mean separation (m)")
    parser.add_argument("--channels", nargs="+",
                        choices=POLARIZATION_CHANNELS,
                        help="detection channels to compute")
    parser.add_argument("--kappas", nargs="*", type=int,
                        help="demodulation orders to compute")
    parser.add_argument("--detuning-half-range", type=float,
                        help="half width of the detuning grid (gamma units)")
    parser.add_argument("--detuning-count", type=int,
                        help="number of detuning grid points")
    parser.add_argument("--tensor-mode", choices=TENSOR_MODES,
                        help="coupling tensor variant")
    parser.add_argument("--gamma-to-zero", action="store_const", const=True,
                        help="use the vanishing-linewidth disorder average")
    parser.add_argument("--no-interactions-between-pulses",
                        dest="interactions_between_pulses",
                        action="store_const", const=False,
                        help="restrict photon exchange to the detection stage")
    parser.add_argument("--mc-samples", type=int,
                        help="Monte-Carlo sample count")
    parser.add_argument("--window", nargs=2, type=float,
                        metavar=("LO", "HI"),
                        help="separation window for configuration averages")
    parser.add_argument("--seed", type=int, help="RNG seed")
    parser.add_argument("--oracle-directions", type=int,
                        help="random orientations per oracle comparison")
    parser.add_argument("--output-dir", help="directory for data files")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = set(RunConfig.__dataclass_fields__)
    overrides = {key: value for key, value in vars(args).items()
                 if key in fields}
    return RunConfig.from_sources(args.config, **overrides)


def _prepare_output(config: RunConfig) -> Path:
    directory = Path(config.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def run_spectrum(config: RunConfig, preset: str = None) -> int:
    """Compute disorder-averaged spectra and write one file per series."""
    if preset == "fig4":
        config = RunConfig.from_sources(
            None, theta=0.14 * np.pi, xi_bar=80.0,
            output_dir=config.output_dir, seed=config.seed)
        variants = (False, True)
    else:
        variants = (config.gamma_to_zero,)
    directory = _prepare_output(config)
    metadata = config.as_metadata()
    theta = config.resolved_theta()
    xi_bar = config.resolved_xi_bar()
    written = []
    for gamma_to_zero in variants:
        mode = "level_shift_only" if gamma_to_zero else "full"
        for kappa in config.kappas:
            for channel in config.channels:
                pair = directional_spectra(
                    kappa, channel, DETECTION_DIRECTIONS, theta,
                    config.detunings(), xi_bar=xi_bar, average_mode=mode,
                    fast=not config.interactions_between_pulses)
                for direction, series in zip(DETECTION_DIRECTIONS, pair):
                    suffix = "_gamma0" if gamma_to_zero else ""
                    name = (f"spectrum_k{kappa}_{channel}_"
                            f"{direction}{suffix}.tsv")
                    meta = dict(metadata, average_mode=mode)
                    write_series(directory / name, series, meta)
                    written.append(name)
    write_sidecar(directory / "spectrum.json",
                  {"config": metadata, "preset": preset, "files": written})
    print("\n".join(f"wrote {name}" for name in written))
    return 0


def run_table1(config: RunConfig) -> int:
    """Write closed-form peak amplitudes next to fitted coefficients.

    Every computed table is normalized so the one-quantum parallel
    y-detector peak equals theta squared; coefficients and scaling
    exponents are then fitted over several small pulse areas.
    """
    directory = _prepare_output(config)
    xi_bar = config.resolved_xi_bar()
    theta = config.resolved_theta()
    closed = leading_order_peaks(theta, xi_bar)
    exponents = {1: 2.0, 2: 4.0}

    def normalized_peaks(area):
        # only the resonance point matters for peak amplitudes
        resonance = np.array([0.0])
        raw = {}
        for kappa in (1, 2):
            for channel in POLARIZATION_CHANNELS:
                pair = directional_spectra(kappa, channel,
                                           DETECTION_DIRECTIONS, area,
                                           resonance, xi_bar=xi_bar)
                for direction, series in zip(DETECTION_DIRECTIONS, pair):
                    raw[(kappa, direction, channel)] = series.values.real[0]
        scale = area ** 2 / raw[(1, "y", "parallel")]
        return {key: value * scale for key, value in raw.items()}

    sampled = {area: normalized_peaks(area) for area in FIT_AREAS}
    columns = {key: [] for key in
               ("kappa", "direction", "channel", "closed_form",
                "computed", "fitted_coefficient", "closed_coefficient",
                "fitted_exponent")}
    computed_here = normalized_peaks(theta)
    for key, closed_value in closed.items():
        kappa, direction, channel = key
        areas = np.array(FIT_AREAS)
        values = np.array([sampled[a][key] for a in FIT_AREAS])
        if np.all(np.abs(values) > 0):
            slope, intercept = np.polyfit(np.log(areas),
                                          np.log(np.abs(values)), 1)
            coefficient = np.exp(intercept) * np.sign(values[0])
        else:
            slope, coefficient = float("nan"), 0.0
        columns["kappa"].append(kappa)
        columns["direction"].append(direction)
        columns["channel"].append(channel)
        columns["closed_form"].append(float(closed_value))
        columns["computed"].append(float(computed_here[key]))
        columns["fitted_coefficient"].append(float(coefficient))
        columns["closed_coefficient"].append(
            float(closed_value / theta ** exponents[kappa]))
        columns["fitted_exponent"].append(float(slope))
    metadata = config.as_metadata()
    write_table(directory / "table1.tsv", columns, metadata)
    write_sidecar(directory / "table1.json",
                  {"config": metadata, "files": ["table1.tsv"]})
    print(f"wrote table1.tsv ({len(columns['kappa'])} peaks, "
          f"xi_bar = {xi_bar:g})")
    return 0


def run_oracle_check(config: RunConfig) -> int:
    """Compare analytic demodulated components with the exact oracle."""
    directory = _prepare_output(config)
    theta = config.resolved_theta()
    z1_grid = 1j * np.linspace(-3.0, 3.0, 7)
    rng = np.random.default_rng(config.seed)
    axes = rng.normal(size=(config.oracle_directions, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    tables = {
        (kappa, channel): demodulated_term_table(
            ORACLE_ORDERS, theta, channel, kappa, z1_grid)
        for kappa in config.kappas for channel in config.channels
    }
    lines, failed = [], False
    for xi, tolerance in ORACLE_POINTS:
        # A channel's signal can pass through an orientation zero while the
        # truncation remainder stays finite, so a per-orientation ratio is
        # unbounded there for any truncation order.  Each residual is
        # therefore measured against the channel's signal scale over the
        # whole orientation sample.
        residual, scale = {}, {}
        for axis in axes:
            exact = demodulated_laplace(xi, axis, theta, config.kappas,
                                        config.channels, z1_grid)
            for (kappa, channel), table in tables.items():
                approx = fixed_configuration_components(table, xi, axis)
                for d in DETECTION_DIRECTIONS:
                    key = (kappa, channel, d)
                    residual[key] = max(residual.get(key, 0.0),
                                        np.max(np.abs(approx[d] - exact[key])))
                    scale[key] = max(scale.get(key, 0.0),
                                     np.max(np.abs(exact[key])))
        worst = max([residual[key] / scale[key] for key in scale
                     if scale[key] != 0.0], default=0.0)
        ok = worst <= tolerance
        failed = failed or not ok
        lines.append(f"{'PASS' if ok else 'FAIL'} oracle xi={xi:g} "
                     f"worst_relative={worst:.3e} tolerance={tolerance:g} "
                     f"orientations={len(axes)}")
    lines.append(f"seed = {config.seed}")
    metadata = config.as_metadata()
    write_report(directory / "oracle_check.txt", lines, metadata)
    write_sidecar(directory / "oracle_check.json",
                  {"config": metadata, "lines": lines,
                   "files": ["oracle_check.txt"]})
    print("\n".join(lines))
    return EXIT_FAILED_CHECK if failed else 0


def run_mc_average(config: RunConfig) -> int:
    """Monte-Carlo averages against their closed forms, within errors."""
    directory = _prepare_output(config)
    theta = config.resolved_theta()
    window = tuple(config.window)
    lines, failed = [], False

    # coupling-tensor second moments against the isotropic closed form,
    # in the far-field variant where that closed form is exact
    pairs = [(("direct", k, l), ("conj", m, n), 0)
             for k in range(3) for l in range(k, 3)
             for m in range(3) for n in range(m, 3)]
    # every moment gives a real and an imaginary z-score, every peak a
    # real one, and all of them share one family-wise limit
    peak_count = len(config.kappas) * len(config.channels) * 2
    limit = family_z_limit(2 * len(pairs) + peak_count)
    moments = monte_carlo_pair_averages(pairs, config.mc_samples,
                                        seed=config.seed, window=window)
    inverse_square = mean_inverse_xi_squared(window=window)
    scores = []
    for (tag_a, tag_b, _), (mean, error) in moments.items():
        closed = angular_average((tag_a, tag_b), inverse_square)
        scores.append(
            max(abs(mean.real - closed.real) / max(error.real, 1e-300),
                abs(mean.imag - closed.imag) / max(error.imag, 1e-300)))
    worst = float(np.max(scores))
    ok = bool(worst <= limit)
    failed = failed or not ok
    lines.append(f"{'PASS' if ok else 'FAIL'} tensor_moments "
                 f"pairs={len(pairs)} worst_z={worst:.2f} limit={limit:.2f}")

    # averaged spectra per channel against the closed-form average
    detunings = config.detunings()
    center = int(np.argmin(np.abs(detunings)))
    written = []
    for kappa in config.kappas:
        for channel in config.channels:
            # seed- and direction-independent: built once per channel,
            # restricted to the families the closed-form average keeps
            table = surviving_term_table(demodulated_term_table(
                MC_ORDERS, theta, channel, kappa, 1j * detunings))
            closed_pair = directional_spectra(
                kappa, channel, DETECTION_DIRECTIONS, theta, detunings,
                window=window)
            for direction, closed in zip(DETECTION_DIRECTIONS, closed_pair):
                sampled = monte_carlo_spectrum(
                    table, direction, config.mc_samples, seed=config.seed,
                    window=window, mode=config.tensor_mode)
                difference = sampled.series.values[center] \
                    - closed.values[center]
                error = sampled.series.errors[center]
                # Im S vanishes at resonance up to roundoff, so only the
                # real part carries a score
                z = abs(difference.real) / max(error.real, 1e-300)
                ok = z <= limit
                failed = failed or not ok
                lines.append(
                    f"{'PASS' if ok else 'FAIL'} mc_peak kappa={kappa} "
                    f"channel={channel} direction={direction} "
                    f"peak_z={z:.2f} limit={limit:.2f}")
                name = f"mc_k{kappa}_{channel}_{direction}.tsv"
                write_series(directory / name, sampled.series,
                             config.as_metadata())
                written.append(name)
    lines.append(f"seed = {config.seed}")
    metadata = config.as_metadata()
    write_report(directory / "mc_average.txt", lines, metadata)
    write_sidecar(directory / "mc_average.json",
                  {"config": metadata, "lines": lines,
                   "files": ["mc_average.txt"] + written})
    print("\n".join(lines))
    return EXIT_FAILED_CHECK if failed else 0


def run_cross_section(config: RunConfig) -> int:
    """Doppler-averaged cross-section, mean free path, and the cold limit."""
    directory = _prepare_output(config)
    averaged = mean_scattering_cross_section(config.wavelength, config.gamma,
                                             config.delta_bar)
    cold = mean_scattering_cross_section(config.wavelength, config.gamma, 0.0)
    columns = {
        "quantity": ["mean_cross_section", "cold_limit"],
        "value": [averaged, cold],
        "units": ["m^2", "m^2"],
    }
    if config.density is not None:
        columns["quantity"].append("mean_free_path")
        columns["value"].append(mean_free_path(config.density, averaged))
        columns["units"].append("m")
    metadata = config.as_metadata()
    write_table(directory / "cross_section.tsv", columns, metadata)
    write_sidecar(directory / "cross_section.json",
                  {"config": metadata, "files": ["cross_section.tsv"]})
    for quantity, value, unit in zip(columns["quantity"], columns["value"],
                                     columns["units"]):
        print(f"{quantity} = {value:.6e} {unit}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqcsim",
        description="Demodulated fluorescence spectra of a coupled atom "
                    "pair: computation and validation.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "spectrum", help="disorder-averaged spectra, one file per series")
    sub.add_argument("--preset", choices=("fig4",),
                     help="named parameter set")
    _add_config_flags(sub)
    sub.set_defaults(handler=lambda cfg, args: run_spectrum(cfg, args.preset))

    for name, run, text in (
            ("table1", run_table1,
             "closed-form peaks next to fitted coefficients"),
            ("oracle-check", run_oracle_check,
             "perturbative chain against the exact oracle"),
            ("mc-average", run_mc_average,
             "Monte-Carlo averages against closed forms"),
            ("cross-section", run_cross_section,
             "Doppler-averaged scattering cross-section")):
        sub = commands.add_parser(name, help=text)
        _add_config_flags(sub)
        sub.set_defaults(handler=lambda cfg, args, run=run: run(cfg))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(_config_from_args(args), args)
    except ConfigError as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except (IntegrationError, PoleError, np.linalg.LinAlgError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except Exception as err:
        # exit 1 means a failed check; nothing else may end in it, nor in
        # a traceback
        message = " ".join(str(err).split())
        print(f"unexpected failure: {type(err).__name__}: {message}",
              file=sys.stderr)
        return EXIT_NUMERIC_FAILURE


if __name__ == "__main__":
    sys.exit(main())
