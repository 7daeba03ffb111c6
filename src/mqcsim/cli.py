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
import gc
import math
import sys
from pathlib import Path

import numpy as np

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

#: chance that one mc-average run of correct code reports a failure, the
#: two-sided three-sigma level
MC_FALSE_ALARM = 0.0027

#: the only configuration fields a spectrum preset takes from the command
#: line; it sets every other one itself
PRESET_FIELDS = ("seed", "output_dir")

#: configuration fields that one subcommand alone reads, and that
#: subcommand; every other refuses a value besides the default rather
#: than record a setting that its numbers ignore
SINGLE_READER_FIELDS = {"gamma_to_zero": "spectrum",
                        "interactions_between_pulses": "spectrum",
                        "tensor_mode": "mc-average"}


def family_z_limit(count: int) -> float:
    """|z| limit for ``count`` real z-scores judged together.

    Bonferroni: each score is held to the two-sided level
    ``MC_FALSE_ALARM / count``, so the chance that any of them exceeds
    the limit on correct code is at most ``MC_FALSE_ALARM``, however the
    scores are correlated.
    """
    from statistics import NormalDist

    return -NormalDist().inv_cdf(MC_FALSE_ALARM / (2.0 * count))


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
    config = RunConfig.from_sources(args.config, **overrides)
    ignored = [f"{name} = {getattr(config, name)!r}"
               for name, reader in SINGLE_READER_FIELDS.items()
               if reader != args.command
               and getattr(config, name) != getattr(RunConfig, name)]
    if ignored:
        raise ConfigError(f"{args.command} ignores {', '.join(ignored)}")
    return config


def _spectrum_config(args: argparse.Namespace, flags: dict) -> RunConfig:
    """The spectrum run's configuration; with a preset, any config flag
    (``flags`` maps destinations to flag names) other than those of
    ``PRESET_FIELDS`` is refused rather than silently dropped."""
    if args.preset is not None:
        given = [flag for dest, flag in flags.items()
                 if dest not in PRESET_FIELDS
                 and getattr(args, dest, None) is not None]
        if given:
            raise ConfigError(
                f"--preset {args.preset} sets every parameter but --seed "
                f"and --output-dir; drop {' '.join(given)}")
    return _config_from_args(args)


def _prepare_output(config: RunConfig) -> Path:
    directory = Path(config.output_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        # an existing file on the path, or no permission: a bad
        # configuration, not a numeric failure
        raise ConfigError(f"output_dir {config.output_dir!r} cannot be "
                          f"made a directory: {err.strerror or err}") from None
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
    xi_bar = config.resolved_xi_bar()
    theta = config.resolved_theta()
    closed = leading_order_peaks(theta, xi_bar)
    # the closed forms are monomials in theta: their coefficients are the
    # values at theta = 1, which no small area can underflow
    coefficients = leading_order_peaks(1.0, xi_bar)

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
        reference = raw[(1, "y", "parallel")]
        if reference == 0.0:
            raise ConfigError(
                f"pulse area theta = {area!r} gives no one-quantum peak to "
                "normalize the table by")
        scale = area ** 2 / reference
        return {key: value * scale for key, value in raw.items()}

    # an area without a peak to normalize by is refused before the
    # directory is made, and a bad directory before the fitted areas run
    computed_here = normalized_peaks(theta)
    directory = _prepare_output(config)
    sampled = {area: normalized_peaks(area) for area in FIT_AREAS}
    columns = {key: [] for key in
               ("kappa", "direction", "channel", "closed_form",
                "computed", "fitted_coefficient", "closed_coefficient",
                "fitted_exponent")}
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
        columns["closed_coefficient"].append(float(coefficients[key]))
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
    import random

    from .oracle import (demodulated_laplace, demodulated_term_table,
                         fixed_configuration_components)

    directory = _prepare_output(config)
    theta = config.resolved_theta()
    z1_grid = 1j * np.linspace(-3.0, 3.0, 7)
    # isotropic axes, as oracle.sample_configurations draws them: cos of
    # the polar angle uniform on [-1, 1], then the azimuth on [0, 2 pi);
    # the standard library fixes random()'s sequence for an int seed
    draw = random.Random(config.seed).random
    axes = []
    for _ in range(config.oracle_directions):
        cos_polar = 2.0 * draw() - 1.0
        azimuth = 2.0 * math.pi * draw()
        sin_polar = math.sqrt(1.0 - cos_polar**2)
        axes.append((sin_polar * math.cos(azimuth),
                     sin_polar * math.sin(azimuth), cos_polar))
    axes = np.array(axes)
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
        # every orientation of a table priced in one call
        approx = {key: fixed_configuration_components(
                      table, np.full(len(axes), xi), axes)
                  for key, table in tables.items()}
        for b, axis in enumerate(axes):
            exact = demodulated_laplace(xi, axis, theta, config.kappas,
                                        config.channels, z1_grid)
            for (kappa, channel), components in approx.items():
                for d in DETECTION_DIRECTIONS:
                    key = (kappa, channel, d)
                    residual[key] = max(
                        residual.get(key, 0.0),
                        np.max(np.abs(components[d][b] - exact[key])))
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
    from .oracle import (monte_carlo_pair_averages, monte_carlo_spectrum,
                         surviving_term_table)

    directory = _prepare_output(config)
    theta = config.resolved_theta()
    window = tuple(config.window)
    lines, failed = [], False

    # coupling-tensor second moments against the isotropic closed form,
    # in the far-field variant where that closed form is exact
    pairs = [(("direct", k, l), ("conj", m, n), 0)
             for k in range(3) for l in range(k, 3)
             for m in range(3) for n in range(m, 3)]
    # every moment and every peak gives one real z-score, and all of them
    # share one family-wise limit
    peak_count = len(config.kappas) * len(config.channels) * 2
    limit = family_z_limit(len(pairs) + peak_count)
    moments = monte_carlo_pair_averages(pairs, config.mc_samples,
                                        seed=config.seed, window=window)
    inverse_square = mean_inverse_xi_squared(window=window)
    scores = []
    for (tag_a, tag_b, _), (mean, error) in moments.items():
        closed = angular_average((tag_a, tag_b), inverse_square)
        # a far-field product T_kl T*_mn is real in every sample, so its
        # imaginary mean and error are roundoff and only the real part
        # carries a score
        scores.append(abs(mean.real - closed.real) / max(error.real, 1e-300))
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
            # seed-independent: the families the closed-form average
            # keeps, off the chain it weights, which the closed form then
            # takes from the cache; one draw prices both detectors
            table = surviving_term_table(theta, channel, kappa,
                                         1j * detunings)
            closed_pair = directional_spectra(
                kappa, channel, DETECTION_DIRECTIONS, theta, detunings,
                window=window)
            sampled_pair = monte_carlo_spectrum(
                table, config.mc_samples, seed=config.seed, window=window,
                mode=config.tensor_mode)
            for direction, closed, sampled in zip(
                    DETECTION_DIRECTIONS, closed_pair, sampled_pair):
                difference = sampled.values[center] - closed.values[center]
                error = sampled.errors[center]
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
                write_series(directory / name, sampled,
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

    # the config flags are built once and shared by every subcommand;
    # --preset is a parent too, so that it stays first in spectrum's help
    config_flags = argparse.ArgumentParser(add_help=False)
    _add_config_flags(config_flags)
    preset = argparse.ArgumentParser(add_help=False)
    preset.add_argument("--preset", choices=("fig4",),
                        help="named parameter set; of the other flags it "
                             "takes only --seed and --output-dir")
    sub = commands.add_parser(
        "spectrum", help="disorder-averaged spectra, one file per series",
        parents=[preset, config_flags])
    flags = {action.dest: action.option_strings[0]
             for action in sub._actions if action.dest != "preset"}
    sub.set_defaults(handler=lambda args: run_spectrum(
        _spectrum_config(args, flags), args.preset))

    for name, run, text in (
            ("table1", run_table1,
             "closed-form peaks next to fitted coefficients"),
            ("oracle-check", run_oracle_check,
             "perturbative chain against the exact oracle"),
            ("mc-average", run_mc_average,
             "Monte-Carlo averages against closed forms"),
            ("cross-section", run_cross_section,
             "Doppler-averaged scattering cross-section")):
        sub = commands.add_parser(name, help=text, parents=[config_flags])
        sub.set_defaults(
            handler=lambda args, run=run: run(_config_from_args(args)))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except (PoleError, np.linalg.LinAlgError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except Exception as err:
        # exit 1 means a failed check; nothing else may end in it, nor in
        # a traceback
        message = " ".join(str(err).split())
        print(f"unexpected failure: {type(err).__name__}: {message}",
              file=sys.stderr)
        return EXIT_NUMERIC_FAILURE


def script(argv=None) -> int:
    """Entry of ``python -m mqcsim.cli`` and the ``mqcsim`` script:
    :func:`main`, then a frozen heap for the exit.

    However ``main`` ends (a return, argparse's ``SystemExit`` or an
    exception), every object it leaves is moved to the permanent
    generation, so the interpreter's final collections have nothing to
    scan.  Their only other work, running finalizers of cyclic garbage,
    is not guaranteed at exit anyway, and every output file is closed
    and renamed before ``main`` returns.  In-process callers of
    ``main`` keep normal collection.
    """
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(script())
