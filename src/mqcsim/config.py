"""Run configuration and file output for the command-line front end.

A :class:`RunConfig` collects every knob a run can turn: physical
scales (only the cross-section and pulse-energy paths consume SI
values; the spectra themselves are computed in units of the decay
rate), the pulse area or the energy budget that determines it, the
dimensionless mean separation or the density it derives from, the
spectrum selection, and the Monte-Carlo settings.  Configurations can
be read from a JSON file with individual fields overridden by
command-line flags.

Data files are UTF-8 delimited text with a ``#``-prefixed metadata
header; every run also writes a JSON sidecar carrying the full
configuration, the package version, and the only timestamp of the run,
so the data files themselves are byte-identical across reruns.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy.constants import c as _C_LIGHT

from . import __version__
from .disorder import mean_inverse_xi_squared
from .spectra import (POLARIZATION_CHANNELS, dipole_from_gamma,
                      mean_free_path, mean_scattering_cross_section,
                      pulse_area_from_energy)

#: mean nearest-neighbour distance in a uniform gas of density rho
#: is approximately PACKING_CONSTANT * rho^(-1/3)
PACKING_CONSTANT = 0.554

TENSOR_MODES = ("exact", "far_field")

#: relative mismatch tolerated between a given mean separation and the
#: one implied by the given density
SEPARATION_CONSISTENCY = 0.01

#: largest pulse area |theta|.  A pulse depends on its area only through
#: sin(theta/2) and cos(theta/2), so a larger area names no new pulse and
#: only loses digits.  A negative area is a pi shift of both pulse
#: phases, which demodulation cancels: it gives the same spectra.
MAX_PULSE_AREA = 4.0 * np.pi


#: fields holding a real number, where given; every one must be finite
REAL_FIELDS = ("gamma", "wavelength", "delta_bar", "density", "theta",
               "pulse_energy", "pulse_duration", "beam_cross_section",
               "xi_bar", "mean_separation", "detuning_half_range")
INTEGER_FIELDS = ("detuning_count", "mc_samples", "seed",
                  "oracle_directions")
FLAG_FIELDS = ("gamma_to_zero", "interactions_between_pulses")


class ConfigError(ValueError):
    """Raised when a run configuration is incomplete or inconsistent."""


def _is_finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one command-line run."""

    # physical scales (SI; delta_bar is the rms Doppler shift of each
    # Cartesian velocity component as an angular frequency, sharing units
    # with gamma; mean_scattering_cross_section models the detuning as
    # the sum of the three components, rms sqrt(3) delta_bar, where the
    # component along the photon alone would give rms delta_bar)
    gamma: float = 2.0 * np.pi * 6e6
    wavelength: float = 790e-9
    delta_bar: float = 2.0 * np.pi * 560e6
    density: float = None
    # pulse area, either direct or from the energy budget
    theta: float = None
    pulse_energy: float = None
    pulse_duration: float = None
    beam_cross_section: float = None
    # mean separation, dimensionless or metric
    xi_bar: float = None
    mean_separation: float = None
    # spectrum selection
    channels: tuple = POLARIZATION_CHANNELS
    kappas: tuple = (1, 2)
    detuning_half_range: float = 10.0
    detuning_count: int = 801
    tensor_mode: str = "exact"
    gamma_to_zero: bool = False
    interactions_between_pulses: bool = True
    # Monte Carlo and oracle checks
    mc_samples: int = 100000
    window: tuple = (67.2, 92.8)
    seed: int = 20260814
    oracle_directions: int = 10
    # output
    output_dir: str = "runs"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in REAL_FIELDS:
            value = getattr(self, name)
            if value is not None and not _is_finite_real(value):
                raise ConfigError(
                    f"{name} must be a finite number, got {value!r}")
            if value is not None and name != "theta" and not value > 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
        for name in INTEGER_FIELDS:
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in FLAG_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, "
                                  f"got {value!r}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a path, "
                              f"got {self.output_dir!r}")
        if (len(self.window) != 2
                or not all(_is_finite_real(v) for v in self.window)):
            raise ConfigError(f"window must be two finite numbers, "
                              f"got {self.window!r}")
        area_fields = (self.pulse_energy, self.pulse_duration,
                       self.beam_cross_section)
        if any(f is not None for f in area_fields):
            if self.theta is not None:
                raise ConfigError(
                    "give either theta or the pulse energy triplet, not both")
            if any(f is None for f in area_fields):
                raise ConfigError(
                    "pulse_energy, pulse_duration and beam_cross_section "
                    "must be given together")
        if self.xi_bar is not None and self.mean_separation is not None:
            raise ConfigError(
                "give either xi_bar or mean_separation, not both")
        if self.density is not None and self.mean_separation is not None:
            implied = PACKING_CONSTANT * self.density ** (-1.0 / 3.0)
            mismatch = abs(self.mean_separation - implied) / implied
            if mismatch > SEPARATION_CONSISTENCY:
                raise ConfigError(
                    f"mean_separation {self.mean_separation:.4g} m is "
                    f"inconsistent with density {self.density:.4g} m^-3 "
                    f"(implied {implied:.4g} m, off by {mismatch:.1%})")
        if not self.kappas:
            raise ConfigError("kappas must not be empty")
        if any(not _is_integer(k) or k not in (1, 2) for k in self.kappas):
            raise ConfigError(f"kappas must be drawn from (1, 2), "
                              f"got {self.kappas!r}")
        if not self.channels:
            raise ConfigError("channels must not be empty")
        if any(c not in POLARIZATION_CHANNELS for c in self.channels):
            raise ConfigError(f"channels must be drawn from "
                              f"{POLARIZATION_CHANNELS}, got {self.channels}")
        if self.tensor_mode not in TENSOR_MODES:
            raise ConfigError(f"tensor_mode must be one of {TENSOR_MODES}, "
                              f"got {self.tensor_mode!r}")
        if self.detuning_count < 3:
            raise ConfigError("detuning_count must be at least 3")
        # the grid spacing, found without building the grid, must be a
        # normal number: a wider grid overflows, a narrower one collapses
        # onto subnormal points
        span = 2.0 * self.detuning_half_range
        if not (math.isfinite(span) and span / (self.detuning_count - 1)
                >= sys.float_info.min):
            raise ConfigError(
                f"detuning_half_range = {self.detuning_half_range!r} over "
                f"{self.detuning_count} points gives no usable grid spacing")
        if self.mc_samples < 2:
            raise ConfigError("mc_samples must be at least 2 for a "
                              "standard error")
        lo, hi = self.window
        if not 0 < lo < hi:
            raise ConfigError(f"window must satisfy 0 < lo < hi, "
                              f"got {self.window!r}")
        if self.oracle_directions < 1:
            raise ConfigError("oracle_directions must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        # the spectra scale with theta and <1/xi^2>, which must be finite,
        # for the mean separation and the Monte-Carlo window alike; the
        # averaged cross-section and the mean free path derived from it
        # must be positive and finite
        try:
            theta = self.resolved_theta()
            mean_inverse_xi_squared(xi_bar=self.resolved_xi_bar())
            mean_inverse_xi_squared(window=self.window)
            scales = {"averaged cross-section": mean_scattering_cross_section(
                self.wavelength, self.gamma, self.delta_bar)}
            if self.density is not None:
                scales["mean free path"] = mean_free_path(
                    self.density, scales["averaged cross-section"])
        except (ValueError, ArithmeticError) as err:
            raise ConfigError(f"out of range: {err}") from None
        if not abs(theta) <= MAX_PULSE_AREA:
            raise ConfigError(f"pulse area theta = {theta} must be finite "
                              f"with |theta| <= 4 pi")
        for name, value in scales.items():
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} = {value} is not a positive "
                                  "finite number")

    def resolved_theta(self) -> float:
        """Pulse area, computed from the energy budget if not direct."""
        if self.theta is not None:
            return self.theta
        if self.pulse_energy is None:
            return 0.14 * np.pi
        omega0 = 2.0 * np.pi * _C_LIGHT / self.wavelength
        dipole = dipole_from_gamma(self.gamma, omega0)
        return pulse_area_from_energy(self.pulse_energy,
                                      self.pulse_duration,
                                      self.beam_cross_section, dipole)

    def resolved_xi_bar(self) -> float:
        """Dimensionless mean separation k0 * r, from whichever is given."""
        if self.xi_bar is not None:
            return self.xi_bar
        separation = self.mean_separation
        if separation is None and self.density is not None:
            separation = PACKING_CONSTANT * self.density ** (-1.0 / 3.0)
        if separation is None:
            return 80.0
        return 2.0 * np.pi / self.wavelength * separation

    def detunings(self) -> np.ndarray:
        """Detuning grid in units of gamma, symmetric about resonance."""
        return np.linspace(-self.detuning_half_range,
                           self.detuning_half_range, self.detuning_count)

    def as_metadata(self) -> dict:
        """Flat JSON-serializable dict of every field, plus the version."""
        data = {}
        for key, value in asdict(self).items():
            if isinstance(value, tuple):
                value = list(value)
            data[key] = value
        data["version"] = __version__
        data["resolved_theta"] = self.resolved_theta()
        data["resolved_xi_bar"] = self.resolved_xi_bar()
        return data

    @classmethod
    def from_sources(cls, config_file=None, **overrides) -> "RunConfig":
        """Build a configuration from a JSON file and flag overrides.

        Flag values of None mean "not given" and leave the file (or
        default) value in place; unknown keys in the file are an error.
        """
        values = {}
        if config_file is not None:
            try:
                values = json.loads(Path(config_file).read_text())
            except (OSError, json.JSONDecodeError) as err:
                raise ConfigError(f"cannot read config file: {err}") from err
            if not isinstance(values, dict):
                raise ConfigError("config file must hold a JSON object")
            unknown = set(values) - set(cls.__dataclass_fields__)
            if unknown:
                raise ConfigError(
                    f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in overrides.items():
            if value is not None:
                values[key] = value
        try:
            for key in ("channels", "kappas", "window"):
                if key in values:
                    values[key] = tuple(values[key])
            return cls(**values)
        except TypeError as err:
            raise ConfigError(str(err)) from err


def _format_header(metadata: dict) -> str:
    lines = [f"# {key} = {json.dumps(value)}"
             for key, value in metadata.items()]
    return "\n".join(lines)


def write_table(path, columns: dict, metadata: dict) -> None:
    """Write named columns as delimited text under a metadata header.

    ``columns`` maps column names to equal-length sequences; floats are
    rendered in full double precision so reruns are byte-identical.
    """
    path = Path(path)
    names = list(columns)
    rows = zip(*(columns[name] for name in names))
    body = ["\t".join(names)]
    for row in rows:
        body.append("\t".join(
            f"{value:.17g}" if isinstance(value, float) else str(value)
            for value in row))
    path.write_text(_format_header(metadata) + "\n" + "\n".join(body) + "\n")


def write_series(path, series, metadata: dict) -> None:
    """Write one spectrum as [detuning, Re, Im(, Re_err, Im_err)] rows."""
    columns = {
        "omega_detuning_over_gamma": [float(d) for d in series.detunings],
        "Re_S": [float(v) for v in series.values.real],
        "Im_S": [float(v) for v in series.values.imag],
    }
    if series.errors is not None:
        columns["Re_err"] = [float(e) for e in series.errors.real]
        columns["Im_err"] = [float(e) for e in series.errors.imag]
    meta = dict(metadata)
    meta.update(kappa=series.kappa, channel=series.channel,
                direction=series.direction, units=series.units)
    write_table(path, columns, meta)


def write_report(path, lines, metadata: dict) -> None:
    """Write pass/fail report lines under a metadata header."""
    Path(path).write_text(
        _format_header(metadata) + "\n" + "\n".join(lines) + "\n")


def write_sidecar(path, payload: dict) -> None:
    """Write the JSON sidecar; the run timestamp lives only here."""
    record = dict(payload)
    record["timestamp"] = datetime.now(timezone.utc).isoformat()
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
