"""Fluorescence observables of the driven atom pair.

Assembles the disorder-averaged demodulated emission spectra from the
symbolic two-pulse expansion: the doubly Laplace-transformed pair state
at z1 = i * detuning along the interpulse delay and z2 = 0 along the
detection time, averaged over pair geometry and read by the
excited-population observable of each detector, summed over the
single- and double-scattering orders 0 and 2, all in one call
(:func:`mqcsim.disorder.averaged_solution`).  Also provides the
closed-form small-area peak amplitudes the spectra reduce to, and the
dimensional helpers (pulse area from pulse energy, dipole moment from
the decay rate, Doppler-averaged scattering cross-section and photon
mean free path) that connect the dimensionless model to a
thermal-vapour experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

# the detector labels and observable are re-exported with the spectra
from .atom import (DETECTION_DIRECTIONS, SECOND_POLARIZATION,
                   detection_observable, detector_index)
from .disorder import averaged_solution, mean_inverse_xi_squared
from .expansion import _detection_covector

#: SI constants (CODATA 2022, as scipy.constants gives them): speed of
#: light, vacuum permittivity, reduced Planck constant, vacuum
#: permeability.  Literals, because importing scipy.constants costs every
#: run about 0.2 s.
_C_LIGHT = 299792458.0
_EPSILON_0 = 8.8541878188e-12
_HBAR = 1.0545718176461565e-34
_MU_0 = 1.25663706127e-06

#: below this argument erfcx is exp(u^2) erfc(u) directly; above it the
#: continued fraction, which converges faster the larger u is, takes over
#: before erfc(u) underflows
_ERFCX_SPLIT = 3.0

#: depth of the erfcx continued fraction; from u = 3 up it agrees with
#: scipy.special.erfcx to about 1e-15
_ERFCX_TERMS = 200

POLARIZATION_CHANNELS = tuple(SECOND_POLARIZATION)
DEMODULATION_ORDERS = (1, 2)

#: default detuning grid (units of gamma), wide enough to resolve the
#: gamma/2-scale line shapes with margin: its half range and its count
DEFAULT_DETUNING_HALF_RANGE = 10.0
DEFAULT_DETUNING_COUNT = 801

#: a spectrum is the chain's detected rows at z1 = i * detuning over
#: this factor, in the closed-form average and the Monte Carlo alike
SPECTRAL_DENSITY_NORM = np.sqrt(2.0 * np.pi)


def detection_projection(vector: dict, direction) -> dict:
    """Demodulated fluorescence amplitude per extraction order.

    Contracts tensor-free components with the single-atom detection
    observable summed over both atoms (interatomic interference terms
    carry position phases that the geometry average removes).  Each
    component must have pulse exponents of the form (-l, +l); it then
    contributes to extraction order l.

    Returns:
        dict mapping l to the contracted value (scalar, or an array if
        the components carry a batch axis).
    """
    obs = _detection_covector(direction)
    out: dict = {}
    for monomial, coeffs in vector.items():
        if monomial.tags:
            raise ValueError("components still carry coupling factors; "
                             "average over geometry first")
        net1, net2 = monomial.pulse_net
        if net1 != -net2:
            raise ValueError(f"component {monomial.powers} has uncancelled "
                             "pulse phases")
        value = np.tensordot(obs.conj(), coeffs, axes=(0, 0))
        out[net2] = out.get(net2, 0.0) + value
    return out


@dataclass(frozen=True)
class SpectrumSeries:
    """One demodulated emission spectrum on a detuning grid.

    ``detunings`` holds omega - kappa*omega0 in units of gamma; values
    are spectral densities integrated over the detection time, in
    ``units``: the collection factor squared over gamma squared.
    """

    units: ClassVar[str] = "f^2/gamma^2"

    detunings: np.ndarray
    values: np.ndarray
    kappa: int
    channel: str
    direction: str
    errors: np.ndarray = None

    def __post_init__(self):
        if self.detunings.shape != self.values.shape:
            raise ValueError("grid and values must have matching shapes")
        if self.detunings.size > 1 and np.any(np.diff(self.detunings) <= 0):
            raise ValueError("detuning grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum values must be finite")


def spectrum(kappa: int, channel: str, direction, theta: float,
             detunings=None, *, xi_bar: float = None, window=None,
             average_mode: str = "full",
             fast: bool = False) -> SpectrumSeries:
    """Disorder-averaged demodulated emission spectrum.

    The spectrum sums interaction orders 0 and 2, the single- and
    double-scattering terms that survive the average (the order-0 term
    is exactly zero for kappa = 2).

    Args:
        kappa: demodulation order, 1 (one-quantum) or 2 (two-quantum).
        channel: pulse polarization channel, "parallel" (both pulses x)
            or "perpendicular" (first x, second y).
        direction: detection direction, "x" or "y".
        theta: pulse area.
        detunings: strictly increasing grid of omega - kappa*omega0 in
            units of gamma; defaults to 801 points over [-10, 10].
        xi_bar / window: sharp value or uniform range of the scaled
            interatomic separation (exactly one must be given).
        average_mode: "full" keeps the complete coupling, or
            "level_shift_only" drops its collective-decay part.
        fast: restrict interaction insertions to the detection stage.

    Returns:
        SpectrumSeries over the requested grid.
    """
    (series,) = directional_spectra(
        kappa, channel, (direction,), theta, detunings, xi_bar=xi_bar,
        window=window, average_mode=average_mode, fast=fast)
    return series


def directional_spectra(kappa: int, channel: str, directions, theta: float,
                        detunings=None, *, xi_bar: float = None,
                        window=None, average_mode: str = "full",
                        fast: bool = False) -> tuple:
    """:func:`spectrum` for several detection directions at once.

    The averaged chain yields the rows of every detector at once, so
    this costs the same as one :func:`spectrum` call.  Arguments are
    those of :func:`spectrum`, with ``directions`` a sequence of
    directions.

    Returns:
        tuple of SpectrumSeries, one per direction in order.
    """
    if kappa not in DEMODULATION_ORDERS:
        raise ValueError(f"kappa must be one of {DEMODULATION_ORDERS}, "
                         f"got {kappa!r}")
    if channel not in POLARIZATION_CHANNELS:
        raise ValueError(f"unknown polarization channel {channel!r}")
    if detunings is None:
        detunings = np.linspace(-DEFAULT_DETUNING_HALF_RANGE,
                                DEFAULT_DETUNING_HALF_RANGE,
                                DEFAULT_DETUNING_COUNT)
    detunings = np.asarray(detunings, dtype=float)
    if detunings.ndim != 1 or detunings.size == 0:
        raise ValueError("detunings must be a non-empty 1d grid")
    inv_xi_squared = mean_inverse_xi_squared(xi_bar=xi_bar, window=window)
    indices = [detector_index(direction) for direction in directions]
    rows = averaged_solution(
        1j * detunings, theta, channel=channel, kappa=kappa,
        inv_xi_squared=inv_xi_squared, mode=average_mode,
        fast=fast) / SPECTRAL_DENSITY_NORM
    return tuple(SpectrumSeries(detunings=detunings, values=rows[index],
                                kappa=kappa, channel=channel,
                                direction=direction)
                 for index, direction in zip(indices, directions))


def leading_order_peaks(theta: float, xi_bar: float) -> dict:
    """Closed-form peak amplitudes Re S at the demodulation resonances.

    Values hold to leading order in the pulse area and in the inverse
    scaled separation, in the normalization where the parallel-channel
    y-direction one-quantum peak equals theta squared.  Keys are
    (kappa, direction, channel).
    """
    t2, t4, x2 = theta**2, theta**4, xi_bar**2
    return {
        (1, "x", "parallel"): 0.3 * t2 / x2,
        (1, "y", "parallel"): t2,
        (1, "x", "perpendicular"): 0.0,
        (1, "y", "perpendicular"): 0.0,
        (2, "x", "parallel"): -3.0 * t4 / (320.0 * x2),
        (2, "y", "parallel"): -51.0 * t4 / (640.0 * x2),
        (2, "x", "perpendicular"): -3.0 * t4 / (1280.0 * x2),
        (2, "y", "perpendicular"): -3.0 * t4 / (1280.0 * x2),
    }


def _erfcx(u: float) -> float:
    """Scaled complementary error function exp(u^2) erfc(u), u >= 0.

    Above ``_ERFCX_SPLIT`` it is Laplace's continued fraction
    1 / (sqrt(pi) (u + (1/2)/(u + 1/(u + (3/2)/(u + ...))))), evaluated
    from its ``_ERFCX_TERMS``-th partial numerator back to the first.
    """
    if u < _ERFCX_SPLIT:
        return math.exp(u * u) * math.erfc(u)
    fraction = u
    for k in range(_ERFCX_TERMS, 0, -1):
        fraction = u + 0.5 * k / fraction
    return 1.0 / (math.sqrt(math.pi) * fraction)


def mean_scattering_cross_section(wavelength: float, gamma: float,
                                  delta_bar: float) -> float:
    """Doppler-averaged elastic photon scattering cross-section.

    A photon detuned by Delta from resonance sees a Lorentzian
    cross-section of half-width gamma/2 peaking at 3 wavelength^2 /
    (2 pi).  ``delta_bar`` is taken as the rms Doppler shift of each
    Cartesian velocity component, and the detuning of a thermal
    scatterer is modelled as the sum of the three independent Gaussian
    components, so the average reduces to a one-dimensional Gaussian of
    rms sqrt(3) * delta_bar against the Lorentzian, with the closed form
    (a/s) sqrt(pi/2) erfcx(a / (sqrt(2) s)), a = gamma/2, s = sqrt(3)
    delta_bar.  ``gamma`` and ``delta_bar`` must share units.

    A photon travelling along one axis sees only the velocity component
    along it; under that reading the spread would be delta_bar, not
    sqrt(3) delta_bar (at the default parameters 1.9922e-15 m^2 rather
    than 1.1523e-15 m^2).  The sum-of-components convention is kept.
    """
    if wavelength <= 0 or gamma <= 0:
        raise ValueError("wavelength and gamma must be positive")
    if delta_bar < 0:
        raise ValueError("delta_bar must be non-negative")
    peak = 3.0 * (wavelength * wavelength) / (2.0 * np.pi)
    if delta_bar == 0.0:
        return peak
    half_width = 0.5 * gamma
    spread = math.sqrt(3.0) * delta_bar
    ratio = half_width / spread
    if not math.isfinite(ratio):
        # u erfcx(u) -> 1/sqrt(pi) as u -> inf: the cold limit
        return peak
    u = half_width / (math.sqrt(2.0) * spread)
    return float(peak * ratio * np.sqrt(0.5 * np.pi) * _erfcx(u))


def mean_free_path(density: float, cross_section: float) -> float:
    """Photon mean free path 1 / (density * cross-section)."""
    if density <= 0 or cross_section <= 0:
        raise ValueError("density and cross-section must be positive")
    return 1.0 / (density * cross_section)


def dipole_from_gamma(gamma: float, omega0: float) -> float:
    """Transition dipole moment giving decay rate ``gamma`` at angular
    frequency ``omega0`` (SI units)."""
    if gamma <= 0 or omega0 <= 0:
        raise ValueError("gamma and omega0 must be positive")
    return np.sqrt(3.0 * np.pi * _EPSILON_0 * _HBAR * _C_LIGHT**3
                   * gamma / omega0**3)


def pulse_area_from_energy(pulse_energy: float, duration: float,
                           beam_cross_section: float, dipole: float) -> float:
    """Area of a Gaussian pulse from its energy budget (SI units).

    Args:
        pulse_energy: energy carried by one pulse.
        duration: Gaussian envelope time constant.
        beam_cross_section: transverse beam cross-section.
        dipole: transition dipole moment.
    """
    if min(pulse_energy, duration, beam_cross_section, dipole) <= 0:
        raise ValueError("all pulse parameters must be positive")
    # Python floats: a budget that overflows gives an infinite area, which
    # the configuration refuses, without a numpy overflow warning
    return 2.0 * dipole * np.sqrt(
        duration * _C_LIGHT * _MU_0 * pulse_energy * math.sqrt(math.pi)
        / beam_cross_section) / _HBAR
