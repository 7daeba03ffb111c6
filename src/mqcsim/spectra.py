"""Fluorescence observables of the driven atom pair.

Assembles the disorder-averaged demodulated emission spectra from the
symbolic two-pulse expansion: evaluate the doubly Laplace-transformed
pair state at z1 = i * detuning along the interpulse delay and z2 = 0
along the detection time, average over pair geometry, then contract
with the excited-population observable seen by a detector.  Also
provides the closed-form small-area peak amplitudes the spectra reduce
to, and the dimensional helpers (pulse area from pulse energy, dipole
moment from the decay rate, Doppler-averaged scattering cross-section
and photon mean free path) that connect the dimensionless model to a
thermal-vapour experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as _C_LIGHT
from scipy.constants import epsilon_0 as _EPSILON_0
from scipy.constants import hbar as _HBAR
from scipy.constants import mu_0 as _MU_0
from scipy.special import erfcx

from .atom import SECOND_POLARIZATION, dipole_components
from .basis import expand, pair_operator
from .disorder import averaged_solution, mean_inverse_xi_squared
from .expansion import PhaseTaggedVector

DETECTION_DIRECTIONS = ("x", "y")
POLARIZATION_CHANNELS = tuple(SECOND_POLARIZATION)
DEMODULATION_ORDERS = (1, 2)

#: default detuning grid (units of gamma), wide enough to resolve the
#: gamma/2-scale line shapes with margin
DEFAULT_DETUNINGS = np.linspace(-10.0, 10.0, 801)


def _direction_vector(direction) -> np.ndarray:
    if isinstance(direction, str):
        try:
            return np.eye(3)[DETECTION_DIRECTIONS.index(direction)]
        except ValueError:
            raise ValueError(f"unknown detection direction {direction!r}") from None
    vec = np.asarray(direction, dtype=float)
    if vec.shape != (3,):
        raise ValueError("detection direction must be a label or a 3-vector")
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("detection direction must be nonzero")
    return vec / norm


def detection_observable(direction) -> np.ndarray:
    """Single-atom observable seen by a detector along ``direction``.

    Emission toward the detector couples to the dipole components
    transverse to the line of sight, so the observable is the sum of
    the two excited-sublevel populations whose dipoles are transverse:
    sum_kl (delta_kl - e_k e_l) D_k^dag D_l.
    """
    e_hat = _direction_vector(direction)
    transverse = np.eye(3) - np.outer(e_hat, e_hat)
    dips = dipole_components()
    return np.einsum("kl,kba,lbc->ac", transverse, dips.conj(), dips)


def _detection_covector(direction) -> np.ndarray:
    single = detection_observable(direction)
    identity = np.eye(4, dtype=complex)
    pair = pair_operator(single, identity) + pair_operator(identity, single)
    return expand(pair)


def detection_projection(vector: PhaseTaggedVector, direction) -> dict:
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
    are spectral densities integrated over the detection time, in units
    of the collection factor squared over gamma squared.
    """

    detunings: np.ndarray
    values: np.ndarray
    kappa: int
    channel: str
    direction: str
    units: str = "f^2/gamma^2"
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
             average_mode: str = "full", fast: bool = False,
             orders=(0, 2)) -> SpectrumSeries:
    """Disorder-averaged demodulated emission spectrum.

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
        orders: interaction orders to sum (the order-0 term is exactly
            zero for kappa = 2, so the default covers both cases).

    Returns:
        SpectrumSeries over the requested grid.
    """
    (series,) = directional_spectra(
        kappa, channel, (direction,), theta, detunings, xi_bar=xi_bar,
        window=window, average_mode=average_mode, fast=fast, orders=orders)
    return series


def directional_spectra(kappa: int, channel: str, directions, theta: float,
                        detunings=None, *, xi_bar: float = None,
                        window=None, average_mode: str = "full",
                        fast: bool = False, orders=(0, 2)) -> tuple:
    """:func:`spectrum` for several detection directions at once.

    The averaged pair state does not depend on the detector, so it is
    computed once and projected onto each direction.  Arguments are
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
        detunings = DEFAULT_DETUNINGS
    detunings = np.asarray(detunings, dtype=float)
    if detunings.ndim != 1 or detunings.size == 0:
        raise ValueError("detunings must be a non-empty 1d grid")
    inv_xi_squared = mean_inverse_xi_squared(xi_bar=xi_bar, window=window)
    z1 = 1j * detunings
    averaged = PhaseTaggedVector()
    for order in orders:
        averaged = averaged + averaged_solution(
            order, z1, theta, channel=channel, kappa=kappa,
            inv_xi_squared=inv_xi_squared, mode=average_mode, fast=fast)
    out = []
    for direction in directions:
        raw = detection_projection(averaged, direction).get(kappa)
        if raw is None:
            values = np.zeros(detunings.size, dtype=complex)
        else:
            values = np.broadcast_to(raw, (detunings.size,)).astype(complex)
        values = values / np.sqrt(2.0 * np.pi)
        label = direction if isinstance(direction, str) else repr(direction)
        out.append(SpectrumSeries(detunings=detunings, values=values,
                                  kappa=kappa, channel=channel,
                                  direction=label))
    return tuple(out)


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
    return float(peak * ratio * np.sqrt(0.5 * np.pi) * erfcx(u))


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


def gamma_from_dipole(dipole: float, omega0: float) -> float:
    """Spontaneous decay rate of a transition dipole at angular
    frequency ``omega0`` (SI units)."""
    if dipole <= 0 or omega0 <= 0:
        raise ValueError("dipole and omega0 must be positive")
    return omega0**3 * dipole**2 / (3.0 * np.pi * _EPSILON_0 * _HBAR
                                    * _C_LIGHT**3)


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
    return 2.0 * dipole * np.sqrt(
        duration * _C_LIGHT * _MU_0 * pulse_energy * np.sqrt(np.pi)
        / beam_cross_section) / _HBAR
