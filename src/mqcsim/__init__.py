"""Fluorescence-detected multiple-quantum-coherence spectra of a
dipole-coupled pair of four-level atoms.

Two phase-tagged ultrashort pulses drive a pair of J = 0 -> J = 1 atoms;
the demodulated fluorescence carries one- and two-quantum coherence
signatures whose disorder-averaged line shapes this package computes
analytically (single plus double scattering) and validates against
an exact Laplace-domain oracle and Monte Carlo configuration averages.
"""

import importlib

from .basis import build_single_atom_basis, expand
from .atom import dipole_lowering, kick_decomposition
from .coupling import coupling_tensor
from .expansion import (
    PhaseMonomial,
    initial_vector,
    apply_kick,
    apply_resolvent,
    apply_interaction,
    scattering_solution,
)
from .disorder import (
    survival_filter,
    angular_average,
    average_state,
    averaged_solution,
    mean_inverse_xi_squared,
)
from .spectra import (
    SpectrumSeries,
    detection_observable,
    detection_projection,
    directional_spectra,
    spectrum,
    leading_order_peaks,
    mean_scattering_cross_section,
    mean_free_path,
    dipole_from_gamma,
    pulse_area_from_energy,
)

#: names loaded on first access (PEP 562): no spectrum run should pay
#: for the oracle
_LAZY = ("demodulated_laplace", "fixed_configuration_components",
         "monte_carlo_pair_averages", "monte_carlo_spectrum",
         "pair_generator", "sample_configurations", "surviving_term_table")


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(".oracle", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "build_single_atom_basis", "expand",
    "dipole_lowering", "kick_decomposition",
    "coupling_tensor",
    "PhaseMonomial", "initial_vector",
    "apply_kick", "apply_resolvent", "apply_interaction", "scattering_solution",
    "survival_filter", "angular_average",
    "average_state", "averaged_solution", "mean_inverse_xi_squared",
    "SpectrumSeries", "detection_observable", "detection_projection",
    "directional_spectra", "spectrum", "leading_order_peaks", "mean_scattering_cross_section",
    "mean_free_path", "dipole_from_gamma",
    "pulse_area_from_energy",
    "demodulated_laplace", "fixed_configuration_components",
    "monte_carlo_pair_averages", "monte_carlo_spectrum",
    "pair_generator", "sample_configurations", "surviving_term_table",
]
