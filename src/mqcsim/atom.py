"""Single-atom structure and dynamics.

The atom has a J = 0 ground state |1> and a J = 1 excited triplet
|2>, |3>, |4> (m = -1, 0, +1).  In the Cartesian excited basis

    |x> = (|4> - |2>)/sqrt(2),  |y> = (|4> + |2>)/(sqrt(2) i),  |z> = |3>,

the lowering operator along a Cartesian direction k is simply |1><k|,
which keeps the pulse and detection algebra transparent.

Pulses are impulsive: a pulse of area theta, linear polarization e, and
optical phase phi applies U = exp(-i theta/2 (S^dag e^{i phi} + S e^{-i phi}))
with S the lowering operator along e.  Because S^2 = 0 the induced map on
density operators splits exactly into five harmonics e^{i p phi},
p = -2..2; carrying the harmonics symbolically is what lets later stages
select demodulation orders without scanning the phase numerically.

Free evolution is spontaneous decay at rate gamma, which sets the unit
of time and frequency throughout (gamma = 1): optical coherences decay
at 1/2, excited populations and Zeeman coherences at 1, and the ground
population collects the emitted weight.  :func:`decay_eigensystem`
diagonalizes that generator exactly and lists its modes in
operator-basis order: four population modes on the diagonal basis
indices, then every off-diagonal basis element as a mode of its own.
The resolvent that the perturbative chain applies through it is
:func:`mqcsim.expansion.apply_resolvent`.

Every map here acts on density-operator coefficients (the Schrodinger
picture).  The map that evolves observables instead is its
Hilbert-Schmidt adjoint, which in the trace-orthonormal basis is the
conjugate transpose of the matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import (HILBERT_DIM, NUM_OPS, build_single_atom_basis, expand,
                    matrix_unit, sandwich_matrix)

_SQRT2 = np.sqrt(2.0)

_CART_LABELS = {"x": 0, "y": 1, "z": 2}

#: polarization of the first pulse, the same in every channel
FIRST_POLARIZATION = "x"

#: polarization of the second pulse in each channel
SECOND_POLARIZATION = {"parallel": "x", "perpendicular": "y"}

#: detector labels: a detector looks along one Cartesian axis
DETECTION_DIRECTIONS = ("x", "y")


class PoleError(ValueError):
    """Raised when a resolvent is evaluated on one of its poles."""


@functools.cache
def dipole_components() -> np.ndarray:
    """Cartesian lowering operators (D_x, D_y, D_z), shape (3, 4, 4).

    D_k = |1><k| with |k> the Cartesian excited states; explicitly
    D_x = (sigma_14 - sigma_12)/sqrt(2), D_y = i(sigma_14 + sigma_12)/sqrt(2),
    D_z = sigma_13.
    """
    d_x = (matrix_unit(1, 4) - matrix_unit(1, 2)) / _SQRT2
    d_y = 1j * (matrix_unit(1, 4) + matrix_unit(1, 2)) / _SQRT2
    d_z = matrix_unit(1, 3)
    out = np.array([d_x, d_y, d_z])
    out.flags.writeable = False
    return out


def dipole_lowering(pol: str) -> np.ndarray:
    """Lowering operator |1><k| along a Cartesian axis label 'x', 'y' or 'z'."""
    try:
        return dipole_components()[_CART_LABELS[pol]]
    except (KeyError, TypeError):
        raise ValueError(f"unknown polarization label {pol!r}") from None


def detector_index(direction) -> int:
    """Position of a detector label in ``DETECTION_DIRECTIONS``, which
    is also its row in every array of detected rows."""
    if not isinstance(direction, str) or direction not in DETECTION_DIRECTIONS:
        raise ValueError(f"unknown detection direction {direction!r}")
    return DETECTION_DIRECTIONS.index(direction)


def detection_observable(direction: str) -> np.ndarray:
    """Single-atom observable seen by a detector along ``direction``, a
    label in ``DETECTION_DIRECTIONS``.

    Emission toward the detector couples to the dipole components
    transverse to the line of sight, so the observable is the sum of
    the two excited-sublevel populations whose dipoles are transverse:
    sum_kl (delta_kl - e_k e_l) D_k^dag D_l.
    """
    e_hat = np.eye(3)[detector_index(direction)]
    transverse = np.eye(3) - np.outer(e_hat, e_hat)
    dips = dipole_components()
    return np.einsum("kl,kba,lbc->ac", transverse, dips.conj(), dips)


def kick_decomposition(theta: float, polarization: str = "x") -> dict:
    """Split an impulsive pulse into its five optical-phase harmonics.

    The density-operator map of a pulse with optical phase phi is
    sum_p e^{i p phi} R_p with p = -2..2; the harmonics R_p are
    phase-free, so all phi dependence is in the prefactors.

    The pulse conserves the trace at every phase, so for p != 0 the
    trace row of R_p (row 0, the Id/2 coefficient) vanishes; it is set
    to exact zeros rather than left to the roundoff of its terms.

    Args:
        theta: pulse area.
        polarization: 'x', 'y' or 'z'.

    Returns:
        dict mapping p to the 16x16 matrix of R_p over the operator
        basis.
    """
    s_op = dipole_lowering(polarization)
    s_bar = np.sin(theta / 2.0) * s_op
    proj = s_op.conj().T @ s_op + s_op @ s_op.conj().T
    cap = np.eye(HILBERT_DIM) - proj + np.cos(theta / 2.0) * proj
    s_dag = s_bar.conj().T
    out = {
        0: (sandwich_matrix(cap, cap) + sandwich_matrix(s_dag, s_bar)
            + sandwich_matrix(s_bar, s_dag)),
        +1: 1j * (sandwich_matrix(cap, s_dag) - sandwich_matrix(s_dag, cap)),
        -1: 1j * (sandwich_matrix(cap, s_bar) - sandwich_matrix(s_bar, cap)),
        +2: sandwich_matrix(s_dag, s_dag),
        -2: sandwich_matrix(s_bar, s_bar),
    }
    for p in (-2, -1, 1, 2):
        out[p][0] = 0.0
    return out


#: the population decay modes span the diagonal basis indices 0-3;
#: every other basis element is a decay mode on its own
POPULATION_BLOCK = 4


@dataclass(frozen=True)
class DecayEigensystem:
    """Diagonalized density-operator decay generator.

    ``modes`` columns are coefficient vectors of the eigen-operators,
    ``rates`` the matching eigenvalues, both in operator-basis order:
    the population modes sigma_11 (rate 0) and sigma_kk - sigma_11
    (rate -1) at indices 0-3, which span the diagonal basis indices
    only, and then each off-diagonal basis element as its own mode,
    at rate -1/2 if it touches the ground level and -1 otherwise.  So
    ``modes`` is a 4x4 block and a 12x12 identity.
    """

    modes: np.ndarray
    rates: np.ndarray


@functools.cache
def decay_eigensystem() -> DecayEigensystem:
    """Exact eigen-decomposition of the decay generator."""
    p = POPULATION_BLOCK
    ground = matrix_unit(1, 1)
    population = [ground] + [matrix_unit(k, k) - ground for k in (2, 3, 4)]
    modes = np.eye(NUM_OPS, dtype=complex)
    modes[:p, :p] = expand(np.array(population))[:, :p].T
    rates = [0.0, -1.0, -1.0, -1.0] + [
        -0.5 if op[0].any() or op[:, 0].any() else -1.0
        for op in build_single_atom_basis()[p:]]
    return DecayEigensystem(modes=modes, rates=np.array(rates))
