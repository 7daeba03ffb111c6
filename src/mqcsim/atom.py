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
population collects the emitted weight.  The propagator and its
Laplace transform (the resolvent) are exact five-term expressions.

Maps come in two pictures.  Density-operator (Schrodinger) maps evolve
states; observable (Heisenberg) maps evolve operators and are the
Hilbert-Schmidt adjoints of the former, which in the trace-orthonormal
basis is simply the conjugate transpose of the matrix.  ``picture`` is
"observable" or "state" throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .basis import HILBERT_DIM, expand, matrix_unit, sandwich_matrix

_SQRT2 = np.sqrt(2.0)

_CART_LABELS = {"x": 0, "y": 1, "z": 2}

#: polarization of the second pulse in each channel; the first is always x
SECOND_POLARIZATION = {"parallel": "x", "perpendicular": "y"}


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


def dipole_lowering(pol) -> np.ndarray:
    """Lowering operator along a linear polarization direction.

    Args:
        pol: 'x', 'y', 'z', or a real 3-vector (normalized internally).

    Returns:
        4x4 matrix sum_k pol_k |1><k|.
    """
    if isinstance(pol, str):
        try:
            vec = np.eye(3)[_CART_LABELS[pol]]
        except KeyError:
            raise ValueError(f"unknown polarization label {pol!r}") from None
    else:
        vec = np.asarray(pol, dtype=float)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("polarization vector must be nonzero")
        vec = vec / norm
    return np.tensordot(vec, dipole_components(), axes=(0, 0))


@functools.cache
def excited_projector() -> np.ndarray:
    out = np.diag(np.array([0, 1, 1, 1], dtype=complex))
    out.flags.writeable = False
    return out


@functools.cache
def ground_projector() -> np.ndarray:
    out = np.diag(np.array([1, 0, 0, 0], dtype=complex))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class KickDecomposition:
    """Phase-harmonic split of an impulsive pulse acting on one atom.

    The density-operator map of a pulse with optical phase phi is
    sum_p e^{i p phi} R_p with p = -2..2; ``harmonic(p)`` returns the
    16x16 matrix of R_p over the operator basis.  The harmonics are
    phase-free; all phi dependence is in the prefactors.
    """

    theta: float
    polarization: str
    _harmonics: dict = field(repr=False)
    _lowering: np.ndarray = field(repr=False)

    def harmonic(self, p: int) -> np.ndarray:
        """Matrix of the e^{i p phi} harmonic, p in -2..2."""
        return self._harmonics[p]

    def unitary(self, phi: float) -> np.ndarray:
        """The 4x4 pulse unitary at optical phase phi."""
        s_op = self._lowering
        half = self.theta / 2.0
        proj = s_op.conj().T @ s_op + s_op @ s_op.conj().T
        drive = s_op.conj().T * np.exp(1j * phi) + s_op * np.exp(-1j * phi)
        return (np.eye(HILBERT_DIM) - proj + np.cos(half) * proj
                - 1j * np.sin(half) * drive)

    def as_matrix(self, phi: float) -> np.ndarray:
        """Assembled density-operator map sum_p e^{i p phi} R_p."""
        return sum(np.exp(1j * p * phi) * self._harmonics[p] for p in range(-2, 3))


def kick_decomposition(theta: float, polarization: str = "x") -> KickDecomposition:
    """Split an impulsive pulse into its five optical-phase harmonics.

    Args:
        theta: pulse area.
        polarization: 'x', 'y' or 'z'.

    Returns:
        KickDecomposition with density-operator harmonic matrices.
    """
    s_op = dipole_lowering(polarization)
    s_bar = np.sin(theta / 2.0) * s_op
    proj = s_op.conj().T @ s_op + s_op @ s_op.conj().T
    cap = np.eye(HILBERT_DIM) - proj + np.cos(theta / 2.0) * proj
    s_dag = s_bar.conj().T
    harmonics = {
        0: (sandwich_matrix(cap, cap) + sandwich_matrix(s_dag, s_bar)
            + sandwich_matrix(s_bar, s_dag)),
        +1: 1j * (sandwich_matrix(cap, s_dag) - sandwich_matrix(s_dag, cap)),
        -1: 1j * (sandwich_matrix(cap, s_bar) - sandwich_matrix(s_bar, cap)),
        +2: sandwich_matrix(s_dag, s_dag),
        -2: sandwich_matrix(s_bar, s_bar),
    }
    return KickDecomposition(theta=theta, polarization=polarization,
                             _harmonics=harmonics, _lowering=s_op)


def two_pulse_pure_states(theta: float, channel: str, phi1: float, phi2: float):
    """Pure state after two impulsive pulses on a ground-state atom.

    Channel 'parallel' drives x then x; 'perpendicular' drives x then y.
    Closed forms (c = cos(theta/2), s = sin(theta/2)):

        parallel:       (c^2 - e^{i(phi1-phi2)} s^2)|1>
                        - i (e^{i phi1} + e^{i phi2}) s c |x>
        perpendicular:  c^2 |1> - i e^{i phi1} s |x> - i e^{i phi2} s c |y>

    Returns:
        (amplitudes, coefficients): the 4-component state vector in the
        (|1>, |2>, |3>, |4>) basis and the 16-component operator-basis
        expansion of |psi><psi|.  Used as a cross-check of composed kicks.
    """
    second = SECOND_POLARIZATION[channel]
    ground = np.zeros(HILBERT_DIM, dtype=complex)
    ground[0] = 1.0
    u1 = kick_decomposition(theta, "x").unitary(phi1)
    u2 = kick_decomposition(theta, second).unitary(phi2)
    psi = u2 @ (u1 @ ground)
    return psi, expand(np.outer(psi, psi.conj()))


def _feed_matrix(picture: str) -> np.ndarray:
    """Map collecting decayed excited weight into the ground sector."""
    dips = dipole_components()
    if picture == "state":
        return sum(sandwich_matrix(d, d.conj().T) for d in dips)
    if picture == "observable":
        return sum(sandwich_matrix(d.conj().T, d) for d in dips)
    raise ValueError(f"unknown picture {picture!r}")


@functools.cache
def _propagator_pieces(picture: str):
    pe = excited_projector()
    pg = ground_projector()
    cross = sandwich_matrix(pe, pg) + sandwich_matrix(pg, pe)
    gg = sandwich_matrix(pg, pg)
    ee = sandwich_matrix(pe, pe)
    feed = _feed_matrix(picture)
    return cross, gg, ee, feed


def free_propagator(t: float, picture: str = "observable") -> np.ndarray:
    """Exact decay propagator over the operator basis, 16x16.

    In the observable picture Q(t) = Pe Q Pg e^{-t/2} + Pg Q Pe e^{-t/2}
    + Pg Q Pg + Pe Q Pe e^{-t} + (sum_k D_k^dag Q D_k) (1 - e^{-t}); the
    state picture is the adjoint (the feed term runs the other way).
    """
    cross, gg, ee, feed = _propagator_pieces(picture)
    half = np.exp(-t / 2.0)
    full = np.exp(-t)
    return cross * half + gg + ee * full + feed * (1.0 - full)


def resolvent(z: complex, picture: str = "observable",
              restrict_stationary: bool = False) -> np.ndarray:
    """Laplace transform of the decay propagator, 16x16.

    Poles sit at z = 0, -1/2, -1.  With ``restrict_stationary``
    the rank-one stationary component (pole at z = 0) is projected out,
    which is the exact resolvent on the complement and stays finite at
    z = 0; composing it with maps that annihilate the stationary sector
    reproduces the full resolvent there.
    """
    cross, gg, ee, feed = _propagator_pieces(picture)
    for pole in (-0.5, -1.0):
        if np.isclose(complex(z), pole):
            raise PoleError(f"resolvent evaluated at decaying-sector pole z = {pole}")
    base = cross / (z + 0.5) + ee / (z + 1.0) - feed / (z + 1.0)
    if restrict_stationary:
        return base
    # gg + feed joins the stationary projector to form the z = 0 pole
    if np.isclose(complex(z), 0.0):
        raise PoleError("resolvent has a pole at z = 0; use restrict_stationary")
    return base + (gg + feed) / z


def decay_generator(picture: str = "observable") -> np.ndarray:
    """Matrix of the spontaneous-decay generator over the operator basis."""
    pe = excited_projector()
    eye = np.eye(HILBERT_DIM, dtype=complex)
    anti = sandwich_matrix(pe, eye) + sandwich_matrix(eye, pe)
    return _feed_matrix(picture) - anti / 2.0


@dataclass(frozen=True)
class DecayEigensystem:
    """Diagonalized density-operator decay generator.

    ``modes`` columns are coefficient vectors of the eigen-operators,
    ``rates`` the matching eigenvalues (0, -1/2, -1 patterns).  The
    stationary mode sigma_11 sits first.
    """

    modes: np.ndarray
    rates: np.ndarray


@functools.cache
def decay_eigensystem() -> DecayEigensystem:
    """Exact eigen-decomposition of the state-picture decay generator."""
    ops = [matrix_unit(1, 1)]
    rates = [0.0]
    for k in (2, 3, 4):
        ops += [matrix_unit(1, k), matrix_unit(k, 1)]
        rates += [-0.5, -0.5]
    for k in (2, 3, 4):
        for l in (2, 3, 4):
            if k != l:
                ops.append(matrix_unit(k, l))
                rates.append(-1.0)
    for k in (2, 3, 4):
        ops.append(matrix_unit(k, k) - matrix_unit(1, 1))
        rates.append(-1.0)
    modes = np.stack([expand(op) for op in ops], axis=1)
    return DecayEigensystem(modes=modes, rates=np.array(rates))
