"""Fixed-configuration transients of the untruncated pair dynamics.

The time-domain counterpart of the Laplace oracle in
:mod:`mqcsim.oracle`, on the same generator, pulses and detection
covectors: :func:`time_domain_evolve` integrates the full
256-dimensional linear system between exact pulses rho -> u rho u^dag
with an adaptive ODE integrator and reads the fluorescence intensity
on a time grid, and :func:`numeric_demodulate` extracts one harmonic
of the pulse-phase difference from equally spaced phase samples.  It
shares no code with the symbolic chain.  No subcommand uses it, so it
lives with the tests, which check the Laplace oracle against it.  It
loads ``scipy.integrate``, a dependency of the tests alone, when it
integrates, not on import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mqcsim.atom import (DETECTION_DIRECTIONS, FIRST_POLARIZATION,
                         SECOND_POLARIZATION)
from mqcsim.oracle import (detection_covector_vec, ground_pair_vec,
                           pair_generator, pulse_unitary)


class IntegrationError(RuntimeError):
    """Raised when the transient integrator fails to converge."""


@dataclass(frozen=True)
class OracleRun:
    """One fixed-configuration transient computation.

    ``tau_grid`` are interpulse delays, ``t_fl_grid`` fluorescence
    collection times, ``phi_samples`` the sampled values of the pulse
    phase difference; the first pulse carries phase zero.
    """

    xi: float
    n_hat: tuple
    theta: float
    channel: str
    tau_grid: np.ndarray
    t_fl_grid: np.ndarray
    phi_samples: np.ndarray
    mode: str = "exact"
    rtol: float = 1e-10


def _propagate(generator: np.ndarray, start: np.ndarray, grid: np.ndarray,
               rtol: float) -> np.ndarray:
    """Integrate y' = generator y from t = 0 with DOP853, states on the
    grid (D, N).  The grid must be nonnegative and strictly increasing.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] < 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be nonnegative and increasing")
    if grid[-1] == 0.0:
        return start[:, None].copy()
    from scipy.integrate import solve_ivp

    result = solve_ivp(lambda _, y: generator @ y, (0.0, grid[-1]), start,
                       t_eval=grid, method="DOP853", rtol=rtol, atol=1e-14)
    if not result.success:
        raise IntegrationError(
            f"transient integration failed: {result.message} "
            f"(reached t = {result.t[-1] if len(result.t) else 0.0})")
    return result.y


def time_domain_evolve(run: OracleRun) -> dict:
    """Transient fluorescence intensities of the untruncated dynamics.

    Applies the first kick to the ground pair, integrates the full
    linear system across the interpulse grid, applies the second kick at
    every delay, integrates again over the collection grid, and reads
    the detected intensity for both detector directions.

    Returns:
        dict mapping direction to a real array of shape
        (len(phi_samples), len(tau_grid), len(t_fl_grid)).
    """
    second_pol = SECOND_POLARIZATION[run.channel]
    n = np.asarray(run.n_hat, dtype=float)
    n = n / np.linalg.norm(n)
    position = run.xi * n[2]
    generator = pair_generator(run.xi, n, run.mode)
    tau = np.asarray(run.tau_grid, dtype=float)
    t_fl = np.asarray(run.t_fl_grid, dtype=float)
    phis = np.asarray(run.phi_samples, dtype=float)
    covectors = {d: detection_covector_vec(d) for d in DETECTION_DIRECTIONS}
    out = {d: np.empty((len(phis), len(tau), len(t_fl))) for d in covectors}

    def kick(polarization, phase, states):   # vectorized, one a row
        u = np.kron(pulse_unitary(run.theta, polarization, phase + position),
                    pulse_unitary(run.theta, polarization, phase))
        rho = states.reshape(-1, 16, 16)
        return (u @ rho @ u.conj().T).reshape(states.shape)

    first = kick(FIRST_POLARIZATION, 0.0, ground_pair_vec())
    between = _propagate(generator, first, tau, run.rtol)
    for i, phi in enumerate(phis):
        kicked = kick(second_pol, phi, between.T)
        for j in range(len(tau)):
            states = _propagate(generator, kicked[j], t_fl, run.rtol)
            for d, w in covectors.items():
                out[d][i, j] = (w @ states).real
    return out


def numeric_demodulate(intensities: np.ndarray, harmonic: int,
                       axis: int = 0) -> np.ndarray:
    """Extract one phase harmonic from equally spaced phase samples.

    The samples are assumed to sit at 2 pi j / N, j = 0..N-1, along
    ``axis``; the result is the coefficient of e^{i harmonic phi}.  It
    is exact when no other harmonic congruent to it modulo N is
    present, which for the band limit |l| <= 2 of two-pulse signals
    means any N >= 5.
    """
    count = intensities.shape[axis]
    phases = 2.0 * np.pi * np.arange(count) / count
    weights = np.exp(-1j * harmonic * phases) / count
    return np.tensordot(weights, intensities, axes=(0, axis))
