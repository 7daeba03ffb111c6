"""Brute-force validation of the perturbative pipeline.

Everything here deliberately avoids the symbolic machinery it checks.
States are vectorized 16x16 pair density matrices (row-major), the
master-equation generator and the pulse kicks are assembled from
Kronecker products of explicit 4x4 blocks, and time evolution runs
through an adaptive ODE integrator or through direct linear solves.
Three layers build on that:

  * fixed-configuration transients: integrate the full 256-dimensional
    linear system between exact matrix kicks and read the fluorescence
    intensity on a time grid, then demodulate numerically over the
    pulse-phase difference;
  * fixed-configuration Laplace components: the same generator, but the
    time integrals are done exactly as resolvent solves, with the pulse
    phases removed by harmonic binning of the kick matrices, so the
    result is directly comparable to the perturbative chain, the only
    difference being the neglected interaction orders;
  * Monte-Carlo configuration averages: per-configuration perturbative
    spectra (the phase monomials of a term table, coupling factors
    numeric) sampled over random geometry and averaged with standard
    errors.

Geometry conventions: both pulses propagate along +z with linear
polarizations in the x-y plane, atom 2 sits at the origin, and atom 1
at separation xi (in inverse-wavenumber units) along the axis n_hat,
so its pulse phases are offset by xi * n_hat_z.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .atom import SECOND_POLARIZATION, dipole_components, dipole_lowering
from .basis import NUM_OPS_PAIR, build_single_atom_basis, matrix_unit
from .coupling import TAG_KEYS, coupling_tensor, tensor_tag_value
from .expansion import scattering_solution
from .spectra import (
    DETECTION_DIRECTIONS,
    SpectrumSeries,
    _detection_covector,
    detection_observable,
)

_EYE4 = np.eye(4, dtype=complex)
_EYE16 = np.eye(16, dtype=complex)
_EYE256 = np.eye(NUM_OPS_PAIR, dtype=complex)


class IntegrationError(RuntimeError):
    """Raised when the transient integrator fails to converge."""


def _left_right(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Matrix of rho -> left rho right on row-major vectorized states."""
    return np.kron(left, right.T)


def ground_pair_vec() -> np.ndarray:
    """Vectorized both-atoms-ground density matrix."""
    single = matrix_unit(1, 1)
    return np.kron(single, single).reshape(-1)


def detection_covector_vec(direction) -> np.ndarray:
    """Row vector reading the detected intensity off a vectorized state.

    The dot product with vec(rho) equals the sum over both atoms of the
    transverse excited populations seen by a detector along
    ``direction``, i.e. Tr(rho (O x Id + Id x O)).
    """
    single = detection_observable(direction)
    pair = np.kron(single, _EYE4) + np.kron(_EYE4, single)
    return pair.T.reshape(-1)


def pair_generator(xi: float, n_hat, mode: str = "exact") -> np.ndarray:
    """Full master-equation generator on vectorized pair states, 256x256.

    Contains the independent-atom decay of both atoms and the complete
    dipole-dipole coupling for the given geometry; no perturbative
    truncation.  ``mode`` selects the coupling-tensor variant.

    With the six pair lowering operators L_a, a = (atom, Cartesian
    axis), and the 6x6 rate matrix A holding I/2 on the two
    same-atom blocks and the coupling tensor T on both cross blocks,

        rho -> sum_ab [2 Re A_ab L_b rho L_a^dag
                       - A_ab rho L_a^dag L_b - A_ab^* L_a^dag L_b rho].
    """
    dips = dipole_components()
    lowering = np.concatenate([np.kron(dips, _EYE4[None]),
                               np.kron(_EYE4[None], dips)])
    tensor = coupling_tensor(xi, n_hat, mode)
    rates = np.block([[0.5 * np.eye(3), tensor],
                      [tensor, 0.5 * np.eye(3)]])
    # vec(L_b rho L_a^dag) = (L_b kron conj(L_a)) vec(rho), row-major
    weighted = np.einsum("ab,ajl->bjl", 2.0 * rates.real, lowering.conj())
    jump = np.einsum("bik,bjl->ijkl", lowering, weighted)
    right = np.einsum("ab,aji,bjk->ik", rates, lowering.conj(), lowering)
    left = np.einsum("ab,aji,bjk->ik", rates.conj(), lowering.conj(),
                     lowering)
    return (jump.reshape(NUM_OPS_PAIR, NUM_OPS_PAIR)
            - _left_right(_EYE16, right) - _left_right(left, _EYE16))


@functools.cache
def pair_basis_columns() -> np.ndarray:
    """Unitary mapping operator-basis coefficients to vectorized states.

    Column 16 i + j is the vectorized product of single-atom basis
    operators i and j; the basis is trace-orthonormal, so the conjugate
    transpose inverts the map.
    """
    single = build_single_atom_basis()
    cols = [np.kron(a, b).reshape(-1) for a in single for b in single]
    out = np.stack(cols, axis=1)
    out.flags.writeable = False
    return out


def pulse_unitary(theta: float, polarization, phase: float) -> np.ndarray:
    """Single-atom pulse unitary at a given optical phase, via expm."""
    low = dipole_lowering(polarization)
    drive = low.conj().T * np.exp(1j * phase) + low * np.exp(-1j * phase)
    return expm(-0.5j * theta * drive)


def pair_kick(theta: float, polarization, laser_phase: float,
              position_phase: float) -> np.ndarray:
    """Kick superoperator for one pulse hitting both atoms, 256x256.

    Atom 1 sees the laser phase advanced by ``position_phase`` (its
    offset along the propagation axis); atom 2 sees the bare phase.
    """
    u1 = pulse_unitary(theta, polarization, laser_phase + position_phase)
    u2 = pulse_unitary(theta, polarization, laser_phase)
    u_pair = np.kron(u1, u2)
    return _left_right(u_pair, u_pair.conj().T)


def binned_kick(theta: float, polarization, harmonic: int,
                position_phase: float, samples: int = 9) -> np.ndarray:
    """Laser-phase harmonic of the kick superoperator.

    Each of the four unitary factors (two atoms, ket and bra side)
    carries the laser phase through at most one unit, so the pair kick
    is band-limited to harmonics |p| <= 4 and a discrete Fourier
    transform over ``samples`` >= 9 equally spaced phases extracts the
    e^{i harmonic phase} coefficient exactly.
    """
    if samples < 9:
        raise ValueError("need at least 9 phase samples for an exact bin")
    out = np.zeros((NUM_OPS_PAIR, NUM_OPS_PAIR), dtype=complex)
    for j in range(samples):
        phase = 2.0 * np.pi * j / samples
        out += np.exp(-1j * harmonic * phase) * pair_kick(
            theta, polarization, phase, position_phase)
    return out / samples


def _deflated_solve(generator: np.ndarray, z: complex,
                    rhs: np.ndarray) -> np.ndarray:
    """Solve (z - generator) x = rhs with the stationary pole removed.

    The generator annihilates the ground-pair state and preserves the
    trace, so shifting that single eigenvalue by one with a rank-one
    update makes the system regular at z = 0 while leaving the solution
    unchanged on trace-free right-hand sides (which is all the
    demodulated harmonics produce); any nonzero shift would do.
    """
    deflation = np.outer(ground_pair_vec(), _EYE16.reshape(-1))
    return np.linalg.solve(z * _EYE256 - generator + deflation, rhs)


def demodulated_laplace(xi: float, n_hat, theta: float, kappas, channels,
                        z1_values, z2: complex = 0.0) -> dict:
    """Demodulated detected Laplace components of the full dynamics.

    Computes, without any perturbative truncation, the coefficient of
    e^{i kappa (phase_2 - phase_1)} in the doubly Laplace-transformed
    fluorescence intensity: the pulse phases are removed by harmonic
    binning of the exact kick matrices and the two time integrals are
    exact resolvent solves of the full generator.  One generator serves
    every (kappa, channel), and each kappa's z1 solves are the
    right-hand side block of one z2 solve per channel.

    Returns:
        dict mapping (kappa, channel, direction) to an array of
        components over ``z1_values``.
    """
    n = np.asarray(n_hat, dtype=float)
    position = xi * n[2] / np.linalg.norm(n)
    generator = pair_generator(xi, n)
    covectors = np.stack([detection_covector_vec(d)
                          for d in DETECTION_DIRECTIONS])
    z1_arr = np.atleast_1d(np.asarray(z1_values, dtype=complex))
    out = {}
    for kappa in kappas:
        first = binned_kick(theta, "x", -kappa, position) @ ground_pair_vec()
        between = np.stack([_deflated_solve(generator, z1, first)
                            for z1 in z1_arr], axis=1)
        for channel in channels:
            kick2 = binned_kick(theta, SECOND_POLARIZATION[channel], kappa,
                                position)
            final = _deflated_solve(generator, z2, kick2 @ between)
            for d, row in zip(DETECTION_DIRECTIONS, covectors @ final):
                out[(kappa, channel, d)] = row
    return out


@dataclass(frozen=True)
class TermTable:
    """Per-configuration structure of the demodulated perturbative chain.

    The chain is built once per (orders, pulse, demodulation) choice;
    a configuration then only supplies the numeric weight of each term:
    the position-phase factor e^{i m xi n_z} and the product of coupling
    factors.  ``coeffs[t]`` holds the detected rows of term t: its
    operator-basis coefficients projected on the detection covector of
    each direction in ``DETECTION_DIRECTIONS``, shape (2, len(z1)).
    The table is the only record of its chain: readers take ``kappa``,
    ``channel`` and the ``z1_values`` grid from it.
    """

    phase_exponents: tuple
    tags: tuple
    coeffs: np.ndarray
    z1_values: np.ndarray
    kappa: int
    channel: str


def demodulated_term_table(orders, theta: float, channel: str, kappa: int,
                           z1_values, z2: complex = 0.0) -> TermTable:
    """Collect the demodulated perturbative chain into a term table,
    projecting each monomial on the detectors as it is merged."""
    z1_arr = np.atleast_1d(np.asarray(z1_values, dtype=complex))
    covectors = np.stack([_detection_covector(d).conj()
                          for d in DETECTION_DIRECTIONS])
    merged: dict = {}
    for order in orders:
        solution = scattering_solution(order, z1_arr, z2, theta,
                                       channel=channel, kappa=kappa)
        for monomial, coeffs in solution.items():
            key = (monomial.atom_net[0], monomial.tags)
            rows = covectors @ coeffs.reshape(NUM_OPS_PAIR, -1)
            if key in merged:
                merged[key] = merged[key] + rows
            else:
                merged[key] = rows
    keys = sorted(merged, key=repr)
    return TermTable(
        phase_exponents=tuple(k[0] for k in keys),
        tags=tuple(k[1] for k in keys),
        coeffs=np.stack([merged[k] for k in keys]),
        z1_values=z1_arr,
        kappa=kappa,
        channel=channel,
    )


def _term_weights(table: TermTable, xi: np.ndarray, n_hat: np.ndarray,
                  mode: str) -> np.ndarray:
    """Numeric weight of every table term per configuration, (T, B)."""
    tensors = coupling_tensor(xi, n_hat, mode)
    factors = {tag: tensor_tag_value(tensors, tag) for tag in TAG_KEYS}
    position = np.asarray(xi) * np.asarray(n_hat)[:, 2]
    weights = np.empty((len(table.tags), len(position)), dtype=complex)
    for t, (exponent, tags) in enumerate(zip(table.phase_exponents,
                                             table.tags)):
        w = np.exp(1j * exponent * position)
        for tag in tags:
            w = w * factors[tag]
        weights[t] = w
    return weights


def fixed_configuration_components(table: TermTable, xi: float,
                                   n_hat) -> dict:
    """Demodulated detected components of the truncated chain held in
    ``table`` (from :func:`demodulated_term_table`) at one
    configuration, on the table's z1 grid, with the exact coupling
    tensor; the perturbative counterpart of :func:`demodulated_laplace`.
    """
    n = np.asarray(n_hat, dtype=float)
    n = n / np.linalg.norm(n)
    weights = _term_weights(table, np.array([xi]), n[None, :], "exact")
    values = np.tensordot(weights[:, 0], table.coeffs, axes=(0, 0))
    return dict(zip(DETECTION_DIRECTIONS, values))


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
    covectors = {d: detection_covector_vec(d) for d in ("x", "y")}
    out = {d: np.empty((len(phis), len(tau), len(t_fl))) for d in covectors}
    first = pair_kick(run.theta, "x", 0.0, position) @ ground_pair_vec()
    between = _propagate(generator, first, tau, run.rtol)
    for i, phi in enumerate(phis):
        kick2 = pair_kick(run.theta, second_pol, phi, position)
        for j in range(len(tau)):
            states = _propagate(generator, kick2 @ between[:, j], t_fl,
                                run.rtol)
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


@dataclass(frozen=True)
class MonteCarloResult:
    """Configuration-averaged spectrum with sampling metadata.

    ``series.errors`` holds the standard error of the mean, real and
    imaginary parts packed as a complex number.  ``traces`` are the
    first few unaveraged per-configuration spectra (empty unless
    requested).
    """

    series: SpectrumSeries
    traces: np.ndarray
    n_samples: int
    seed: int
    window: tuple


def sample_configurations(rng: np.random.Generator, count: int,
                          window) -> tuple:
    """Draw separations uniform on the window and isotropic directions."""
    lo, hi = window
    xi = rng.uniform(lo, hi, count)
    cos_theta = rng.uniform(-1.0, 1.0, count)
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    n_hat = np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi),
                      cos_theta], axis=1)
    return xi, n_hat


def surviving_term_table(table: TermTable) -> TermTable:
    """Restrict a term table to the monomials whose average survives.

    The closed-form disorder average keeps exactly the terms with zero
    net position phase that carry either no coupling factor or a
    factor-conjugate pair; every other term averages to zero only up to
    window-endpoint oscillation residues of relative order
    1/(xi window width).  Restricting the sampled chain to the same
    families makes the Monte-Carlo mean an unbiased estimate of the
    closed form.
    """
    keep = [t for t, (exponent, tags) in
            enumerate(zip(table.phase_exponents, table.tags))
            if exponent == 0 and (
                len(tags) == 0
                or (len(tags) == 2 and tags[0][0] != tags[1][0]))]
    return replace(
        table,
        phase_exponents=tuple(table.phase_exponents[t] for t in keep),
        tags=tuple(table.tags[t] for t in keep),
        coeffs=table.coeffs[keep],
    )


def monte_carlo_spectrum(table: TermTable, direction, n_samples: int, *,
                         seed: int, window=(67.2, 92.8),
                         mode: str = "exact", batch_size: int = 4096,
                         keep_traces: int = 0) -> MonteCarloResult:
    """Monte-Carlo disorder average of per-configuration spectra.

    Each sampled configuration (separation, axis direction) is priced
    through the chain held in ``table`` with the coupling factors at
    their numeric values; the batch mean and standard error estimate the
    disorder-averaged spectrum that :func:`mqcsim.spectra.spectrum`
    computes in closed form.  The series takes its kappa and channel
    from the table and its detunings from the table's z1 grid, which
    must be purely imaginary.

    Args:
        table: term table from :func:`demodulated_term_table`.  Pass
            :func:`surviving_term_table` of it to sample only the phase
            monomials the closed-form average keeps, so the mean is an
            unbiased estimate of the closed form.  The full table
            samples the whole truncated chain; its mean retains
            window-endpoint residues of the oscillating families, a
            relative bias of order 1/(xi window width) that the small
            perpendicular two-quantum channel resolves at the percent
            level.
        direction: detector label, one of ``DETECTION_DIRECTIONS``; it
            selects a row of the term table.
        n_samples: configuration count, at least two so that the
            standard error is defined.
        keep_traces: number of unaveraged per-configuration spectra to
            return alongside the average (single realizations scatter
            over orders of magnitude, which is itself an observable
            effect worth reproducing; pass the full table so the traces
            carry the full chain).
    """
    if n_samples < 2:
        raise ValueError("need at least two configurations for a "
                         "standard error")
    if not isinstance(direction, str) or direction not in DETECTION_DIRECTIONS:
        raise ValueError(f"unknown detection direction {direction!r}")
    if np.any(table.z1_values.real != 0.0):
        raise ValueError("term table z1 grid must be purely imaginary "
                         "(i times the detunings)")
    detunings = table.z1_values.imag.copy()
    rows = table.coeffs[:, DETECTION_DIRECTIONS.index(direction)]
    rng = np.random.default_rng(seed)
    norm = np.sqrt(2.0 * np.pi)
    total = np.zeros(len(detunings), dtype=complex)
    # running mean and centred sums of squares of (Re, Im), combined batch
    # by batch with the pairwise update of Chan, Golub and LeVeque
    running_mean = np.zeros(len(detunings), dtype=complex)
    squares = np.zeros((2, len(detunings)))
    traces = np.zeros((keep_traces, len(detunings)), dtype=complex)
    done = 0
    while done < n_samples:
        count = min(batch_size, n_samples - done)
        xi, n_hat = sample_configurations(rng, count, window)
        weights = _term_weights(table, xi, n_hat, mode)
        batch = (rows.T @ weights) / norm
        total += batch.sum(axis=1)
        batch_mean = batch.mean(axis=1)
        centred = batch - batch_mean[:, None]
        delta = batch_mean - running_mean
        pooled = done * count / (done + count)
        squares[0] += (centred.real**2).sum(axis=1) + pooled * delta.real**2
        squares[1] += (centred.imag**2).sum(axis=1) + pooled * delta.imag**2
        running_mean += delta * (count / (done + count))
        if done < keep_traces:
            take = min(keep_traces - done, count)
            traces[done:done + take] = batch[:, :take].T
        done += count
    mean = total / n_samples
    error_re, error_im = np.sqrt(squares / ((n_samples - 1.0) * n_samples))
    series = SpectrumSeries(detunings=detunings, values=mean,
                            kappa=table.kappa, channel=table.channel,
                            direction=direction,
                            errors=error_re + 1j * error_im)
    return MonteCarloResult(series=series, traces=traces,
                            n_samples=n_samples, seed=seed,
                            window=tuple(window))


def monte_carlo_pair_averages(pairs, n_samples: int, *, seed: int,
                              window=(67.2, 92.8),
                              mode: str = "far_field") -> dict:
    """Monte-Carlo estimates of coupling-factor pair averages.

    Args:
        pairs: iterable of (tag_a, tag_b, phase_exponent) triples; the
            sampled quantity is the product of the two factor values
            times e^{i phase_exponent xi n_z}, matching how factor pairs
            appear in the demodulated chain.

    Returns:
        dict mapping each triple to (mean, standard_error), the error
        covering real and imaginary parts as a complex pair.
    """
    pairs = [(a, b, m) for a, b, m in pairs]
    rng = np.random.default_rng(seed)
    xi, n_hat = sample_configurations(rng, n_samples, window)
    tensors = coupling_tensor(xi, n_hat, mode)
    position = xi * n_hat[:, 2]

    out = {}
    for tag_a, tag_b, exponent in pairs:
        sample = (tensor_tag_value(tensors, tag_a)
                  * tensor_tag_value(tensors, tag_b)
                  * np.exp(1j * exponent * position))
        mean = sample.mean()
        se = (sample.real.std(ddof=1) + 1j * sample.imag.std(ddof=1)
              ) / np.sqrt(n_samples)
        out[(tag_a, tag_b, exponent)] = (mean, se)
    return out
