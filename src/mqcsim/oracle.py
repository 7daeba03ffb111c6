"""Brute-force validation of the perturbative pipeline.

The Laplace oracle here shares no code with the symbolic machinery it
checks.  States are vectorized 16x16 pair density matrices (row-major),
the master-equation generator and the pair pulse unitaries are
assembled from Kronecker products of explicit 4x4 blocks, and the two
time integrals are direct linear solves:
:func:`demodulated_laplace` computes the fixed-configuration Laplace
components as resolvent solves, with the pulse phases removed by
harmonic binning of the pair unitary, so the result is directly
comparable to the perturbative chain, the only difference being the
neglected interaction orders.  The harmonics are exact in closed form:
the laser phase enters a pulse unitary only as a phase per excitation,
so :func:`binned_kick` sorts the entries of one zero-phase unitary by
their change of the excitation number.  Each solve runs on the one
coherence order n(a) - n(b) of the entries rho_ab that its states
occupy (:func:`coherence_orders`): the generator conserves the order
and kick harmonic p shifts it by p, so the interpulse states of
harmonic -kappa lie in order -kappa and what the detectors read in
order 0.  The generator's block on one order is assembled directly
(:func:`_order_block`), so an oracle call builds no 256x256 matrix:
60x60 for kappa = 1, 9x9 for kappa = 2 and 118x118 on order 0.
:func:`pair_generator` builds the full matrix, the blocks' reference.
Detection runs from the detector side: one transposed solve at z2 = 0
on order 0 resolves the two detector covectors, exactly despite the
transposed deflation, because they read nothing on the ground pair;
each is pulled back through pulse 2's harmonic and dotted with the z1
solutions, so no detected state is built.  The tests hold the
time-domain transients on the full generator and the same pulses.

The perturbative side of every comparison is built on the chain it is
compared with, read from the expansion's one chain cache
(:func:`mqcsim.expansion._chain`), whose chains serve both channels:

  * term tables hold the chain's detected rows per phase exponent and
    coupling-factor multiset, without the keys below ``TERM_FLOOR``,
    the roundoff of exactly cancelling monomials.
    :func:`demodulated_term_table` keeps every phase exponent, and
    :func:`fixed_configuration_components` prices it at a single
    configuration;
  * Monte-Carlo configuration averages (:func:`monte_carlo_spectrum`)
    price a term table over random geometry and average it with
    standard errors.

The closed form that the Monte Carlo checks,
:func:`mqcsim.disorder.averaged_solution`, weights the keys of the
chain whose second kick keeps only zero net atom phase, with no floor,
and reads none where every weight is zero.  :func:`surviving_term_table`
reads the same cached chain, where the closed form is zero too, and
keeps the keys whose average survives.

Geometry conventions: both pulses propagate along +z with linear
polarizations in the x-y plane, atom 2 sits at the origin, and atom 1
at separation xi (in inverse-wavenumber units) along the axis n_hat,
so its pulse phases are offset by xi * n_hat_z.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .atom import (DETECTION_DIRECTIONS, FIRST_POLARIZATION,
                   SECOND_POLARIZATION, detection_observable,
                   dipole_components, dipole_lowering)
from .basis import NUM_OPS_PAIR, matrix_unit
from .coupling import TAG_KEYS, coupling_tensor, tensor_tag_value
from .disorder import SEPARATION_WINDOW
from .expansion import TERM_FLOOR, _chain, _on_grid
from .spectra import SPECTRAL_DENSITY_NORM, SpectrumSeries

_EYE4 = np.eye(4, dtype=complex)
_EYE16 = np.eye(16, dtype=complex)

#: configurations drawn and weighed together by every Monte-Carlo estimate;
#: it bounds the (terms, MC_BATCH) weights held at once
MC_BATCH = 4096

#: harmonics of the pair unitary: each atom's unitary carries the laser
#: phase through at most one unit
UNITARY_HARMONICS = range(-2, 3)

#: excitation number of each single-atom level: the ground level |1>
#: and the three excited levels
EXCITATIONS = np.array([0, 1, 1, 1])


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


@functools.cache
def _pair_lowering() -> np.ndarray:
    """The six pair lowering operators L_a, a = (atom, Cartesian axis):
    D_k of atom 1, then of atom 2, as read-only 16x16 blocks."""
    dips = dipole_components()
    out = np.concatenate([np.kron(dips, _EYE4[None]),
                          np.kron(_EYE4[None], dips)])
    out.flags.writeable = False
    return out


def _generator_terms(xi: float, n_hat, mode: str) -> tuple:
    """What the generator of one configuration is built from: the
    weighted conjugate lowering operators W_b = sum_a 2 Re A_ab conj(L_a),
    (6, 16, 16), and the 16x16 matrices right = sum_ab A_ab L_a^dag L_b
    and left = sum_ab A_ab^* L_a^dag L_b (:func:`pair_generator`)."""
    lowering = _pair_lowering()
    tensor = coupling_tensor(xi, n_hat, mode)
    rates = np.block([[0.5 * np.eye(3), tensor],
                      [tensor, 0.5 * np.eye(3)]])
    weighted = np.einsum("ab,ajl->bjl", 2.0 * rates.real, lowering.conj())
    # summed over a and the rows of L_a
    daggered = lowering.conj().reshape(-1, 16).T
    right = daggered @ np.tensordot(rates, lowering, axes=1).reshape(-1, 16)
    left = daggered @ np.tensordot(rates.conj(), lowering,
                                   axes=1).reshape(-1, 16)
    return weighted, right, left


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

    The oracle's solves build only its blocks on single coherence orders
    (:func:`_order_block`); the full matrix is their reference.
    """
    lowering = _pair_lowering()
    weighted, right, left = _generator_terms(xi, n_hat, mode)
    # vec(L_b rho L_a^dag) = (L_b kron conj(L_a)) vec(rho), row-major:
    # out[i, j, k, l], the entry (16 i + j, 16 k + l), sums
    # L_b[i, k] W_b[j, l] over b, one 16x6 by 6x16 product per (i, j)
    out = np.matmul(lowering.transpose(1, 2, 0)[:, None],
                    weighted.transpose(1, 0, 2)[None])
    diagonal = np.arange(16)
    # rho -> rho right and rho -> left rho
    out[diagonal, :, diagonal] -= right.T
    out[:, diagonal, :, diagonal] -= left
    return out.reshape(NUM_OPS_PAIR, NUM_OPS_PAIR)


def pulse_unitary(theta: float, polarization, phase: float) -> np.ndarray:
    """Single-atom pulse unitary at a given optical phase, in closed form.

    The drive H = L^dag e^{i phase} + L e^{-i phase} couples the ground
    level to one excited sublevel with unit strength, so H^3 = H and
    e^{-i theta H / 2} = Id + (cos(theta / 2) - 1) H^2 - i sin(theta / 2) H:
    exactly Id at theta = 0.  No eigendecomposition: an oracle-check
    run makes no other LAPACK eigensolver call, and the first one pages
    in about 1 MB of library code.
    """
    low = dipole_lowering(polarization)
    drive = low.conj().T * np.exp(1j * phase) + low * np.exp(-1j * phase)
    return (_EYE4 + (np.cos(0.5 * theta) - 1.0) * (drive @ drive)
            - 1j * np.sin(0.5 * theta) * drive)


@functools.lru_cache(maxsize=8)
def _harmonic_products(theta: float, polarization) -> dict:
    """Kronecker products u_q1 kron u_q2 of the laser-phase harmonics
    of the single-atom pulse unitary, {(q1, q2): read-only 16x16} for
    q1, q2 in (-1, 0, 1).

    The drive L^dag e^{i phase} + L e^{-i phase} is D (L^dag + L) D^dag
    with D = diag(e^{i phase n}), n the excitation number, so the
    unitary at any phase has the entries u(phase)_ab = e^{i phase
    (n_a - n_b)} u(0)_ab: harmonic q is u(0) on the entries with
    n_a - n_b = q.  Cached, as a run kicks with one pulse area and at
    most two polarizations.
    """
    unitary = pulse_unitary(theta, polarization, 0.0)
    change = np.subtract.outer(EXCITATIONS, EXCITATIONS)
    atom = {q: np.where(change == q, unitary, 0.0) for q in (-1, 0, 1)}
    products = {(q1, q2): np.kron(atom[q1], atom[q2])
                for q1 in atom for q2 in atom}
    for product in products.values():
        product.flags.writeable = False
    return products


def binned_kick(theta: float, polarization, position_phase: float) -> dict:
    """Laser-phase harmonics U_q of the pair unitary, {q: 16x16}.

    The pair unitary u(phase) = u1(phase + position) kron u2(phase) has
    the harmonics U_q = sum over q1 + q2 = q of e^{i q1 position}
    u_q1 kron u_q2, from the single-atom harmonics u of
    :func:`_harmonic_products`: exact, and band-limited to |q| <= 2.
    Atom 1 sees the laser phase advanced by ``position_phase``, its
    offset along the propagation axis.
    """
    products = _harmonic_products(theta, polarization)
    return {q: sum(np.exp(1j * q1 * position_phase) * product
                   for (q1, q2), product in products.items() if q1 + q2 == q)
            for q in UNITARY_HARMONICS}


def kick_harmonic(unitary: dict, p: int, states: np.ndarray) -> np.ndarray:
    """Harmonic p of the kick rho -> u rho u^dag on stacked states
    (..., 16, 16): sum_q U_q rho U_{q-p}^dag over the harmonics U_q of
    :func:`binned_kick`, zero for |p| > 4."""
    return sum((unitary[q] @ states @ unitary[q - p].conj().T
                for q in unitary if q - p in unitary),
               np.zeros(np.shape(states), dtype=complex))


@functools.cache
def coherence_orders() -> np.ndarray:
    """Coherence order of each entry of a vectorized pair state, length 256.

    Entry 16 a + b of a row-major vectorized state is rho_ab, with the
    pair state a = 4 a1 + a2 holding atom 1 in level a1 and atom 2 in
    level a2.  Its order is n(a) - n(b), where n counts the atoms
    outside the ground level |1>.
    """
    pair = np.add.outer(EXCITATIONS, EXCITATIONS).reshape(-1)
    out = np.subtract.outer(pair, pair).reshape(-1)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=5)
def _order_layout(order: int) -> tuple:
    """Index structure of the generator on one coherence order, the same
    for every configuration: the order's entries, and the flat block
    positions, the flat gathers from W, right and left laid end to end,
    and the factors of :func:`_order_block`'s terms, all read-only.

    Entry s of the order is rho_{i_s j_s}, entry 16 i_s + j_s of the
    state.  Block entry (s, t) takes L_b[i_s, i_t] W_b[j_s, j_t] for
    every b with L_b[i_s, i_t] nonzero, in increasing b, then
    -right[j_t, j_s] where i_s = i_t, then -left[i_s, i_t] where
    j_s = j_t: the terms of :func:`pair_generator` in its order of
    summation, so the block equals the full generator's restriction.
    """
    entries = np.flatnonzero(coherence_orders() == order)
    size = len(entries)
    rows, cols = np.divmod(entries, 16)
    lowering = _pair_lowering()
    positions, gathers, factors = [], [], []
    for b, single in enumerate(lowering):
        s, t = np.nonzero(single[np.ix_(rows, rows)])
        positions.append(s * size + t)
        gathers.append(b * 256 + cols[s] * 16 + cols[t])
        factors.append(single[rows[s], rows[t]])
    # right and left follow the six W_b in the gathered source
    s, t = np.nonzero(rows[:, None] == rows[None, :])
    positions.append(s * size + t)
    gathers.append(lowering.size + cols[t] * 16 + cols[s])
    s, t = np.nonzero(cols[:, None] == cols[None, :])
    positions.append(s * size + t)
    gathers.append(lowering.size + 256 + rows[s] * 16 + rows[t])
    factors.append(np.full(len(positions[-2]) + len(s), -1.0 + 0.0j))
    out = (entries, np.concatenate(positions), np.concatenate(gathers),
           np.concatenate(factors))
    for part in out:
        part.flags.writeable = False
    return out


def _order_block(terms: tuple, order: int) -> np.ndarray:
    """The generator restricted to the entries of coherence order
    ``order``, from the configuration's :func:`_generator_terms`: equal
    to ``pair_generator(...)[np.ix_(entries, entries)]``, with no 256x256
    matrix built.  One gather and one ``np.add.at`` over the cached
    :func:`_order_layout`."""
    entries, positions, gathers, factors = _order_layout(order)
    source = np.concatenate([part.reshape(-1) for part in terms])
    out = np.zeros(len(entries) ** 2, dtype=complex)
    np.add.at(out, positions, factors * source[gathers])
    return out.reshape(len(entries), len(entries))


@functools.cache
def _deflation() -> np.ndarray:
    """The rank-one update of :func:`_order_solve` on order 0, read-only:
    the ground pair times the trace covector."""
    entries = _order_layout(0)[0]
    out = np.outer(ground_pair_vec()[entries], _EYE16.reshape(-1)[entries])
    out.flags.writeable = False
    return out


def _order_solve(block: np.ndarray, order: int, z, rhs: np.ndarray,
                 transposed: bool = False) -> np.ndarray:
    """Solve (z - block) x = rhs on coherence order ``order``, whose
    generator block is ``block`` (:func:`_order_block`), with the
    stationary pole removed, or with ``transposed`` the transposed
    system, whose solutions are covectors.

    ``z`` is one point or a 1d array of points.  For an array, the
    systems of all points are solved in one stacked call, and the
    solution has a leading axis over the points.

    The generator conserves the order (:func:`coherence_orders`), so its
    restriction to one order is exact.  It annihilates the ground-pair
    state and preserves the trace, so on order 0 shifting that single
    eigenvalue by one with a rank-one update makes the system regular at
    z = 0 while leaving the solution unchanged on trace-free right-hand
    sides (which is all the demodulated harmonics produce); any nonzero
    shift would do.  Both vectors of the update lie in order 0, so every
    other order needs none.  The transposed update is exact on
    right-hand sides that read nothing on the ground pair, as the
    detector covectors do: dotting the transposed system with the ground
    pair leaves (z + 1) times the solution's reading of the ground pair
    on the left and zero on the right, so the solution reads nothing
    there either, the update drops out, and what is left is the
    transposed resolvent equation.  At z = 0 that equation fixes its
    solution only up to multiples of the trace covector, which read
    nothing on the trace-free states the solution is dotted with.
    """
    z = np.asarray(z)
    system = z[..., None, None] * np.eye(len(block)) - block
    if order == 0:
        system += _deflation()
    if transposed:
        system = system.swapaxes(-1, -2)
    return np.linalg.solve(system, np.broadcast_to(rhs, z.shape + rhs.shape))


@functools.cache
def _detector_covectors() -> np.ndarray:
    """The detector covectors on the entries of order 0, one row per
    direction in ``DETECTION_DIRECTIONS``, read-only."""
    out = np.stack([detection_covector_vec(d) for d in DETECTION_DIRECTIONS])
    out = out[:, _order_layout(0)[0]]
    out.flags.writeable = False
    return out


def demodulated_laplace(xi: float, n_hat, theta: float, kappas, channels,
                        z1_values) -> dict:
    """Demodulated detected Laplace components of the full dynamics.

    Computes, without any perturbative truncation, the coefficient of
    e^{i kappa (phase_2 - phase_1)} in the fluorescence intensity,
    Laplace transformed in the interpulse delay and integrated over the
    detection time: harmonic -kappa of pulse 1 and +kappa of each pulse
    2 (:func:`kick_harmonic`) on 16x16 states, and the two time
    integrals as exact resolvent solves of the full generator, the
    second at z2 = 0.

    Each solve runs on the one coherence order its states occupy, on
    the generator's block there (:func:`_order_block`), and no 256x256
    matrix is built.  The rotating-wave generator conserves the order
    n(a) - n(b): a jump L_b rho L_a^dag lowers both sides by one
    excitation, and L_a^dag L_b keeps one side's count.  Kick harmonic p
    shifts the order by exactly p: each atom's unitary carries the laser
    phase as e^{+i phase} per raising and e^{-i phase} per lowering, so
    U_q changes the excitation count by q and U_q rho U_{q-p}^dag the
    order by p.  Pulse 1's harmonic -kappa takes the ground pair to
    order -kappa (60 entries for kappa = 1, 9 for kappa = 2), and each
    pulse 2's +kappa takes it back to order 0 (118 entries), where the
    detector covectors and the deflation live.  Each kappa takes one
    stacked call that solves every z1 point on order -kappa, with no
    deflation.

    Detection runs from the detector side.  A component is c R0 K r:
    c a detector covector, R0 the resolvent at z2 = 0, K pulse 2's
    harmonic kappa and r a z1 solution.  One transposed z2 = 0 solve on
    order 0, with the two covectors as its right-hand sides, gives the
    readers y = R0^T c (:func:`_order_solve` says why its deflation is
    exact there).  Each reader is pulled back through K as
    W = sum_q U_q^T Y conj(U_{q-kappa}), Y the reader as a 16x16
    matrix, which lies in order -kappa, and dotted with the z1
    solutions: len(z1_values) systems per kappa, 60x60 for kappa = 1
    and 9x9 for kappa = 2, and one 118x118, and no detected state is
    built.

    Returns:
        dict mapping (kappa, channel, direction) to an array of
        components over ``z1_values``.
    """
    n = np.asarray(n_hat, dtype=float)
    position = xi * n[2] / np.linalg.norm(n)
    terms = _generator_terms(xi, n, "exact")
    z1_arr = np.atleast_1d(np.asarray(z1_values, dtype=complex))
    unitaries = {pol: binned_kick(theta, pol, position) for pol in
                 {FIRST_POLARIZATION, *map(SECOND_POLARIZATION.get, channels)}}
    ground = ground_pair_vec().reshape(16, 16)
    # readers[i]: detector i's covector resolved at z2 = 0, a 16x16
    # matrix, zero outside order 0
    readers = np.zeros((len(DETECTION_DIRECTIONS), NUM_OPS_PAIR),
                       dtype=complex)
    readers[:, _order_layout(0)[0]] = _order_solve(
        _order_block(terms, 0), 0, 0.0, _detector_covectors().T,
        transposed=True).T
    readers = readers.reshape(-1, 16, 16)
    out = {}
    for kappa in kappas:
        interpulse = _order_layout(-kappa)[0]
        first = kick_harmonic(unitaries[FIRST_POLARIZATION], -kappa,
                              ground).reshape(-1)[interpulse]
        # between[j]: pulse 1's harmonic resolved at z1_arr[j]
        between = _order_solve(_order_block(terms, -kappa), -kappa, z1_arr,
                               first[:, None])[..., 0]
        for channel in channels:
            unitary = unitaries[SECOND_POLARIZATION[channel]]
            # kick_harmonic on the transposed harmonics: sum_q U_q^T Y
            # conj(U_{q-kappa}), read on the z1 solutions' entries
            pulled = kick_harmonic({q: u.T for q, u in unitary.items()},
                                   kappa, readers)
            values = (pulled.reshape(len(readers), -1)[:, interpulse]
                      @ between.T)
            for i, d in enumerate(DETECTION_DIRECTIONS):
                out[(kappa, channel, d)] = values[i]
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


def _term_table(axis, rows: dict, z1: np.ndarray, kappa: int,
                channel: str) -> TermTable:
    """Term table of a chain's ``rows`` on its z1 ``axis``, a dict from
    (phase exponent, tags) to rows of shape (2, axis size).

    Keys with no entry above ``TERM_FLOOR`` of the largest entry among
    ``rows``, both measured on the axis, are the roundoff of exactly
    cancelling monomials.  They are dropped before the rest, sorted by
    ``repr``, are evaluated on the grid ``z1``, so a long grid costs only
    the kept keys.  With no key kept (a zero pulse area prunes every
    monomial), ``coeffs`` has shape (0, 2, len(z1)).
    """
    keys = list(rows)
    every = np.array([rows[key] for key in keys], dtype=complex).reshape(
        len(keys), len(DETECTION_DIRECTIONS), axis.size)
    largest = np.abs(every).max(axis=(1, 2), initial=0.0)
    floor = TERM_FLOOR * largest.max(initial=0.0)
    kept = sorted(np.flatnonzero(largest > floor).tolist(),
                  key=lambda t: repr(keys[t]))
    keys = [keys[t] for t in kept]
    stacked = every[kept]
    return TermTable(
        phase_exponents=tuple(key[0] for key in keys),
        tags=tuple(key[1] for key in keys),
        coeffs=_on_grid(axis, stacked, z1),
        z1_values=z1,
        kappa=kappa,
        channel=channel,
    )


def demodulated_term_table(orders, theta: float, channel: str, kappa: int,
                           z1_values) -> TermTable:
    """Collect the detected rows of the demodulated perturbative chain
    into a term table, one term per (phase exponent, tags) key.

    The rows come from one cached chain over every order in ``orders``
    (:func:`mqcsim.expansion._chain`), which the table of the other
    channel at the same arguments reads too.  The table leaves out the
    keys below ``TERM_FLOOR`` (:func:`_term_table`).
    """
    z1 = np.atleast_1d(np.asarray(z1_values, dtype=complex))
    axis, rows = _chain(tuple(orders), tuple(z1), theta, kappa)
    return _term_table(axis, rows[channel], z1, kappa, channel)


def _term_weights(phase_exponents, tags, xi: np.ndarray, n_hat: np.ndarray,
                  mode: str) -> np.ndarray:
    """Numeric weight of every term per configuration, (T, B): its phase
    e^{i m xi n_z} times the product of its coupling factors.

    The phase is computed once per distinct exponent, and the factors
    are gathered one tag position at a time, shorter tag lists padded
    with a row of exact ones, so each term multiplies its factors in
    its own order, as a loop over terms would."""
    tensors = coupling_tensor(xi, n_hat, mode)
    position = np.asarray(xi) * np.asarray(n_hat)[:, 2]
    factors = np.array([tensor_tag_value(tensors, tag) for tag in TAG_KEYS]
                       + [np.ones(len(position))], dtype=complex)
    column = {tag: i for i, tag in enumerate(TAG_KEYS)}
    depth = max(map(len, tags), default=0)
    gathered = np.full((depth, len(tags)), len(TAG_KEYS))
    for t, term in enumerate(tags):
        gathered[:len(term), t] = [column[tag] for tag in term]
    exponents, which = np.unique(np.asarray(phase_exponents, dtype=int),
                                 return_inverse=True)
    phases = np.empty((len(exponents), len(position)), dtype=complex)
    for i, exponent in enumerate(exponents.tolist()):
        phases[i] = np.exp(1j * exponent * position)
    # blocks of terms, so that a temporary holds at most 2^15 weights
    weights = np.empty((len(tags), len(position)), dtype=complex)
    step = max(1, 2**15 // len(position))
    for lo in range(0, len(tags), step):
        block = phases[which[lo:lo + step]]
        for rows in gathered[:, lo:lo + step]:
            block *= factors[rows]
        weights[lo:lo + step] = block
    return weights


def fixed_configuration_components(table: TermTable, xi,
                                   n_hat) -> dict:
    """Demodulated detected components of the truncated chain held in
    ``table`` (from :func:`demodulated_term_table`) at one configuration
    or a batch of them, on the table's z1 grid, with the exact coupling
    tensor; the perturbative counterpart of :func:`demodulated_laplace`.

    ``xi`` is a scalar and ``n_hat`` a 3-vector, or ``xi`` has shape (B,)
    and ``n_hat`` shape (B, 3); the values per direction then have shape
    (B, z1 points).  One :func:`_term_weights` call prices every
    configuration.
    """
    xi = np.asarray(xi, dtype=float)
    n = np.asarray(n_hat, dtype=float)
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    weights = _term_weights(table.phase_exponents, table.tags,
                            xi.reshape(-1), n.reshape(-1, 3), "exact")
    # one product per configuration: each is summed as if priced alone
    values = np.stack([np.tensordot(column, table.coeffs, axes=(0, 0))
                       for column in weights.T], axis=1)
    return dict(zip(DETECTION_DIRECTIONS,
                    values.reshape(values.shape[:1] + xi.shape + (-1,))))


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


def surviving_term_table(theta: float, channel: str, kappa: int,
                         z1_values) -> TermTable:
    """Term table of the monomials whose disorder average survives.

    The closed-form disorder average keeps exactly the terms with zero
    net position phase that carry either no coupling factor or a
    factor-conjugate pair; every other term averages to zero only up to
    window-endpoint oscillation residues of relative order
    1/(xi window width).  Sampling only these families makes the
    Monte-Carlo mean an unbiased estimate of the closed form.

    The table reads the zero-phase chain of orders 0 and 2 that
    :func:`mqcsim.disorder.averaged_solution` weights, from the same
    cache, and keeps its keys with no tag or a mixed-kind tag pair, less
    those below ``TERM_FLOOR`` of the largest kept key
    (:func:`_term_table`).  The chain serves both channels, so the table
    of the other channel at the same arguments, and the closed form of
    either, read it back.
    """
    z1 = np.atleast_1d(np.asarray(z1_values, dtype=complex))
    axis, rows = _chain((0, 2), tuple(z1), theta, kappa, True, False)
    kept = {(exponent, pair): row
            for (exponent, pair), row in rows[channel].items()
            if not pair or pair[0][0] != pair[1][0]}
    return _term_table(axis, kept, z1, kappa, channel)


def _weight_moments(phase_exponents, tags, n_samples: int, seed: int,
                    window, mode: str) -> tuple:
    """Mean weight w per term and 2T x 2T centred scatter of (Re w, Im w),
    combined over ``MC_BATCH`` draws at a time as Chan, Golub and LeVeque."""
    if n_samples < 2:
        raise ValueError("need at least two configurations for a "
                         "standard error")
    terms = len(tags)
    rng = np.random.default_rng(seed)
    running_mean = np.zeros(2 * terms)
    scatter = np.zeros((2 * terms, 2 * terms))
    done = 0
    while done < n_samples:
        count = min(MC_BATCH, n_samples - done)
        xi, n_hat = sample_configurations(rng, count, window)
        weights = _term_weights(phase_exponents, tags, xi, n_hat, mode)
        features = np.concatenate([weights.real, weights.imag])
        batch_mean = features.mean(axis=1)
        centred = features - batch_mean[:, None]
        delta = batch_mean - running_mean
        scatter += (centred @ centred.T
                    + (done * count / (done + count)) * np.outer(delta, delta))
        running_mean += delta * (count / (done + count))
        done += count
    return running_mean[:terms] + 1j * running_mean[terms:], scatter


def monte_carlo_spectrum(table: TermTable, n_samples: int, *, seed: int,
                         window=SEPARATION_WINDOW,
                         mode: str = "exact") -> tuple:
    """Monte-Carlo disorder average of per-configuration spectra.

    Each sampled configuration (separation, axis direction) is priced
    through the chain held in ``table`` with the coupling factors at
    their numeric values; the mean estimates the disorder-averaged
    spectrum that :func:`mqcsim.spectra.spectrum` computes in closed
    form.  A spectrum is linear in the T term weights w, so only the
    weights are sampled, by :func:`_weight_moments`: the mean spectrum
    is the mean weight times the table's rows, the variances of Re S and
    Im S the quadratic forms of the scatter matrix with [Re c, -Im c] and
    [Im c, Re c], c a row.  Neither cost nor memory of the sampling
    depends on the detuning count.  Every draw prices both detectors:
    one series per table row.  The series take their kappa and channel
    from the table and their detunings from the table's z1 grid, which
    must be purely imaginary; their ``errors`` hold the standard error
    of the mean, real and imaginary parts packed as a complex number.

    Args:
        table: term table from :func:`surviving_term_table`, which
            holds only the phase monomials the closed-form average
            keeps, so the mean is an unbiased estimate of the closed
            form; or from :func:`demodulated_term_table`, which samples
            the whole truncated chain, whose mean retains
            window-endpoint residues of the oscillating families, a
            relative bias of order 1/(xi window width) that the small
            perpendicular two-quantum channel resolves at the percent
            level.
        n_samples: configuration count, at least two so that the
            standard error is defined.

    Returns:
        tuple of SpectrumSeries, one per direction in
        ``DETECTION_DIRECTIONS`` order.
    """
    if np.any(table.z1_values.real != 0.0):
        raise ValueError("term table z1 grid must be purely imaginary "
                         "(i times the detunings)")
    detunings = table.z1_values.imag.copy()
    mean_weight, scatter = _weight_moments(
        table.phase_exponents, table.tags, n_samples, seed, window, mode)
    rows = table.coeffs / SPECTRAL_DENSITY_NORM
    mean = np.tensordot(mean_weight, rows, axes=(0, 0))

    def variance(forms):
        # forms (2T, directions, detunings): one quadratic form per column
        return np.sum(forms * np.tensordot(scatter, forms, axes=(1, 0)),
                      axis=0)

    spread = (variance(np.concatenate([rows.real, -rows.imag]))
              + 1j * variance(np.concatenate([rows.imag, rows.real])))
    # the forms cancel to roundoff where a part vanishes in every sample
    scale = (n_samples - 1.0) * n_samples
    errors = (np.sqrt(np.maximum(spread.real, 0.0) / scale)
              + 1j * np.sqrt(np.maximum(spread.imag, 0.0) / scale))
    return tuple(
        SpectrumSeries(detunings=detunings, values=mean[d],
                       kappa=table.kappa, channel=table.channel,
                       direction=direction, errors=errors[d])
        for d, direction in enumerate(DETECTION_DIRECTIONS))


def monte_carlo_pair_averages(pairs, n_samples: int, *, seed: int,
                              window=SEPARATION_WINDOW,
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
    keys = [(tag_a, tag_b, exponent) for tag_a, tag_b, exponent in pairs]
    mean, scatter = _weight_moments([key[2] for key in keys],
                                    [key[:2] for key in keys],
                                    n_samples, seed, window, mode)
    spread = np.sqrt(np.diag(scatter) / (n_samples * (n_samples - 1.0)))
    errors = spread[:len(keys)] + 1j * spread[len(keys):]
    return {key: (mean[t], errors[t]) for t, key in enumerate(keys)}
