"""Tests for the brute-force oracle against the perturbative pipeline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

from mqcsim import disorder, expansion, oracle
from mqcsim.atom import dipole_lowering, kick_decomposition
from mqcsim.basis import sandwich_matrix
from mqcsim.coupling import coupling_tensor, tensor_tag_value
from mqcsim.disorder import angular_average, mean_inverse_xi_squared
from mqcsim.oracle import (
    MC_BATCH,
    _generator_terms,
    _order_block,
    _order_solve,
    _term_weights,
    binned_kick,
    coherence_orders,
    demodulated_laplace,
    demodulated_term_table,
    detection_covector_vec,
    fixed_configuration_components,
    ground_pair_vec,
    kick_harmonic,
    monte_carlo_pair_averages,
    monte_carlo_spectrum,
    pair_generator,
    pulse_unitary,
    sample_configurations,
    surviving_term_table,
)
from mqcsim.expansion import (TERM_FLOOR, _detection_covector,
                              scattering_solution)
from mqcsim.spectra import (DETECTION_DIRECTIONS, directional_spectra,
                            spectrum)
from reference import (decay_generator, excited_projector, free_propagator,
                       interaction_generator, pair_basis_columns, pair_kick)
from transient import (IntegrationError, OracleRun, _propagate,
                       numeric_demodulate, time_domain_evolve)

#: pulse area and geometry used throughout unless a test needs otherwise
THETA = 0.14 * np.pi
WINDOW = (67.2, 92.8)


def _random_axis(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    return axis / np.linalg.norm(axis)


def _random_hermitian_states(seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = (rng.normal(size=(count, 16, 16))
           + 1j * rng.normal(size=(count, 16, 16)))
    return raw + raw.conj().transpose(0, 2, 1)


def _reference_kick_harmonics(theta, polarization, position_phase) -> dict:
    # a 64-sample discrete Fourier transform of the 256x256 reference
    # kick resolves every harmonic up to 31 without aliasing
    phases = 2.0 * np.pi * np.arange(64) / 64
    kicks = np.stack([pair_kick(theta, polarization, phase, position_phase)
                      for phase in phases])
    return {p: np.tensordot(np.exp(-1j * p * phases), kicks, axes=1) / 64
            for p in range(-5, 6)}


def _uncoupled_generator() -> np.ndarray:
    # near-field coupling at a huge separation is ~ 1/xi^3, i.e. zero at
    # double precision, leaving the pure two-atom decay generator
    return pair_generator(1e9, np.array([0.0, 0.0, 1.0]), mode="near_field")


@pytest.mark.parametrize("mode", ["exact", "far_field", "near_field"])
def test_pair_generator_matches_operator_basis_assembly(mode):
    # the oracle builds the generator from the rate matrix over
    # vectorized states; the pipeline builds it over the
    # trace-orthonormal operator basis; the unitary basis map must carry
    # one exactly onto the other
    xi, n_hat = 7.3, _random_axis(0)
    gen = pair_generator(xi, n_hat, mode=mode)
    decay = decay_generator()
    eye = np.eye(16)
    basis_space = np.kron(decay, eye) + np.kron(eye, decay)
    tensor = coupling_tensor(xi, n_hat, mode=mode)
    basis_space = basis_space + interaction_generator(tensor)
    columns = pair_basis_columns()
    mapped = columns @ basis_space @ columns.conj().T
    assert np.max(np.abs(gen - mapped)) < 1e-12


def test_pair_generator_preserves_trace_and_ground():
    gen = pair_generator(42.0, _random_axis(1))
    trace_covector = np.eye(16, dtype=complex).reshape(-1)
    assert np.max(np.abs(trace_covector @ gen)) < 1e-13
    assert np.max(np.abs(gen @ ground_pair_vec())) == 0.0


def test_pair_generator_matches_finite_difference_of_propagator():
    # second-order one-sided difference of the integrated flow at
    # t = 1e-6 reproduces the generator's action
    gen = pair_generator(11.0, _random_axis(2))
    state = pair_kick(0.9, "x", 0.3, 2.0) @ ground_pair_vec()
    dt = 1e-6
    cols = _propagate(gen, state, np.array([dt, 2.0 * dt]), 1e-12)
    derivative = (4.0 * cols[:, 0] - cols[:, 1] - 3.0 * state) / (2.0 * dt)
    assert np.max(np.abs(derivative - gen @ state)) < 1e-8


def test_decay_part_matches_closed_form_free_propagator():
    # central difference of the exact single-atom decay map (promoted to
    # the pair by a Kronecker product) against the uncoupled generator
    gen = _uncoupled_generator()
    columns = pair_basis_columns()
    state = pair_kick(0.7, "y", 0.1, 0.0) @ ground_pair_vec()
    dt = 1e-6
    def free_pair(t):
        single = free_propagator(t)
        return columns @ np.kron(single, single) @ columns.conj().T
    derivative = (free_pair(dt) - free_pair(-dt)) @ state / (2.0 * dt)
    assert np.max(np.abs(derivative - gen @ state)) < 1e-8


def test_pulse_unitary_is_the_exponential_of_its_drive(monkeypatch):
    # the closed form needs no eigensolver: an oracle-check run makes no
    # other eigensolver call, whose first call pages in LAPACK code
    def refused(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    monkeypatch.setattr(np.linalg, "eig", refused)
    for theta in (0.0, 0.14 * np.pi, 1.3, 2 * np.pi, 3.9 * np.pi):
        for polarization in ("x", "y", "z"):
            low = dipole_lowering(polarization)
            for phi in (0.0, 0.9, -4.1):
                drive = (low.conj().T * np.exp(1j * phi)
                         + low * np.exp(-1j * phi))
                u = pulse_unitary(theta, polarization, phi)
                np.testing.assert_allclose(u, expm(-0.5j * theta * drive),
                                           rtol=0, atol=1e-14)
    assert np.array_equal(pulse_unitary(0.0, "y", 0.9), np.eye(4))


def test_pulse_unitary_matches_kick_decomposition():
    # the closed-form unitary conjugates as the kick harmonics, summed at the
    # optical phase, map the density operator
    for theta in (0.8, 0.0, 2 * np.pi):
        for polarization in ("x", "y", "z"):
            kick = kick_decomposition(theta, polarization)
            for phi in (0.0, 0.9, 4.1):
                u = pulse_unitary(theta, polarization, phi)
                assembled = sum(np.exp(1j * p * phi) * harmonic
                                for p, harmonic in kick.items())
                assert np.allclose(sandwich_matrix(u, u.conj().T), assembled,
                                   atol=1e-12)


def test_pair_kick_factorizes_over_atoms():
    theta, phi, position = 0.52, 1.3, 0.8
    u1 = pulse_unitary(theta, "y", phi + position)
    u2 = pulse_unitary(theta, "y", phi)
    rho = np.outer(ground_pair_vec(), ground_pair_vec().conj())[:16, :16]
    rho = np.kron(rho[:4, :4], rho[:4, :4])  # |11><11| again, explicit
    u_pair = np.kron(u1, u2)
    direct = (u_pair @ rho @ u_pair.conj().T).reshape(-1)
    via_kick = pair_kick(theta, "y", phi, position) @ rho.reshape(-1)
    assert np.max(np.abs(direct - via_kick)) < 1e-14


def test_binned_kick_is_exact_at_band_limit():
    # the closed-form harmonics of the 16x16 pair unitary reproduce every
    # harmonic of the reference kick, on random Hermitian states as on
    # the ground pair
    unitary = binned_kick(0.44, "x", 0.7)
    assert sorted(unitary) == list(range(-2, 3))
    assert all(u.shape == (16, 16) for u in unitary.values())
    reference = _reference_kick_harmonics(0.44, "x", 0.7)
    states = np.concatenate([_random_hermitian_states(0, 4),
                             ground_pair_vec().reshape(1, 16, 16)])
    size = np.max(np.abs(states), axis=(1, 2))
    for p, harmonic in reference.items():
        want = (states.reshape(len(states), -1) @ harmonic.T).reshape(
            states.shape)
        got = kick_harmonic(unitary, p, states)
        assert got.shape == states.shape
        assert np.all(np.max(np.abs(got - want), axis=(1, 2)) < 1e-13 * size)
    # the pair kick really does carry the +-4 harmonics, the products of
    # the unitary's +-2 ones, and nothing beyond them
    for p in (-4, 4):
        assert np.max(np.abs(reference[p])) > 1e-5
    for p in (-5, 5):
        assert np.max(np.abs(reference[p])) < 1e-14
        assert not np.any(kick_harmonic(unitary, p, states))


@pytest.mark.parametrize("polarization", ["x", "y"])
def test_kick_harmonics_resum_to_the_pair_kick_off_grid(polarization):
    # the harmonics of the pair unitary rebuild the kick at an arbitrary
    # laser phase
    theta, phase, position = 0.44, 0.3, 0.7
    unitary = binned_kick(theta, polarization, position)
    states = _random_hermitian_states(1, 3)
    resummed = sum(kick_harmonic(unitary, p, states) * np.exp(1j * p * phase)
                   for p in range(-4, 5))
    direct = (states.reshape(len(states), -1)
              @ pair_kick(theta, polarization, phase, position).T)
    size = np.max(np.abs(states), axis=(1, 2))
    assert np.all(np.max(np.abs(resummed.reshape(len(states), -1) - direct),
                         axis=1) < 1e-13 * size)


def test_coherence_orders_are_the_excitation_number_commutator():
    # rho -> [N, rho], N the pair's excitation number, is diagonal on
    # vectorized states with the coherence orders on its diagonal
    excited = excited_projector()
    number = np.kron(excited, np.eye(4)) + np.kron(np.eye(4), excited)
    eye = np.eye(16)
    commutator = np.kron(number, eye) - np.kron(eye, number.T)
    assert np.array_equal(commutator, np.diag(coherence_orders()))
    orders, sizes = np.unique(coherence_orders(), return_counts=True)
    assert dict(zip(orders, sizes)) == {-2: 9, -1: 60, 0: 118, 1: 60, 2: 9}


@pytest.mark.parametrize("mode", ["exact", "far_field", "near_field"])
def test_pair_generator_conserves_coherence_order(mode):
    # exact zeros between different orders, not roundoff: the solves
    # restricted to one order drop nothing
    orders = coherence_orders()
    across = orders[:, None] != orders[None, :]
    for seed, xi in enumerate((0.7, 3.1, 42.0, 1000.0)):
        gen = pair_generator(xi, _random_axis(20 + seed), mode=mode)
        assert np.all(gen[across] == 0.0)
        assert np.max(np.abs(gen[~across])) > 0.0


def test_detection_and_deflation_lie_in_order_zero():
    outside = coherence_orders() != 0
    for direction in DETECTION_DIRECTIONS:
        assert np.all(detection_covector_vec(direction)[outside] == 0.0)
    assert np.all(ground_pair_vec()[outside] == 0.0)
    assert np.all(np.eye(16).reshape(-1)[outside] == 0.0)


@pytest.mark.parametrize("polarization", ["x", "y"])
def test_kick_harmonics_shift_coherence_order_by_their_index(polarization):
    # harmonic p moves a state's order by exactly p: each harmonic of
    # the unitary is exactly zero off its change of excitation number,
    # so the kick puts nothing, not even roundoff, anywhere else
    orders = coherence_orders()
    for theta in (THETA, 0.9, 2.5):
        for position in (0.0, 12.0, -37.3):
            unitary = binned_kick(theta, polarization, position)
            scale = np.max(np.abs(pair_kick(theta, polarization, 0.0,
                                            position)))
            for kappa in (1, 2):
                first = kick_harmonic(unitary, -kappa,
                                      ground_pair_vec().reshape(16, 16))
                first = first.reshape(-1)
                # the images of every matrix unit of order -kappa, one per
                # row: the columns of the kick harmonic on that order
                units = np.eye(256)[orders == -kappa].reshape(-1, 16, 16)
                second = kick_harmonic(unitary, kappa, units).reshape(
                    len(units), -1)
                assert not np.any(first[orders != -kappa])
                assert not np.any(second[:, orders != 0])
                assert np.max(np.abs(first)) > 1e-3 * scale
                assert np.max(np.abs(second)) > 1e-3 * scale


@pytest.mark.parametrize("xi", [0.7, 3.0, 80.0, 1000.0])
def test_order_blocks_are_the_generator_restricted_to_each_order(xi):
    # the blocks are summed term by term in the full generator's order,
    # so they equal its restriction exactly, not to roundoff
    orders = coherence_orders()
    for seed in range(3):
        n_hat = _random_axis(30 + seed)
        gen = pair_generator(xi, n_hat)
        terms = _generator_terms(xi, n_hat, "exact")
        for order in range(-2, 3):
            sector = np.flatnonzero(orders == order)
            assert np.array_equal(_order_block(terms, order),
                                  gen[np.ix_(sector, sector)])


def test_demodulated_laplace_builds_no_full_generator(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("pair_generator called")

    monkeypatch.setattr(oracle, "pair_generator", refused)
    out = demodulated_laplace(80.0, _random_axis(2), THETA, (1, 2),
                              ("parallel", "perpendicular"),
                              1j * np.linspace(-3.0, 3.0, 7))
    assert len(out) == 8


def test_deflated_solve_is_exact_resolvent_on_trace_free_input():
    # the pulse-1 states on orders -1 and -2, one solve per order as the
    # oracle makes it, and their pulse-2 states on order 0, where the
    # deflation acts; each solution, put back into the full space,
    # solves the full resolvent equation
    xi, n_hat = 30.0, _random_axis(3)
    gen = pair_generator(xi, n_hat)
    terms = _generator_terms(xi, n_hat, "exact")
    unitary = binned_kick(THETA, "x", 12.0)
    trace_covector = np.eye(16, dtype=complex).reshape(-1)
    ground = ground_pair_vec().reshape(16, 16)
    first = np.stack([kick_harmonic(unitary, -kappa, ground).reshape(-1)
                      for kappa in (1, 2)], axis=1)
    second = np.stack([kick_harmonic(unitary, kappa,
                                     first[:, k].reshape(16, 16)).reshape(-1)
                       for k, kappa in enumerate((1, 2))], axis=1)
    orders = coherence_orders()
    for rhs, order in ((first[:, :1], -1), (first[:, 1:], -2), (second, 0)):
        sector = np.flatnonzero(orders == order)
        block = _order_block(terms, order)
        assert np.max(np.abs(trace_covector @ rhs)) < 1e-14
        assert not np.any(rhs[orders != order])
        for z in (0.0, 0.3 + 1.1j):
            solution = np.zeros_like(rhs)
            solution[sector] = _order_solve(block, order, z, rhs[sector])
            residual = z * solution - gen @ solution - rhs
            assert np.max(np.abs(residual)) < 1e-12
            assert np.max(np.abs(trace_covector @ solution)) < 1e-12
        # an array of points solves every point's system in one stacked
        # call, with the solutions along a leading axis
        points = np.array([0.0, 0.3 + 1.1j, -0.2j])
        stacked = _order_solve(block, order, points, rhs[sector])
        assert stacked.shape == (len(points),) + rhs[sector].shape
        for z, solution in zip(points, stacked):
            np.testing.assert_allclose(
                solution, _order_solve(block, order, z, rhs[sector]),
                rtol=0, atol=1e-13)


def test_time_domain_evolve_matches_matrix_exponential():
    n_hat = _random_axis(11)
    xi = 40.0
    run = OracleRun(xi=xi, n_hat=tuple(n_hat), theta=0.44,
                    channel="perpendicular",
                    tau_grid=np.array([0.0, 0.9]),
                    t_fl_grid=np.array([0.0, 1.1]),
                    phi_samples=np.array([0.0, 1.3]))
    out = time_domain_evolve(run)
    gen = pair_generator(xi, n_hat)
    kick1 = pair_kick(0.44, "x", 0.0, xi * n_hat[2])
    for direction in ("x", "y"):
        covector = detection_covector_vec(direction)
        expected = np.empty((2, 2, 2))
        for i, phi in enumerate(run.phi_samples):
            kick2 = pair_kick(0.44, "y", phi, xi * n_hat[2])
            for j, tau in enumerate(run.tau_grid):
                mid = kick2 @ expm(gen * tau) @ kick1 @ ground_pair_vec()
                for m, t_fl in enumerate(run.t_fl_grid):
                    expected[i, j, m] = (covector @ expm(gen * t_fl) @ mid).real
        assert np.max(np.abs(out[direction] - expected)) < 1e-12


def test_single_pulse_population_decay_without_coupling():
    # one pulse of area theta leaves each atom with excited population
    # sin^2(theta/2), which then decays exponentially
    theta = 0.73
    gen = _uncoupled_generator()
    state = pair_kick(theta, "x", 0.0, 0.0) @ ground_pair_vec()
    number = np.diag([0.0, 1.0, 1.0, 1.0])
    population = (np.kron(number, np.eye(4))
                  + np.kron(np.eye(4), number)).T.reshape(-1)
    grid = np.array([0.0, 0.4, 1.3, 2.7])
    cols = _propagate(gen, state, grid, 1e-10)
    expected = 2.0 * np.sin(theta / 2.0) ** 2 * np.exp(-grid)
    assert np.max(np.abs((population @ cols).real - expected)) < 1e-10


def test_zero_pulse_area_gives_zero_intensity():
    run = OracleRun(xi=40.0, n_hat=tuple(_random_axis(4)), theta=0.0,
                    channel="parallel", tau_grid=np.array([0.5]),
                    t_fl_grid=np.array([0.8]),
                    phi_samples=np.array([0.0]))
    out = time_domain_evolve(run)
    assert max(np.max(np.abs(out[d])) for d in ("x", "y")) < 1e-14


def test_propagate_validates_grid_and_reports_failure():
    gen = -np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        _propagate(gen, np.ones(2, dtype=complex), np.array([0.5, 0.2]),
                   1e-10)
    with pytest.raises(ValueError):
        _propagate(gen, np.ones(2, dtype=complex), np.array([-0.1, 0.2]),
                   1e-10)
    blowup = np.array([[1e9 + 0.0j]])
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(IntegrationError):
            _propagate(blowup, np.ones(1, dtype=complex), np.array([1.0]),
                       1e-10)


def test_state_stays_physical_along_coupled_trajectory():
    xi, n_hat = 40.0, _random_axis(11)
    gen = pair_generator(xi, n_hat)
    kick1 = pair_kick(0.44, "x", 0.0, xi * n_hat[2])
    kick2 = pair_kick(0.44, "y", 1.3, xi * n_hat[2])
    mid = kick2 @ expm(gen * 0.9) @ kick1 @ ground_pair_vec()
    trajectory = _propagate(gen, mid, np.linspace(0.0, 3.0, 7), 1e-10)
    for column in trajectory.T:
        rho = column.reshape(16, 16)
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        populations = np.diag(rho).real
        assert populations.min() > -1e-10
        assert populations.max() < 1.0 + 1e-10


def test_demodulation_examples():
    phases = 2.0 * np.pi * np.arange(8) / 8
    constant = np.ones((8, 3))
    assert np.max(np.abs(numeric_demodulate(constant, 0) - 1.0)) < 1e-14
    assert np.max(np.abs(numeric_demodulate(constant, 1))) < 1e-14
    cosine = np.cos(phases)[:, None] * np.ones((1, 3))
    for harmonic in (1, -1):
        extracted = numeric_demodulate(cosine, harmonic)
        assert np.max(np.abs(extracted - 0.5)) < 1e-14


@settings(deadline=None, max_examples=25)
@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                           allow_infinity=False),
        min_size=5, max_size=5),
    count=st.integers(min_value=5, max_value=12),
)
def test_demodulation_recovers_band_limited_harmonics(coeffs, count):
    phases = 2.0 * np.pi * np.arange(count) / count
    harmonics = np.arange(-2, 3)
    signal = np.stack([np.exp(1j * h * phases) for h in harmonics],
                      axis=1) @ np.asarray(coeffs)
    for h, c in zip(harmonics, coeffs):
        assert abs(numeric_demodulate(signal, int(h)) - c) < 1e-10


def test_perpendicular_one_quantum_demodulation_requires_exchange():
    # without photon exchange the crossed-polarizer intensity carries no
    # phase dependence at all (the two pulses address orthogonal
    # transitions), so the l = +-1 harmonics vanish identically; the
    # dipole-dipole coupling makes them genuinely nonzero
    base = dict(theta=THETA, channel="perpendicular",
                tau_grid=np.array([0.4, 1.1]),
                t_fl_grid=np.array([0.3, 0.9]),
                phi_samples=2.0 * np.pi * np.arange(8) / 8)
    free = time_domain_evolve(OracleRun(xi=1e9, n_hat=(0.0, 0.0, 1.0),
                                        mode="near_field", **base))
    coupled = time_domain_evolve(OracleRun(xi=80.0, n_hat=tuple(_random_axis(6)),
                                           **base))
    for direction in ("x", "y"):
        scale = np.max(np.abs(free[direction]))
        for harmonic in (1, -1):
            off = np.max(np.abs(numeric_demodulate(free[direction], harmonic)))
            assert off < 1e-12 * scale
        on = np.max(np.abs(numeric_demodulate(coupled[direction], 1)))
        assert on > 1e-8 * scale


def test_time_integral_of_transient_matches_resolvent_component():
    # the Laplace component assembled from two linear solves must equal
    # the literal time integral of the propagated, demodulated transient
    xi, n_hat, kappa = 21.0, _random_axis(8), 1
    z1 = 0.4 + 0.9j
    position = xi * n_hat[2]
    gen = pair_generator(xi, n_hat)
    unitary = binned_kick(THETA, "x", position)
    first = kick_harmonic(unitary, -kappa, ground_pair_vec().reshape(16, 16))
    tau = np.linspace(0.0, 30.0, 1201)
    between = _propagate(gen, first.reshape(-1), tau, 1e-12)
    kicked = kick_harmonic(unitary, kappa, between.T.reshape(-1, 16, 16))
    kicked = kicked.reshape(len(tau), -1).T
    deflation = np.outer(ground_pair_vec(), np.eye(16).reshape(-1))
    collected = np.linalg.solve(-gen + deflation, kicked)
    reference = demodulated_laplace(xi, n_hat, THETA, (kappa,),
                                    ("parallel",), np.array([z1]))
    for direction in ("x", "y"):
        integrand = (detection_covector_vec(direction) @ collected
                     * np.exp(-z1 * tau))
        numeric = simpson(integrand, x=tau)
        exact = reference[(kappa, "parallel", direction)][0]
        assert abs(numeric - exact) < 1e-5 * abs(exact)


def test_demodulated_laplace_matches_truncated_chain():
    # at large separation the perturbative chain through second order
    # reproduces the untruncated Laplace components; residuals are the
    # neglected third-and-higher photon exchanges
    # one call serves every (kappa, channel) pair
    n_hat = _random_axis(9)
    z1 = 1j * np.array([-2.0, -0.5, 0.0, 0.7, 2.3])
    exact = demodulated_laplace(1000.0, n_hat, THETA, (1, 2),
                                ("parallel", "perpendicular"), z1)
    table = demodulated_term_table((0, 1, 2), THETA, "parallel", 1, z1)
    approx = fixed_configuration_components(table, 1000.0, n_hat)
    scale = np.max(np.abs(exact[(1, "parallel", "y")]))
    assert np.max(np.abs(approx["y"] - exact[(1, "parallel", "y")])) \
        < 1e-6 * scale
    table = demodulated_term_table((0, 1, 2), THETA, "perpendicular", 2, z1)
    approx = fixed_configuration_components(table, 1000.0, n_hat)
    for direction in ("x", "y"):
        reference = exact[(2, "perpendicular", direction)]
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(approx[direction] - reference)) < 1e-4 * scale


def test_stacked_laplace_equals_one_call_per_column():
    # one call shares the z2 solve between every (kappa, channel) and
    # stacks the z1 points of each kappa in one solve; one call per
    # column shares no stacking with it.  The kappa = 2 perpendicular
    # components are 1e-10 of the largest, a cancellation whose roundoff
    # is relative to the cancelling parts, so their bound is per entry
    # and looser.
    xi, n_hat = 80.0, _random_axis(9)
    kappas, channels = (1, 2), ("parallel", "perpendicular")
    z1 = np.array([0.3 - 1.2j, -0.5j, 0.0, 0.7j, 1.0 + 2.3j])
    stacked = demodulated_laplace(xi, n_hat, THETA, kappas, channels, z1)
    assert sorted(stacked) == sorted(
        (kappa, channel, d) for kappa in kappas for channel in channels
        for d in DETECTION_DIRECTIONS)
    scale = max(np.max(np.abs(row)) for row in stacked.values())
    for kappa in kappas:
        for channel in channels:
            for j in range(len(z1)):
                single = demodulated_laplace(xi, n_hat, THETA, (kappa,),
                                             (channel,), z1[j:j + 1])
                for d in DETECTION_DIRECTIONS:
                    got = stacked[(kappa, channel, d)][j]
                    want = single[(kappa, channel, d)][0]
                    assert abs(got - want) < 1e-12 * scale
                    assert abs(got - want) < 1e-8 * abs(want)


def test_demodulated_laplace_solves_once_per_z1_and_once_at_z2(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(matrix, rhs):
        calls.append((matrix.shape, rhs.shape))
        return solve(matrix, rhs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    z1 = 1j * np.linspace(-3.0, 3.0, 7)
    demodulated_laplace(80.0, _random_axis(2), THETA, (1, 2),
                        ("parallel", "perpendicular"), z1)
    # one transposed z2 solve on order 0 with the two detector
    # covectors as right-hand sides, then per kappa the seven z1 solves
    # on order -kappa (60 and 9 entries), stacked in one call
    assert calls == [((118, 118), (118, 2)), ((7, 60, 60), (7, 60, 1)),
                     ((7, 9, 9), (7, 9, 1))]


def test_laplace_allocation_peak_is_bounded():
    # the traced peak of one warm call of oracle-check's shape: per-order
    # blocks and solves, no 256x256 generator (2.14 MiB with one)
    args = (80.0, _random_axis(2), THETA, (1, 2),
            ("parallel", "perpendicular"), 1j * np.linspace(-3.0, 3.0, 7))
    demodulated_laplace(*args)
    tracemalloc.start()
    try:
        demodulated_laplace(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_sector_laplace_matches_full_space_solve():
    # every component against the deflated resolvent on all 256 entries
    xi, n_hat = 12.0, _random_axis(11)
    kappas, channels = (1, 2), ("parallel", "perpendicular")
    z1 = np.array([0.0, -2.0j, 0.8j, 0.5 - 1.3j, 2.0 + 0.4j])
    got = demodulated_laplace(xi, n_hat, THETA, kappas, channels, z1)
    gen = pair_generator(xi, n_hat)
    deflation = np.outer(ground_pair_vec(), np.eye(16).reshape(-1))
    # the harmonics of the 256x256 reference kick
    kicks = {pol: _reference_kick_harmonics(THETA, pol, xi * n_hat[2])
             for pol in ("x", "y")}
    second = {"parallel": "x", "perpendicular": "y"}
    # the kappa = 2 perpendicular components are a cancellation far
    # below the others, so the bound is relative to the largest one
    scale = max(np.max(np.abs(row)) for row in got.values())
    for kappa in kappas:
        first = kicks["x"][-kappa] @ ground_pair_vec()
        between = np.stack([np.linalg.solve(z * np.eye(256) - gen
                                            + deflation, first)
                            for z in z1], axis=1)
        for channel in channels:
            collected = np.linalg.solve(
                -gen + deflation, kicks[second[channel]][kappa] @ between)
            for direction in DETECTION_DIRECTIONS:
                want = detection_covector_vec(direction) @ collected
                assert np.max(np.abs(got[(kappa, channel, direction)]
                                     - want)) < 1e-12 * scale


def test_a_batch_of_configurations_is_priced_as_each_alone():
    # one call over B configurations, unnormalized axes included, gives
    # each configuration's components bit for bit as a call for it alone
    z1 = 1j * np.linspace(-3.0, 3.0, 7)
    table = demodulated_term_table((0, 1, 2, 3), THETA, "parallel", 1, z1)
    xi = np.array([40.0, 80.0, 80.0, 1000.0])
    axes = np.stack([3.0 * _random_axis(seed) for seed in range(4)])
    batch = fixed_configuration_components(table, xi, axes)
    assert list(batch) == list(DETECTION_DIRECTIONS)
    for b in range(len(xi)):
        alone = fixed_configuration_components(table, xi[b], axes[b])
        for direction, values in alone.items():
            assert values.shape == (7,)
            assert batch[direction].shape == (len(xi), 7)
            assert np.array_equal(batch[direction][b], values)


def test_single_exchange_component_is_even_in_axis_sign():
    # the odd-order detected components pair their +-m position-phase
    # families into a cosine, so flipping the separation axis leaves
    # them unchanged (and they are genuinely nonzero)
    n_hat = _random_axis(10)
    z1 = 1j * np.linspace(-3.0, 3.0, 7)
    table = demodulated_term_table((1,), THETA, "parallel", 1, z1)
    plus = fixed_configuration_components(table, 80.0, n_hat)
    minus = fixed_configuration_components(table, 80.0, -n_hat)
    scale = np.max(np.abs(plus["y"]))
    assert scale > 1e-4
    assert np.max(np.abs(plus["y"] - minus["y"])) < 1e-10 * scale


def _forward_rows(order, z1, kappa, channel):
    """Term-table rows of the forward chain: every monomial of
    ``scattering_solution`` projected on the conjugated detector
    covectors and merged by (atom-1 phase exponent, tags)."""
    covectors = np.stack([_detection_covector(d).conj()
                          for d in DETECTION_DIRECTIONS])
    merged = {}
    for monomial, coeffs in scattering_solution(
            order, z1, THETA, channel=channel, kappa=kappa).items():
        key = (monomial.atom_net[0], monomial.tags)
        merged[key] = merged.get(key, 0.0) + covectors @ coeffs
    return merged


@pytest.mark.parametrize("kappa", [1, 2])
@pytest.mark.parametrize("channel", ["parallel", "perpendicular"])
def test_forward_chain_is_symmetric_under_atom_exchange(kappa, channel):
    """Swapping the atoms maps the key (e, tags) to (-e, tags), and the
    state, pulses, decay, interaction and detectors are all invariant
    under it, so the unhalved forward chain, which builds both mirror
    halves, holds equal rows at e and -e; the chain driver builds one
    half and folds it onto the other.  Keys of different orders differ
    in their number of tags, so orders 0-3 share one dict and one peak."""
    z1 = 1j * np.linspace(-3.0, 3.0, 7)
    rows = {key: value for order in (0, 1, 2, 3)
            for key, value in _forward_rows(order, z1, kappa,
                                            channel).items()}
    peak = max(np.max(np.abs(value)) for value in rows.values())
    assert peak > 1e-4
    mirrored = [key for key in rows if key[0] != 0]
    assert len(mirrored) > 400
    for exponent, tags in mirrored:
        mirror = rows.get((-exponent, tags), 0.0)
        assert np.max(np.abs(rows[(exponent, tags)] - mirror)) <= (
            1e-15 * peak), (exponent, tags)


@pytest.mark.parametrize("kappa", [1, 2])
@pytest.mark.parametrize("channel", ["parallel", "perpendicular"])
def test_term_table_matches_forward_chain(kappa, channel):
    """The detector-first table against the forward chain, order by order
    and over all four orders at once, where the orders share their
    prefixes and one z1 axis.

    Both builds leave some keys whose rows are roundoff of the order of
    1e-17 of the table's peak where the other build cancels them
    exactly, so the key sets are compared above 1e-13 of the peak and
    the rows over the union, absent rows reading as zero.  The table is
    built on the reference's five points, where every order carries the
    grid, and on a 41-point grid holding them as every tenth point, where
    every order carries exact pole labels and is evaluated at the end.
    """
    grid = 0.25 + 1j * np.linspace(-2.0, 2.0, 5)
    wanted = {(order,): _forward_rows(order, grid, kappa, channel)
              for order in (0, 1, 2, 3)}
    # keys of different orders differ in their number of tags
    wanted[(0, 1, 2, 3)] = {key: rows for want in list(wanted.values())
                            for key, rows in want.items()}
    peaks = {orders: max(np.max(np.abs(rows)) for rows in want.values())
             for orders, want in wanted.items()}
    overall = max(peaks.values())
    assert overall > 1e-4
    zero = np.zeros((len(DETECTION_DIRECTIONS), len(grid)))
    for z1, every in ((grid, 1),
                      (0.25 + 1j * np.linspace(-2.0, 2.0, 41), 10)):
        np.testing.assert_allclose(z1[::every], grid, rtol=0, atol=1e-15)
        for orders, want in wanted.items():
            table = demodulated_term_table(orders, THETA, channel, kappa, z1)
            got = dict(zip(zip(table.phase_exponents, table.tags),
                           table.coeffs[:, :, ::every]))
            if peaks[orders] < 1e-14 * overall:
                # a vanishing order (the order-0 perpendicular one-quantum
                # signal, say) is roundoff in both builds
                assert all(np.max(np.abs(rows)) < 1e-14 * overall
                           for rows in got.values())
                continue
            peak = peaks[orders]

            def significant(rows):
                return {key for key, value in rows.items()
                        if np.max(np.abs(value)) > 1e-13 * peak}

            assert significant(got) == significant(want)
            for key in set(got) | set(want):
                difference = got.get(key, zero) - want.get(key, zero)
                assert np.max(np.abs(difference)) <= 1e-12 * peak, (
                    len(z1), orders, key)


def test_term_table_holds_only_contributing_terms():
    """Every kept key has a row entry above TERM_FLOOR of the table's
    largest entry; the roundoff of exactly cancelling keys is left out.
    The chain carries 7 points as a grid and 41 on its 13 pole labels,
    where it applies the floor before evaluating on the grid."""
    cases = [(kappa, channel, count)
             for kappa, channel in ((1, "parallel"), (2, "perpendicular"))
             for count in (7, 41)]
    for kappa, channel, count in cases:
        z1 = 1j * np.linspace(-3.0, 3.0, count)
        table = demodulated_term_table((0, 1, 2), THETA, channel, kappa, z1)
        assert len(table.tags) > 0
        peak = np.max(np.abs(table.coeffs))
        for rows in table.coeffs:
            assert np.max(np.abs(rows)) > TERM_FLOOR * peak
        assert len(set(zip(table.phase_exponents, table.tags))) == len(
            table.tags)
        # the forward chain's keys above the floor are exactly the table's
        forward = {}
        for order in (0, 1, 2):
            for key, rows in _forward_rows(order, z1, kappa, channel).items():
                forward[key] = forward.get(key, 0.0) + rows
        assert {key for key, rows in forward.items()
                if np.max(np.abs(rows)) > TERM_FLOOR * peak} == set(
                    zip(table.phase_exponents, table.tags))


@pytest.mark.parametrize("mode", ["exact", "far_field"])
def test_term_weights_are_the_per_term_products(mode):
    """The gathered weights against a loop over terms, each its phase
    times its factors in order, bit for bit, on a table of terms of 0 to
    3 tags: at one configuration, and on a batch whose terms are
    weighted a few at a time."""
    table = demodulated_term_table((0, 1, 2, 3), THETA, "parallel", 1,
                                   1j * np.linspace(-3.0, 3.0, 7))
    assert {len(term) for term in table.tags} == {0, 1, 2, 3}
    rng = np.random.default_rng(3)
    for count in (1, MC_BATCH):
        xi, n_hat = sample_configurations(rng, count, (20.0, 80.0))
        tensors = coupling_tensor(xi, n_hat, mode)
        position = xi * n_hat[:, 2]
        want = []
        for exponent, term in zip(table.phase_exponents, table.tags):
            w = np.exp(1j * exponent * position)
            for tag in term:
                w = w * tensor_tag_value(tensors, tag)
            want.append(w)
        got = _term_weights(table.phase_exponents, table.tags, xi, n_hat,
                            mode)
        assert np.array_equal(got, np.array(want))
    assert _term_weights((), (), xi, n_hat, mode).shape == (0, count)


def test_term_table_on_a_long_grid_holds_little_beyond_its_rows():
    """The chain drops its roundoff keys before it evaluates its pole
    labels on the grid: at 10,001 points the kept 16 keys hold 5.1 MB,
    where evaluating all 395 keys first peaked at 135 MB."""
    z1 = 1j * np.linspace(-10.0, 10.0, 10001)
    tracemalloc.start()
    try:
        table = demodulated_term_table((0, 2), THETA, "parallel", 1, z1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.coeffs.nbytes < 6e6
    assert peak < 40e6


def _surviving_table(kappa, channel, detunings):
    return surviving_term_table(THETA, channel, kappa, 1j * detunings)


@pytest.mark.parametrize("kappa, channel", [
    (1, "parallel"), (1, "perpendicular"), (2, "parallel"),
    (2, "perpendicular")])
@pytest.mark.parametrize("points", [7, 41])
@pytest.mark.parametrize("theta", [THETA, 0.8, 1.3])
def test_surviving_table_holds_the_surviving_keys_of_the_chain(
        theta, points, kappa, channel):
    # the zero-phase chain's table against the table of every phase,
    # cut down to the families the average keeps: zero phase exponent,
    # and no tag or two tags of different kinds
    z1 = 1j * np.linspace(-3.0, 3.0, points)
    full = demodulated_term_table((0, 2), theta, channel, kappa, z1)
    want = [t for t, (exponent, tags) in
            enumerate(zip(full.phase_exponents, full.tags))
            if exponent == 0 and (
                not tags or (len(tags) == 2 and tags[0][0] != tags[1][0]))]
    kept = surviving_term_table(theta, channel, kappa, z1)
    assert kept.phase_exponents == tuple(full.phase_exponents[t]
                                         for t in want)
    assert kept.tags == tuple(full.tags[t] for t in want)
    assert np.array_equal(kept.coeffs, full.coeffs[want])
    assert np.array_equal(kept.z1_values, z1)
    assert (kept.kappa, kept.channel) == (kappa, channel)
    # keys in one fixed order, so that a run sums the terms in one order
    for table in (full, kept):
        keys = list(zip(table.phase_exponents, table.tags))
        assert keys == sorted(keys, key=repr)


def test_chain_cache_hands_every_reader_the_same_read_only_rows(
        monkeypatch):
    # the closed form and the sampled table at the same arguments read
    # one cached chain, from a cold cache: the same arrays, none writable
    expansion._chain.cache_clear()
    read = []

    def recorded(*args):
        read.append(expansion._chain(*args))
        return read[-1]

    for module in (disorder, oracle):
        monkeypatch.setattr(module, "_chain", recorded)
    detunings = np.linspace(-2.0, 2.0, 9)
    directional_spectra(1, "parallel", DETECTION_DIRECTIONS, THETA,
                        detunings, xi_bar=80.0)
    surviving_term_table(THETA, "parallel", 1, 1j * detunings)
    assert len(read) == 2 and read[0] is read[1]
    assert expansion._chain.cache_info().misses == 1
    _, rows = read[0]
    assert list(rows) == ["parallel", "perpendicular"]
    for by_key in rows.values():
        assert by_key
        for row in by_key.values():
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0, 0] = 1.0


def test_monte_carlo_is_deterministic():
    table = _surviving_table(1, "parallel", np.linspace(-2.0, 2.0, 5))
    first = monte_carlo_spectrum(table, 400, seed=5)
    second = monte_carlo_spectrum(table, 400, seed=5)
    other = monte_carlo_spectrum(table, 400, seed=6)
    for a, b, c in zip(first, second, other):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.errors, b.errors)
        assert not np.array_equal(a.values, c.values)
    # one configuration has no standard error
    with pytest.raises(ValueError):
        monte_carlo_spectrum(table, 1, seed=9)


@pytest.mark.parametrize("n_samples", [600, MC_BATCH + 904])
def test_monte_carlo_errors_are_the_sample_standard_error(n_samples):
    """Batched centred sums reproduce the two-pass mean and standard error.

    The per-configuration spectra are priced one at a time from the same
    seed's draws, taken in the batches the sampler takes; past one batch
    the batches' sums combine.  Both detectors come from the same draws.
    """
    table = _surviving_table(1, "parallel", np.linspace(-2.0, 2.0, 5))
    result = monte_carlo_spectrum(table, n_samples, seed=5)
    rng = np.random.default_rng(5)
    traces = []
    for start in range(0, n_samples, MC_BATCH):
        count = min(MC_BATCH, n_samples - start)
        for xi, n_hat in zip(*sample_configurations(rng, count, WINDOW)):
            components = fixed_configuration_components(table, xi, n_hat)
            traces.append([components[d] / np.sqrt(2.0 * np.pi)
                           for d in DETECTION_DIRECTIONS])
    traces = np.array(traces)
    root_n = np.sqrt(n_samples)
    for d, series in enumerate(result):
        np.testing.assert_allclose(series.values, traces[:, d].mean(axis=0),
                                   rtol=1e-10, atol=0)
        for part in (np.real, np.imag):
            want = part(traces[:, d]).std(axis=0, ddof=1) / root_n
            # Im S at resonance is roundoff in every configuration, and so
            # is its error, which the two pricings round differently
            np.testing.assert_allclose(part(series.errors), want,
                                       rtol=1e-10, atol=1e-10 * np.max(want))


def test_monte_carlo_matches_per_sample_spectra_of_the_full_table():
    """Mean and standard error from the weights' scatter matrix against
    the spectra priced one configuration at a time, on whole tables,
    whose terms include the oscillating families and nearly cancel."""
    detunings = np.linspace(-3.0, 3.0, 9)
    n_samples = 200
    for kappa, channel in ((1, "parallel"), (2, "perpendicular")):
        table = demodulated_term_table((0, 1, 2), THETA, channel, kappa,
                                       1j * detunings)
        result = monte_carlo_spectrum(table, n_samples, seed=8)
        rng = np.random.default_rng(8)
        traces = np.array([
            [fixed_configuration_components(table, xi, n_hat)[d]
             / np.sqrt(2.0 * np.pi) for d in DETECTION_DIRECTIONS]
            for xi, n_hat in zip(*sample_configurations(rng, n_samples,
                                                        WINDOW))])
        for d, series in enumerate(result):
            mean = traces[:, d].mean(axis=0)
            np.testing.assert_allclose(series.values, mean, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(mean)))
            for part in (np.real, np.imag):
                want = part(traces[:, d]).std(axis=0, ddof=1) / np.sqrt(
                    n_samples)
                np.testing.assert_allclose(part(series.errors), want,
                                           rtol=1e-10,
                                           atol=1e-10 * np.max(want))


def test_monte_carlo_prices_every_detector():
    table = _surviving_table(1, "parallel", np.linspace(-2.0, 2.0, 5))
    series = monte_carlo_spectrum(table, 10, seed=5)
    assert tuple(s.direction for s in series) == DETECTION_DIRECTIONS
    # the y detector sees the one-quantum parallel line, the x detector
    # only its small interaction part
    x, y = (np.max(np.abs(s.values)) for s in series)
    assert 0.0 < x < 1e-3 * y


def test_monte_carlo_series_takes_its_chain_from_the_table():
    detunings = np.linspace(-2.0, 2.0, 5)
    for kappa, channel in ((1, "perpendicular"), (2, "parallel")):
        table = demodulated_term_table((0, 1, 2), THETA, channel, kappa,
                                       1j * detunings)
        for passed in (table, surviving_term_table(THETA, channel, kappa,
                                                   1j * detunings)):
            for series in monte_carlo_spectrum(passed, 10, seed=11):
                assert (series.kappa, series.channel) == (kappa, channel)
                assert np.array_equal(series.detunings, detunings)
    # a z1 grid off the imaginary axis names no detunings
    shifted = demodulated_term_table((0,), THETA, "parallel", 1,
                                     0.5 + 1j * detunings)
    with pytest.raises(ValueError):
        monte_carlo_spectrum(shifted, 10, seed=11)


def test_monte_carlo_matches_closed_form_average():
    detunings = np.linspace(-3.0, 3.0, 9)
    for kappa, channel, direction in ((1, "parallel", "y"),
                                      (2, "perpendicular", "x")):
        table = _surviving_table(kappa, channel, detunings)
        sampled = monte_carlo_spectrum(table, 20000, seed=42)[
            DETECTION_DIRECTIONS.index(direction)]
        closed = spectrum(kappa, channel, direction, THETA, detunings,
                          window=WINDOW)
        difference = sampled.values - closed.values
        sigma_re = np.maximum(sampled.errors.real, 1e-300)
        sigma_im = np.maximum(sampled.errors.imag, 1e-300)
        assert np.max(np.abs(difference.real) / sigma_re) < 3.0
        assert np.max(np.abs(difference.imag) / sigma_im) < 3.0


def test_surviving_families_average_to_closed_form_exactly():
    """Deterministic quadrature over (separation, axis) of the term table.

    The surviving families reproduce the closed-form average to
    quadrature precision; the complete chain retains the window-endpoint
    residue of the oscillating same-kind pairs, which the small
    perpendicular two-quantum channel resolves at the percent level.
    """
    z1 = np.array([0.0 + 0.0j])
    full = demodulated_term_table((0, 1, 2), THETA, "perpendicular", 2, z1)
    kept = surviving_term_table(THETA, "perpendicular", 2, z1)
    assert 0 < len(kept.tags) < len(full.tags)
    for exponent, tags in zip(kept.phase_exponents, kept.tags):
        assert exponent == 0
        assert len(tags) in (0, 2)
        if tags:
            assert tags[0][0] != tags[1][0]

    nodes, weights_xi = np.polynomial.legendre.leggauss(48)
    lo, hi = WINDOW
    xi_nodes = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    weights_xi = weights_xi / 2.0
    cos_nodes, cos_weights = np.polynomial.legendre.leggauss(96)
    phi = 2.0 * np.pi * np.arange(16) / 16
    sin_nodes = np.sqrt(1.0 - cos_nodes**2)
    n_hat = np.stack([np.outer(sin_nodes, np.cos(phi)).ravel(),
                      np.outer(sin_nodes, np.sin(phi)).ravel(),
                      np.outer(cos_nodes, np.ones(16)).ravel()], axis=1)
    weights_sphere = np.repeat(cos_weights / 2.0, 16) / 16.0

    def quadrature(table):
        averaged = np.zeros(len(table.tags), dtype=complex)
        for xi, weight in zip(xi_nodes, weights_xi):
            batch = _term_weights(table.phase_exponents, table.tags,
                                  np.full(len(n_hat), xi), n_hat, "far_field")
            averaged += weight * (batch @ weights_sphere)
        rows = table.coeffs[:, 0, 0]
        return (averaged @ rows) / np.sqrt(2.0 * np.pi)

    closed = spectrum(2, "perpendicular", "x", THETA, np.array([0.0]),
                      window=WINDOW).values[0]
    restricted = quadrature(kept)
    complete = quadrature(full)
    assert abs(restricted - closed) < 1e-10 * abs(closed)
    residue = (complete - closed) / abs(closed)
    assert 0.01 < abs(residue) < 0.035
    assert residue.real < 0

    sampled = monte_carlo_spectrum(full, 20000, seed=7)[
        DETECTION_DIRECTIONS.index("x")]
    gap = sampled.values[0] - complete
    assert abs(gap.real) < 3.0 * sampled.errors[0].real
    assert abs(gap.imag) < 3.0 * sampled.errors[0].imag


def test_monte_carlo_pair_averages_match_isotropic_moments():
    pairs = [(("direct", 0, 0), ("conj", 0, 0), 0),
             (("direct", 0, 1), ("conj", 0, 1), 0),
             (("direct", 0, 0), ("conj", 1, 1), 0),
             (("direct", 1, 2), ("conj", 0, 2), 0)]
    results = monte_carlo_pair_averages(pairs, 50000, seed=3)
    inverse_square = mean_inverse_xi_squared(window=WINDOW)
    for (tag_a, tag_b, _), (mean, error) in results.items():
        analytic = angular_average((tag_a, tag_b), inverse_square)
        z_re = abs(mean.real - analytic.real) / max(error.real, 1e-300)
        z_im = abs(mean.imag - analytic.imag) / max(error.imag, 1e-300)
        assert max(z_re, z_im) < 3.0
    # same-kind products oscillate as e^{+-2 i xi} and average to zero
    same_kind = [(("direct", 0, 0), ("direct", 1, 1), 2),
                 (("conj", 2, 2), ("conj", 0, 0), -2)]
    for (mean, error) in monte_carlo_pair_averages(same_kind, 50000,
                                                   seed=4).values():
        assert abs(mean.real) < 3.0 * error.real
        assert abs(mean.imag) < 3.0 * error.imag


def test_monte_carlo_pair_averages_are_the_sample_standard_error():
    """Pair estimates are the two-pass mean and standard error of the
    factor products over the same seed's draws, taken in the batches the
    sampler takes; past one batch the batches' sums combine."""
    pairs = [(("direct", 0, 1), ("conj", 1, 2), 0),
             (("direct", 0, 0), ("direct", 2, 2), 2)]
    n_samples = MC_BATCH + 904
    results = monte_carlo_pair_averages(pairs, n_samples, seed=12)
    rng = np.random.default_rng(12)
    draws = [sample_configurations(rng, count, WINDOW)
             for count in (MC_BATCH, 904)]
    xi = np.concatenate([batch[0] for batch in draws])
    n_hat = np.concatenate([batch[1] for batch in draws])
    tensors = coupling_tensor(xi, n_hat, "far_field")
    for tag_a, tag_b, exponent in pairs:
        sample = (tensor_tag_value(tensors, tag_a)
                  * tensor_tag_value(tensors, tag_b)
                  * np.exp(1j * exponent * xi * n_hat[:, 2]))
        mean, error = results[(tag_a, tag_b, exponent)]
        np.testing.assert_allclose(mean, sample.mean(), rtol=1e-10, atol=0)
        for part, got in ((sample.real, error.real),
                          (sample.imag, error.imag)):
            want = part.std(ddof=1) / np.sqrt(n_samples)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_monte_carlo_pair_averages_need_two_samples():
    pairs = [(("direct", 0, 0), ("conj", 0, 0), 0)]
    with pytest.raises(ValueError):
        monte_carlo_pair_averages(pairs, 1, seed=3)


def test_sample_configurations_cover_window_isotropically():
    rng = np.random.default_rng(0)
    xi, n_hat = sample_configurations(rng, 4000, WINDOW)
    assert xi.min() >= WINDOW[0] and xi.max() <= WINDOW[1]
    assert np.max(np.abs(np.linalg.norm(n_hat, axis=1) - 1.0)) < 1e-12
    assert abs(np.mean(n_hat[:, 2])) < 0.05
    assert abs(np.mean(xi) - np.mean(WINDOW)) < 0.5
