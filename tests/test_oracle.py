"""Tests for the brute-force oracle against the perturbative pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

from mqcsim.atom import decay_generator, free_propagator, kick_decomposition
from mqcsim.coupling import coupling_tensor, interaction_matrices
from mqcsim.disorder import angular_average, mean_inverse_xi_squared
from mqcsim.oracle import (
    IntegrationError,
    OracleRun,
    _deflated_solve,
    _propagate,
    _term_weights,
    binned_kick,
    demodulated_laplace,
    demodulated_term_table,
    detection_covector_vec,
    fixed_configuration_components,
    ground_pair_vec,
    monte_carlo_pair_averages,
    monte_carlo_spectrum,
    numeric_demodulate,
    pair_basis_columns,
    pair_generator,
    pair_kick,
    pulse_unitary,
    sample_configurations,
    surviving_term_table,
    time_domain_evolve,
)
from mqcsim.spectra import spectrum

#: pulse area and geometry used throughout unless a test needs otherwise
THETA = 0.14 * np.pi
WINDOW = (67.2, 92.8)


def _random_axis(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    return axis / np.linalg.norm(axis)


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
    basis_space = basis_space + interaction_matrices(tensor).total
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


def test_pulse_unitary_matches_kick_decomposition():
    decomposition = kick_decomposition(0.8, "x")
    for phi in (0.0, 0.9, 4.1):
        assert np.allclose(pulse_unitary(0.8, "x", phi),
                           decomposition.unitary(phi), atol=1e-12)


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
    args = (0.44, "x", -1, 0.7)
    reference = binned_kick(*args, samples=64)
    assert np.max(np.abs(binned_kick(*args) - reference)) < 1e-13
    with pytest.raises(ValueError):
        binned_kick(*args, samples=5)
    # the pair kick really does carry the +-4 harmonic that makes fewer
    # than nine samples alias
    assert np.max(np.abs(binned_kick(0.44, "x", 4, 0.7, samples=16))) > 1e-5
    assert np.max(np.abs(binned_kick(0.44, "x", 5, 0.7, samples=32))) < 1e-14


def test_deflated_solve_is_exact_resolvent_on_trace_free_input():
    # two right-hand sides at once, as the oracle passes a z1 block
    gen = pair_generator(30.0, _random_axis(3))
    rhs = np.stack([binned_kick(THETA, "x", -kappa, 12.0) @ ground_pair_vec()
                    for kappa in (1, 2)], axis=1)
    trace_covector = np.eye(16, dtype=complex).reshape(-1)
    assert np.max(np.abs(trace_covector @ rhs)) < 1e-14
    for z in (0.0, 0.3 + 1.1j):
        solution = _deflated_solve(gen, z, rhs)
        assert solution.shape == rhs.shape
        assert np.max(np.abs((z * solution - gen @ solution) - rhs)) < 1e-12
        assert np.max(np.abs(trace_covector @ solution)) < 1e-12


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
    first = binned_kick(THETA, "x", -kappa, position) @ ground_pair_vec()
    tau = np.linspace(0.0, 30.0, 1201)
    between = _propagate(gen, first, tau, 1e-12)
    kicked = binned_kick(THETA, "x", kappa, position) @ between
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


def _surviving_table(kappa, channel, detunings):
    return surviving_term_table(demodulated_term_table(
        (0, 1, 2), THETA, channel, kappa, 1j * detunings))


def test_monte_carlo_is_deterministic_and_keeps_traces():
    table = _surviving_table(1, "parallel", np.linspace(-2.0, 2.0, 5))
    first = monte_carlo_spectrum(table, "y", 400, seed=5, keep_traces=2)
    second = monte_carlo_spectrum(table, "y", 400, seed=5, keep_traces=2)
    assert np.array_equal(first.series.values, second.series.values)
    assert np.array_equal(first.series.errors, second.series.errors)
    assert np.array_equal(first.traces, second.traces)
    assert first.traces.shape == (2, 5)
    assert first.window == WINDOW
    # one configuration has no standard error
    with pytest.raises(ValueError):
        monte_carlo_spectrum(table, "x", 1, seed=9, keep_traces=1)


@pytest.mark.parametrize("batch_size", [None, 128])
def test_monte_carlo_errors_are_the_sample_standard_error(batch_size):
    """Batched centred sums reproduce the two-pass standard error."""
    kwargs = {} if batch_size is None else {"batch_size": batch_size}
    table = _surviving_table(1, "parallel", np.linspace(-2.0, 2.0, 5))
    result = monte_carlo_spectrum(table, "y", 600, seed=5, keep_traces=600,
                                  **kwargs)
    root_n = np.sqrt(600)
    for part in (np.real, np.imag):
        want = part(result.traces).std(axis=0, ddof=1) / root_n
        np.testing.assert_allclose(part(result.series.errors), want,
                                   rtol=1e-10, atol=0)


def test_monte_carlo_takes_a_detector_label():
    table = _surviving_table(1, "parallel", np.linspace(-2.0, 2.0, 5))
    for direction in ("z", (0.0, 1.0, 0.0)):
        with pytest.raises(ValueError):
            monte_carlo_spectrum(table, direction, 10, seed=5)


def test_monte_carlo_series_takes_its_chain_from_the_table():
    detunings = np.linspace(-2.0, 2.0, 5)
    for kappa, channel in ((1, "perpendicular"), (2, "parallel")):
        table = demodulated_term_table((0, 1, 2), THETA, channel, kappa,
                                       1j * detunings)
        for passed in (table, surviving_term_table(table)):
            series = monte_carlo_spectrum(passed, "x", 10, seed=11).series
            assert (series.kappa, series.channel) == (kappa, channel)
            assert np.array_equal(series.detunings, detunings)
    # a z1 grid off the imaginary axis names no detunings
    shifted = demodulated_term_table((0,), THETA, "parallel", 1,
                                     0.5 + 1j * detunings)
    with pytest.raises(ValueError):
        monte_carlo_spectrum(shifted, "x", 10, seed=11)


def test_monte_carlo_matches_closed_form_average():
    detunings = np.linspace(-3.0, 3.0, 9)
    for kappa, channel, direction in ((1, "parallel", "y"),
                                      (2, "perpendicular", "x")):
        table = _surviving_table(kappa, channel, detunings)
        sampled = monte_carlo_spectrum(table, direction, 20000, seed=42)
        closed = spectrum(kappa, channel, direction, THETA, detunings,
                          window=WINDOW)
        difference = sampled.series.values - closed.values
        sigma_re = np.maximum(sampled.series.errors.real, 1e-300)
        sigma_im = np.maximum(sampled.series.errors.imag, 1e-300)
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
    full = demodulated_term_table((0, 1, 2), THETA, "perpendicular", 2,
                                  z1, 0.0)
    kept = surviving_term_table(full)
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
            batch = _term_weights(table, np.full(len(n_hat), xi), n_hat,
                                  "far_field")
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

    sampled = monte_carlo_spectrum(full, "x", 20000, seed=7)
    gap = sampled.series.values[0] - complete
    assert abs(gap.real) < 3.0 * sampled.series.errors[0].real
    assert abs(gap.imag) < 3.0 * sampled.series.errors[0].imag


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


def test_sample_configurations_cover_window_isotropically():
    rng = np.random.default_rng(0)
    xi, n_hat = sample_configurations(rng, 4000, WINDOW)
    assert xi.min() >= WINDOW[0] and xi.max() <= WINDOW[1]
    assert np.max(np.abs(np.linalg.norm(n_hat, axis=1) - 1.0)) < 1e-12
    assert abs(np.mean(n_hat[:, 2])) < 0.05
    assert abs(np.mean(xi) - np.mean(WINDOW)) < 0.5
