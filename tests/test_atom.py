"""Tests for single-atom pulses, decay propagation, and resolvents."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqcsim.atom import (
    PoleError,
    decay_eigensystem,
    decay_generator,
    dipole_components,
    dipole_lowering,
    excited_projector,
    free_propagator,
    ground_projector,
    kick_decomposition,
    resolvent,
    two_pulse_pure_states,
)
from mqcsim.basis import (
    build_single_atom_basis,
    dagger_permutation,
    expand,
    matrix_unit,
    reconstruct,
    sandwich_matrix,
)


def _random_hermitian(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return m + m.conj().T


def test_dipole_component_matrix_elements():
    d_x, d_y, d_z = dipole_components()
    s12, s13, s14 = matrix_unit(1, 2), matrix_unit(1, 3), matrix_unit(1, 4)
    assert np.allclose(d_x, (s14 - s12) / np.sqrt(2))
    assert np.allclose(d_y, 1j * (s14 + s12) / np.sqrt(2))
    assert np.allclose(d_z, s13)
    # lowering operators: ground row only, and D_k D_l^dag = delta_kl |1><1|
    for a in (d_x, d_y, d_z):
        for b in (d_x, d_y, d_z):
            want = ground_projector() if a is b else np.zeros((4, 4))
            assert np.allclose(a @ b.conj().T, want, atol=1e-15)


def test_dipole_lowering_accepts_labels_and_vectors():
    assert np.allclose(dipole_lowering("z"), dipole_components()[2])
    tilted = dipole_lowering([1.0, 1.0, 0.0])
    want = (dipole_components()[0] + dipole_components()[1]) / np.sqrt(2)
    assert np.allclose(tilted, want)
    with pytest.raises(ValueError):
        dipole_lowering("q")
    with pytest.raises(ValueError):
        dipole_lowering([0.0, 0.0, 0.0])


def test_projectors_sum_to_identity():
    assert np.allclose(excited_projector() + ground_projector(), np.eye(4))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_kick_harmonics_assemble_to_unitary_conjugation(seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.05, 3.0)
    phi = rng.uniform(0.0, 2 * np.pi)
    pol = rng.choice(["x", "y", "z"])
    kick = kick_decomposition(theta, pol)
    u = kick.unitary(phi)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    assembled = kick.as_matrix(phi)
    assert np.allclose(assembled, sandwich_matrix(u, u.conj().T), atol=1e-12)


def test_kick_preserves_trace_and_hermiticity():
    basis = build_single_atom_basis()
    trace_row = np.array([np.trace(q) for q in basis])
    kick = kick_decomposition(0.7, "x")
    for p in range(-2, 3):
        got = trace_row @ kick.harmonic(p)
        want = trace_row if p == 0 else np.zeros(16)
        assert np.allclose(got, want, atol=1e-12)
    rng = np.random.default_rng(11)
    for phi in (0.0, 1.3):
        mat = kick.as_matrix(phi)
        out = reconstruct(mat @ expand(_random_hermitian(rng)))
        assert np.allclose(out, out.conj().T, atol=1e-12)
        # conjugation by a unitary is unitary in the trace inner product
        assert np.allclose(mat.conj().T @ mat, np.eye(16), atol=1e-12)


def test_kick_on_ground_state():
    theta, phi = 0.9, 0.4
    kick = kick_decomposition(theta, "x")
    ground = np.array([1.0, 0, 0, 0], dtype=complex)
    psi = kick.unitary(phi) @ ground
    ket_x = np.array([0, -1.0, 0, 1.0], dtype=complex) / np.sqrt(2)
    want = np.cos(theta / 2) * ground - 1j * np.exp(1j * phi) * np.sin(theta / 2) * ket_x
    assert np.allclose(psi, want, atol=1e-14)


def test_two_pulse_states_match_closed_forms():
    theta, phi1, phi2 = 0.8, 0.3, 1.9
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    ket_x = np.array([0, -1.0, 0, 1.0], dtype=complex) / np.sqrt(2)
    ket_y = np.array([0, 1.0, 0, 1.0], dtype=complex) / (np.sqrt(2) * 1j)
    ground = np.array([1.0, 0, 0, 0], dtype=complex)

    psi_par, coeffs_par = two_pulse_pure_states(theta, "parallel", phi1, phi2)
    want = ((c**2 - np.exp(1j * (phi1 - phi2)) * s**2) * ground
            - 1j * (np.exp(1j * phi1) + np.exp(1j * phi2)) * s * c * ket_x)
    assert np.allclose(psi_par, want, atol=1e-14)
    assert np.isclose(np.linalg.norm(psi_par), 1.0, atol=1e-14)
    assert np.allclose(reconstruct(coeffs_par), np.outer(psi_par, psi_par.conj()))

    psi_perp, _ = two_pulse_pure_states(theta, "perpendicular", phi1, phi2)
    want = (c**2 * ground - 1j * np.exp(1j * phi1) * s * ket_x
            - 1j * np.exp(1j * phi2) * s * c * ket_y)
    assert np.allclose(psi_perp, want, atol=1e-14)
    assert np.isclose(np.linalg.norm(psi_perp), 1.0, atol=1e-14)

    # the |x><y| coherence Tr{rho |x><y|} = <y|rho|x> oscillates at the
    # pulse phase difference
    got = np.vdot(ket_y, psi_perp) * np.vdot(psi_perp, ket_x)
    assert np.isclose(got, s**2 * c * np.exp(-1j * (phi1 - phi2)), atol=1e-14)


def test_in_phase_half_pulses_compose_to_full_pulse():
    psi, _ = two_pulse_pure_states(np.pi / 2, "parallel", 0.7, 0.7)
    assert abs(psi[0]) < 1e-14


def test_propagator_identity_semigroup_and_adjoint():
    for picture in ("state", "observable"):
        assert np.allclose(free_propagator(0.0, picture=picture), np.eye(16), atol=1e-14)
        p1 = free_propagator(0.35, picture=picture)
        p2 = free_propagator(1.1, picture=picture)
        p12 = free_propagator(1.45, picture=picture)
        assert np.allclose(p1 @ p2, p12, atol=1e-10)
    obs = free_propagator(0.8, picture="observable")
    sta = free_propagator(0.8, picture="state")
    assert np.allclose(obs, sta.conj().T, atol=1e-13)


def test_propagator_moves_population_to_ground():
    t = 0.6
    decayed = np.exp(-t)
    # state picture: an excited population relaxes into the ground state
    rho0 = expand(matrix_unit(3, 3))
    rho_t = reconstruct(free_propagator(t, picture="state") @ rho0)
    want = decayed * matrix_unit(3, 3) + (1 - decayed) * matrix_unit(1, 1)
    assert np.allclose(rho_t, want, atol=1e-13)
    # observable picture: the ground projector climbs onto excited states
    q_t = reconstruct(free_propagator(t, picture="observable")
                      @ expand(matrix_unit(1, 1)))
    want = matrix_unit(1, 1) + (1 - decayed) * (np.eye(4) - matrix_unit(1, 1))
    assert np.allclose(q_t, want, atol=1e-13)


def test_propagator_matches_generator_exponential():
    from scipy.linalg import expm

    for picture in ("state", "observable"):
        gen = decay_generator(picture=picture)
        assert np.allclose(expm(gen * 0.77), free_propagator(0.77, picture=picture),
                           atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_resolvent_inverts_generator(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal() + 1j * rng.normal()
    if min(abs(z), abs(z + 0.5), abs(z + 1.0)) < 1e-3:
        z += 0.01
    for picture in ("state", "observable"):
        gen = decay_generator(picture=picture)
        g = resolvent(z, picture=picture)
        assert np.allclose((z * np.eye(16) - gen) @ g, np.eye(16), atol=1e-10)


def test_resolvent_poles_and_stationary_restriction():
    with pytest.raises(PoleError):
        resolvent(0.0)
    with pytest.raises(PoleError):
        resolvent(-0.5)
    with pytest.raises(PoleError):
        resolvent(-1.0)
    # the restricted resolvent is finite at z = 0 and differs from the
    # full one by exactly the stationary pole
    z = 0.3 + 0.2j
    for picture in ("state", "observable"):
        full = resolvent(z, picture=picture)
        reduced = resolvent(z, picture=picture, restrict_stationary=True)
        basis = build_single_atom_basis()
        if picture == "state":
            target = expand(matrix_unit(1, 1))
            weights = np.array([np.trace(q) for q in basis])
        else:
            target = expand(np.eye(4, dtype=complex))
            weights = np.array([q[0, 0] for q in basis])
        pole = np.outer(target, weights) / z
        assert np.allclose(full, reduced + pole, atol=1e-12)
        reduced0 = resolvent(0.0, picture=picture, restrict_stationary=True)
        assert np.all(np.isfinite(reduced0))


def test_resolvent_is_laplace_transform():
    from scipy.integrate import quad

    z = 0.4
    g = resolvent(z, picture="state")
    rho0 = expand(_random_hermitian(np.random.default_rng(3)))

    def integrand(t, idx):
        vec = free_propagator(t, picture="state") @ rho0
        return np.exp(-z * t) * vec[idx].real

    numeric = np.array([quad(integrand, 0, 60, args=(i,), limit=200)[0]
                        for i in range(16)])
    assert np.allclose(numeric, (g @ rho0).real, atol=1e-7)


def test_decay_eigensystem_diagonalizes_generator():
    eig = decay_eigensystem()
    gen = decay_generator(picture="state")
    assert np.allclose(gen @ eig.modes, eig.modes * eig.rates, atol=1e-13)
    assert np.isclose(eig.rates[0], 0.0)
    assert np.allclose(reconstruct(eig.modes[:, 0]), matrix_unit(1, 1))
    counts = {0.0: 1, -0.5: 6, -1.0: 9}
    for rate, num in counts.items():
        assert np.sum(np.isclose(eig.rates, rate)) == num


def test_picture_adjoint_swaps_expectation_sides():
    rng = np.random.default_rng(7)
    rho = expand(_random_hermitian(rng))
    obs = expand(_random_hermitian(rng))
    perm = dagger_permutation()
    t = 0.9
    forward = free_propagator(t, picture="state") @ rho
    backward = free_propagator(t, picture="observable") @ obs
    # Tr{Q (P rho)} == Tr{(P^dag Q) rho} with coefficients paired as
    # sum_n conj(c_Q)_n c_rho_n
    lhs = np.vdot(obs, forward)
    rhs = np.vdot(backward, rho)
    assert np.isclose(lhs, rhs, atol=1e-12)
    # hermitian inputs stay hermitian along the way
    assert np.allclose(np.conj(forward)[perm], forward, atol=1e-13)
