"""Tests for single-atom pulses and decay propagation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqcsim.atom import (
    SECOND_POLARIZATION,
    decay_eigensystem,
    dipole_components,
    dipole_lowering,
    kick_decomposition,
)
from mqcsim.basis import build_single_atom_basis, expand, matrix_unit, sandwich_matrix
from mqcsim.oracle import pulse_unitary
from reference import (decay_generator, excited_projector, free_propagator,
                       ground_projector, reconstruct)

# levels |1>, |2>, |3>, |4> are the ground level and the Cartesian
# excited levels |x>, |y>, |z>
GROUND = np.array([1.0, 0, 0, 0], dtype=complex)
KET_X = np.array([0, 1.0, 0, 0], dtype=complex)
KET_Y = np.array([0, 0, 1.0, 0], dtype=complex)


def _assembled(kick, phi):
    """The kick's density-operator map at optical phase phi."""
    return sum(np.exp(1j * p * phi) * harmonic for p, harmonic in kick.items())


def _two_pulse_state(theta, channel, phi1, phi2):
    """Pure state after pulse 1 (x) and pulse 2 on a ground-state atom."""
    u1 = pulse_unitary(theta, "x", phi1)
    u2 = pulse_unitary(theta, SECOND_POLARIZATION[channel], phi2)
    return u2 @ u1 @ GROUND


def _random_hermitian(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return m + m.conj().T


def test_dipole_component_matrix_elements():
    # D_k = |1><k| with |x>, |y>, |z> = |2>, |3>, |4>: plain matrix units
    d_x, d_y, d_z = dipole_components()
    assert np.array_equal(d_x, matrix_unit(1, 2))
    assert np.array_equal(d_y, matrix_unit(1, 3))
    assert np.array_equal(d_z, matrix_unit(1, 4))
    # lowering operators: ground row only, and D_k D_l^dag = delta_kl |1><1|
    for a in (d_x, d_y, d_z):
        for b in (d_x, d_y, d_z):
            want = ground_projector() if a is b else np.zeros((4, 4))
            assert np.array_equal(a @ b.conj().T, want)


def test_dipole_lowering_accepts_labels_and_vectors():
    assert np.allclose(dipole_lowering("z"), dipole_components()[2])
    with pytest.raises(ValueError):
        dipole_lowering("q")
    with pytest.raises(ValueError):
        dipole_lowering([1.0, 1.0, 0.0])


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
    assert sorted(kick) == [-2, -1, 0, 1, 2]
    u = pulse_unitary(theta, pol, phi)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    assembled = _assembled(kick, phi)
    assert np.allclose(assembled, sandwich_matrix(u, u.conj().T), atol=1e-12)


def test_kick_preserves_trace_and_hermiticity():
    basis = build_single_atom_basis()
    trace_row = np.array([np.trace(q) for q in basis])
    kick = kick_decomposition(0.7, "x")
    for p in range(-2, 3):
        got = trace_row @ kick[p]
        want = trace_row if p == 0 else np.zeros(16)
        assert np.allclose(got, want, atol=1e-12)
    rng = np.random.default_rng(11)
    for phi in (0.0, 1.3):
        mat = _assembled(kick, phi)
        out = reconstruct(mat @ expand(_random_hermitian(rng)))
        assert np.allclose(out, out.conj().T, atol=1e-12)
        # conjugation by a unitary is unitary in the trace inner product
        assert np.allclose(mat.conj().T @ mat, np.eye(16), atol=1e-12)


@pytest.mark.parametrize("theta", [0.44, 0.8])
@pytest.mark.parametrize("pol", ["x", "y"])
def test_kick_harmonics_off_zero_have_an_exactly_zero_trace_row(theta, pol):
    # the trace row of R_p is Tr(R_p O) / 2, zero at every p != 0 since
    # each kick conserves the trace; it holds no roundoff either
    kick = kick_decomposition(theta, pol)
    for p in (-2, -1, 1, 2):
        assert not np.any(kick[p][0])
    assert np.any(kick[1]) and np.any(kick[-1])
    want = np.zeros(16)
    want[0] = 1.0
    np.testing.assert_allclose(kick[0][0], want, rtol=0, atol=1e-15)


def test_kick_on_ground_state():
    # an x pulse drives H = |x><1| e^{i phi} + |1><x| e^{-i phi}, which
    # squares to the identity on span{|1>, |x>}, so
    # e^{-i theta H / 2} |1> = c |1> - i e^{i phi} s |x>, with
    # c = cos(theta/2), s = sin(theta/2), and |y>, |z> stay empty;
    # theta = 0 leaves the atom alone and theta = 2 pi returns it with a
    # sign flip
    phi = 0.4
    for theta in (0.9, 0.0, 2 * np.pi):
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        psi = pulse_unitary(theta, "x", phi) @ GROUND
        want = np.array([c, -1j * np.exp(1j * phi) * s, 0, 0])
        assert np.allclose(psi, want, atol=1e-14)
        assert psi[2] == 0 and psi[3] == 0


def test_two_pulse_states_match_closed_forms():
    # with c = cos(theta/2), s = sin(theta/2), a pulse along k at phase
    # phi maps |1> -> c |1> - i e^{i phi} s |k> and |k> -> c |k>
    # - i e^{-i phi} s |1>, and leaves the other two excited levels
    # alone; pulse 1 along x, then pulse 2 gives
    #   parallel (x):      (c^2 - e^{i(phi1-phi2)} s^2)|1>
    #                      - i (e^{i phi1} + e^{i phi2}) s c |x>
    #   perpendicular (y): c^2 |1> - i e^{i phi1} s |x> - i e^{i phi2} s c |y>
    # and |z> stays empty in both
    phi1, phi2 = 0.3, 1.9
    for theta in (0.8, 0.0, 2 * np.pi):
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        e1, e2 = np.exp(1j * phi1), np.exp(1j * phi2)
        psi_par = _two_pulse_state(theta, "parallel", phi1, phi2)
        want = np.array([c**2 - e1 / e2 * s**2, -1j * (e1 + e2) * s * c, 0, 0])
        assert np.allclose(psi_par, want, atol=1e-14)
        assert psi_par[2] == 0 and psi_par[3] == 0
        assert np.isclose(np.linalg.norm(psi_par), 1.0, atol=1e-14)

        psi_perp = _two_pulse_state(theta, "perpendicular", phi1, phi2)
        want = np.array([c**2, -1j * e1 * s, -1j * e2 * s * c, 0])
        assert np.allclose(psi_perp, want, atol=1e-14)
        assert psi_perp[3] == 0
        assert np.isclose(np.linalg.norm(psi_perp), 1.0, atol=1e-14)

        # the |x><y| coherence Tr{rho |x><y|} = <y|rho|x> oscillates at
        # the pulse phase difference
        got = np.vdot(KET_Y, psi_perp) * np.vdot(psi_perp, KET_X)
        assert np.isclose(got, s**2 * c * np.exp(-1j * (phi1 - phi2)),
                          atol=1e-14)


def test_in_phase_half_pulses_compose_to_full_pulse():
    psi = _two_pulse_state(np.pi / 2, "parallel", 0.7, 0.7)
    assert abs(psi[0]) < 1e-14


def test_propagator_identity_semigroup_and_adjoint():
    assert np.allclose(free_propagator(0.0), np.eye(16), atol=1e-14)
    p1 = free_propagator(0.35)
    p2 = free_propagator(1.1)
    p12 = free_propagator(1.45)
    assert np.allclose(p1 @ p2, p12, atol=1e-10)
    # the propagator commutes with the operator adjoint: hermitian
    # inputs stay hermitian
    rho = expand(_random_hermitian(np.random.default_rng(7)))
    forward = reconstruct(free_propagator(0.9) @ rho)
    assert np.allclose(forward.conj().T, forward, atol=1e-13)


def test_propagator_moves_population_to_ground():
    t = 0.6
    decayed = np.exp(-t)
    # an excited population relaxes into the ground state
    rho0 = expand(matrix_unit(3, 3))
    rho_t = reconstruct(free_propagator(t) @ rho0)
    want = decayed * matrix_unit(3, 3) + (1 - decayed) * matrix_unit(1, 1)
    assert np.allclose(rho_t, want, atol=1e-13)
    # the adjoint evolves observables: the ground projector climbs onto
    # excited states
    q_t = reconstruct(free_propagator(t).conj().T
                      @ expand(matrix_unit(1, 1)))
    want = matrix_unit(1, 1) + (1 - decayed) * (np.eye(4) - matrix_unit(1, 1))
    assert np.allclose(q_t, want, atol=1e-13)


def test_propagator_matches_generator_exponential():
    from scipy.linalg import expm

    assert np.allclose(expm(decay_generator() * 0.77), free_propagator(0.77),
                       atol=1e-12)


def test_decay_eigensystem_diagonalizes_generator():
    eig = decay_eigensystem()
    gen = decay_generator()
    assert np.allclose(gen @ eig.modes, eig.modes * eig.rates, atol=1e-13)
    assert np.isclose(eig.rates[0], 0.0)
    assert np.allclose(reconstruct(eig.modes[:, 0]), matrix_unit(1, 1))
    counts = {0.0: 1, -0.5: 6, -1.0: 9}
    for rate, num in counts.items():
        assert np.sum(np.isclose(eig.rates, rate)) == num
    # operator-basis order: the population modes span the diagonal
    # indices 0-3, every off-diagonal basis element is its own mode
    assert np.array_equal(eig.modes[4:, 4:], np.eye(12))
    assert not eig.modes[4:, :4].any() and not eig.modes[:4, 4:].any()
    assert np.array_equal(eig.rates, [0, -1, -1, -1] + [-0.5] * 6 + [-1] * 6)
