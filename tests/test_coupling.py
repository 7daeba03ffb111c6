"""Tests for the dipole-dipole tensor and the pair-interaction generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqcsim.atom import dipole_components
from mqcsim.basis import expand, matrix_unit, pair_operator, reconstruct, sandwich_matrix
from mqcsim.coupling import (
    TAG_KEYS,
    coupling_tensor,
    interaction_matrices,
    interaction_pieces,
    tensor_tag_value,
)

RNG_DIRECTIONS = [
    np.array([0.0, 0.0, 1.0]),
    np.array([1.0, 0.0, 0.0]),
    np.array([0.3, -0.8, 0.52]),
    np.array([-0.7, 0.1, 0.4]),
]


def _random_symmetric_tensor(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return m + m.T


def _atom_ops(k):
    """Raising/lowering pair-space helpers for Cartesian index k."""
    d = dipole_components()[k]
    return d.conj().T, d  # |k><1|, |1><k|


def test_tensor_symmetry_and_axis_parity():
    for n in RNG_DIRECTIONS:
        for mode in ("exact", "far_field", "near_field"):
            t = coupling_tensor(3.7, n, mode=mode)
            assert np.allclose(t, t.T, atol=1e-14)
            assert np.allclose(t, coupling_tensor(3.7, -n, mode=mode),
                               atol=1e-14)


@pytest.mark.parametrize("mode", ["exact", "far_field", "near_field"])
def test_coupling_tensor_batch_matches_single_calls(mode):
    rng = np.random.default_rng(3)
    xi = rng.uniform(5.0, 100.0, 6)
    n_hat = rng.normal(size=(6, 3))
    batch = coupling_tensor(xi, n_hat, mode=mode)
    assert batch.shape == (6, 3, 3)
    for b in range(6):
        single = coupling_tensor(xi[b], n_hat[b], mode=mode)
        np.testing.assert_allclose(batch[b], single, rtol=1e-14, atol=0)


def test_far_field_limit_and_decomposition():
    n = np.array([0.3, -0.8, 0.52])
    xi = 2.0e4
    exact = coupling_tensor(xi, n)
    far = coupling_tensor(xi, n, mode="far_field")
    assert np.linalg.norm(exact - far) < 5.0 / xi * np.linalg.norm(far)
    # transverse kernel: decay part ~ sin(xi)/xi, shift part ~ cos(xi)/xi
    xi = 7.3
    far = coupling_tensor(xi, n, mode="far_field")
    transverse = np.eye(3) - np.outer(n, n) / np.dot(n, n)
    assert np.allclose(far.real, (3 / 4) * np.sin(xi) / xi * transverse, atol=1e-12)
    assert np.allclose(far.imag, (3 / 4) * np.cos(xi) / xi * transverse, atol=1e-12)


def test_near_field_limit():
    n = np.array([0.0, 0.0, 1.0])
    xi = 1.0e-3
    exact = coupling_tensor(xi, n)
    near = coupling_tensor(xi, n, mode="near_field")
    assert np.linalg.norm(exact - near) < 5 * xi * np.linalg.norm(near)
    with pytest.raises(ValueError):
        coupling_tensor(1.0, n, mode="bogus")


def _dense_generator(tensor):
    """Direct 16x16-operator-algebra build of the observable-picture parts.

    Uses pair-space matrix products and two-sided sandwich matrices only,
    bypassing the per-atom factorized construction under test.
    """
    eye4 = np.eye(4, dtype=complex)
    eye16 = np.eye(16, dtype=complex)
    shift_op = np.zeros((16, 16), dtype=complex)
    feed = np.zeros((256, 256), dtype=complex)
    for k in range(3):
        raise_k, _ = _atom_ops(k)
        for l in range(3):
            _, lower_l = _atom_ops(l)
            for first, second in (((raise_k, lower_l)), ((lower_l, raise_k))):
                pair = pair_operator(first, second)
                shift_op += tensor[k, l] * pair
            weight = tensor[k, l] + np.conj(tensor[k, l])
            feed += weight * (
                sandwich_matrix(pair_operator(raise_k, eye4), pair_operator(eye4, lower_l))
                + sandwich_matrix(pair_operator(eye4, raise_k), pair_operator(lower_l, eye4)))
    level_shift = (-sandwich_matrix(shift_op, eye16)
                   - sandwich_matrix(eye16, shift_op.conj().T))
    return level_shift, feed


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_generator_matches_direct_operator_algebra(seed):
    rng = np.random.default_rng(seed)
    tensor = _random_symmetric_tensor(rng)
    got = interaction_matrices(tensor, picture="observable")
    level_shift, feed = _dense_generator(tensor)
    assert np.allclose(got.level_shift, level_shift, atol=1e-12)
    assert np.allclose(got.cross_feed, feed, atol=1e-12)
    assert np.allclose(got.total, got.level_shift + got.cross_feed, atol=1e-12)


def test_pure_level_shift_tensor_kills_cross_feed():
    rng = np.random.default_rng(5)
    tensor = 1j * _random_symmetric_tensor(rng).imag
    got = interaction_matrices(tensor, picture="observable")
    assert np.allclose(got.cross_feed, 0.0, atol=1e-14)
    assert np.allclose(got.total, got.level_shift, atol=1e-14)


def test_level_shift_action_on_ground_excited_projector():
    # acting on sigma_11 x |f><f|, the level-shift part produces the
    # inter-atomic coherences sigma_r1 x |1><f| with weights
    # -i Omega_rf - Gamma_rf, plus their conjugate partners
    rng = np.random.default_rng(9)
    tensor = _random_symmetric_tensor(rng)
    v1 = interaction_matrices(tensor, picture="observable").level_shift
    for f in range(3):
        raise_f, lower_f = _atom_ops(f)
        start = expand(pair_operator(matrix_unit(1, 1), raise_f @ lower_f))
        got = reconstruct(v1 @ start)
        want = np.zeros((16, 16), dtype=complex)
        for r in range(3):
            raise_r, lower_r = _atom_ops(r)
            weight = -1j * tensor[r, f].imag - tensor[r, f].real
            want += weight * pair_operator(raise_r, lower_f)
            want += np.conj(weight) * pair_operator(lower_r, raise_f)
        assert np.allclose(got, want, atol=1e-12)


def test_level_shift_transfers_excitation_between_atoms():
    rng = np.random.default_rng(13)
    tensor = _random_symmetric_tensor(rng)
    v1 = interaction_matrices(tensor, picture="observable").level_shift
    raise_x, _ = _atom_ops(0)
    start = expand(pair_operator(raise_x, matrix_unit(1, 1)))
    got = reconstruct(v1 @ start)
    want = np.zeros((16, 16), dtype=complex)
    for k in range(3):
        raise_k, _ = _atom_ops(k)
        want -= tensor[k, 0] * pair_operator(matrix_unit(1, 1), raise_k)
    assert np.allclose(got, want, atol=1e-12)


def test_cross_feed_action_on_pair_coherence():
    rng = np.random.default_rng(17)
    tensor = _random_symmetric_tensor(rng)
    v2 = interaction_matrices(tensor, picture="observable").cross_feed
    j, r = 1, 2
    _, lower_j = _atom_ops(j)
    raise_r, _ = _atom_ops(r)
    start = expand(pair_operator(lower_j, raise_r))
    got = reconstruct(v2 @ start)
    want = np.zeros((16, 16), dtype=complex)
    for f in range(3):
        raise_f, _ = _atom_ops(f)
        for l in range(3):
            _, lower_l = _atom_ops(l)
            want += (2 * tensor[f, l].real
                     * pair_operator(raise_f @ lower_j, raise_r @ lower_l))
    assert np.allclose(got, want, atol=1e-12)


def test_state_picture_is_adjoint_with_conjugated_tensor():
    rng = np.random.default_rng(21)
    tensor = _random_symmetric_tensor(rng)
    state = interaction_matrices(tensor, picture="state")
    obs = interaction_matrices(tensor, picture="observable")
    assert np.allclose(state.total, obs.total.conj().T, atol=1e-13)
    pieces_s = interaction_pieces("state")
    pieces_o = interaction_pieces("observable")
    for _, k, l in TAG_KEYS[:6]:
        assert np.allclose(pieces_s[("direct", k, l)],
                           pieces_o[("conj", k, l)].conj().T, atol=1e-14)
        assert np.allclose(pieces_s[("conj", k, l)],
                           pieces_o[("direct", k, l)].conj().T, atol=1e-14)
    with pytest.raises(ValueError):
        interaction_pieces("bogus")


def test_pieces_contract_to_assembled_generator():
    rng = np.random.default_rng(23)
    tensor = _random_symmetric_tensor(rng)
    for picture in ("observable", "state"):
        pieces = interaction_pieces(picture)
        total = sum(tensor_tag_value(tensor, tag) * pieces[tag] for tag in TAG_KEYS)
        assert np.allclose(total, interaction_matrices(tensor, picture).total,
                           atol=1e-12)


def test_state_picture_properties():
    rng = np.random.default_rng(29)
    tensor = coupling_tensor(3.1, RNG_DIRECTIONS[2])
    v_state = interaction_matrices(tensor, picture="state").total
    # both atoms in the ground state radiate nothing: the generator
    # annihilates the ground-ground projector
    ground_pair = expand(pair_operator(matrix_unit(1, 1), matrix_unit(1, 1)))
    assert np.allclose(v_state @ ground_pair, 0.0, atol=1e-13)
    # hermiticity preservation
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = m + m.conj().T
    out = reconstruct(v_state @ expand(rho))
    assert np.allclose(out, out.conj().T, atol=1e-12)


def test_state_picture_matches_standard_master_equation_form():
    """Independent cross-check against the textbook two-atom master equation
    with collective shift Hamiltonian and collective-decay dissipator."""
    tensor = coupling_tensor(2.2, RNG_DIRECTIONS[3])
    omega, gamma_t = tensor.imag, tensor.real
    eye4 = np.eye(4, dtype=complex)
    eye16 = np.eye(16, dtype=complex)
    hamiltonian = np.zeros((16, 16), dtype=complex)
    dissipator = np.zeros((256, 256), dtype=complex)
    anticomm = np.zeros((16, 16), dtype=complex)
    for k in range(3):
        raise_k, lower_k = _atom_ops(k)
        for l in range(3):
            raise_l, lower_l = _atom_ops(l)
            for a_first, b_second in ((True, False), (False, True)):
                # raising on one atom, lowering on the other, both orders
                if a_first:
                    raise_part = pair_operator(raise_k, eye4)
                    lower_part = pair_operator(eye4, lower_l)
                    jump = pair_operator(lower_k, eye4), pair_operator(eye4, raise_l)
                else:
                    raise_part = pair_operator(eye4, raise_k)
                    lower_part = pair_operator(lower_l, eye4)
                    jump = pair_operator(eye4, lower_k), pair_operator(raise_l, eye4)
                product = raise_part @ lower_part
                hamiltonian -= omega[k, l] * product
                anticomm += gamma_t[k, l] * product
                dissipator += 2 * gamma_t[k, l] * sandwich_matrix(jump[0], jump[1])
    commutator = -1j * (sandwich_matrix(hamiltonian, eye16)
                        - sandwich_matrix(eye16, hamiltonian))
    relax = dissipator - (sandwich_matrix(anticomm, eye16)
                          + sandwich_matrix(eye16, anticomm))
    want = commutator + relax
    got = interaction_matrices(tensor, picture="state").total
    assert np.allclose(got, want, atol=1e-12)
