"""Tests for the dipole-dipole tensor and the pair-interaction generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqcsim.atom import dipole_components
from mqcsim.basis import matrix_unit
from mqcsim.coupling import (TAG_KEYS, coupling_tensor, csr_transposed_product,
                             interaction_products)
from reference import (csr_dense, interaction_generator, interaction_pieces,
                       pair_expand, pair_sandwich_matrix, reconstruct,
                       sparse_interaction_pieces)

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
        for mode in ("exact", "far_field"):
            t = coupling_tensor(3.7, n, mode=mode)
            assert np.allclose(t, t.T, atol=1e-14)
            assert np.allclose(t, coupling_tensor(3.7, -n, mode=mode),
                               atol=1e-14)


@pytest.mark.parametrize("mode", ["exact", "far_field"])
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


def test_far_field_pair_products_are_real():
    # every far-field element carries the same phase e^{i xi}, so a
    # product T_kl T*_mn is real: mc-average scores only the real part
    # of these moments, whose imaginary parts are roundoff
    rng = np.random.default_rng(3)
    xi = rng.uniform(67.2, 92.8, 200)
    tensors = coupling_tensor(xi, rng.normal(size=(200, 3)),
                              mode="far_field")
    pairs = [(k, l, m, n) for k in range(3) for l in range(k, 3)
             for m in range(3) for n in range(m, 3)]
    products = np.stack([tensors[:, k, l] * np.conj(tensors[:, m, n])
                         for k, l, m, n in pairs])
    assert np.all(np.abs(products.imag) <= 1e-12 * np.abs(products))
    assert np.min(np.abs(products)) > 0.0


def test_near_field_limit():
    # the exact tensor's quasistatic limit, 0.75 (-i / xi^3) (I - 3 n n)
    n = np.array([0.0, 0.0, 1.0])
    xi = 1.0e-3
    exact = coupling_tensor(xi, n)
    near = 0.75 * (-1j / xi**3) * (np.eye(3) - 3.0 * np.outer(n, n))
    assert np.linalg.norm(exact - near) < 5 * xi * np.linalg.norm(near)


@pytest.mark.parametrize("mode", ["near_field", "bogus", "EXACT"])
def test_coupling_tensor_accepts_only_exact_and_far_field(mode):
    with pytest.raises(ValueError, match="unknown mode"):
        coupling_tensor(1.0, np.array([0.0, 0.0, 1.0]), mode=mode)


def _dense_generator(tensor):
    """Direct 16x16-operator-algebra build of the parts acting on
    observables, the adjoints of the density-operator maps.

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
                pair = np.kron(first, second)
                shift_op += tensor[k, l] * pair
            weight = tensor[k, l] + np.conj(tensor[k, l])
            feed += weight * (
                pair_sandwich_matrix(np.kron(raise_k, eye4), np.kron(eye4, lower_l))
                + pair_sandwich_matrix(np.kron(eye4, raise_k), np.kron(lower_l, eye4)))
    level_shift = (-pair_sandwich_matrix(shift_op, eye16)
                   - pair_sandwich_matrix(eye16, shift_op.conj().T))
    return level_shift, feed


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_generator_matches_direct_operator_algebra(seed):
    rng = np.random.default_rng(seed)
    tensor = _random_symmetric_tensor(rng)
    got = interaction_generator(tensor)
    level_shift, feed = _dense_generator(tensor)
    assert np.allclose(got.conj().T, level_shift + feed, atol=1e-12)


def test_pure_level_shift_tensor_kills_cross_feed():
    rng = np.random.default_rng(5)
    tensor = 1j * _random_symmetric_tensor(rng).imag
    level_shift, feed = _dense_generator(tensor)
    assert np.allclose(feed, 0.0, atol=1e-14)
    assert np.allclose(interaction_generator(tensor).conj().T, level_shift,
                       atol=1e-14)


def test_level_shift_action_on_ground_excited_projector():
    # acting on sigma_11 x |f><f|, the level-shift part produces the
    # inter-atomic coherences sigma_r1 x |1><f| with weights
    # -i Omega_rf - Gamma_rf, plus their conjugate partners
    rng = np.random.default_rng(9)
    tensor = _random_symmetric_tensor(rng)
    v1 = interaction_generator(tensor).conj().T
    _, feed = _dense_generator(tensor)
    for f in range(3):
        raise_f, lower_f = _atom_ops(f)
        start = pair_expand(np.kron(matrix_unit(1, 1), raise_f @ lower_f))
        # the cross feed vanishes on these states
        assert np.allclose(feed @ start, 0.0, atol=1e-14)
        got = reconstruct(v1 @ start)
        want = np.zeros((16, 16), dtype=complex)
        for r in range(3):
            raise_r, lower_r = _atom_ops(r)
            weight = -1j * tensor[r, f].imag - tensor[r, f].real
            want += weight * np.kron(raise_r, lower_f)
            want += np.conj(weight) * np.kron(lower_r, raise_f)
        assert np.allclose(got, want, atol=1e-12)


def test_level_shift_transfers_excitation_between_atoms():
    rng = np.random.default_rng(13)
    tensor = _random_symmetric_tensor(rng)
    _, feed = _dense_generator(tensor)
    v1 = interaction_generator(tensor).conj().T - feed
    raise_x, _ = _atom_ops(0)
    start = pair_expand(np.kron(raise_x, matrix_unit(1, 1)))
    got = reconstruct(v1 @ start)
    want = np.zeros((16, 16), dtype=complex)
    for k in range(3):
        raise_k, _ = _atom_ops(k)
        want -= tensor[k, 0] * np.kron(matrix_unit(1, 1), raise_k)
    assert np.allclose(got, want, atol=1e-12)


def test_cross_feed_action_on_pair_coherence():
    rng = np.random.default_rng(17)
    tensor = _random_symmetric_tensor(rng)
    level_shift, _ = _dense_generator(tensor)
    v2 = interaction_generator(tensor).conj().T - level_shift
    j, r = 1, 2
    _, lower_j = _atom_ops(j)
    raise_r, _ = _atom_ops(r)
    start = pair_expand(np.kron(lower_j, raise_r))
    got = reconstruct(v2 @ start)
    want = np.zeros((16, 16), dtype=complex)
    for f in range(3):
        raise_f, _ = _atom_ops(f)
        for l in range(3):
            _, lower_l = _atom_ops(l)
            want += (2 * tensor[f, l].real
                     * np.kron(raise_f @ lower_j, raise_r @ lower_l))
    assert np.allclose(got, want, atol=1e-12)


def test_sparse_pieces_match_direct_operator_algebra():
    # the direct build is real-linear in the tensor: on a unit symmetric
    # tensor E it gives the adjoints of both factor kinds' pieces summed,
    # and on iE i times the conj piece's adjoint minus the direct one's
    for kind, k, l in TAG_KEYS:
        unit = np.zeros((3, 3), dtype=complex)
        unit[k, l] = unit[l, k] = 1.0
        real, imaginary = (sum(_dense_generator(scale * unit))
                           for scale in (1.0, 1j))
        adjoint = (real + (1j if kind == "direct" else -1j) * imaginary) / 2
        piece = sparse_interaction_pieces()[(kind, k, l)]
        indptr, indices, data = piece
        assert indptr.shape == (257,) and indptr[0] == 0
        assert indices.shape == data.shape == (indptr[-1],)
        for row in range(256):
            columns = indices[indptr[row]:indptr[row + 1]]
            assert np.all(np.diff(columns) > 0)
        np.testing.assert_allclose(csr_dense(piece), adjoint.conj().T,
                                   rtol=0, atol=1e-15)


def _assert_same_csr(got, want):
    # want is a scipy CSR matrix; the data must match bit for bit
    for array, wanted in zip(got, (want.indptr, want.indices)):
        assert np.array_equal(array, wanted)
    assert got[2].dtype == want.data.dtype
    assert got[2].tobytes() == want.data.tobytes()


@pytest.mark.parametrize("tag", TAG_KEYS)
def test_pieces_equal_the_scipy_reference_build(tag):
    want = interaction_pieces()[tag]
    assert want.has_canonical_format
    _assert_same_csr(sparse_interaction_pieces()[tag], want)


def test_cartesian_dipoles_give_exact_unit_pieces():
    # the frame guard: with the excited levels |x>, |y>, |z> = |2>, |3>,
    # |4>, each dipole D_k = |1><k + 2| is a plain matrix unit, so the
    # sandwich maps hold only the basis's own entries, +-1/2 on its
    # diagonal elements and 1 on its matrix units, and every piece entry
    # is real and in {-1, -1/2, 1/2, 1}; a frame that mixes the excited
    # levels brings in 1/sqrt(2) and i
    dips = dipole_components()
    for k in range(3):
        want = np.zeros((4, 4))
        want[0, k + 1] = 1.0
        assert np.array_equal(dips[k], want)
    for tag, (_, _, data) in sparse_interaction_pieces().items():
        assert len(data) == (160 if tag[1] == tag[2] else 320), tag
        assert not data.imag.any(), tag
        assert set(data.real.tolist()) <= {-1.0, -0.5, 0.5, 1.0}, tag


def _blocks(rng, shape):
    """A block with most rows zero, as the chain's vectors are, and an
    all-zero block."""
    block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    block[rng.random(shape[0]) < 0.7] = 0.0
    return block, np.zeros(shape, dtype=complex)


def _assert_matches_csr_product(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    # exact zeros where the CSR product has them, so that the chain
    # prunes the same monomials
    assert np.array_equal(got == 0, want == 0)
    assert np.max(np.abs(got - want), initial=0.0) <= (
        1e-15 * np.max(np.abs(want), initial=0.0))


@pytest.mark.parametrize("columns", [None, 1, 2, 13])
@pytest.mark.parametrize("transposed", [False, True])
def test_csr_transposed_product_matches_scipy_product(columns, transposed):
    # the CSR arrays of a transposed piece, here scipy's, apply the piece
    rng = np.random.default_rng(7 + (columns or 0))
    shape = (256,) if columns is None else (256, columns)
    pieces = sparse_interaction_pieces()
    if transposed:
        transposes = {tag: piece.T.tocsr()
                      for tag, piece in interaction_pieces().items()}
        pieces = {tag: (m.indptr, m.indices, m.data)
                  for tag, m in transposes.items()}
    for tag in TAG_KEYS:
        want_matrix = interaction_pieces()[tag]
        if not transposed:
            want_matrix = want_matrix.T
        for block in _blocks(rng, shape):
            _assert_matches_csr_product(
                csr_transposed_product(pieces[tag], block),
                want_matrix @ block)


@pytest.mark.parametrize("columns", [None, 1, 2, 13])
@pytest.mark.parametrize("transposed", [False, True])
def test_interaction_products_match_scipy_products(columns, transposed):
    rng = np.random.default_rng(11 + (columns or 0))
    shape = (256,) if columns is None else (256, columns)
    for block in _blocks(rng, shape) + (rng.normal(size=shape) + 0j,):
        got = interaction_products(block, transposed)
        assert got.shape == (len(TAG_KEYS),) + shape
        for tag, product in zip(TAG_KEYS, got):
            matrix = interaction_pieces()[tag]
            _assert_matches_csr_product(
                product, (matrix.T if transposed else matrix) @ block)


@pytest.mark.parametrize("transposed", [False, True])
def test_every_piece_commutes_with_the_atom_swap(transposed):
    # swapping the atoms maps pair index 16 i + j to 16 j + i; the tensor
    # is symmetric and each piece sums both atom orders, so S P S = P for
    # every tag, which the chain's atom-exchange fold relies on
    swap = np.arange(256).reshape(16, 16).T.reshape(-1)
    rng = np.random.default_rng(41)
    x = rng.normal(size=(256, 3)) + 1j * rng.normal(size=(256, 3))
    products = interaction_products(x, transposed)
    assert np.max(np.abs(products)) > 0.1
    np.testing.assert_allclose(interaction_products(x[swap], transposed),
                               products[:, swap], rtol=0, atol=1e-15 * np.max(
                                   np.abs(products)))


def test_state_picture_properties():
    rng = np.random.default_rng(29)
    tensor = coupling_tensor(3.1, RNG_DIRECTIONS[2])
    v_state = interaction_generator(tensor)
    # both atoms in the ground state radiate nothing: the generator
    # annihilates the ground-ground projector
    ground_pair = pair_expand(np.kron(matrix_unit(1, 1), matrix_unit(1, 1)))
    assert np.allclose(v_state @ ground_pair, 0.0, atol=1e-13)
    # hermiticity preservation
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = m + m.conj().T
    out = reconstruct(v_state @ pair_expand(rho))
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
                    raise_part = np.kron(raise_k, eye4)
                    lower_part = np.kron(eye4, lower_l)
                    jump = np.kron(lower_k, eye4), np.kron(eye4, raise_l)
                else:
                    raise_part = np.kron(eye4, raise_k)
                    lower_part = np.kron(lower_l, eye4)
                    jump = np.kron(eye4, lower_k), np.kron(raise_l, eye4)
                product = raise_part @ lower_part
                hamiltonian -= omega[k, l] * product
                anticomm += gamma_t[k, l] * product
                dissipator += 2 * gamma_t[k, l] * pair_sandwich_matrix(jump[0], jump[1])
    commutator = -1j * (pair_sandwich_matrix(hamiltonian, eye16)
                        - pair_sandwich_matrix(eye16, hamiltonian))
    relax = dissipator - (pair_sandwich_matrix(anticomm, eye16)
                          + pair_sandwich_matrix(eye16, anticomm))
    want = commutator + relax
    got = interaction_generator(tensor)
    assert np.allclose(got, want, atol=1e-12)
