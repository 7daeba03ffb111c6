"""Structural checks of the one- and two-atom operator bases.

The library maps single-atom operators only and builds pair objects by
the Kronecker rule; the pair checks hold it against the 256x256 basis
change of the test reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqcsim import basis
from reference import pair_expand, pair_sandwich_matrix, reconstruct


def random_op(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _dagger_permutation(pair=False):
    """Permutation p with Q_{p[n]} = Q_n^dag; finding exactly one match
    for every element asserts that the basis is closed under dagger."""
    b = basis.build_single_atom_basis()
    matches = [[m for m in range(16) if np.array_equal(b[m], q.conj().T)]
               for q in b]
    assert all(len(hits) == 1 for hits in matches)
    p = np.array([hits[0] for hits in matches])
    return (16 * p[:, None] + p[None, :]).ravel() if pair else p


def test_basis_order_matches_stated_layout():
    b = basis.build_single_atom_basis()
    assert np.allclose(b[0], np.eye(4) / 2)
    assert np.allclose(np.diag(b[1]), [-0.5, 0.5, -0.5, 0.5])
    assert np.allclose(np.diag(b[2]), [0.5, 0.5, -0.5, -0.5])
    assert np.allclose(np.diag(b[3]), [-0.5, 0.5, 0.5, -0.5])
    assert np.allclose(b[4], basis.matrix_unit(1, 4))
    assert np.allclose(b[5], basis.matrix_unit(4, 1))
    assert np.allclose(b[9], basis.matrix_unit(2, 1))
    assert np.allclose(b[15], basis.matrix_unit(2, 3))


def test_ground_projector_expansion():
    # sigma_11 decomposes over the four diagonal elements only
    c = basis.expand(basis.matrix_unit(1, 1))
    assert np.allclose(c[:4], [0.5, -0.5, 0.5, -0.5])
    assert np.allclose(c[4:], 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_expand_reconstruct_roundtrip_single(seed):
    rng = np.random.default_rng(seed)
    op = random_op(rng, 4)
    assert np.allclose(reconstruct(basis.expand(op)), op, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_expand_reconstruct_roundtrip_pair(seed):
    rng = np.random.default_rng(seed)
    op = random_op(rng, 16)
    assert np.allclose(reconstruct(pair_expand(op)), op, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_pair_expansion_factorizes(seed):
    # the Kronecker rule the chain builds its pair coefficients by
    rng = np.random.default_rng(seed)
    a, b = random_op(rng, 4), random_op(rng, 4)
    cp = pair_expand(np.kron(a, b))
    assert np.allclose(np.kron(basis.expand(a), basis.expand(b)), cp,
                       atol=1e-12)


def test_single_atom_maps_refuse_pair_operators():
    rng = np.random.default_rng(11)
    pair, single = random_op(rng, 16), random_op(rng, 4)
    with pytest.raises(ValueError):
        basis.expand(pair)
    with pytest.raises(ValueError):
        basis.expand(pair.reshape(2, 8, 16))
    for x, y in ((pair, pair), (single, pair), (pair, single)):
        with pytest.raises(ValueError):
            basis.sandwich_matrix(x, y)


def test_dagger_permutation_involution_and_action():
    # the coefficients of O^dag are conj(c)[p], for one atom and the pair
    rng = np.random.default_rng(3)
    for pair, dim in ((False, 4), (True, 16)):
        p = _dagger_permutation(pair)
        assert np.array_equal(p[p], np.arange(p.size))
        op = random_op(rng, dim)
        expand = pair_expand if pair else basis.expand
        c = expand(op)
        cd = expand(op.conj().T)
        assert np.allclose(cd, np.conj(c)[p], atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_hermitian_coefficient_symmetry(seed):
    rng = np.random.default_rng(seed)
    op = random_op(rng, 4)
    herm = op + op.conj().T
    c = basis.expand(herm)
    p = _dagger_permutation()
    assert np.allclose(c[p], np.conj(c), atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_sandwich_matrix_single(seed):
    rng = np.random.default_rng(seed)
    x, y, op = (random_op(rng, 4) for _ in range(3))
    m = basis.sandwich_matrix(x, y)
    assert np.allclose(m @ basis.expand(op), basis.expand(x @ op @ y), atol=1e-11)


def test_sandwich_matrix_pair():
    rng = np.random.default_rng(5)
    x, y, op = (random_op(rng, 16) for _ in range(3))
    m = pair_sandwich_matrix(x, y)
    assert np.allclose(m @ pair_expand(op), pair_expand(x @ op @ y), atol=1e-10)
    # on product factors the pair map is the Kronecker product of the
    # single-atom maps
    x1, y1, x2, y2 = (random_op(rng, 4) for _ in range(4))
    assert np.allclose(pair_sandwich_matrix(np.kron(x1, x2), np.kron(y1, y2)),
                       np.kron(basis.sandwich_matrix(x1, y1),
                               basis.sandwich_matrix(x2, y2)), atol=1e-10)


def test_kron_superop_and_factorized_apply():
    rng = np.random.default_rng(13)
    m1 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m2 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    c = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    full = np.kron(m1, m2) @ c
    fast = basis.apply_factorized(m1, m2, c)
    assert np.allclose(full, fast, atol=1e-10)
    batch = rng.standard_normal((256, 3)) + 1j * rng.standard_normal((256, 3))
    assert np.allclose(basis.apply_factorized(m1, m2, batch),
                       np.kron(m1, m2) @ batch, atol=1e-10)
    # and the index convention: kron acts as m1 on atom 1's slot
    a, b = (rng.standard_normal((4, 4)) for _ in range(2))
    ca, cb = basis.expand(a.astype(complex)), basis.expand(b.astype(complex))
    pairc = np.outer(ca, cb).ravel()
    moved = basis.apply_factorized(m1, np.eye(16), pairc)
    assert np.allclose(moved, np.outer(m1 @ ca, cb).ravel(), atol=1e-10)
