"""Independent dense references that the tests check the library against.

None of these is on a run's path: the chain applies the decay
resolvent through ``atom.decay_eigensystem`` and the interaction
through the pieces of :mod:`mqcsim.coupling`, it builds its
pair coefficients as Kronecker products of single-atom ones, and the
oracle works on vectorized states and applies each pulse as a 16x16
pair unitary.  The pair-operator algebra here goes through the
256x256 basis change :func:`pair_basis_columns` instead, and the
interaction pieces are built with ``scipy.sparse``.
"""

import functools

import numpy as np
from scipy.sparse import csr_array, kron

from mqcsim.atom import dipole_components
from mqcsim.basis import (HILBERT_DIM, NUM_OPS, NUM_OPS_PAIR,
                          build_single_atom_basis, matrix_unit,
                          sandwich_matrix)
from mqcsim.coupling import TAG_KEYS, _compressed, _pieces, tensor_tag_value
from mqcsim.oracle import pulse_unitary


def m_basis_dipole_components() -> np.ndarray:
    """The lowering operators (D_x, D_y, D_z) with the excited levels
    |2>, |3>, |4> taken as the m = -1, 0, +1 sublevels instead of
    |x>, |y>, |z>: D_x = (sigma_14 - sigma_12)/sqrt(2),
    D_y = i(sigma_14 + sigma_12)/sqrt(2), D_z = sigma_13.  The physics
    is the same in either frame; only roundoff differs."""
    s12, s13, s14 = matrix_unit(1, 2), matrix_unit(1, 3), matrix_unit(1, 4)
    return np.array([(s14 - s12) / np.sqrt(2), 1j * (s14 + s12) / np.sqrt(2),
                     s13])


def excited_projector() -> np.ndarray:
    return np.diag(np.array([0, 1, 1, 1], dtype=complex))


def ground_projector() -> np.ndarray:
    return np.diag(np.array([1, 0, 0, 0], dtype=complex))


def reconstruct(coeffs: np.ndarray) -> np.ndarray:
    """Operator sum_n c_n Q_n from a one- or two-atom coefficient vector."""
    if len(coeffs) == NUM_OPS:
        return np.tensordot(coeffs, build_single_atom_basis(), axes=1)
    return (pair_basis_columns() @ coeffs).reshape(HILBERT_DIM**2, -1)


def _feed_matrix() -> np.ndarray:
    """Map collecting decayed excited weight into the ground sector."""
    return sum(sandwich_matrix(d, d.conj().T) for d in dipole_components())


def _propagator_pieces():
    pe = excited_projector()
    pg = ground_projector()
    cross = sandwich_matrix(pe, pg) + sandwich_matrix(pg, pe)
    gg = sandwich_matrix(pg, pg)
    ee = sandwich_matrix(pe, pe)
    return cross, gg, ee, _feed_matrix()


def free_propagator(t: float) -> np.ndarray:
    """Exact single-atom decay propagator over the operator basis, 16x16.

    rho(t) = Pe rho Pg e^{-t/2} + Pg rho Pe e^{-t/2} + Pg rho Pg
    + Pe rho Pe e^{-t} + (sum_k D_k rho D_k^dag) (1 - e^{-t}).
    """
    cross, gg, ee, feed = _propagator_pieces()
    full = np.exp(-t)
    return cross * np.exp(-t / 2.0) + gg + ee * full + feed * (1.0 - full)


def decay_generator() -> np.ndarray:
    """Matrix of the single-atom spontaneous-decay generator, 16x16."""
    pe = excited_projector()
    eye = np.eye(HILBERT_DIM, dtype=complex)
    anti = sandwich_matrix(pe, eye) + sandwich_matrix(eye, pe)
    return _feed_matrix() - anti / 2.0


@functools.cache
def pair_basis_columns() -> np.ndarray:
    """Unitary mapping pair operator-basis coefficients to vectorized
    states: column 16 i + j is the vectorized Q_i (x) Q_j."""
    single = build_single_atom_basis()
    out = np.stack([np.kron(a, b).reshape(-1) for a in single for b in single],
                   axis=1)
    out.flags.writeable = False   # cached: every caller gets this array
    return out


def pair_expand(op: np.ndarray) -> np.ndarray:
    """Pair operator-basis coefficients of 16x16 two-atom operators
    (leading batch axes allowed), through :func:`pair_basis_columns`."""
    op = np.asarray(op, dtype=complex)
    assert op.shape[-2:] == (HILBERT_DIM**2, HILBERT_DIM**2), op.shape
    return op.reshape(op.shape[:-2] + (-1,)) @ pair_basis_columns().conj()


def pair_sandwich_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pair coefficient-space matrix of O -> X O Y for 16x16 factors,
    256x256: pair_expand(X O Y) = M @ pair_expand(O)."""
    columns = pair_basis_columns()
    # row-major vec: vec(X O Y) = (X kron Y^T) vec(O)
    return columns.conj().T @ np.kron(x, np.transpose(y)) @ columns


@functools.cache
def _sandwich_maps() -> dict:
    """scipy CSR 16x16 maps O -> X O Y of one atom, by (X, Y) label:
    ("low", k) for D_k, ("raise", l) for D_l^dag, "eye" for 1."""
    dips = dipole_components()
    ops = {"eye": np.eye(HILBERT_DIM, dtype=complex)}
    for k in range(3):
        ops[("low", k)] = dips[k]
        ops[("raise", k)] = dips[k].conj().T
    return {(left, right): csr_array(sandwich_matrix(ops[left], ops[right]))
            for left in ops for right in ops
            if (left == "eye") != (right == "eye")}


def _pair_map(left1, right1, left2, right2):
    maps = _sandwich_maps()
    return kron(maps[(left1, right1)], maps[(left2, right2)], format="csr")


def _ordered_piece(kind: str, k: int, l: int):
    dk, dl_dag, eye = ("low", k), ("raise", l), "eye"
    if kind == "conj":
        shift = -(_pair_map(dk, eye, dl_dag, eye)
                  + _pair_map(dl_dag, eye, dk, eye))
    else:
        shift = -(_pair_map(eye, dk, eye, dl_dag)
                  + _pair_map(eye, dl_dag, eye, dk))
    feed = _pair_map(dk, eye, eye, dl_dag) + _pair_map(eye, dl_dag, dk, eye)
    return shift + feed


@functools.cache
def interaction_pieces() -> dict:
    """Canonical tag -> scipy CSR piece, 256x256: the shift plus feed
    maps of both atom orderings as sparse Kronecker products of
    single-atom maps, with the symmetric partner (l, k) added to the
    (k, l) piece."""
    out = {}
    for kind, k, l in TAG_KEYS:
        piece = _ordered_piece(kind, k, l)
        if k != l:
            piece = piece + _ordered_piece(kind, l, k)
        out[(kind, k, l)] = piece
    return out


@functools.cache
def sparse_interaction_pieces():
    """Canonical tag -> numpy CSR arrays (indptr, indices, data) of the
    library's 256x256 piece multiplying that formal factor: each holds
    160 or 320 nonzeros of 65,536, with sorted, duplicate-free columns in
    every row.

    The generator is sum over tags of (tensor factor value) x (piece);
    see ``tensor_tag_value`` for the factor values.  Canonicalization
    folds the symmetric partner (l, k) into the (k, l) piece.
    """
    return {tag: _compressed(*np.divmod(keys, NUM_OPS_PAIR), data,
                             NUM_OPS_PAIR)
            for tag, (keys, data) in _pieces().items()}


def csr_dense(piece) -> np.ndarray:
    """Dense 256x256 matrix of numpy CSR arrays (indptr, indices, data)."""
    indptr, indices, data = piece
    return csr_array((data, indices, indptr),
                     shape=(len(indptr) - 1,) * 2).toarray()


def interaction_generator(tensor: np.ndarray) -> np.ndarray:
    """Pair-interaction generator at a concrete coupling tensor, 256x256:
    every library piece times the value of its formal factor."""
    return sum(tensor_tag_value(tensor, tag) * csr_dense(piece)
               for tag, piece in sparse_interaction_pieces().items())


def pair_kick(theta: float, polarization, laser_phase: float,
              position_phase: float) -> np.ndarray:
    """Kick superoperator for one pulse hitting both atoms, 256x256.

    On row-major vectorized states, vec(u rho u^dag) = (u kron conj(u))
    vec(rho), with u = u1 kron u2.  Atom 1 sees the laser phase advanced
    by ``position_phase`` (its offset along the propagation axis); atom
    2 sees the bare phase.
    """
    u1 = pulse_unitary(theta, polarization, laser_phase + position_phase)
    u2 = pulse_unitary(theta, polarization, laser_phase)
    u_pair = np.kron(u1, u2)
    return np.kron(u_pair, u_pair.conj())
