"""Resonant dipole-dipole coupling between the two atoms.

The retarded field of one atom drives the other; to second order in the
atom-field coupling this produces a pair interaction governed by a 3x3
complex symmetric tensor depending on the dimensionless separation
xi = k0 r and the orientation n of the interatomic axis.  Its real part
is the collective-decay kernel, its imaginary part the coherent
(level-shift) kernel.

The induced generator splits into two physically distinct parts.  The
level-shift part multiplies the density operator from the right by the
complex operator sum_kl T_kl (D_alpha^dag)_k (D_beta)_l (and from the
left by its adjoint, the conjugate-tensor partner): it moves excitation
from one atom to the other within the same side of the operator.  The
cross-feed part sandwiches the density operator between lowering
operators of different atoms, D_k rho D_l^dag, weighted by twice the
decay kernel: it is the collective analogue of the single-atom decay
feed.

For the perturbative expansion the generator is kept symbolic in the
tensor entries: ``sparse_interaction_pieces`` returns, per formal factor
(the tensor entry itself or its complex conjugate, indices k <= l with
the symmetric partner folded in), the 256x256 CSR matrix multiplying
that factor, built as sparse Kronecker products of single-atom sandwich
maps.  Contracting the pieces with a concrete tensor, each piece times
its factor's value, reproduces the assembled generator.

Superoperator matrices follow the conventions of :mod:`mqcsim.basis`
and act on density-operator coefficients, as the master equation does.
The generator acting on observables is their Hilbert-Schmidt adjoint,
the conjugate transpose of the matrix.
"""

from __future__ import annotations

import functools

import numpy as np

from .atom import dipole_components
from .basis import sandwich_matrix

#: formal factor kinds: the tensor entry itself or its complex conjugate
TAG_KINDS = ("direct", "conj")

#: canonical tensor-entry tags (kind, k, l) with k <= l over Cartesian axes
TAG_KEYS = tuple((kind, k, l) for kind in TAG_KINDS
                 for k in range(3) for l in range(k, 3))


def coupling_tensor(xi, n_hat, mode: str = "exact") -> np.ndarray:
    """Dipole-dipole coupling tensor, 3x3 complex symmetric, in units
    of the single-atom decay rate.

    Args:
        xi: separation in units of the resonant wavenumber, xi = k0 r;
            a scalar, or shape (B,) for a batch of configurations.
        n_hat: unit vector along the interatomic axis (normalized here);
            shape (3,), or (B, 3) with a batch of separations.
        mode: "exact" keeps all retardation orders; "far_field" keeps the
            1/xi transverse term only; "near_field" keeps the 1/xi^3
            quasistatic term only.

    Returns:
        The tensor, shape (3, 3), or (B, 3, 3) for a batch.

    The real part is the collective-decay kernel, the imaginary part the
    collective level-shift kernel.  The tensor is symmetric and even
    under n_hat -> -n_hat.
    """
    xi = np.asarray(xi, dtype=float)[..., None, None]
    n = np.asarray(n_hat, dtype=float)
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    dyadic = n[..., :, None] * n[..., None, :]
    transverse = np.eye(3) - dyadic
    quasistatic = np.eye(3) - 3.0 * dyadic
    scale = 0.75
    if mode == "exact":
        return scale * np.exp(-1j * xi) * ((1j / xi) * transverse
                                           + (1.0 / xi**2 - 1j / xi**3) * quasistatic)
    if mode == "far_field":
        return scale * (1j * np.exp(-1j * xi) / xi) * transverse
    if mode == "near_field":
        return scale * (-1j / xi**3) * quasistatic
    raise ValueError(f"unknown mode {mode!r}")


def tensor_tag_value(tensor: np.ndarray, tag):
    """Numeric value of a formal tensor factor (kind, k, l), one per
    tensor of a (..., 3, 3) batch."""
    kind, k, l = tag
    value = tensor[..., k, l]
    return np.conj(value) if kind == "conj" else value


@functools.cache
def _sandwich_maps():
    """Sparse 16x16 maps O -> X O Y of one atom, by (X, Y) label.

    Labels: ("low", k) for D_k, ("raise", l) for D_l^dag and "eye" for
    the identity; only the sides the pieces use are built.
    """
    # scipy.sparse is imported on first use here and in _pair_map, so
    # that --version and cross-section, which build no piece, do not
    # pay about 0.1 s for loading it
    from scipy.sparse import csr_array

    dips = dipole_components()
    ops = {"eye": np.eye(4, dtype=complex)}
    for k in range(3):
        ops[("low", k)] = dips[k]
        ops[("raise", k)] = dips[k].conj().T
    return {(left, right): csr_array(sandwich_matrix(ops[left], ops[right]))
            for left in ops for right in ops
            if (left == "eye") != (right == "eye")}


@functools.cache
def _pair_map(left1, right1, left2, right2):
    """CSR matrix of O1 x O2 -> (L1 O1 R1) x (L2 O2 R2), by labels; the
    feed parts of the two factor kinds share theirs."""
    from scipy.sparse import kron

    maps = _sandwich_maps()
    return kron(maps[(left1, right1)], maps[(left2, right2)], format="csr")


def _ordered_piece(kind: str, k: int, l: int):
    """Shift plus feed matrix for the ordered, un-symmetrized index pair
    (k, l) and factor kind, with both atom orderings summed."""
    dk, dl_dag, eye = ("low", k), ("raise", l), "eye"
    # atom orderings (alpha, beta) = (1, 2) and (2, 1); the lowering
    # operator always sits on atom alpha, left of the density operator
    # for the conjugate factor and right of it for the direct one
    if kind == "conj":
        shift = -(_pair_map(dk, eye, dl_dag, eye)
                  + _pair_map(dl_dag, eye, dk, eye))
    else:
        shift = -(_pair_map(eye, dk, eye, dl_dag)
                  + _pair_map(eye, dl_dag, eye, dk))
    feed = _pair_map(dk, eye, eye, dl_dag) + _pair_map(eye, dl_dag, dk, eye)
    return shift + feed


@functools.cache
def sparse_interaction_pieces():
    """Canonical tag -> CSR matrix multiplying that formal factor, for
    applying it to coefficient vectors: each piece holds 160-640
    nonzeros of 65,536.

    The generator is sum over tags of (tensor factor value) x (piece);
    see ``tensor_tag_value`` for the factor values.  Canonicalization
    folds the symmetric partner (l, k) into the (k, l) piece.
    """
    out = {}
    for kind, k, l in TAG_KEYS:
        piece = _ordered_piece(kind, k, l)
        if k != l:
            piece = piece + _ordered_piece(kind, l, k)
        out[(kind, k, l)] = piece
    return out
