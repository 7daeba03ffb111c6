"""Resonant dipole-dipole coupling between the two atoms.

The retarded field of one atom drives the other; to second order in the
atom-field coupling this produces a pair interaction governed by a 3x3
complex symmetric tensor depending on the dimensionless separation
xi = k0 r and the orientation n of the interatomic axis.  Its real part
is the collective-decay kernel, its imaginary part the coherent
(level-shift) kernel.

The induced generator splits into two physically distinct parts.  The
level-shift part multiplies from one side by the complex operator
sum_kl T_kl (D_alpha^dag)_k (D_beta)_l (and from the other side by its
conjugate-tensor partner): it moves excitation from one atom to the
other within the same side of the operator.  The cross-feed part
sandwiches the operator between raising and lowering operators of
different atoms, weighted by twice the decay kernel: it is the
collective analogue of the single-atom decay feed.

For the perturbative expansion the generator is kept symbolic in the
tensor entries: ``interaction_pieces`` returns, per formal factor
(the tensor entry itself or its complex conjugate, indices k <= l with
the symmetric partner folded in), the 256x256 matrix multiplying that
factor.  Contracting the pieces with a concrete tensor reproduces the
assembled generator, which is what ``interaction_matrices`` does.

Superoperator matrices follow the conventions of :mod:`mqcsim.basis`;
``picture`` is "observable" (as the generator acts on observables) or
"state" (its adjoint, acting on density operators).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .atom import dipole_components
from .basis import NUM_OPS_PAIR, kron_superop, sandwich_matrix

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


def _pair_map(left1, right1, left2, right2) -> np.ndarray:
    """256x256 matrix of O1 x O2 -> (L1 O1 R1) x (L2 O2 R2)."""
    return kron_superop(sandwich_matrix(left1, right1),
                        sandwich_matrix(left2, right2))


@functools.cache
def _ordered_pieces():
    """Observable-picture shift/feed matrices per ordered tensor index (k, l).

    Returns (shift_direct, shift_conj, feed): each a (3, 3) object array of
    256x256 matrices for the ordered, un-symmetrized index pair, with both
    atom orderings summed.
    """
    dips = dipole_components()
    eye = np.eye(4, dtype=complex)
    shift_direct = np.empty((3, 3), dtype=object)
    shift_conj = np.empty((3, 3), dtype=object)
    feed = np.empty((3, 3), dtype=object)
    for k in range(3):
        dk_dag = dips[k].conj().T
        for l in range(3):
            dl = dips[l]
            # atom orderings (alpha, beta) = (1, 2) and (2, 1); the raising
            # operator always sits on atom alpha
            shift_direct[k, l] = -(_pair_map(dk_dag, eye, dl, eye)
                                   + _pair_map(dl, eye, dk_dag, eye))
            shift_conj[k, l] = -(_pair_map(eye, dk_dag, eye, dl)
                                 + _pair_map(eye, dl, eye, dk_dag))
            feed[k, l] = (_pair_map(dk_dag, eye, eye, dl)
                          + _pair_map(eye, dl, dk_dag, eye))
    return shift_direct, shift_conj, feed


@functools.cache
def _split_pieces(picture: str):
    """Canonical tag -> (shift, feed) matrices in the requested picture.

    Canonicalization folds the symmetric partner (l, k) into the (k, l)
    piece.  The state picture is the Hilbert-Schmidt adjoint, which also
    swaps the "direct" and "conj" factor kinds.
    """
    if picture == "state":
        swapped = {"direct": "conj", "conj": "direct"}
        obs = _split_pieces("observable")
        return {(kind, k, l): tuple(m.conj().T for m in obs[(swapped[kind], k, l)])
                for (kind, k, l) in TAG_KEYS}
    if picture != "observable":
        raise ValueError(f"unknown picture {picture!r}")
    shift_direct, shift_conj, feed = _ordered_pieces()
    shift_of = {"direct": shift_direct, "conj": shift_conj}
    out = {}
    for kind, k, l in TAG_KEYS:
        shift = shift_of[kind][k, l].copy()
        fd = feed[k, l].copy()
        if k != l:
            shift += shift_of[kind][l, k]
            fd += feed[l, k]
        out[(kind, k, l)] = (shift, fd)
    return out


@functools.cache
def interaction_pieces(picture: str = "observable"):
    """Canonical tag -> 256x256 matrix multiplying that formal factor.

    The generator is sum over tags of (tensor factor value) x (piece);
    see ``tensor_tag_value`` for the factor values.
    """
    return {tag: shift + fd for tag, (shift, fd) in _split_pieces(picture).items()}


@functools.cache
def sparse_interaction_pieces():
    """State-picture ``interaction_pieces`` as CSR matrices, for applying
    them to coefficient vectors: each piece holds 160-640 nonzeros of
    65,536."""
    # imported on first use: loading scipy.sparse ahead of scipy.integrate
    # (which loads it anyway) adds about 0.1 s to every CLI start
    from scipy.sparse import csr_array

    return {tag: csr_array(piece)
            for tag, piece in interaction_pieces("state").items()}


@dataclass(frozen=True)
class InteractionMatrices:
    """Assembled pair-interaction generator over the two-atom basis.

    ``total = level_shift + cross_feed``; the cross-feed part carries the
    collective decay (it vanishes when the tensor is purely imaginary).
    """

    total: np.ndarray
    level_shift: np.ndarray
    cross_feed: np.ndarray


def interaction_matrices(tensor: np.ndarray, picture: str = "observable") -> InteractionMatrices:
    """Contract the symbolic pieces with a concrete coupling tensor."""
    shift = np.zeros((NUM_OPS_PAIR, NUM_OPS_PAIR), dtype=complex)
    fd = np.zeros_like(shift)
    pieces = _split_pieces(picture)
    for tag in TAG_KEYS:
        value = tensor_tag_value(tensor, tag)
        shift += value * pieces[tag][0]
        fd += value * pieces[tag][1]
    return InteractionMatrices(total=shift + fd, level_shift=shift, cross_feed=fd)
