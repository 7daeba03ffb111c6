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
tensor entries: there is one piece per formal factor (the tensor entry
itself or its complex conjugate, indices k <= l with the symmetric
partner folded in), the 256x256 matrix multiplying that factor, and
``interaction_products`` applies all twelve.  Contracting the pieces
with a concrete tensor, each piece times its factor's value, reproduces
the assembled generator.

The pieces are plain numpy arrays, and only this module reads them.
Each is built from the nonzeros of the 16x16 single-atom sandwich maps:
a Kronecker product of two maps' entries has row 16 i1 + i2, column
16 j1 + j2 and value a b, and the shift and feed products are summed in
a fixed order, as CSR sums add them, so the entries are those a
scipy.sparse build gives.  One kernel applies them,
:func:`csr_transposed_product`, to numpy CSR arrays (indptr, indices,
data): it visits only the rows where its argument is nonzero, and sums
every output entry left to right, in the order of a CSR product, so
entries that cancel are exact zeros as they were.
:func:`interaction_products` applies all twelve pieces, or all twelve
transposes, in one pass over the pieces' CSR arrays side by side.

Superoperator matrices follow the conventions of :mod:`mqcsim.basis`
and act on density-operator coefficients, as the master equation does.
The generator acting on observables is their Hilbert-Schmidt adjoint,
the conjugate transpose of the matrix.
"""

from __future__ import annotations

import functools

import numpy as np

from .atom import dipole_components
from .basis import NUM_OPS, NUM_OPS_PAIR, sandwich_matrix

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
            1/xi transverse term only.

    Returns:
        The tensor, shape (3, 3), or (B, 3, 3) for a batch.

    Raises:
        ValueError: ``mode`` is neither "exact" nor "far_field".

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
    raise ValueError(f"unknown mode {mode!r}")


def tensor_tag_value(tensor: np.ndarray, tag):
    """Numeric value of a formal tensor factor (kind, k, l), one per
    tensor of a (..., 3, 3) batch."""
    kind, k, l = tag
    value = tensor[..., k, l]
    return np.conj(value) if kind == "conj" else value


@functools.cache
def _sandwich_maps():
    """Nonzeros of the 16x16 maps O -> X O Y of one atom, by (X, Y)
    label, as (rows, columns, values) in row-major order.

    Labels: ("low", k) for D_k, ("raise", l) for D_l^dag and "eye" for
    the identity; only the sides the pieces use are built.
    """
    dips = dipole_components()
    ops = {"eye": np.eye(4, dtype=complex)}
    for k in range(3):
        ops[("low", k)] = dips[k]
        ops[("raise", k)] = dips[k].conj().T
    out = {}
    for left in ops:
        for right in ops:
            if (left == "eye") != (right == "eye"):
                dense = sandwich_matrix(ops[left], ops[right])
                rows, cols = np.nonzero(dense)
                out[(left, right)] = rows, cols, dense[rows, cols]
    return out


def _add(a, b):
    """Sum of two canonical (keys, values) matrices as a CSR sum makes
    it: a + b where both hold an entry, a + 0 or 0 + b where one does,
    exact zeros dropped.  Canonical means sorted by the flat index
    row * 256 + column, with no index twice."""
    keys = np.sort(np.concatenate([a[0], b[0]]))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    left, right = np.zeros((2, len(keys)), dtype=complex)
    left[np.searchsorted(keys, a[0])] = a[1]
    right[np.searchsorted(keys, b[0])] = b[1]
    summed = left + right
    kept = summed != 0
    return keys[kept], summed[kept]


def _pair_map(left1, right1, left2, right2):
    """Canonical (keys, values) of O1 x O2 -> (L1 O1 R1) x (L2 O2 R2),
    the Kronecker product of two single-atom maps, by labels."""
    maps = _sandwich_maps()
    r1, c1, v1 = maps[(left1, right1)]
    r2, c2, v2 = maps[(left2, right2)]
    rows = (NUM_OPS * r1[:, None] + r2).ravel()
    cols = (NUM_OPS * c1[:, None] + c2).ravel()
    keys = rows * NUM_OPS_PAIR + cols
    order = np.argsort(keys)
    return keys[order], (v1[:, None] * v2).ravel()[order]


def _ordered_piece(pair_map, kind: str, k: int, l: int):
    """Shift plus feed matrix for the ordered, un-symmetrized index pair
    (k, l) and factor kind, with both atom orderings summed, from
    ``pair_map``: :func:`_pair_map` or a cache of it."""
    dk, dl_dag, eye = ("low", k), ("raise", l), "eye"
    # atom orderings (alpha, beta) = (1, 2) and (2, 1); the lowering
    # operator always sits on atom alpha, left of the density operator
    # for the conjugate factor and right of it for the direct one
    if kind == "conj":
        keys, shift = _add(pair_map(dk, eye, dl_dag, eye),
                           pair_map(dl_dag, eye, dk, eye))
    else:
        keys, shift = _add(pair_map(eye, dk, eye, dl_dag),
                           pair_map(eye, dl_dag, eye, dk))
    feed = _add(pair_map(dk, eye, eye, dl_dag),
                pair_map(eye, dl_dag, dk, eye))
    return _add((keys, -shift), feed)


def _compressed(major, minor, values, size: int):
    """Compressed arrays (indptr, indices, data) of entries grouped by
    ``major`` (``size`` groups), in increasing ``minor`` within each."""
    order = np.lexsort((minor, major))
    indptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(major, minlength=size), out=indptr[1:])
    return indptr, minor[order].astype(np.intp), values[order]


def _pieces():
    """Canonical (keys, values) of every piece, by tag.  The feed parts
    of the two factor kinds share their pair maps, cached for this build
    only."""
    pair_map = functools.cache(_pair_map)
    out = {}
    for kind, k, l in TAG_KEYS:
        piece = _ordered_piece(pair_map, kind, k, l)
        if k != l:
            piece = _add(piece, _ordered_piece(pair_map, kind, l, k))
        out[(kind, k, l)] = piece
    return out


@functools.cache
def _side_by_side() -> tuple:
    """CSR arrays of the 256 x (12 * 256) matrix [M_1 ... M_12], in
    ``TAG_KEYS`` order, whose transpose stacks the pieces, indexed by
    ``transposed``: M_i is the transposed piece, or with ``transposed``
    the piece itself, whose transpose is then stacked.

    Both are built from one pass over the pieces, and only they are
    kept for the run."""
    pieces = _pieces()
    out = []
    for transposed in (False, True):
        rows, cols, values = [], [], []
        for i, tag in enumerate(TAG_KEYS):
            keys, data = pieces[tag]
            row, col = np.divmod(keys, NUM_OPS_PAIR)
            if not transposed:
                row, col = col, row
            rows.append(row)
            cols.append(col + i * NUM_OPS_PAIR)
            values.append(data)
        out.append(_compressed(np.concatenate(rows), np.concatenate(cols),
                               np.concatenate(values), NUM_OPS_PAIR))
    return tuple(out)


def interaction_products(x: np.ndarray, transposed: bool = False):
    """Every piece, or every transposed piece, times ``x`` (shape (256,)
    or (256, K)), in ``TAG_KEYS`` order: shape (12, 256) + x.shape[1:].

    One :func:`csr_transposed_product` of the blocks side by side
    (:func:`_side_by_side`), so that one pass over the support of ``x``
    serves all twelve.
    """
    out = csr_transposed_product(_side_by_side()[transposed], x,
                                 len(TAG_KEYS) * NUM_OPS_PAIR)
    return out.reshape((len(TAG_KEYS), NUM_OPS_PAIR) + x.shape[1:])


def csr_transposed_product(matrix, x: np.ndarray,
                           size: int = NUM_OPS_PAIR) -> np.ndarray:
    """M^T @ x for the CSR arrays ``matrix`` of a matrix M with ``size``
    columns, and ``x`` of shape (rows of M,) or (rows of M, K).

    Only the rows j of M where ``x`` has a nonzero row are visited, in
    increasing order, each adding its entries times x[j] to the output
    rows that its column indices name.  So every output entry sums its
    terms left to right from +0, in the order of a CSR product of M^T,
    and leaving out terms that are all zero changes no bit: entries that
    cancel are exact zeros there too, and the chain prunes the same
    monomials.  The cost follows the support of ``x``: the chain's
    vectors and covectors are nonzero on a few dozen rows of 256.
    """
    indptr, indices, data = matrix
    scale = data.reshape((-1,) + (1,) * (x.ndim - 1))
    out = np.zeros((size,) + x.shape[1:], dtype=complex)
    for j in np.flatnonzero(x.reshape(len(x), -1).any(axis=1)):
        lo, hi = indptr[j], indptr[j + 1]
        out[indices[lo:hi]] += scale[lo:hi] * x[j]
    return out
