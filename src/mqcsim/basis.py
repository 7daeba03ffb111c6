"""Trace-orthonormal operator basis of a four-level atom, and of the pair.

The single-atom level scheme is a J = 0 ground state |1> and the J = 1
excited triplet in its Cartesian basis: |2>, |3>, |4> are |x>, |y>, |z>
(:mod:`mqcsim.atom` relates them to the m = -1, 0, +1 sublevels).
Dynamical maps in this package are stored as matrices over the 16-element
operator basis assembled here: the normalized identity, three traceless
diagonal combinations, and the twelve off-diagonal matrix units.  The set is
orthonormal under the Hilbert-Schmidt product Tr{A^dag B} and closed under
Hermitian conjugation.

Two-atom operators live on the 256-element product basis Q_i (x) Q_j with
the flat index n = 16*i + j; atom 1 is the left tensor factor.  Every
pair object the package uses is built from single-atom ones by the
Kronecker rule: A (x) B has the coefficients np.kron(expand(A),
expand(B)), and the map O1 (x) O2 -> (X1 O1 Y1) (x) (X2 O2 Y2) the
matrix np.kron(sandwich_matrix(X1, Y1), sandwich_matrix(X2, Y2)),
applied by :func:`apply_factorized`.  So :func:`expand` and
:func:`sandwich_matrix` take 4x4 operators only, and no 256x256 change
of basis is ever built.
"""

from __future__ import annotations

import functools

import numpy as np

HILBERT_DIM = 4
NUM_OPS = 16
NUM_OPS_PAIR = NUM_OPS * NUM_OPS


def matrix_unit(k: int, l: int) -> np.ndarray:
    """Operator |k><l| on the four-level space, with 1-based state labels."""
    m = np.zeros((HILBERT_DIM, HILBERT_DIM), dtype=complex)
    m[k - 1, l - 1] = 1.0
    return m


@functools.cache
def build_single_atom_basis() -> np.ndarray:
    """The 16 single-atom basis operators, shape (16, 4, 4).

    Order: Id/2; the three traceless diagonal combinations with sign
    patterns (-+-+), (++--), (-++-) over (|1>,|2>,|3>,|4>), each divided
    by 2; then the matrix units sigma_14, sigma_41, sigma_13, sigma_31,
    sigma_12, sigma_21, sigma_34, sigma_43, sigma_42, sigma_24, sigma_32,
    sigma_23.  Every element's dagger is again a basis element.
    """
    diag = lambda *signs: np.diag(np.array(signs, dtype=complex))
    ops = [
        np.eye(HILBERT_DIM, dtype=complex) / 2,
        diag(-1, 1, -1, 1) / 2,
        diag(1, 1, -1, -1) / 2,
        diag(-1, 1, 1, -1) / 2,
        matrix_unit(1, 4), matrix_unit(4, 1),
        matrix_unit(1, 3), matrix_unit(3, 1),
        matrix_unit(1, 2), matrix_unit(2, 1),
        matrix_unit(3, 4), matrix_unit(4, 3),
        matrix_unit(4, 2), matrix_unit(2, 4),
        matrix_unit(3, 2), matrix_unit(2, 3),
    ]
    out = np.array(ops)
    out.flags.writeable = False
    return out


@functools.cache
def _flat_single() -> np.ndarray:
    """Row n = vec(Q_n), shape (16, 16)."""
    out = build_single_atom_basis().reshape(NUM_OPS, -1).copy()
    out.flags.writeable = False
    return out


def expand(op: np.ndarray) -> np.ndarray:
    """Coefficients c_n = Tr{Q_n^dag O} of a single-atom operator.

    Accepts a single 4x4 operator or a batch with leading axes.

    Raises:
        ValueError: ``op`` is not made of 4x4 operators.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (HILBERT_DIM, HILBERT_DIM):
        raise ValueError(f"expected 4x4 operators, got shape {op.shape}")
    vec = op.reshape(op.shape[:-2] + (-1,))
    return vec @ np.conj(_flat_single()).T


def sandwich_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficient-space matrix of the single-atom map O -> X O Y.

    The result satisfies expand(X O Y) = M @ expand(O).

    Raises:
        ValueError: ``x`` or ``y`` is not 4x4.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (HILBERT_DIM, HILBERT_DIM) or x.shape != y.shape:
        raise ValueError(f"expected 4x4 factors, got shapes {x.shape} "
                         f"and {y.shape}")
    flat = _flat_single()
    # row-major vec: vec(X O Y) = (X kron Y^T) vec(O)
    return np.conj(flat) @ np.kron(x, y.T) @ flat.T


def apply_factorized(m1: np.ndarray, m2: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply np.kron(m1, m2) to one or more coefficient vectors.

    With the flat pair index n = 16*i + j, that map acts as m1 on atom
    1's basis index i and as m2 on atom 2's index j.

    The leading axis (length 256) splits into (16, 16); any trailing
    axes are batch axes, so the product costs O(16^3) per vector
    instead of O(256^2).
    """
    c = coeffs.reshape(NUM_OPS, NUM_OPS, -1)
    left = (m1 @ c.reshape(NUM_OPS, -1)).reshape(c.shape)
    return np.matmul(m2, left).reshape(coeffs.shape)
