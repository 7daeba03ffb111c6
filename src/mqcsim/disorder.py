"""Average over random pair geometry (separation and orientation).

The atoms sit at random positions, so the dimensionless separation xi
and the axis direction n are random.  For demodulated signals the
average acts on two distinct objects carried by the phase-tagged
expansion:

  * monomial position phases exp(i m1 k . r1 + i m2 k . r2) with
    m1, m2 the net per-atom exponents: isotropic averaging suppresses
    every term with (m1, m2) != (0, 0) (they appear only combined with
    already small coupling factors and oscillate in xi), so the
    surviving single- and double-scattering average keeps exactly the
    monomials with zero net exponent on each atom;
  * products of two coupling-tensor factors: in the far field each
    factor is (3 / 4 xi) e^{-i xi} times a transverse projector entry
    (gamma = 1 units), so factor-conjugate pairs lose their xi oscillation
    and average to (3 / 4)^2 <1/xi^2> times a universal isotropic
    fourth-moment of the projector, while same-kind pairs keep an
    e^{+-2 i xi} oscillation and average away.

Single factors average away for the same oscillation reason, and
factor-free components pass through untouched, so averaging a vector
collapses every component to a tag-free monomial with a scalar weight.

``mode="level_shift_only"`` replaces each factor by i times its
imaginary part before averaging (the collective-decay part of the
coupling switched off); same-kind pairs then survive with weight
-<Omega Omega> because only half of each product oscillates.

:func:`averaged_solution` is therefore a weighted sum of the chain's
keys.  It reads the chain of the expansion over interaction orders 0
and 2, with the second kick keeping only zero net atom phase, from the
expansion's one chain cache (:func:`mqcsim.expansion._chain`), and
weights every key by the :func:`angular_average` of its two tags, read
from one 12 x 12 table per (<1/xi^2>, mode); a tag-free key has weight
1.  The chain holds no weights, so one chain serves both channels,
both modes and every separation.  Its rows are summed on the chain's own z1 axis with
no key dropped, and the sum is evaluated on the grid once.  No floor
applies here: ``TERM_FLOOR`` would measure keys before they are
weighted, and the order-2 weights are about 1e-4 at xi_bar = 80, so a
key below it can still count against a series that only order 2
carries, as every two-quantum series is.
"""

from __future__ import annotations

import functools

import numpy as np

from .atom import DETECTION_DIRECTIONS
from .coupling import TAG_KEYS
from .expansion import PhaseMonomial, _chain, _key_parity, _merge, _on_grid

AVERAGE_MODES = ("full", "level_shift_only")

#: default uniform window (lo, hi) of the scaled separation xi for
#: configuration averages: 80 +- 16 %
SEPARATION_WINDOW = (67.2, 92.8)


def mean_inverse_xi_squared(xi_bar: float = None, window=None) -> float:
    """<1/xi^2> for a sharp separation xi_bar or a uniform window (lo, hi).

    Raises:
        ValueError: not exactly one of the two is given, the one given
            is invalid, or its <1/xi^2> under- or overflows.
    """
    if (xi_bar is None) == (window is None):
        raise ValueError("give exactly one of xi_bar or window")
    if xi_bar is not None:
        given, rule = f"mean separation xi_bar = {xi_bar!r}", "be positive"
        valid, product = xi_bar > 0, xi_bar * xi_bar
    else:
        lo, hi = window
        given, rule = f"window {window!r}", "satisfy 0 < lo < hi"
        valid, product = 0 < lo < hi, lo * hi
    if not valid:
        raise ValueError(f"{given} must {rule}")
    value = 1.0 / product if product else float("inf")
    if not 0.0 < value < float("inf"):
        raise ValueError(f"{given} gives <1/xi^2> = {value!r}, not in (0, inf)")
    return value


def survival_filter(vector: dict) -> dict:
    """Keep only monomials whose position phases cancel on both atoms."""
    return {m: c for m, c in vector.items() if m.atom_net == (0, 0)}


def isotropic_projector_moment(k: int, l: int, m: int, n: int) -> float:
    """<(I - nn)_kl (I - nn)_mn> over isotropic axis directions.

    The normalized fourth-moment identity
    <n_k n_l n_m n_n> = (d_kl d_mn + d_km d_ln + d_kn d_lm)/15 reduces
    the average to (2/5) d_kl d_mn + (d_km d_ln + d_kn d_lm)/15.
    """
    def delta(i, j):
        return 1.0 if i == j else 0.0

    return (0.4 * delta(k, l) * delta(m, n)
            + (delta(k, m) * delta(l, n) + delta(k, n) * delta(l, m)) / 15.0)


def angular_average(tags, inv_xi_squared: float,
                    mode: str = "full") -> complex:
    """Mean of a product of two far-field coupling factors.

    Args:
        tags: pair of tensor tags ((kind, k, l), (kind, m, n)).
        inv_xi_squared: <1/xi^2> of the separation distribution.
        mode: "full" averages the factors as they stand;
            "level_shift_only" averages them with the decay part
            removed (factor -> i Im factor).

    Returns:
        Scalar weight replacing the factor product under the average.
    """
    if mode not in AVERAGE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    (kind1, k, l), (kind2, m, n) = tags
    scale = 0.75 ** 2 * inv_xi_squared
    moment = isotropic_projector_moment(k, l, m, n)
    mixed = kind1 != kind2
    if mode == "full":
        return scale * moment if mixed else 0.0
    return (0.5 if mixed else -0.5) * scale * moment


@functools.cache
def _pair_weights(inv_xi_squared: float, mode: str) -> np.ndarray:
    """Read-only 12 x 12 table of :func:`angular_average` over every
    pair of tags, in ``TAG_KEYS`` order; cached per argument pair."""
    weights = np.array([[angular_average((first, second), inv_xi_squared,
                                         mode) for second in TAG_KEYS]
                        for first in TAG_KEYS])
    weights.flags.writeable = False
    return weights


def averaged_solution(z1, theta: float, channel: str = "parallel",
                      kappa: int = 1, *, inv_xi_squared: float,
                      mode: str = "full", fast: bool = False) -> np.ndarray:
    """Detected rows of the geometry-averaged demodulated pair state,
    summed over interaction orders 0 and 2: the single- and
    double-scattering terms that survive the average.

    Equal to the full expansion of each order followed by
    ``average_state`` and the detector projection: the chain's second
    kick keeps only zero net atom phase (later insertions never change
    the phase exponents), and each key of two tags is weighted by their
    :func:`angular_average`.  The detection stage is integrated over
    time (z2 = 0), as in :func:`mqcsim.expansion.scattering_solution`.

    Returns:
        array of shape (len(DETECTION_DIRECTIONS), len(z1)): the
        detected value per detector (rows in ``DETECTION_DIRECTIONS``
        order) over the z1 grid.
    """
    z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
    table = _pair_weights(inv_xi_squared, mode)
    if _key_parity(channel, kappa):
        # every key has odd x and y counts, and the isotropic moment of
        # a factor pair vanishes unless each axis index appears an even
        # number of times: every weight is 0, so no chain is read
        return np.zeros((len(DETECTION_DIRECTIONS), z1.size), dtype=complex)
    axis, chains = _chain((0, 2), tuple(z1), theta, kappa, True, fast)
    by_key = chains[channel]
    rows = np.array(list(by_key.values()), dtype=complex).reshape(
        len(by_key), len(DETECTION_DIRECTIONS), axis.size)
    column = {tag: i for i, tag in enumerate(TAG_KEYS)}
    weights = [table[column[pair[0]], column[pair[1]]] if pair else 1.0
               for _, pair in by_key]
    return _on_grid(axis, np.tensordot(weights, rows, axes=1), z1)


def average_state(vector: dict, inv_xi_squared: float,
                  mode: str = "full") -> dict:
    """Disorder-average a vector: collapse factor pairs, drop the rest.

    Components with a single factor or with surviving position phases
    are removed; factor pairs are replaced by scalar weights; factor-free
    components pass through.  Components with more than two factors are
    outside the single-plus-double-scattering average and raise.
    """
    out = {}
    for monomial, coeffs in survival_filter(vector).items():
        if monomial.degree == 0:
            _merge(out, monomial, coeffs)
            continue
        if monomial.degree == 1:
            continue
        if monomial.degree > 2:
            raise ValueError("average supports at most two coupling factors, "
                             f"got {monomial.degree}")
        weight = angular_average(monomial.tags, inv_xi_squared, mode)
        if weight == 0.0:
            continue
        _merge(out, PhaseMonomial(monomial.powers), weight * coeffs)
    return out
