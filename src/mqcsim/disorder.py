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

:func:`averaged_solution` runs the split driver of the expansion,
:func:`mqcsim.expansion.two_pulse_chain`, with the average interleaved.
The driver builds each interpulse prefix once and runs the splits from
the longest prefix down, freeing each prefix once used, which keeps the
peak memory low.
"""

from __future__ import annotations

from .coupling import sparse_interaction_pieces
from .expansion import (
    PhaseMonomial,
    PhaseTaggedVector,
    demodulation_keep,
    two_pulse_chain,
)

AVERAGE_MODES = ("full", "level_shift_only")


def mean_inverse_xi_squared(xi_bar: float = None, window=None) -> float:
    """<1/xi^2> for a sharp separation xi_bar or a uniform window (lo, hi)."""
    if (xi_bar is None) == (window is None):
        raise ValueError("give exactly one of xi_bar or window")
    if xi_bar is not None:
        square = xi_bar * xi_bar
        value = 1.0 / square if xi_bar > 0 and square > 0 else 0.0
        if not 0.0 < value < float("inf"):
            raise ValueError(f"mean separation xi_bar = {xi_bar!r} must be "
                             "positive with a positive finite 1/xi_bar^2")
        return value
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError(f"invalid window {window!r}")
    return 1.0 / (lo * hi)


def survival_filter(vector: PhaseTaggedVector) -> PhaseTaggedVector:
    """Keep only monomials whose position phases cancel on both atoms."""
    return vector.filtered(lambda m: m.atom_net == (0, 0))


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


def _effective_final_insertions(inv_xi_squared: float, mode: str) -> dict:
    """Per open factor, the CSR matrix performing the last insertion and
    the factor-pair average in one step: sum over closing factors of the
    averaged pair weight times that factor's insertion piece."""
    pieces = sparse_interaction_pieces()
    out = {}
    for first in pieces:
        weights = {second: angular_average((first, second), inv_xi_squared,
                                           mode)
                   for second in pieces}
        out[first] = sum(weight * pieces[second]
                         for second, weight in weights.items()
                         if weight != 0.0)
    return out


def averaged_solution(order: int, z1, theta: float, channel: str = "parallel",
                      kappa: int = 1, *, inv_xi_squared: float, z2=0.0,
                      mode: str = "full", fast: bool = False,
                      restrict_stationary: bool = True) -> PhaseTaggedVector:
    """Geometry-averaged demodulated pair state after both pulses.

    Equal to the full expansion followed by ``average_state``, but the
    average is interleaved with the chain: the second kick keeps only
    components whose position phases already cancel (later insertions
    never change the phase exponents), and the final insertion of each
    split applies the factor-pair weights directly, so the working set
    stays small enough to batch a whole frequency grid through ``z1``.
    """
    if order not in (0, 2):
        raise ValueError("averaged chains support interaction orders 0 and 2")
    demod = demodulation_keep(kappa)
    closing = (_effective_final_insertions(inv_xi_squared, mode)
               if order else None)
    return two_pulse_chain(
        order, z1, z2, theta, channel,
        keep1=lambda m: m.pulse_net[0] == -kappa,
        keep2=lambda m: demod(m) and m.atom_net == (0, 0),
        closing=closing, fast=fast,
        restrict_stationary=restrict_stationary)


def average_state(vector: PhaseTaggedVector, inv_xi_squared: float,
                  mode: str = "full") -> PhaseTaggedVector:
    """Disorder-average a vector: collapse factor pairs, drop the rest.

    Components with a single factor or with surviving position phases
    are removed; factor pairs are replaced by scalar weights; factor-free
    components pass through.  Components with more than two factors are
    outside the single-plus-double-scattering average and raise.
    """
    out = PhaseTaggedVector()
    for monomial, coeffs in survival_filter(vector).items():
        if monomial.degree == 0:
            out.add_term(monomial, coeffs)
            continue
        if monomial.degree == 1:
            continue
        if monomial.degree > 2:
            raise ValueError("average supports at most two coupling factors, "
                             f"got {monomial.degree}")
        weight = angular_average(monomial.tags, inv_xi_squared, mode)
        if weight == 0.0:
            continue
        out.add_term(PhaseMonomial(monomial.powers), weight * coeffs)
    return out
