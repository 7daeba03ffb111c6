"""Checks for the geometry average: survival filtering, the isotropic
projector moment, and the factor-pair collapse."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from mqcsim import disorder
from mqcsim.coupling import TAG_KEYS, coupling_tensor
from mqcsim.disorder import (
    AVERAGE_MODES,
    _pair_weights,
    angular_average,
    average_state,
    averaged_solution,
    isotropic_projector_moment,
    mean_inverse_xi_squared,
    survival_filter,
)
from mqcsim.expansion import (PhaseMonomial, _chain_rows, _on_grid,
                              scattering_solution)

WINDOW = (67.2, 92.8)


def test_mean_inverse_xi_squared_values():
    assert mean_inverse_xi_squared(xi_bar=80.0) == pytest.approx(1.0 / 6400.0)
    lo, hi = WINDOW
    # uniform window: integral of 1/xi^2 over [lo, hi] divided by hi - lo
    assert mean_inverse_xi_squared(window=WINDOW) == pytest.approx(1.0 / (lo * hi))
    numeric = quad(lambda x: x**-2, lo, hi)[0] / (hi - lo)
    assert mean_inverse_xi_squared(window=WINDOW) == pytest.approx(numeric, rel=1e-12)


def test_mean_inverse_xi_squared_validation():
    with pytest.raises(ValueError):
        mean_inverse_xi_squared()
    with pytest.raises(ValueError):
        mean_inverse_xi_squared(xi_bar=80.0, window=WINDOW)
    with pytest.raises(ValueError):
        mean_inverse_xi_squared(window=(5.0, 2.0))
    with pytest.raises(ValueError):
        mean_inverse_xi_squared(window=(-1.0, 2.0))
    # windows whose 1/(lo hi) is infinite or zero
    for window in ((1e-200, 1e-150), (1e200, 1e250)):
        with pytest.raises(ValueError):
            mean_inverse_xi_squared(window=window)
    # a separation whose 1/xi^2 is zero, infinite or undefined
    for xi_bar in (0.0, 1e-200, 1e200):
        with pytest.raises(ValueError):
            mean_inverse_xi_squared(xi_bar=xi_bar)


def test_survival_filter_keeps_cancelling_position_phases():
    kept = [(0, 0, 0, 0), (-1, 1, 0, 0), (0, 0, -1, 1), (-1, 1, -1, 1)]
    dropped = [(-1, 0, 0, 1), (1, 0, 0, 0), (-1, -1, 1, 1)]
    vec = {PhaseMonomial(powers): np.ones(256) for powers in kept + dropped}
    out = survival_filter(vec)
    assert {m.powers for m, _ in out.items()} == set(kept)


def _sphere_average(func):
    """Isotropic average, exact for low-degree polynomials in the axis."""
    nodes, weights = leggauss(8)
    phis = np.linspace(0.0, 2.0 * np.pi, 17)[:-1]
    total = 0.0
    for u, w in zip(nodes, weights):
        s = np.sqrt(1.0 - u * u)
        for phi in phis:
            total += w * func(np.array([s * np.cos(phi), s * np.sin(phi), u]))
    return total / (2.0 * len(phis))


def test_projector_moment_reference_values():
    assert isotropic_projector_moment(0, 0, 0, 0) == pytest.approx(8.0 / 15.0)
    assert isotropic_projector_moment(0, 1, 0, 1) == pytest.approx(1.0 / 15.0)
    assert isotropic_projector_moment(0, 0, 1, 1) == pytest.approx(2.0 / 5.0)
    assert isotropic_projector_moment(0, 1, 1, 0) == pytest.approx(1.0 / 15.0)
    assert isotropic_projector_moment(0, 1, 2, 0) == 0.0


def test_projector_moment_matches_sphere_quadrature():
    for k in range(3):
        for l in range(3):
            for m in range(3):
                for n in range(3):
                    numeric = _sphere_average(
                        lambda a: (np.eye(3) - np.outer(a, a))[k, l]
                        * (np.eye(3) - np.outer(a, a))[m, n])
                    assert isotropic_projector_moment(k, l, m, n) == pytest.approx(
                        numeric, abs=1e-13)


def test_angular_average_values_and_symmetry():
    inv2 = mean_inverse_xi_squared(window=WINDOW)
    scale = 0.75 ** 2 * inv2
    mixed = (("direct", 0, 0), ("conj", 0, 0))
    assert angular_average(mixed, inv2) == pytest.approx(scale * 8.0 / 15.0)
    assert angular_average(mixed[::-1], inv2) == pytest.approx(
        angular_average(mixed, inv2))
    same = (("direct", 0, 1), ("direct", 0, 1))
    assert angular_average(same, inv2) == 0.0
    # removing the decay kernel halves the mixed pair and revives same-kind
    assert angular_average(mixed, inv2, mode="level_shift_only") == (
        pytest.approx(0.5 * scale * 8.0 / 15.0))
    assert angular_average(same, inv2, mode="level_shift_only") == (
        pytest.approx(-0.5 * scale / 15.0))
    with pytest.raises(ValueError):
        angular_average(mixed, inv2, mode="bogus")


@pytest.mark.parametrize("mode", AVERAGE_MODES)
def test_pair_weights_table_is_the_angular_average(mode):
    inv2 = mean_inverse_xi_squared(window=WINDOW)
    weights = _pair_weights(inv2, mode)
    assert weights.shape == (12, 12) and weights.dtype == float
    for i, first in enumerate(TAG_KEYS):
        for j, second in enumerate(TAG_KEYS):
            assert weights[i, j] == angular_average((first, second), inv2,
                                                    mode)
    assert np.array_equal(weights, weights.T)
    assert np.count_nonzero(weights)
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0, 0] = 1.0
    assert _pair_weights(inv2, mode) is weights


def _window_pair_average(k, l, m, n, conjugate_second, transform=None):
    """Numeric <factor factor> over the window and isotropic axis, using
    the actual far-field tensor."""
    lo, hi = WINDOW

    def angular(xi):
        def product(a):
            t = coupling_tensor(xi, a, mode="far_field")
            if transform is not None:
                t = transform(t)
            second = np.conj(t[m, n]) if conjugate_second else t[m, n]
            return t[k, l] * second

        return _sphere_average(product)

    real = quad(lambda xi: angular(xi).real, lo, hi, limit=200)[0]
    imag = quad(lambda xi: angular(xi).imag, lo, hi, limit=200)[0]
    return (real + 1j * imag) / (hi - lo)


def test_angular_average_matches_far_field_quadrature():
    inv2 = mean_inverse_xi_squared(window=WINDOW)
    for k, l, m, n in [(0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1)]:
        tags = (("direct", k, l), ("conj", m, n))
        want = angular_average(tags, inv2)
        # factor-conjugate pairs lose the xi oscillation exactly
        got = _window_pair_average(k, l, m, n, conjugate_second=True)
        assert got == pytest.approx(want, rel=1e-9)
    # same-kind pairs keep e^{-2 i xi} and average near zero: bound the
    # leftover oscillation against the mixed-pair weight
    leftover = _window_pair_average(0, 0, 0, 0, conjugate_second=False)
    mixed = angular_average((("direct", 0, 0), ("conj", 0, 0)), inv2)
    assert abs(leftover) < 0.05 * abs(mixed)


def test_level_shift_only_average_matches_quadrature():
    inv2 = mean_inverse_xi_squared(window=WINDOW)
    strip = lambda t: 1j * t.imag
    for conjugate, kind2 in ((True, "conj"), (False, "direct")):
        got = _window_pair_average(0, 0, 0, 0, conjugate, transform=strip)
        want = angular_average((("direct", 0, 0), (kind2, 0, 0)), inv2,
                               mode="level_shift_only")
        # the asymptotic weight ignores the oscillatory half of cos^2
        assert got == pytest.approx(want, rel=5e-2)


def test_average_state_collapses_factor_pairs():
    inv2 = mean_inverse_xi_squared(xi_bar=80.0)
    bare = PhaseMonomial((-1, 1, 0, 0))
    pair_a = bare.tagged(("direct", 0, 0)).tagged(("conj", 0, 0))
    pair_b = bare.tagged(("direct", 0, 1)).tagged(("conj", 0, 1))
    same = bare.tagged(("direct", 0, 0)).tagged(("direct", 0, 0))
    vec = {
        bare: np.arange(256.0),
        PhaseMonomial((1, 0, 0, 0)): np.ones(256),  # fails survival
        bare.tagged(("direct", 0, 0)): np.ones(256),  # single factor
        pair_a: np.full(256, 2.0),
        pair_b: np.full(256, 3.0),
        same: np.ones(256),
    }
    out = average_state(vec, inv2)
    assert {m.powers for m, _ in out.items()} == {bare.powers}
    assert all(m.tags == () for m, _ in out.items())
    weight_a = angular_average(pair_a.tags, inv2)
    weight_b = angular_average(pair_b.tags, inv2)
    want = np.arange(256.0) + 2.0 * weight_a + 3.0 * weight_b
    np.testing.assert_allclose(out[bare], want, atol=1e-15)


def test_average_state_rejects_higher_orders():
    triple = PhaseMonomial((0, 0, 0, 0))
    for _ in range(3):
        triple = triple.tagged(("direct", 0, 0))
    with pytest.raises(ValueError):
        average_state({triple: np.ones(256)}, 1.0 / 6400.0)


def test_average_state_on_demodulated_chain():
    inv2 = mean_inverse_xi_squared(xi_bar=80.0)
    vec = scattering_solution(2, 0.3 + 0.1j, 0.4, channel="parallel",
                              kappa=1)
    out = average_state(vec, inv2)
    # demodulation plus survival pin the exponents: per pulse -1/+1 net,
    # per atom zero net
    assert {m.powers for m, _ in out.items()} <= {(-1, 1, 0, 0), (0, 0, -1, 1)}
    assert len(out) > 0
    for monomial, coeffs in out.items():
        assert monomial.tags == ()
        assert np.any(coeffs != 0.0)


@pytest.mark.parametrize("mode", AVERAGE_MODES)
def test_averaged_solution_builds_no_chain_whose_weights_are_all_zero(
        monkeypatch, mode):
    # at kappa = 1 in the perpendicular channel every key of the chain
    # has odd x and y counts, and the isotropic moment of its factor pair
    # is zero: the result read without the chain is its weighted sum
    z1 = 1j * np.linspace(-3.0, 3.0, 7)
    theta, channel, kappa = 0.14 * np.pi, "perpendicular", 1
    inv2 = mean_inverse_xi_squared(xi_bar=80.0)
    axis, rows = _chain_rows((0, 2), z1, theta, kappa, zero_phase=True)
    rows = rows[channel]
    assert rows and all(len(tags) == 2 for _, tags in rows)
    weights = _pair_weights(inv2, mode)
    column = {tag: i for i, tag in enumerate(TAG_KEYS)}
    weighted = sum(weights[column[a], column[b]] * part
                   for (_, (a, b)), part in rows.items())
    monkeypatch.setattr(disorder, "_chain", None)
    got = averaged_solution(z1, theta, channel, kappa, inv_xi_squared=inv2,
                            mode=mode)
    np.testing.assert_array_equal(got, _on_grid(axis, weighted, z1))
    assert got.shape == (2, z1.size) and not np.any(got)
