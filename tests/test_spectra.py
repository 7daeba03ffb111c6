"""Checks for the detection projection, the averaged spectra, and the
closed-form observables."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import constants
from scipy.integrate import quad
from scipy.special import erfcx

from mqcsim.atom import dipole_lowering
from mqcsim.basis import matrix_unit
from mqcsim.disorder import average_state, averaged_solution, mean_inverse_xi_squared
from mqcsim.expansion import PhaseMonomial, scattering_solution
from mqcsim import atom, basis, coupling, disorder, expansion, spectra
from mqcsim.spectra import (
    DETECTION_DIRECTIONS,
    SpectrumSeries,
    detection_observable,
    detection_projection,
    dipole_from_gamma,
    leading_order_peaks,
    mean_free_path,
    mean_scattering_cross_section,
    pulse_area_from_energy,
    directional_spectra,
    spectrum,
)
from reference import pair_expand


def _single_state_vector(atom1, atom2):
    coeffs = pair_expand(np.kron(atom1, atom2))
    return {PhaseMonomial((0, 0, 0, 0)): coeffs}


def test_detection_observable_reads_transverse_populations():
    xx = dipole_lowering("x").conj().T @ dipole_lowering("x")
    zz = dipole_lowering("z").conj().T @ dipole_lowering("z")
    yy = dipole_lowering("y").conj().T @ dipole_lowering("y")
    np.testing.assert_allclose(detection_observable("x"), yy + zz, atol=1e-14)
    np.testing.assert_allclose(detection_observable("y"), xx + zz, atol=1e-14)
    with pytest.raises(ValueError):
        detection_observable("q")
    with pytest.raises(ValueError):
        detection_observable([1.0, 0.0, 0.0])


def test_detection_projection_single_atom_examples():
    xx = dipole_lowering("x").conj().T @ dipole_lowering("x")
    ground = matrix_unit(1, 1)
    excited_x = _single_state_vector(xx, ground)
    assert detection_projection(excited_x, "y")[0] == pytest.approx(1.0)
    # an atom in the x sublevel cannot emit toward the x detector
    assert detection_projection(excited_x, "x")[0] == pytest.approx(0.0, abs=1e-14)
    both_ground = _single_state_vector(ground, ground)
    for direction in ("x", "y"):
        assert detection_projection(both_ground, direction)[0] == (
            pytest.approx(0.0, abs=1e-14))


def test_detection_projection_rejects_unfinished_components():
    tagged = {PhaseMonomial((0, 0, 0, 0)).tagged(("direct", 0, 0)):
              np.ones(256)}
    with pytest.raises(ValueError):
        detection_projection(tagged, "x")
    unbalanced = {PhaseMonomial((1, 0, 0, 0)): np.ones(256)}
    with pytest.raises(ValueError):
        detection_projection(unbalanced, "x")


def _reference_rows(order, z1, theta, channel, kappa, inv2, mode="full",
                    fast=False):
    """Detector rows of the forward chain, averaged after the fact."""
    full = scattering_solution(order, z1, theta, channel=channel,
                               kappa=kappa, fast=fast)
    averaged = average_state(full, inv2, mode=mode)
    return np.array([
        np.broadcast_to(detection_projection(averaged, d).get(kappa, 0.0),
                        (np.size(z1),))
        for d in DETECTION_DIRECTIONS])


def _assert_matches_summed_references(z1, every, theta, channel, kappa, inv2,
                                      mode, fast, vanishing):
    """``averaged_solution`` on ``z1`` against the sum over orders 0 and 2
    of the averaged forward chain, taken at every ``every``-th point."""
    got = averaged_solution(z1, theta, channel=channel, kappa=kappa,
                            inv_xi_squared=inv2, mode=mode, fast=fast)
    assert got.shape == (2, len(z1))
    want = sum(_reference_rows(order, z1[::every], theta, channel, kappa,
                               inv2, mode, fast) for order in (0, 2))
    _assert_rows_match(got[:, ::every], want, vanishing)


#: one point off the axis, and fig4's 801-point grid, which the chain
#: carries as exact pole labels; the forward reference there is taken at
#: every hundredth point
GRIDS = ((np.array([0.3 + 0.2j]), 1),
         (1j * np.linspace(-10.0, 10.0, 801), 100))


#: (kappa, channel, mode) of every averaged case
AVERAGED_CASES = (
    (1, "parallel", "full"),
    (2, "perpendicular", "full"),
    (1, "perpendicular", "full"),
    (2, "parallel", "full"),
    (1, "parallel", "level_shift_only"),
    (2, "parallel", "level_shift_only"),
    (2, "perpendicular", "level_shift_only"),
    (1, "perpendicular", "level_shift_only"),
)


def _averaged_case(kappa, channel, mode, theta, xi_bar):
    """One case, named by (kappa, channel, mode), with the pulse area
    and the separation appended unless they are 0.8 and 80."""
    name = f"{kappa}-{channel}-{mode}"
    if (theta, xi_bar) != (0.8, 80.0):
        name += f"-theta{theta:.3g}-xi{xi_bar:g}"
    return pytest.param(kappa, channel, mode, theta, xi_bar, id=name)


@pytest.mark.parametrize("kappa,channel,mode,theta,xi_bar", [
    _averaged_case(*case, theta, xi_bar)
    for theta in (0.8, 0.14 * np.pi, 1.3) for xi_bar in (80.0, 20.0)
    for case in AVERAGED_CASES])
def test_averaged_solution_matches_reference_chain(kappa, channel, mode,
                                                   theta, xi_bar):
    inv2 = mean_inverse_xi_squared(xi_bar=xi_bar)
    # crossed pulses leave no one-quantum signal: the chain keeps only
    # keys whose tags hold x and y an odd number of times, which the
    # average weights by zero, so those rows are exactly zero (against an
    # order-0 parallel peak of 0.3); without collective decay they leave
    # no two-quantum signal either (the kappa = 2 interpulse insertions
    # vanish, so this is the fast chain's case below)
    vanishing = 1e-16 if (kappa, channel) == (1, "perpendicular") else None
    if (kappa, channel, mode) == (2, "perpendicular", "level_shift_only"):
        vanishing = 1e-18
    for z1, every in GRIDS:
        _assert_matches_summed_references(
            z1, every, theta, channel, kappa, inv2, mode, False, vanishing)


def _assert_rows_match(got, want, vanishing=None):
    """Rows agree to 1e-12 of the reference's peak; a vanishing signal
    must be roundoff below ``vanishing`` on both sides."""
    if vanishing is not None:
        assert max(np.max(np.abs(got)), np.max(np.abs(want))) < vanishing
        return
    scale = np.max(np.abs(want))
    assert scale > 1e-9
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("kappa,channel", [
    (1, "parallel"),
    (2, "parallel"),
    (2, "perpendicular"),
])
def test_fast_averaged_solution_matches_reference_chain(kappa, channel):
    inv2 = mean_inverse_xi_squared(xi_bar=80.0)
    for z1, every in GRIDS + ((np.array([-0.7j, 0.3 + 0.2j, 1.1j]), 1),):
        for mode in ("full", "level_shift_only"):
            # with every insertion after the second pulse and no collective
            # decay, crossed pulses leave no two-quantum signal
            vanishing = 1e-18 if (kappa, channel, mode) == (
                2, "perpendicular", "level_shift_only") else None
            _assert_matches_summed_references(
                z1, every, 0.8, channel, kappa, inv2, mode, True, vanishing)


def _independent_atom_values(kappa, theta, detunings):
    """Order-0 (independent-atom) part of a parallel y spectrum, from the
    forward chain."""
    rows = _reference_rows(0, 1j * np.asarray(detunings), theta, "parallel",
                           kappa, 1.0 / 6400.0)
    return rows[DETECTION_DIRECTIONS.index("y")] / np.sqrt(2.0 * np.pi)


def test_spectrum_independent_atom_peak_value():
    theta = 0.6
    c2 = np.cos(theta / 2.0) ** 2
    s2 = np.sin(theta / 2.0) ** 2
    want = 4.0 * c2 * s2 / np.sqrt(2.0 * np.pi)
    (peak,) = _independent_atom_values(1, theta, [0.0])
    assert peak == pytest.approx(want, rel=1e-12)
    # pure single-coherence line: half maximum exactly at half the decay rate
    line = _independent_atom_values(1, theta, [-0.5, 0.0, 0.5])
    assert line[0].real == pytest.approx(0.5 * line[1].real, rel=1e-12)
    assert line[2].real == pytest.approx(0.5 * line[1].real, rel=1e-12)
    # the interaction adds a 1/xi^2 correction on top of it
    s = spectrum(1, "parallel", "y", theta, detunings=np.array([0.0]),
                 xi_bar=80.0)
    assert s.values[0] == pytest.approx(want, rel=1e-3)
    assert s.values[0] != pytest.approx(want, rel=1e-9)


def test_spectrum_perpendicular_one_quantum_channel_vanishes():
    theta = 0.25
    grid = np.linspace(-4.0, 4.0, 21)
    reference = spectrum(1, "parallel", "y", theta, detunings=grid,
                         xi_bar=80.0).values.real.max()
    for direction in ("x", "y"):
        s = spectrum(1, "perpendicular", direction, theta, detunings=grid,
                     xi_bar=80.0)
        assert np.max(np.abs(s.values)) <= 1e-12 * reference


def test_spectrum_two_quantum_needs_interactions():
    grid = np.linspace(-2, 2, 5)
    bare = _independent_atom_values(2, 0.4, grid)
    full = spectrum(2, "parallel", "y", 0.4, detunings=grid, xi_bar=80.0)
    # without photon exchange the double-quantum channel only carries
    # cancellation dust, many orders below the interacting line
    assert np.max(np.abs(bare)) <= 1e-10 * np.max(np.abs(full.values))


def test_spectrum_line_shape_symmetry():
    grid = np.linspace(-6.0, 6.0, 25)
    for kappa in (1, 2):
        s = spectrum(kappa, "parallel", "x", 0.3, detunings=grid, xi_bar=80.0)
        scale = np.max(np.abs(s.values))
        assert np.allclose(s.values.real, s.values.real[::-1],
                           atol=1e-10 * scale)
        assert np.allclose(s.values.imag, -s.values.imag[::-1],
                           atol=1e-10 * scale)


def _clear_caches():
    """Empty every cache that the spectra's modules fill."""
    for module in (atom, basis, coupling, disorder, expansion, spectra):
        for value in vars(module).values():
            if (hasattr(value, "cache_clear")
                    and value.__module__ == module.__name__):
                value.cache_clear()


def test_fig4_builds_one_chain_per_kappa_and_channel(monkeypatch):
    # both average modes and both channels read the same chain at each
    # kappa, which holds no weights, and its last prefix is never held
    # whole: from cold caches, the eight calls of a fig4 run make two
    # kick-1 calls, one per kappa, and hold at most 8 MB at once (5.4 MB
    # measured with all four chains; 14.4 MB with the last prefix stored)
    _clear_caches()
    apply_kick = expansion.apply_kick
    kicks = []

    def counted(*args, **kwargs):
        kicks.append(args[1])
        return apply_kick(*args, **kwargs)

    monkeypatch.setattr(expansion, "apply_kick", counted)
    tracemalloc.start()
    try:
        for mode in ("full", "level_shift_only"):
            for kappa in (1, 2):
                for channel in ("parallel", "perpendicular"):
                    directional_spectra(kappa, channel, DETECTION_DIRECTIONS,
                                        0.14 * np.pi, xi_bar=80.0,
                                        average_mode=mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kicks == [1] * 2
    assert peak < 8e6


def test_negative_pulse_area_gives_the_same_spectra():
    # -theta is a pi shift of both pulse phases, which demodulation cancels
    grid = np.linspace(-2.0, 2.0, 5)
    for kappa in (1, 2):
        for channel in ("parallel", "perpendicular"):
            plus, minus = (
                directional_spectra(kappa, channel, ("x", "y"), theta, grid,
                                    xi_bar=80.0)
                for theta in (0.44, -0.44))
            for a, b in zip(plus, minus):
                np.testing.assert_array_equal(a.values, b.values)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        spectrum(3, "parallel", "y", 0.1, xi_bar=80.0)
    with pytest.raises(ValueError):
        spectrum(1, "diagonal", "y", 0.1, xi_bar=80.0)
    with pytest.raises(ValueError):
        spectrum(1, "parallel", "y", 0.1)  # no separation distribution
    with pytest.raises(ValueError):
        spectrum(1, "parallel", "y", 0.1, detunings=np.array([1.0, 0.0]),
                 xi_bar=80.0)
    with pytest.raises(ValueError):
        SpectrumSeries(detunings=np.zeros(3), values=np.zeros(2), kappa=1,
                       channel="parallel", direction="y")


def test_spectrum_metadata_and_default_grid():
    s = spectrum(2, "perpendicular", "x", 0.05, xi_bar=80.0,
                 detunings=np.linspace(-1, 1, 11))
    assert (s.kappa, s.channel, s.direction) == (2, "perpendicular", "x")
    assert s.units == "f^2/gamma^2"
    # a class constant, not a field a caller could set
    assert "units" not in {f.name for f in dataclasses.fields(s)}
    default = spectrum(1, "parallel", "y", 0.05, xi_bar=80.0)
    assert default.detunings.size == 801
    assert default.detunings[0] == -10.0 and default.detunings[-1] == 10.0


def test_leading_order_peak_table():
    theta, xi_bar = 0.02, 50.0
    peaks = leading_order_peaks(theta, xi_bar)
    assert peaks[(1, "y", "parallel")] == pytest.approx(theta**2)
    assert peaks[(1, "x", "parallel")] == pytest.approx(
        0.3 * theta**2 / xi_bar**2)
    # amplitude ratios that drop the common prefactor
    assert peaks[(2, "x", "parallel")] / peaks[(1, "x", "parallel")] == (
        pytest.approx(-theta**2 / 32.0))
    assert peaks[(2, "y", "parallel")] / peaks[(2, "y", "perpendicular")] == (
        pytest.approx(34.0))
    assert peaks[(2, "x", "parallel")] / peaks[(2, "x", "perpendicular")] == (
        pytest.approx(4.0))
    assert all(v == 0.0 for k, v in leading_order_peaks(0.0, xi_bar).items())


def test_mean_scattering_cross_section_matches_quadrature():
    wavelength, gamma, delta_bar = 790e-9, 2 * np.pi * 6e6, 2 * np.pi * 560e6
    got = mean_scattering_cross_section(wavelength, gamma, delta_bar)
    peak = 3.0 * wavelength**2 / (2.0 * np.pi)
    spread = np.sqrt(3.0) * delta_bar

    def integrand(delta):
        lorentz = 1.0 / (1.0 + 4.0 * delta**2 / gamma**2)
        weight = np.exp(-0.5 * (delta / spread) ** 2) / (
            spread * np.sqrt(2.0 * np.pi))
        return lorentz * weight

    numeric = peak * quad(integrand, -40 * spread, 40 * spread, limit=400,
                          points=[0.0])[0]
    assert got == pytest.approx(numeric, rel=1e-9)
    # no Doppler spread: bare resonant cross-section
    assert mean_scattering_cross_section(wavelength, gamma, 0.0) == (
        pytest.approx(peak))
    with pytest.raises(ValueError):
        mean_scattering_cross_section(-1.0, gamma, delta_bar)


@pytest.mark.parametrize("u", [2e-3, 1.0, 2.9, 3.1, 30.0, 1e6])
def test_mean_scattering_cross_section_matches_scipy_erfcx(u):
    # on both sides of the switch from exp(u^2) erfc(u) to the continued
    # fraction, against the closed form with scipy's erfcx
    wavelength, gamma = 790e-9, 1.0
    delta_bar = 0.5 * gamma / (np.sqrt(6.0) * u)
    ratio = 0.5 * gamma / (np.sqrt(3.0) * delta_bar)
    closed = (3.0 * wavelength**2 / (2.0 * np.pi) * ratio
              * np.sqrt(0.5 * np.pi) * erfcx(u))
    got = mean_scattering_cross_section(wavelength, gamma, delta_bar)
    assert got == pytest.approx(closed, rel=1e-14)


@pytest.mark.parametrize("delta_bar", [1e-300, 1e-305, 1e-320])
def test_mean_scattering_cross_section_reaches_cold_limit(delta_bar):
    # at a vanishing spread half_width / spread overflows, and
    # u erfcx(u) -> 1/sqrt(pi) leaves the bare resonant cross-section
    wavelength, gamma = 790e-9, 2 * np.pi * 6e6
    cold = mean_scattering_cross_section(wavelength, gamma, 0.0)
    got = mean_scattering_cross_section(wavelength, gamma, delta_bar)
    assert got == pytest.approx(cold, rel=1e-12)


def test_mean_free_path_inverts_density_times_cross_section():
    assert mean_free_path(1e14, 2e-15) == pytest.approx(1.0 / (1e14 * 2e-15))
    with pytest.raises(ValueError):
        mean_free_path(0.0, 1e-16)


def test_si_literals_equal_scipy_constants():
    # the literals spare every run the import of scipy.constants; a new
    # CODATA release there must show up here, not as silent drift
    assert spectra._C_LIGHT == constants.c
    assert spectra._EPSILON_0 == constants.epsilon_0
    assert spectra._HBAR == constants.hbar
    assert spectra._MU_0 == constants.mu_0


def test_dipole_round_trip():
    omega0 = 2 * np.pi * 3e8 / 790e-9
    gamma = 2 * np.pi * 6.067e6
    d = dipole_from_gamma(gamma, omega0)
    # Wigner-Weisskopf: gamma = omega0^3 d^2 / (3 pi epsilon_0 hbar c^3)
    back = omega0**3 * d**2 / (3 * np.pi * constants.epsilon_0
                               * constants.hbar * constants.c**3)
    assert back == pytest.approx(gamma, rel=1e-12)


def test_pulse_area_scalings():
    base = dict(pulse_energy=1e-9, duration=21e-15, beam_cross_section=1e-8,
                dipole=2.5e-29)
    theta = pulse_area_from_energy(**base)
    doubled = pulse_area_from_energy(**{**base, "pulse_energy": 2e-9})
    assert doubled == pytest.approx(np.sqrt(2.0) * theta, rel=1e-12)
    wide = pulse_area_from_energy(**{**base, "beam_cross_section": 2e-8})
    assert wide == pytest.approx(theta / np.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        pulse_area_from_energy(**{**base, "duration": 0.0})
