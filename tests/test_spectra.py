"""Checks for the detection projection, the averaged spectra, and the
closed-form observables."""

import numpy as np
import pytest
from scipy.integrate import quad

from mqcsim.atom import dipole_lowering
from mqcsim.basis import expand, matrix_unit, pair_operator
from mqcsim.disorder import average_state, averaged_solution, mean_inverse_xi_squared
from mqcsim.expansion import PhaseMonomial, PhaseTaggedVector, scattering_solution
from mqcsim.spectra import (
    SpectrumSeries,
    detection_observable,
    detection_projection,
    dipole_from_gamma,
    gamma_from_dipole,
    leading_order_peaks,
    mean_free_path,
    mean_scattering_cross_section,
    pulse_area_from_energy,
    spectrum,
)


def _single_state_vector(atom1, atom2):
    coeffs = expand(pair_operator(atom1, atom2))
    return PhaseTaggedVector({PhaseMonomial((0, 0, 0, 0)): coeffs})


def test_detection_observable_reads_transverse_populations():
    xx = dipole_lowering("x").conj().T @ dipole_lowering("x")
    zz = dipole_lowering("z").conj().T @ dipole_lowering("z")
    yy = dipole_lowering("y").conj().T @ dipole_lowering("y")
    np.testing.assert_allclose(detection_observable("x"), yy + zz, atol=1e-14)
    np.testing.assert_allclose(detection_observable("y"), xx + zz, atol=1e-14)
    np.testing.assert_allclose(detection_observable([1.0, 0.0, 0.0]),
                               detection_observable("x"), atol=1e-14)
    with pytest.raises(ValueError):
        detection_observable("q")
    with pytest.raises(ValueError):
        detection_observable([0.0, 0.0, 0.0])


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
    vec = PhaseTaggedVector()
    vec.add_term(PhaseMonomial((0, 0, 0, 0)).tagged(("direct", 0, 0)),
                 np.ones(256))
    with pytest.raises(ValueError):
        detection_projection(vec, "x")
    unbalanced = PhaseTaggedVector({PhaseMonomial((1, 0, 0, 0)): np.ones(256)})
    with pytest.raises(ValueError):
        detection_projection(unbalanced, "x")


@pytest.mark.parametrize("order,kappa,channel,mode", [
    (0, 1, "parallel", "full"),
    (0, 2, "perpendicular", "full"),
    (2, 1, "perpendicular", "full"),
    (2, 2, "parallel", "full"),
    (2, 1, "parallel", "level_shift_only"),
])
def test_averaged_solution_matches_reference_chain(order, kappa, channel, mode):
    theta = 0.8
    z1, z2 = 0.3 + 0.2j, 0.05
    inv2 = mean_inverse_xi_squared(xi_bar=80.0)
    got = averaged_solution(order, z1, theta, channel=channel, kappa=kappa,
                            inv_xi_squared=inv2, z2=z2, mode=mode)
    full = scattering_solution(order, z1, z2, theta, channel=channel,
                               kappa=kappa)
    want = average_state(full, inv2, mode=mode)
    for monomial in set(got.terms) | set(want.terms):
        a = got.terms.get(monomial, np.zeros(256))
        b = want.terms.get(monomial, np.zeros(256))
        assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("kappa,channel", [
    (1, "parallel"),
    (2, "perpendicular"),
])
def test_fast_averaged_solution_matches_reference_chain(kappa, channel):
    theta = 0.8
    z1 = np.array([-0.7j, 0.3 + 0.2j, 1.1j])
    inv2 = mean_inverse_xi_squared(xi_bar=80.0)
    got = averaged_solution(2, z1, theta, channel=channel, kappa=kappa,
                            inv_xi_squared=inv2, fast=True)
    full = scattering_solution(2, z1, 0.0, theta, channel=channel,
                               kappa=kappa, fast=True)
    want = average_state(full, inv2)
    assert len(want) > 0
    for monomial in set(got.terms) | set(want.terms):
        a = got.terms.get(monomial, np.zeros((256, 3)))
        b = want.terms.get(monomial, np.zeros((256, 3)))
        assert np.allclose(a, b, atol=1e-12)


def test_spectrum_independent_atom_peak_value():
    theta = 0.6
    s = spectrum(1, "parallel", "y", theta, detunings=np.array([0.0]),
                 xi_bar=80.0, orders=(0,))
    c2 = np.cos(theta / 2.0) ** 2
    s2 = np.sin(theta / 2.0) ** 2
    want = 4.0 * c2 * s2 / np.sqrt(2.0 * np.pi)
    assert s.values[0] == pytest.approx(want, rel=1e-12)
    # pure single-coherence line: half maximum exactly at half the decay rate
    line = spectrum(1, "parallel", "y", theta,
                    detunings=np.array([-0.5, 0.0, 0.5]), xi_bar=80.0,
                    orders=(0,))
    assert line.values[0].real == pytest.approx(0.5 * line.values[1].real,
                                                rel=1e-12)
    assert line.values[2].real == pytest.approx(0.5 * line.values[1].real,
                                                rel=1e-12)


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
    bare = spectrum(2, "parallel", "y", 0.4, detunings=grid, xi_bar=80.0,
                    orders=(0,))
    full = spectrum(2, "parallel", "y", 0.4, detunings=grid, xi_bar=80.0)
    # without photon exchange the double-quantum channel only carries
    # cancellation dust, many orders below the interacting line
    assert np.max(np.abs(bare.values)) <= 1e-10 * np.max(np.abs(full.values))


def test_spectrum_line_shape_symmetry():
    grid = np.linspace(-6.0, 6.0, 25)
    for kappa in (1, 2):
        s = spectrum(kappa, "parallel", "x", 0.3, detunings=grid, xi_bar=80.0)
        scale = np.max(np.abs(s.values))
        assert np.allclose(s.values.real, s.values.real[::-1],
                           atol=1e-10 * scale)
        assert np.allclose(s.values.imag, -s.values.imag[::-1],
                           atol=1e-10 * scale)


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


def test_dipole_round_trip():
    omega0 = 2 * np.pi * 3e8 / 790e-9
    gamma = 2 * np.pi * 6.067e6
    d = dipole_from_gamma(gamma, omega0)
    assert gamma_from_dipole(d, omega0) == pytest.approx(gamma, rel=1e-12)


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
