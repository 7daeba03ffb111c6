"""Tests for the phase-tagged expansion through the pulse sequence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqcsim.atom import PoleError, decay_generator, kick_decomposition
from mqcsim.basis import expand, matrix_unit, pair_operator
from mqcsim.coupling import coupling_tensor, interaction_matrices
from mqcsim.expansion import (
    PhaseMonomial,
    PhaseTaggedVector,
    apply_interaction,
    apply_kick,
    apply_resolvent,
    demodulation_keep,
    initial_vector,
    scattering_solution,
)

#: ket-minus-bra excitation grade of each single-atom basis element
BASIS_GRADES = np.array([0, 0, 0, 0, -1, 1, -1, 1, -1, 1, 0, 0, 0, 0, 0, 0])


def test_monomial_bookkeeping():
    mon = PhaseMonomial((0, 0, 0, 0))
    kicked = mon.kicked(1, -1, 2)
    assert kicked.powers == (-1, 0, 2, 0)
    kicked = kicked.kicked(2, 1, -2)
    assert kicked.powers == (-1, 1, 2, -2)
    assert kicked.pulse_net == (1, -1)
    assert kicked.atom_net == (0, 0)
    assert kicked.degree == 0
    tagged = kicked.tagged(("conj", 0, 1)).tagged(("direct", 0, 0))
    assert tagged.tags == (("conj", 0, 1), ("direct", 0, 0))
    with pytest.raises(ValueError):
        mon.kicked(3, 0, 0)


def test_initial_vector_is_ground_pair():
    vec = initial_vector()
    assert len(vec) == 1
    [(monomial, coeffs)] = vec.items()
    assert monomial == PhaseMonomial((0, 0, 0, 0))
    assert np.allclose(coeffs, expand(pair_operator(matrix_unit(1, 1), matrix_unit(1, 1))))


def test_kick_components_carry_matching_grades():
    # a kick on the ground pair reaches only single-quantum harmonics per
    # atom (the +-2 harmonics need a preexisting optical coherence)
    vec = apply_kick(initial_vector(), 1, 0.8, "x")
    assert len(vec) == 9
    for monomial, coeffs in vec.items():
        a, _, c, _ = monomial.powers
        grid = coeffs.reshape(16, 16)
        mask = (BASIS_GRADES[:, None] == a) & (BASIS_GRADES[None, :] == c)
        assert np.allclose(grid[~mask], 0.0, atol=1e-15)
        assert np.any(np.abs(grid[mask]) > 1e-12)


def test_kick_keep_filter_prunes_monomials():
    keep = lambda m: m.pulse_net[0] == -2
    vec = apply_kick(initial_vector(), 1, 0.8, "x", keep=keep)
    assert {m.powers for m, _ in vec.items()} == {(-1, 0, -1, 0)}


def _dense_phase_evaluation(theta, channel, phases, tensor, order, z1, z2):
    """Reference chain with phases and tensor entries as plain numbers."""
    from scipy.linalg import inv

    second_pol = {"parallel": "x", "perpendicular": "y"}[channel]
    gen = decay_generator(picture="state")
    pair_gen = np.kron(gen, np.eye(16)) + np.kron(np.eye(16), gen)

    def resolvent_mat(z):
        return inv(z * np.eye(256) - pair_gen)

    def kick_mat(pulse, pol):
        kick = kick_decomposition(theta, pol)
        if pulse == 1:
            m1, m2 = kick.as_matrix(phases[0]), kick.as_matrix(phases[2])
        else:
            m1, m2 = kick.as_matrix(phases[1]), kick.as_matrix(phases[3])
        return np.kron(m1, m2)

    v_total = interaction_matrices(tensor, picture="state").total
    state = kick_mat(1, "x") @ expand(pair_operator(matrix_unit(1, 1), matrix_unit(1, 1)))
    total = np.zeros(256, dtype=complex)
    for between in range(order + 1):
        part = resolvent_mat(z1) @ state
        for _ in range(between):
            part = resolvent_mat(z1) @ (v_total @ part)
        part = resolvent_mat(z2) @ (kick_mat(2, second_pol) @ part)
        for _ in range(order - between):
            part = resolvent_mat(z2) @ (v_total @ part)
        total += part
    return total


@pytest.mark.parametrize("order,channel", [(0, "parallel"), (2, "perpendicular"),
                                           (3, "parallel")])
def test_scattering_solution_matches_dense_fixed_configuration(order, channel):
    theta = 0.7
    z1, z2 = 0.3 + 0.2j, 0.17 - 0.4j
    phases = np.array([0.4, -1.1, 2.2, 0.9])
    tensor = coupling_tensor(5.3, [0.2, -0.5, 0.84])
    symbolic = scattering_solution(order, z1, z2, theta, channel=channel,
                                   restrict_stationary=False)
    got = symbolic.evaluate(phases, tensor)
    want = _dense_phase_evaluation(theta, channel, phases, tensor, order, z1, z2)
    assert np.allclose(got, want, atol=1e-12)


def test_scattering_solution_restriction_spares_demodulated_components():
    theta = 0.9
    z1, z2 = 0.21 + 0.5j, 0.33
    full = scattering_solution(0, z1, z2, theta, restrict_stationary=False)
    restricted = scattering_solution(0, z1, z2, theta, restrict_stationary=True)
    ground = expand(pair_operator(matrix_unit(1, 1), matrix_unit(1, 1)))
    ground /= np.linalg.norm(ground)
    checked_exact = checked_ground = 0
    for monomial, coeffs in full.items():
        if monomial.pulse_net[0] == 0:
            # unmodulated-background sector, restriction genuinely differs
            continue
        other = restricted.terms.get(monomial, np.zeros(256))
        diff = coeffs - other
        if sum(monomial.powers) != 0:
            # no stationary weight anywhere along the chain
            assert np.allclose(diff, 0.0, atol=1e-13)
            checked_exact += 1
        else:
            # stationary weight can appear only at the final resolvent,
            # so the mismatch stays in the detection-null ground direction
            assert np.allclose(diff - np.vdot(ground, diff) * ground, 0.0,
                               atol=1e-13)
            checked_ground += 1
    assert checked_exact > 0 and checked_ground > 0


def test_demodulation_pruning_keeps_reachable_monomials():
    vec = scattering_solution(0, 0.2, 0.1, 0.8, channel="parallel", kappa=2)
    assert len(vec) > 0
    for monomial, _ in vec.items():
        assert monomial.pulse_net == (-2, 2)
    # the two-atom product pathway contributes a (-1, +1) x (-1, +1) monomial
    assert any(m.powers == (-1, 1, -1, 1) for m, _ in vec.items())
    # pruned chains agree with post-filtered unpruned chains
    unpruned = scattering_solution(0, 0.2, 0.1, 0.8, channel="parallel")
    filtered = unpruned.filtered(demodulation_keep(2))
    assert set(filtered.terms) == set(vec.terms)
    for monomial, coeffs in vec.items():
        assert np.allclose(coeffs, filtered.terms[monomial], atol=1e-13)


def test_resolvent_inverts_pair_generator():
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=256) + 1j * rng.normal(size=256)
    vec = PhaseTaggedVector({PhaseMonomial((1, 0, -1, 0)): coeffs})
    z = 0.4 - 0.7j
    out = apply_resolvent(vec, z)
    gen = decay_generator(picture="state")
    pair_gen = np.kron(gen, np.eye(16)) + np.kron(np.eye(16), gen)
    [(_, transformed)] = out.items()
    assert np.allclose((z * np.eye(256) - pair_gen) @ transformed, coeffs, atol=1e-10)


def test_resolvent_pole_handling():
    vec = initial_vector()
    with pytest.raises(PoleError):
        apply_resolvent(vec, 0.0)
    restricted = apply_resolvent(vec, 0.0, restrict_stationary=True)
    [(_, coeffs)] = restricted.items()
    assert np.all(np.isfinite(coeffs))
    # the initial state is purely stationary, so restriction empties it
    assert np.allclose(coeffs, 0.0, atol=1e-14)


def test_resolvent_pole_guard_on_a_grid():
    zs = np.array([0.2j, -0.5, 0.1 - 0.4j])
    # sigma_14 on atom 1 decays at 1/2 while atom 2 stays in sigma_11
    optical = expand(pair_operator(matrix_unit(1, 4), matrix_unit(1, 1)))
    vec = PhaseTaggedVector({PhaseMonomial((1, 0, 0, 0)): optical})
    with pytest.raises(PoleError):
        apply_resolvent(vec, zs)
    with pytest.raises(PoleError):
        apply_resolvent(vec, zs, restrict_stationary=True)
    # sigma_14 on both atoms decays at 1 and has no weight on the pole
    both = expand(pair_operator(matrix_unit(1, 4), matrix_unit(1, 4)))
    vec = PhaseTaggedVector({PhaseMonomial((1, 0, 1, 0)): both})
    [(_, got)] = apply_resolvent(vec, zs).items()
    assert np.all(np.isfinite(got))
    assert np.allclose(got, both[:, None] / (zs + 1.0), atol=1e-14)


def test_resolvent_broadcasts_over_a_grid_of_z_values():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=256) + 1j * rng.normal(size=256)
    vec = PhaseTaggedVector({PhaseMonomial((-1, 1, 0, 0)): coeffs})
    zs = 0.05 + 1j * np.linspace(-3.0, 3.0, 7)
    [(_, got)] = apply_resolvent(vec, zs).items()
    assert got.shape == (256, 7)
    for i, z in enumerate(zs):
        [(_, single)] = apply_resolvent(vec, z).items()
        assert np.allclose(got[:, i], single, atol=1e-13)


def test_scattering_solution_accepts_a_vector_of_z1_values():
    zs = 1j * np.array([-0.5, 0.0, 1.5])
    batched = scattering_solution(2, zs, 0.0, 0.6, channel="parallel", kappa=1)
    zero = np.zeros(256, dtype=complex)
    for i, z in enumerate(zs):
        single = scattering_solution(2, z, 0.0, 0.6, channel="parallel", kappa=1)
        # exact-zero pruning may keep roundoff-dust keys on one side only,
        # so compare over the union with absent entries read as zero
        for monomial in set(single.terms) | set(batched.terms):
            got = batched.terms.get(monomial)
            col = zero if got is None else got[:, i]
            want = single.terms.get(monomial, zero)
            assert np.allclose(col, want, atol=1e-12)


def test_apply_interaction_matches_assembled_generator():
    tensor = coupling_tensor(3.3, [0.1, 0.7, -0.5])
    phases = np.array([0.5, 1.0, -0.3, 0.8])
    vec = apply_kick(initial_vector(), 1, 0.9, "x")
    vec = apply_resolvent(vec, 0.25 + 0.1j)
    tagged = apply_interaction(vec)
    for monomial, _ in tagged.items():
        assert monomial.degree == 1
    got = tagged.evaluate(phases, tensor)
    want = interaction_matrices(tensor, picture="state").total @ vec.evaluate(phases)
    assert np.allclose(got, want, atol=1e-12)


def test_scattering_solution_is_linear_in_initial_vector():
    rng = np.random.default_rng(11)
    c1 = rng.normal(size=256) + 1j * rng.normal(size=256)
    c2 = rng.normal(size=256) + 1j * rng.normal(size=256)
    mon = PhaseMonomial((0, 0, 0, 0))
    kwargs = dict(order=0, z1=0.3, z2=0.2 + 0.1j, theta=0.7)
    out1 = scattering_solution(initial=PhaseTaggedVector({mon: c1}), **kwargs)
    out2 = scattering_solution(initial=PhaseTaggedVector({mon: c2}), **kwargs)
    combo = scattering_solution(
        initial=PhaseTaggedVector({mon: 2.0 * c1 - 1.5j * c2}), **kwargs)
    phases = np.array([0.2, -0.4, 1.3, 0.6])
    want = 2.0 * out1.evaluate(phases) - 1.5j * out2.evaluate(phases)
    assert np.allclose(combo.evaluate(phases), want, atol=1e-11)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_total_grade_equals_total_phase_exponent(seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.2, 1.4)
    vec = scattering_solution(2, 0.4, 0.3, theta, channel="perpendicular",
                              kappa=int(rng.integers(1, 3)))
    total_grade = (BASIS_GRADES[:, None] + BASIS_GRADES[None, :]).reshape(-1)
    for monomial, coeffs in vec.items():
        net = sum(monomial.powers)
        assert np.allclose(coeffs[total_grade != net], 0.0, atol=1e-13)
