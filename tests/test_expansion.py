"""Tests for the phase-tagged expansion through the pulse sequence."""

import functools
import itertools
import traceback
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqcsim import expansion
from mqcsim.atom import (DETECTION_DIRECTIONS, FIRST_POLARIZATION,
                         SECOND_POLARIZATION, PoleError, kick_decomposition)
from mqcsim.basis import apply_factorized, matrix_unit
from mqcsim.coupling import TAG_KEYS, coupling_tensor, tensor_tag_value
from mqcsim.expansion import (
    TERM_FLOOR,
    PhaseMonomial,
    PoleBasis,
    _chain_rows,
    _axis_parity,
    _detection_covector,
    _division,
    _grid_division,
    _insertion_resolved,
    _interaction_tails,
    _interpulse_axis,
    _on_grid,
    _pole_rates,
    _pole_sectors,
    _pulled_back,
    _transposed_resolvent,
    apply_interaction,
    apply_kick,
    apply_resolvent,
    initial_vector,
    scattering_solution,
)
from reference import (decay_generator, interaction_generator,
                       interaction_pieces, pair_expand)

#: ket-minus-bra excitation grade of each single-atom basis element
BASIS_GRADES = np.array([0, 0, 0, 0, -1, 1, -1, 1, -1, 1, 0, 0, 0, 0, 0, 0])


def _evaluate(vector, phases, tensor=None):
    """Contract a vector's symbols with numbers: the 256 coefficients at
    the four pulse phases (phi_11, phi_21, phi_12, phi_22), in the
    monomial exponent order, and the 3x3 coupling ``tensor`` (omitted
    for factor-free vectors)."""
    out = np.zeros(256, dtype=complex)
    for monomial, coeffs in vector.items():
        weight = np.exp(1j * np.dot(monomial.powers, phases))
        for tag in monomial.tags:
            weight *= tensor_tag_value(tensor, tag)
        out += weight * coeffs
    return out


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
    assert np.allclose(coeffs, pair_expand(np.kron(matrix_unit(1, 1), matrix_unit(1, 1))))


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
    vec = apply_kick(initial_vector(), 1, 0.8, "x", kappa=2)
    assert {m.powers for m, _ in vec.items()} == {(-1, 0, -1, 0)}


def _pair_generator():
    gen = decay_generator()
    return np.kron(gen, np.eye(16)) + np.kron(np.eye(16), gen)


def _stationary_projector():
    """P0 = |ground pair><trace|, the pair's stationary decay mode."""
    ground = pair_expand(np.kron(matrix_unit(1, 1), matrix_unit(1, 1)))
    trace = pair_expand(np.kron(np.eye(4), np.eye(4)))
    return np.outer(ground, trace.conj())


def _restricted_resolvent(z):
    """Dense (z - L + P0)^-1 (1 - P0): the resolvent without its
    stationary mode, regular at z = 0."""
    p0 = _stationary_projector()
    shifted = z * np.eye(256) - _pair_generator() + p0
    return lambda v: np.linalg.solve(shifted, v - p0 @ v)


def _dense_kick(theta, polarization, phase1, phase2, net):
    """Pair kick at the two atoms' phases; with ``net``, only the
    harmonics (p1, p2) with p1 + p2 == net."""
    kick = kick_decomposition(theta, polarization)
    return sum(np.exp(1j * (p1 * phase1 + p2 * phase2))
               * np.kron(kick[p1], kick[p2])
               for p1 in range(-2, 3) for p2 in range(-2, 3)
               if net is None or p1 + p2 == net)


def _dense_phase_evaluation(theta, channel, phases, tensor, order, solve1,
                            solve2, kappa=None):
    """Reference chain with phases and tensor entries as plain numbers.

    ``solve1`` and ``solve2`` apply the interpulse and detection-stage
    resolvents; ``kappa`` keeps only the kick harmonics that reach that
    demodulation order.
    """
    second_pol = {"parallel": "x", "perpendicular": "y"}[channel]
    net1, net2 = (None, None) if kappa is None else (-kappa, kappa)
    kick1 = _dense_kick(theta, "x", phases[0], phases[2], net1)
    kick2 = _dense_kick(theta, second_pol, phases[1], phases[3], net2)
    v_total = interaction_generator(tensor)
    state = kick1 @ pair_expand(np.kron(matrix_unit(1, 1), matrix_unit(1, 1)))
    total = np.zeros(256, dtype=complex)
    for between in range(order + 1):
        part = solve1(state)
        for _ in range(between):
            part = solve1(v_total @ part)
        part = solve2(kick2 @ part)
        for _ in range(order - between):
            part = solve2(v_total @ part)
        total += part
    return total


PHASES = np.array([0.4, -1.1, 2.2, 0.9])


@pytest.mark.parametrize("order,channel", [(0, "parallel"), (2, "perpendicular"),
                                           (3, "parallel")])
def test_scattering_solution_matches_dense_fixed_configuration(order, channel):
    theta, z1 = 0.7, 0.3 + 0.2j
    tensor = coupling_tensor(5.3, [0.2, -0.5, 0.84])
    symbolic = scattering_solution(order, z1, theta, channel=channel)
    got = _evaluate(symbolic, PHASES, tensor)
    want = _dense_phase_evaluation(theta, channel, PHASES, tensor, order,
                                   _restricted_resolvent(z1),
                                   _restricted_resolvent(0.0))
    assert np.allclose(got, want, atol=1e-12)


def test_scattering_solution_restriction_spares_demodulated_components():
    # the reference inverts z1 - L plainly and solves the deflated
    # (0 - L + P0) at z2 = 0 on the unprojected vector, so weight that the
    # chain's projection discarded would show up as a mismatch
    theta, z1 = 0.9, 0.21 + 0.5j
    tensor = coupling_tensor(6.1, [0.3, 0.6, -0.4])
    generator = _pair_generator()
    free = z1 * np.eye(256) - generator
    shifted = _stationary_projector() - generator
    plain = lambda v: np.linalg.solve(free, v)
    deflated = lambda v: np.linalg.solve(shifted, v)
    for kappa, channel in ((1, "parallel"), (2, "perpendicular")):
        for order in (0, 2, 3):
            symbolic = scattering_solution(order, z1, theta, channel=channel,
                                           kappa=kappa)
            got = _evaluate(symbolic, PHASES, tensor)
            want = _dense_phase_evaluation(theta, channel, PHASES, tensor,
                                           order, plain, deflated, kappa)
            scale = np.max(np.abs(want))
            assert scale > 1e-7
            assert np.allclose(got, want, atol=1e-10 * scale)
    # the unmodulated background does carry stationary weight, which the
    # same reference keeps and the chain projects out
    background = _evaluate(scattering_solution(0, z1, theta), PHASES)
    want = _dense_phase_evaluation(theta, "parallel", PHASES, tensor, 0,
                                   plain, deflated)
    assert not np.allclose(background, want, atol=1e-6)


def test_demodulation_pruning_keeps_reachable_monomials():
    vec = scattering_solution(0, 0.2, 0.8, channel="parallel", kappa=2)
    assert len(vec) > 0
    for monomial, _ in vec.items():
        assert monomial.pulse_net == (-2, 2)
    # the two-atom product pathway contributes a (-1, +1) x (-1, +1) monomial
    assert any(m.powers == (-1, 1, -1, 1) for m, _ in vec.items())
    # pruned chains agree with post-filtered unpruned chains
    unpruned = scattering_solution(0, 0.2, 0.8, channel="parallel")
    filtered = {m: c for m, c in unpruned.items() if m.pulse_net == (-2, 2)}
    assert set(filtered) == set(vec)
    for monomial, coeffs in vec.items():
        assert np.allclose(coeffs, filtered[monomial], atol=1e-13)


def test_resolvent_inverts_pair_generator():
    # random coefficients carry stationary weight, which the resolvent
    # projects out: (z - L + P0) x = (1 - P0) coeffs
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=256) + 1j * rng.normal(size=256)
    vec = {PhaseMonomial((1, 0, -1, 0)): coeffs}
    p0 = _stationary_projector()
    for z in (0.4 - 0.7j, 0.0):
        [(_, transformed)] = apply_resolvent(vec, z).items()
        shifted = z * np.eye(256) - _pair_generator() + p0
        assert np.allclose(shifted @ transformed, coeffs - p0 @ coeffs,
                           atol=1e-10)
    assert np.max(np.abs(p0 @ coeffs)) > 0.1


def test_resolvent_pole_handling():
    restricted = apply_resolvent(initial_vector(), 0.0)
    [(_, coeffs)] = restricted.items()
    assert np.all(np.isfinite(coeffs))
    # the initial state is purely stationary, so restriction empties it
    assert np.allclose(coeffs, 0.0, atol=1e-14)


def test_resolvent_pole_guard_on_a_grid():
    zs = np.array([0.2j, -0.5, 0.1 - 0.4j])
    # sigma_14 on atom 1 decays at 1/2 while atom 2 stays in sigma_11
    optical = pair_expand(np.kron(matrix_unit(1, 4), matrix_unit(1, 1)))
    vec = {PhaseMonomial((1, 0, 0, 0)): optical}
    with pytest.raises(PoleError):
        apply_resolvent(vec, zs)
    # sigma_14 on both atoms decays at 1 and has no weight on the pole
    both = pair_expand(np.kron(matrix_unit(1, 4), matrix_unit(1, 4)))
    vec = {PhaseMonomial((1, 0, 1, 0)): both}
    [(_, got)] = apply_resolvent(vec, zs).items()
    assert np.all(np.isfinite(got))
    assert np.allclose(got, both[:, None] / (zs + 1.0), atol=1e-14)


#: the pair's decay-rate sums other than the stationary 0, in the label
#: order of PoleBasis
POLES = (-2.0, -1.5, -1.0, -0.5)


def _partial_fractions(coeffs, multiplicity, z):
    """c_0 + sum c_{p,m} / (z - p)^m at each z, from the documented label
    layout: the constant, then (p, 1..multiplicity) for each pole."""
    z = np.atleast_1d(z)
    out = np.multiply.outer(coeffs[..., 0], np.ones_like(z))
    for i, pole in enumerate(POLES):
        for m in range(1, multiplicity + 1):
            out = out + np.multiply.outer(coeffs[..., 1 + i * multiplicity
                                                 + m - 1], (z - pole) ** -m)
    return out


def _off_axis_points(rng, count=5):
    return rng.uniform(-3.0, 1.0, count) + 1j * rng.uniform(-3.0, 3.0, count)


@pytest.mark.parametrize("multiplicity", [1, 2, 3, 4])
def test_pole_basis_labels_and_evaluation(multiplicity):
    basis = PoleBasis(multiplicity)
    assert basis.size == np.size(basis) == 1 + 4 * multiplicity
    assert repr(basis) == f"PoleBasis(multiplicity={multiplicity})"
    rng = np.random.default_rng(multiplicity)
    coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    z = _off_axis_points(rng)
    np.testing.assert_allclose(coeffs @ basis.evaluation(z),
                               _partial_fractions(coeffs, multiplicity, z),
                               rtol=1e-13)


def _sector_rates():
    """Rate sum of every flat pair index in decay-mode coordinates, from
    the dense single-atom decay generator: the population block (basis
    indices 0-3) holds the stationary mode first and three of rate -1,
    and every other basis element is a decay mode of its own."""
    generator = decay_generator()
    block = np.sort(np.linalg.eigvals(generator[:4, :4]).real)[::-1]
    np.testing.assert_allclose(block, [0.0, -1.0, -1.0, -1.0], atol=1e-12)
    for n in range(4, 16):
        assert np.count_nonzero(generator[:, n]) == 1
    single = np.concatenate([block, np.diag(generator).real[4:]])
    return (single[:, None] + single[None, :]).reshape(-1)


@pytest.mark.parametrize("multiplicity", [1, 2, 3, 4])
def test_pole_sector_matrices_divide_by_z_minus_r(multiplicity):
    basis = PoleBasis(multiplicity)
    rng = np.random.default_rng(10 + multiplicity)
    z = _off_axis_points(rng)
    sectors = _pole_sectors(basis)
    assert len(sectors) == len(POLES)
    rates = _sector_rates()
    for r, (rows, step, top) in zip(POLES, sectors):
        # the sector holds exactly the pair indices of rate sum r
        assert np.array_equal(rows, np.flatnonzero(np.isclose(rates, r)))
        assert top == 1 + POLES.index(r) * multiplicity + multiplicity - 1
        coeffs = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        coeffs[top] = 0.0
        f = _partial_fractions(coeffs, multiplicity, z)
        got = _partial_fractions(coeffs @ step, multiplicity, z)
        np.testing.assert_allclose(got, f / (z - r), rtol=1e-11)


def test_pole_basis_resolvent_inverts_pair_generator():
    # random label coefficients below the top multiplicity: the resolvent
    # on the labels, evaluated anywhere off the poles, solves
    # (z - L + P0) x = (1 - P0) coeffs there
    basis = PoleBasis(3)
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=(256, basis.size)) + 1j * rng.normal(
        size=(256, basis.size))
    coeffs[:, [1 + i * 3 + 2 for i in range(len(POLES))]] = 0.0
    constant = rng.normal(size=256) + 1j * rng.normal(size=256)
    vec = {PhaseMonomial((1, 0, -1, 0)): coeffs,
           PhaseMonomial((0, 0, 0, 0)): constant}
    solved = apply_resolvent(vec, basis)
    assert all(c.shape == (256, basis.size) for _, c in solved.items())
    p0 = _stationary_projector()
    generator = _pair_generator()
    for z in _off_axis_points(rng, 3):
        shifted = z * np.eye(256) - generator + p0
        for monomial, before in vec.items():
            start = (before if before.ndim == 1
                     else _partial_fractions(before, 3, z)[:, 0])
            after = _partial_fractions(solved[monomial], 3, z)[:, 0]
            np.testing.assert_allclose(shifted @ after, start - p0 @ start,
                                       atol=1e-10)


@pytest.mark.parametrize("multiplicity", [1, 2])
def test_pole_basis_overflow_raises(multiplicity):
    # sigma_14 on atom 1 stays in the rate -1/2 sector: every resolvent
    # raises its multiplicity there by one
    optical = pair_expand(np.kron(matrix_unit(1, 4), matrix_unit(1, 1)))
    vec = {PhaseMonomial((1, 0, 0, 0)): optical}
    basis = PoleBasis(multiplicity)
    for _ in range(multiplicity):
        vec = apply_resolvent(vec, basis)
    with pytest.raises(PoleError):
        apply_resolvent(vec, basis)


def test_interpulse_axis_is_chosen_by_size_and_poles():
    grid = 1j * np.linspace(-2.0, 2.0, 41)
    assert _interpulse_axis(grid, 3) == PoleBasis(3)
    # a grid no longer than the basis, or with a point on a pole, is kept
    short = grid[:13]
    assert _interpulse_axis(short, 3) is short
    on_pole = grid.copy()
    on_pole[5] = -1.5
    assert _interpulse_axis(on_pole, 3) is on_pole


def test_long_grid_with_a_point_on_a_pole_raises_as_before():
    grid = 1j * np.linspace(-2.0, 2.0, 41)
    _, rows = _chain_rows((2,), grid, 0.7, 1)
    assert rows["parallel"]
    # kick 1 leaves optical coherences of rate sum -1/2 in the prefix
    grid[5] = -0.5
    with pytest.raises(PoleError):
        _chain_rows((2,), grid, 0.7, 1)


def _count_chain_steps(monkeypatch, *args, **kwargs):
    """Rows of ``_chain_rows(*args, **kwargs)``, the kicks, plain
    insertions and z1 resolvents it makes, and the monomials it inserts
    into, in order.  An insertion fused with its z1 resolvent
    (``_insertion_resolved``) counts as one z1 resolvent."""
    counts = {"kicks": 0, "insertions": 0, "z1_resolvents": 0}
    inserted = []

    def counted(name, original):
        def call(*call_args, **call_kwargs):
            counts[name] += 1
            return original(*call_args, **call_kwargs)
        return call

    def fused(monomial, coeffs, divide):
        inserted.append(monomial)
        counts["z1_resolvents"] += 1
        return _insertion_resolved(monomial, coeffs, divide)

    monkeypatch.setattr(expansion, "apply_kick", counted("kicks", apply_kick))
    monkeypatch.setattr(expansion, "apply_resolvent",
                        counted("z1_resolvents", apply_resolvent))
    monkeypatch.setattr(expansion, "apply_interaction",
                        counted("insertions", apply_interaction))
    monkeypatch.setattr(expansion, "_insertion_resolved", fused)
    _, rows = _chain_rows(*args, **kwargs)
    return rows, counts, inserted


def _only_channels(monkeypatch, channels):
    """Make the chain contract only ``channels``, in that order, by
    narrowing the second-pulse polarizations it reads."""
    monkeypatch.setattr(expansion, "SECOND_POLARIZATION", {
        channel: SECOND_POLARIZATION[channel] for channel in channels})


@pytest.mark.parametrize("channels", [("parallel",),
                                      ("parallel", "perpendicular")])
@pytest.mark.parametrize("points", [7, 41])
def test_each_interpulse_prefix_is_built_once(monkeypatch, points,
                                              channels):
    """A chain over several orders runs kick 1 once and inserts once
    into the mirror representative of every monomial of prefixes 0 to
    top - 2, powers (a, 0, c, 0) with a <= c, on the grid and on pole
    labels alike, however many channels read them.  Every insertion is
    fused with its z1 resolvent, one over all the products of the
    monomial it inserts into, so the chain makes no plain insertion and
    one z1 resolvent for kick 1 and one per representative."""
    _only_channels(monkeypatch, channels)
    z1 = 1j * np.linspace(-3.0, 3.0, points)
    for orders, zero_phase in (((0, 1, 2, 3), False), ((0, 2), True)):
        top = max(orders)
        prefixes = [[m for m in prefix if m.powers[0] <= m.powers[2]]
                    for prefix in _interpulse_prefixes(
                        0.7, 1, _interpulse_axis(z1, top + 1), top - 2)]
        assert all(prefixes)
        rows, counts, inserted = _count_chain_steps(
            monkeypatch, orders, z1, 0.7, 1, zero_phase=zero_phase)
        assert list(rows) == list(channels)
        assert all(rows.values())
        assert inserted == [m for prefix in prefixes for m in prefix]
        assert counts == {"kicks": 1, "insertions": 0,
                          "z1_resolvents": 1 + sum(map(len, prefixes))}


@pytest.mark.parametrize("orders, zero_phase, fast", [
    ((0, 1, 2, 3), False, False), ((0, 2), True, False),
    ((0, 1, 2, 3), False, True), ((0, 2, 4), True, False)])
def test_no_detection_tail_is_longer_than_top_minus_one(
        monkeypatch, orders, zero_phase, fast):
    # split 0 of the top order runs one insertion forward, so a chain of
    # top order n asks for tails of at most n - 1 insertions
    lengths = []

    def recorded(length):
        lengths.append(length)
        return _interaction_tails(length)

    monkeypatch.setattr(expansion, "_interaction_tails", recorded)
    _, rows = _chain_rows(orders, 1j * np.linspace(-3.0, 3.0, 7),
                          0.14 * np.pi, 1, zero_phase=zero_phase, fast=fast)
    assert rows["parallel"]
    assert max(lengths) == max(orders) - 1


@pytest.mark.parametrize("orders, zero_phase, fast", [
    ((0, 1, 2, 3), False, False), ((0, 2), True, False),
    ((0, 1, 2, 3), False, True), ((0, 2, 4), True, False)])
def test_no_interpulse_prefix_is_longer_than_top_minus_one(
        monkeypatch, orders, zero_phase, fast):
    # the last split meets prefix top - 1 from the detector side, so a
    # chain of top order n inserts into no monomial of prefix n - 1, whose
    # monomials carry n - 1 tags, and builds no prefix longer than n - 1
    degrees = []

    def recorded(monomial, coeffs, divide):
        degrees.append(monomial.degree)
        return _insertion_resolved(monomial, coeffs, divide)

    monkeypatch.setattr(expansion, "_insertion_resolved", recorded)
    _, rows = _chain_rows(orders, 1j * np.linspace(-3.0, 3.0, 7),
                          0.14 * np.pi, 1, zero_phase=zero_phase, fast=fast)
    assert rows["parallel"]
    assert max(degrees, default=None) == (None if fast else max(orders) - 2)


#: the oracle check's kappa = 1 chain: orders 0-3 on its 7-point grid
ORACLE_CHAIN = ((0, 1, 2, 3), 1j * np.linspace(-3.0, 3.0, 7), 0.14 * np.pi,
                1)


def test_no_kicked_tail_is_made_twice(monkeypatch):
    # every (channel, p1, p2, tail length, parity group) is kicked once
    # per chain: the harmonic pair names the channel and the pair, the
    # cached tail group its length and parity
    groups = {id(tails): length for length in range(3)
              for _, tails in _interaction_tails(length).values()}
    kicked = []

    def recorded(first, second, coeffs):
        if id(coeffs) in groups:
            kicked.append((first.tobytes(), second.tobytes(), id(coeffs)))
        return apply_factorized(first, second, coeffs)

    monkeypatch.setattr(expansion, "apply_factorized", recorded)
    _, rows = _chain_rows(*ORACLE_CHAIN)
    assert all(rows.values())
    assert {groups[group] for _, _, group in kicked} == {0, 1, 2}
    assert len(kicked) == len(set(kicked))


#: ROADMAP item 4's order-4 chain: orders 0, 2 and 4 with zero net atom
#: phase on the oracle check's grid
ORDER4_CHAIN = ((0, 2, 4),) + ORACLE_CHAIN[1:]


@pytest.mark.parametrize("chain, zero_phase, mebibytes", [
    (ORACLE_CHAIN, False, 3.25), (ORDER4_CHAIN, True, 11.0)],
    ids=["oracle", "order4"])
def test_chain_allocation_peak_is_bounded(chain, zero_phase, mebibytes):
    # the traced peak of a chain with its cached constants warmed: no
    # prefix is held unresolved beside its resolved copy, a held prefix
    # is contracted one channel at a time, and each kicked tail leaves
    # once no later split can read it
    _chain_rows(*chain, zero_phase=zero_phase)
    tracemalloc.start()
    try:
        _chain_rows(*chain, zero_phase=zero_phase)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mebibytes * 2**20


def test_last_split_keeps_one_pulled_back_array_alive(monkeypatch):
    # split top pulls back the kicked tails of no insertion once per
    # channel and kick-2 pair, and each pulled-back array is freed before
    # the next is made
    made = []

    def recorded(tails):
        assert all(ref() is None for ref in made)
        pulled = _pulled_back(tails)
        made.append(weakref.ref(pulled))
        return pulled

    monkeypatch.setattr(expansion, "_pulled_back", recorded)
    _, rows = _chain_rows(*ORACLE_CHAIN)
    assert all(rows.values())
    assert len(made) == 4


@pytest.mark.parametrize("zero_phase", [False, True])
@pytest.mark.parametrize("kappa", [1, 2])
@pytest.mark.parametrize("points", [7, 41])
def test_shared_interpulse_stage_gives_each_channel_its_own_rows(
        monkeypatch, points, kappa, zero_phase):
    # the chain over both channels against a chain narrowed to one
    # channel, on the grid and on pole labels: the same keys in the same
    # order, and the same rows bit for bit, none of them one array with a
    # row of the other channel
    z1 = 1j * np.linspace(-3.0, 3.0, points)
    args = ((0, 1, 2, 3), z1, 0.14 * np.pi, kappa)
    axis, both = _chain_rows(*args, zero_phase=zero_phase)
    assert isinstance(axis, PoleBasis) == (points == 41)
    assert list(both) == ["parallel", "perpendicular"]
    assert not {id(row) for row in both["parallel"].values()} & {
        id(row) for row in both["perpendicular"].values()}
    for channel in both:
        with monkeypatch.context() as narrowed:
            _only_channels(narrowed, (channel,))
            one_axis, one = _chain_rows(*args, zero_phase=zero_phase)
        assert list(one) == [channel]
        assert type(one_axis) is type(axis)
        assert one[channel]
        assert list(both[channel]) == list(one[channel])
        for key, rows in one[channel].items():
            assert np.array_equal(both[channel][key], rows)


@pytest.mark.parametrize("kappa", [1, 2])
@pytest.mark.parametrize("points", [7, 41])
def test_chain_rows_are_folded_onto_their_atom_exchange_mirror(points,
                                                               kappa):
    # the chain builds one mirror half of its interpulse stage and folds
    # its rows, so every key (e, tags) has its mirror (-e, tags) with the
    # same rows bit for bit, on the grid and on pole labels
    z1 = 1j * np.linspace(-3.0, 3.0, points)
    _, rows = _chain_rows((0, 1, 2, 3), z1, 0.14 * np.pi, kappa)
    for by_key in rows.values():
        assert any(exponent for exponent, _ in by_key)
        for (exponent, tags), value in by_key.items():
            assert np.array_equal(by_key[(-exponent, tags)], value)


@pytest.mark.parametrize("kappa", [1, 2])
@pytest.mark.parametrize("points", [7, 41])
def test_fused_insertion_is_the_insertion_then_the_resolvent(points, kappa):
    # one resolvent over the stacked products of a monomial's insertion
    # against apply_interaction, then apply_resolvent: the same tagged
    # monomials in the same order, bit for bit, on the grid and on pole
    # labels; at kappa = 2 the insertion into kick 1's monomial gives none
    z1 = 1j * np.linspace(-3.0, 3.0, points)
    axis = _interpulse_axis(z1, 4)
    for prefix in _interpulse_prefixes(0.14 * np.pi, kappa, axis, 2):
        for monomial, coeffs in prefix.items():
            fused = list(_insertion_resolved(monomial, coeffs,
                                             _division(axis)))
            plain = list(apply_resolvent(
                apply_interaction({monomial: coeffs}), axis).items())
            assert [m for m, _ in fused] == [m for m, _ in plain]
            for (_, got), (_, want) in zip(fused, plain):
                assert got.flags.owndata
                assert np.array_equal(got, want)


def test_stacked_grid_division_guards_each_product_on_its_own():
    # weight 1e-12 on the pole at z = -1/2 (atom 2 optical, atom 1 in
    # the stationary mode) is negligible beside a unit entry of the same
    # product, but not in a product of its own
    z = np.array([-0.5, 1j])
    eigen = np.zeros((2, 16, 16, 2), dtype=complex)
    eigen[0, 5, 5] = 1.0
    eigen[:, 0, 4, 0] = 1e-12
    divide = _grid_division(z)
    divided = divide(eigen[:1].copy())
    assert divided[0, 0, 4, 0] == 0.0 and divided[0, 5, 5, 1] == 1.0 / (1j + 1)
    with pytest.raises(PoleError):
        divide(eigen)


@pytest.mark.parametrize("kappa, channel", [(1, "parallel"),
                                            (2, "perpendicular")])
def test_zero_phase_chain_keeps_the_plain_chains_zero_phase_rows(kappa,
                                                                 channel):
    # the keep rule of the averaged chain, checked against the chain
    # without it on the oracle check's grid: the same rows, key for key
    z1 = 1j * np.linspace(-3.0, 3.0, 7)
    args = ((0, 1, 2, 3), z1, 0.14 * np.pi, kappa)
    plain = _chain_rows(*args)[1][channel]
    zero = _chain_rows(*args, zero_phase=True)[1][channel]
    assert set(zero) == {key for key in plain if key[0] == 0}
    # at kappa = 2 the order-0 key is exactly zero and not built
    assert {len(tags) for _, tags in zero} == ({0, 2} if kappa == 1
                                               else {2})
    for key, rows in zero.items():
        assert np.array_equal(rows, plain[key])


def _obeys_selection_rules(key, kappa, channel):
    """Atom-phase parity: the net atom-1 exponent has the parity of the
    order.  Cartesian parity: each axis index appears an even number of
    times in the tags, except x and y in the perpendicular channel,
    which appear kappa mod 2 times."""
    exponent, tags = key
    counts = [0, 0, 0]
    for _, k, l in tags:
        counts[k] += 1
        counts[l] += 1
    odd = kappa % 2 if channel == "perpendicular" else 0
    return ((exponent - len(tags)) % 2 == 0
            and [c % 2 for c in counts] == [odd, odd, 0])


@pytest.mark.parametrize("theta", [0.44, 0.8])
def test_order_zero_at_kappa_two_is_exactly_zero(theta):
    # at kappa = 2 the order-0 key reads the trace row of the p = +-1
    # kick-2 harmonics, which is exactly zero, so the chain has no key
    _, rows = _chain_rows((0,), 1j * np.linspace(-3.0, 3.0, 7), theta, 2)
    assert rows == {"parallel": {}, "perpendicular": {}}


@pytest.mark.parametrize("theta", [0.14 * np.pi, 0.8, 1.3])
@pytest.mark.parametrize("kappa, channel, count", [
    (1, "parallel", 233), (1, "perpendicular", 164),
    (2, "parallel", 174), (2, "perpendicular", 186)])
def test_selection_rules_hold_on_the_forward_chain(theta, kappa, channel,
                                                   count):
    # the forward chain keeps every key, so the keys that break a rule
    # must be roundoff there; the chain driver skips them and keeps only
    # keys that obey both rules, and every key above roundoff that obeys
    # them; no key whose rows are exactly zero is built
    z1 = 1j * np.linspace(-3.0, 3.0, 7)
    covectors = np.stack([_detection_covector(d).conj()
                          for d in DETECTION_DIRECTIONS])
    forward = {}
    for order in range(4):
        for monomial, coeffs in scattering_solution(
                order, z1, theta, channel, kappa).items():
            key = (monomial.atom_net[0], monomial.tags)
            forward[key] = forward.get(key, 0.0) + covectors @ coeffs
    peak = max(np.max(np.abs(rows)) for rows in forward.values())
    assert peak > 1e-4
    broken = [np.max(np.abs(rows)) for key, rows in forward.items()
              if not _obeys_selection_rules(key, kappa, channel)]
    assert broken and max(broken) < 1e-15 * peak
    for zero_phase in (False, True):
        _, rows = _chain_rows((0, 1, 2, 3), z1, theta, kappa,
                              zero_phase=zero_phase)
        rows = rows[channel]
        assert all(_obeys_selection_rules(key, kappa, channel)
                   and values.any() for key, values in rows.items())
        held = {key for key, values in forward.items()
                if _obeys_selection_rules(key, kappa, channel)
                and np.max(np.abs(values)) > 1e-15 * peak
                and (key[0] == 0 or not zero_phase)}
        assert held and held <= set(rows)
        if theta == 0.14 * np.pi and not zero_phase:
            assert len(rows) == count


#: the grid of the forward reference, and of the chains on a grid
FORWARD_GRID = 1j * np.linspace(-3.0, 3.0, 7)


@functools.cache
def _forward_rows(order, points, theta, channel, kappa, fast=False):
    """Detected rows of :func:`scattering_solution` of one order at the
    ``points`` of ``FORWARD_GRID``, every insertion after kick 2 with
    ``fast``, summed by (net atom-1 exponent, tags)."""
    covectors = np.stack([_detection_covector(d).conj()
                          for d in DETECTION_DIRECTIONS])
    rows = {}
    for monomial, coeffs in scattering_solution(
            order, FORWARD_GRID[list(points)], theta, channel, kappa,
            fast).items():
        key = (monomial.atom_net[0], monomial.tags)
        rows[key] = rows.get(key, 0.0) + covectors @ coeffs
    return rows


@pytest.mark.parametrize("kappa", [1, 2])
@pytest.mark.parametrize("orders, z1, zero_phase, fast, points", [
    ((0, 1, 2, 3), FORWARD_GRID, False, False, range(7)),
    ((0, 1, 2, 3), FORWARD_GRID, True, False, range(7)),
    ((0, 1, 2, 3), 1j * np.linspace(-3.0, 3.0, 41), False, False, range(7)),
    ((0, 1, 2, 3), 1j * np.linspace(-3.0, 3.0, 41), True, False, range(7)),
    ((0, 2), 1j * np.linspace(-10.0, 10.0, 801), True, False, range(7)),
    ((0, 2, 4), FORWARD_GRID, True, False, (1,)),
    ((0, 1, 2, 3), FORWARD_GRID, False, True, range(7))],
    ids=["grid", "grid-zero-phase", "poles", "poles-zero-phase",
         "fig4-poles", "order4-grid", "fast"])
def test_chain_rows_match_the_forward_reference(orders, z1, zero_phase,
                                                fast, points, kappa):
    # the chain, whose first split runs one insertion forward and whose
    # last split meets prefix top - 1 from the detector side, against the
    # forward state of each order at the points of FORWARD_GRID, pole
    # labels evaluated there (the order-4 chain at one point, where the
    # forward state of order 4 is affordable); with ``fast``, every
    # insertion after kick 2, so split 0 of the top order runs forward on
    # its own: the same keys above roundoff, and the rows of every key of
    # either within 1e-15 of the peak
    theta, points = 0.14 * np.pi, list(points)
    axis, rows = _chain_rows(orders, z1, theta, kappa,
                             zero_phase=zero_phase, fast=fast)
    # one z1 resolvent with ``fast``: 5 pole labels, fewer than 7 points
    assert isinstance(axis, PoleBasis) == (z1.size > 7 or fast)
    for channel in rows:
        forward = {}
        for order in orders:
            for key, value in _forward_rows(order, tuple(points), theta,
                                            channel, kappa, fast).items():
                if key[0] == 0 or not zero_phase:
                    forward[key] = forward.get(key, 0.0) + value
        chain = {key: (_on_grid(axis, value, FORWARD_GRID[points])
                       if isinstance(axis, PoleBasis) else value[:, points])
                 for key, value in rows[channel].items()}
        peak = max(np.max(np.abs(value)) for value in forward.values())
        assert peak > 1e-4
        for key in forward.keys() | chain.keys():
            difference = chain.get(key, 0.0) - forward.get(key, 0.0)
            assert np.max(np.abs(difference)) <= 1e-15 * peak, key

        def above(by_key):
            return {key for key, value in by_key.items()
                    if np.max(np.abs(value)) > TERM_FLOOR * peak}

        assert above(chain) and above(chain) == above(forward)


@pytest.mark.parametrize("orders", [(2,), (0, 1, 2, 3)])
def test_pole_guard_raises_where_kick_one_leaves_weight_on_the_pole(orders):
    # a point of a 41-point grid on each pole in turn: the chain raises
    # where kick 1 leaves weight above the guard's 1e-9 in that pole's
    # sector, and only there, and every raise comes from kick 1's
    # resolvent: the rate -1/2 sector of an optical coherence beside a
    # population at kappa = 1, its rate -3/2 part once theta is large
    # enough, and the rate -1 sector of |gg><ee'| at kappa = 2
    thetas = (1e-6, 1e-5, 1e-3, 0.7)
    raised = set()
    for theta in thetas:
        for kappa in (1, 2):
            for pole in _pole_rates():
                z1 = 1j * np.linspace(-2.0, 2.0, 41)
                z1[5] = pole
                try:
                    _chain_rows(orders, z1, theta, kappa)
                except PoleError as error:
                    frames = traceback.extract_tb(error.__traceback__)
                    assert [frame.name for frame in frames[1:3]] == [
                        "_chain_rows", "apply_resolvent"]
                    raised.add((kappa, pole, theta))
    assert raised == ({(1, -0.5, theta) for theta in thetas}
                      | {(1, -1.5, theta) for theta in (1e-3, 0.7)}
                      | {(2, -1.0, theta) for theta in thetas})


def test_transposed_resolvent_is_the_dense_resolvent_transposed():
    # the block form against R(0) built densely: apply_resolvent at z = 0
    # on every basis vector, with the stationary mode projected out
    identity = {PhaseMonomial((0, 0, 0, 0)): np.eye(256, dtype=complex)}
    [(_, dense)] = apply_resolvent(identity, 0.0).items()
    block = _transposed_resolvent(np.eye(256, dtype=complex))
    assert np.count_nonzero(dense) == 360
    np.testing.assert_allclose(block, dense.T, rtol=0, atol=1e-15)


@pytest.mark.parametrize("length", [0, 1, 2, 3])
def test_interaction_tails_are_grouped_by_axis_parity(length):
    # the groups partition the multisets of ``length`` tags, and each
    # group's multisets all carry its parity
    groups = _interaction_tails(length)
    multisets = {tuple(sorted(c)) for c in
                 itertools.combinations_with_replacement(TAG_KEYS, length)}
    tags = [t for members, _ in groups.values() for t in members]
    assert len(tags) == len(set(tags)) == (1, 12, 78, 364)[length]
    assert set(tags) == multisets
    for parity, (members, block) in groups.items():
        assert {_axis_parity(t) for t in members} == {parity}
        assert block.shape == (256, 2 * len(members))
        assert block.flags.c_contiguous


@pytest.mark.parametrize("length", [0, 1, 2, 3])
def test_interaction_tails_contract_like_the_forward_insertions(length):
    # the tails run the detection stage backward from the detectors; the
    # forward maps run it on a state: R(0), then ``length`` rounds of one
    # insertion and R(0), read by the conjugated detection covectors
    tails = {t: block[:, 2 * i:2 * i + 2]
             for members, block in _interaction_tails(length).values()
             for i, t in enumerate(members)}
    multisets = {tuple(sorted(c)) for c in
                 itertools.combinations_with_replacement(TAG_KEYS, length)}

    rng = np.random.default_rng(length)
    x = np.zeros(256, dtype=complex)
    support = rng.choice(256, size=24, replace=False)
    x[support] = rng.normal(size=24) + 1j * rng.normal(size=24)
    state = apply_resolvent({PhaseMonomial((0, 0, 0, 0)): x}, 0.0)
    for _ in range(length):
        state = apply_resolvent(apply_interaction(state), 0.0)
    covectors = np.stack([_detection_covector(d).conj()
                          for d in DETECTION_DIRECTIONS])
    # every monomial has powers (0, 0, 0, 0), so keys differ by tags only
    forward = {m.tags: covectors @ coeffs for m, coeffs in state.items()}
    assert set(forward) <= multisets
    peak = max(np.max(np.abs(rows)) for rows in forward.values())
    assert peak > 0
    for multiset, tail in tails.items():
        want = forward.get(multiset, np.zeros(len(DETECTION_DIRECTIONS)))
        np.testing.assert_allclose(tail.T @ x, want,
                                   rtol=0, atol=1e-13 * peak)


def test_resolvent_broadcasts_over_a_grid_of_z_values():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=256) + 1j * rng.normal(size=256)
    vec = {PhaseMonomial((-1, 1, 0, 0)): coeffs}
    zs = 0.05 + 1j * np.linspace(-3.0, 3.0, 7)
    [(_, got)] = apply_resolvent(vec, zs).items()
    assert got.shape == (256, 7)
    for i, z in enumerate(zs):
        [(_, single)] = apply_resolvent(vec, z).items()
        assert np.allclose(got[:, i], single, atol=1e-13)


def test_scattering_solution_accepts_a_vector_of_z1_values():
    zs = 1j * np.array([-0.5, 0.0, 1.5])
    batched = scattering_solution(2, zs, 0.6, channel="parallel", kappa=1)
    zero = np.zeros(256, dtype=complex)
    for i, z in enumerate(zs):
        single = scattering_solution(2, z, 0.6, channel="parallel", kappa=1)
        # exact-zero pruning may keep roundoff-dust keys on one side only,
        # so compare over the union with absent entries read as zero
        for monomial in set(single) | set(batched):
            got = batched.get(monomial)
            col = zero if got is None else got[:, i]
            want = single.get(monomial, zero)
            assert np.allclose(col, want, atol=1e-12)


def test_apply_interaction_matches_assembled_generator():
    tensor = coupling_tensor(3.3, [0.1, 0.7, -0.5])
    phases = np.array([0.5, 1.0, -0.3, 0.8])
    vec = apply_kick(initial_vector(), 1, 0.9, "x")
    vec = apply_resolvent(vec, 0.25 + 0.1j)
    tagged = apply_interaction(vec)
    for monomial, _ in tagged.items():
        assert monomial.degree == 1
    got = _evaluate(tagged, phases, tensor)
    want = interaction_generator(tensor) @ _evaluate(vec, phases)
    assert np.allclose(got, want, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_total_grade_equals_total_phase_exponent(seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.2, 1.4)
    vec = scattering_solution(2, 0.4, theta, channel="perpendicular",
                              kappa=int(rng.integers(1, 3)))
    total_grade = (BASIS_GRADES[:, None] + BASIS_GRADES[None, :]).reshape(-1)
    for monomial, coeffs in vec.items():
        net = sum(monomial.powers)
        assert np.allclose(coeffs[total_grade != net], 0.0, atol=1e-13)


def _interpulse_prefixes(theta, kappa, z1, insertions=3):
    """Monomials of the kick-1 prefix and of 1 to ``insertions``
    insertions after it, each followed by a z1 resolvent, as the chain
    builds them."""
    prefix = apply_resolvent(apply_kick(
        initial_vector(), 1, theta, FIRST_POLARIZATION, kappa), z1)
    out = [prefix]
    for _ in range(insertions):
        out.append(apply_resolvent(apply_interaction(out[-1]), z1))
    return out


def _scipy_products(x, transposed=False):
    pieces = interaction_pieces()
    return np.stack([(pieces[tag].T if transposed else pieces[tag]) @ x
                     for tag in TAG_KEYS])


@pytest.mark.parametrize("theta, sizes", [
    (0.5 * np.pi, [2, 20, 111, 490]),
    (0.14 * np.pi, [2, 22, 118, 547]),
    (1.3, [2, 22, 123, 555]),
])
def test_insertions_prune_the_monomials_the_csr_product_prunes(
        theta, sizes, monkeypatch):
    # the pieces' products are exact zeros wherever scipy's CSR products
    # are, so the np.any skips of apply_interaction keep the same
    # monomials; sizes are the oracle check's kappa = 1 prefixes on its
    # 7-point grid
    z1 = 1j * np.linspace(-3.0, 3.0, 7)
    got = _interpulse_prefixes(theta, 1, z1)
    monkeypatch.setattr(expansion, "interaction_products", _scipy_products)
    want = _interpulse_prefixes(theta, 1, z1)
    assert [len(prefix) for prefix in got] == sizes
    for mine, theirs in zip(got, want):
        assert list(mine) == list(theirs)
        for monomial, coeffs in mine.items():
            assert np.array_equal(coeffs == 0, theirs[monomial] == 0)
            np.testing.assert_allclose(coeffs, theirs[monomial], rtol=1e-13,
                                       atol=1e-15 * np.max(np.abs(coeffs)))


@pytest.mark.parametrize("theta", [0.5 * np.pi, 0.14 * np.pi, 1.3])
def test_kappa_2_interpulse_insertions_give_no_monomial(theta):
    # pulse 1's harmonic (-1, -1) leaves |gg><ee'|, which decay keeps in
    # that form, and every term of every piece then lowers a ground ket
    # or raises an excited bra
    prefixes = _interpulse_prefixes(theta, 2, 1j * np.linspace(-3.0, 3.0, 7))
    assert [len(prefix) for prefix in prefixes] == [1, 0, 0, 0]
