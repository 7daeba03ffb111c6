"""Phase-tagged perturbative expansion of the driven pair state.

The experiment applies pulse 1 at time zero and pulse 2 after a delay,
then integrates fluorescence.  Each pulse kick splits into five optical
phase harmonics per atom (:func:`mqcsim.atom.kick_decomposition`), and
the pair interaction is linear in the coupling-tensor entries
(:func:`mqcsim.coupling.interaction_products`).  Rather than evaluating
phases and tensor entries numerically, the pipeline carries them as
symbols.  A vector is a plain dict mapping

  * a :class:`PhaseMonomial`, the integer exponents of the four pulse
    phases (pulse j at atom alpha) and the multiset of coupling factors
    picked up from interaction insertions, to
  * its coefficients over the two-atom operator basis (256 entries,
    optionally with a trailing z axis).  Pair objects are Kronecker
    products of single-atom ones (:mod:`mqcsim.basis`): the ground
    pair and the detector covectors are np.kron of single-atom
    coefficients, and a kick harmonic pair acts as the Kronecker
    product of two 16x16 maps.

Demodulation then reduces to selecting exponent combinations, and the
disorder average to replacing factor multisets by scalar weights
(:mod:`mqcsim.disorder`), both exact operations on this representation.

Everything here works in the state picture: components are pieces of
the density operator, and the free resolvent, interaction, and kick
maps act on them from the left; the detection tails below apply the
same matrices to covectors, from the right.  Time dependence is handled
in the Laplace domain; the exact free resolvent is applied through the
analytic eigendecomposition of the single-atom decay generator.

The chain computes only what is detected: fluorescence integrated over
the detection time, which is the detection-stage Laplace variable at
z2 = 0.  Every resolvent projects out the stationary (both atoms
ground) decay mode: with P0 = |ground pair><trace|, it is
(z - L1 - L2 + P0)^-1 (1 - P0), regular at z = 0.  That mode carries no
fluorescence and the pair interaction annihilates it; demodulated
components (kappa != 0) are trace-free and have no weight on it at
all, so for them the projection is exact, and only the unmodulated
background (kappa = 0) loses its z = 0 pole.

The decay eigendecomposition is block structured in the operator
basis, and :func:`mqcsim.atom.decay_eigensystem` lists it in basis
order.  Twelve of the sixteen single-atom decay modes are basis
elements themselves: the optical coherences sigma_1k, sigma_k1 (basis
indices 4-9, rate -1/2) and the excited-level coherences sigma_kl
(indices 10-15, rate -1).  The other four modes, sigma_11 (rate 0) and
sigma_kk - sigma_11 (rate -1), span only the diagonal indices 0-3.  The
pair resolvent therefore needs no dense change of basis: a 4x4 map on
the diagonal block of each atom index, one elementwise multiply by
1/(z - r_i - r_j), and the inverse 4x4 maps.  The interaction pieces
hold a few hundred nonzeros out of 65,536, and a vector is nonzero on a
few dozen of its 256 rows; :func:`mqcsim.coupling.interaction_products`
applies all twelve pieces to it in one pass over those rows.

One driver, :func:`_chain_rows`, yields the detected rows of the chain
over the set of orders a caller reads, in both channels, split by
split, on the chain's own z1 axis.  The interpulse stage runs forward
along z1: kick 1 runs once, and each prefix, the state after kick 1 and
s insertions, is built once from the one before and serves every order
and both channels, since only pulse 2's polarization tells the channels
apart.  One step builds every prefix after kick 1, monomial by
monomial: each monomial's insertion followed by one z1 resolvent over
all its products, merged by key.  Prefix n of the highest order n, which
only split n would read, is not built (see below).  With the
stationary mode projected out, a resolvent has poles only at the rate
sums -1/2, -1, -3/2 and -2, so a chain of M z1 resolvents is an exact
sum of c / (z1 - p)^m with m <= M.  The prefixes therefore carry z1 as
the K = 1 + 4 M coefficients of these partial fractions
(:class:`PoleBasis`, M set by the highest order) when that is shorter
than the grid; a short grid, or one with a point on a pole, is carried
as it is.  The detection stage does not depend on z1, so it runs
once from the other end: the conjugated detector rows times R(0) are
pulled back through one insertion (a transposed piece, all twelve at
once on all tails side by side) and one R(0) per step, with no z1 axis.
R(0) acts on them transposed, in the same block form as every z1
resolvent, so no run builds it as a 256x256 matrix.  These tails are
merged by the sorted multiset of their tags, 1, 12, 78 and 364 of them
for 0-3 insertions, and grouped as they are built.

One loop contracts every split.  Each prefix is grouped once by class,
the powers of its monomials, which fix the kick-2 harmonic pairs they
allow, and the axis parity of their tags, which fixes the tails they
meet (see the selection rules below), and each class is stacked once
over the rows where any of its monomials is nonzero.  Through each
pair, every class meets what its split reads in one stacked matrix
product, summed per (net atom-1 exponent, monomial tags plus the tag
the split inserts, if any); once the split is done, each sum is split
over the tails it met and merged under the joined tags, so the join
runs once per distinct key and tail.  Both steps keep only nonzero
rows, so no split builds a key whose rows it makes exactly zero.  The
splits differ only in what they read and in one step after the
product.
Split s of order n reads the tails of n - s insertions, kicked by the
transpose of the pair; a chain kicks each group of tails once per
channel and pair, and keeps it only while a later split can read it.
The first and the last split of the highest order n alone would need
the tails of n insertions or prefix n, by far the most of each, and
both stop one insertion short instead.

Split 0 of the highest order runs kick 1's few monomials one step
further forward: kick 2 through each pair, R(0) in the same block
form, and one insertion, whose exactly zero products are dropped.  Each
product reads the plain tails of n - 1 insertions of the group its axis
parity allows.  So a chain of highest order n builds tails of at most
n - 1 insertions.

Split n of the highest order, whose prefix monomials would meet only
the two detector rows of each pair, meets prefix n - 1 one step further
back, from the detector side.  With R(z1) = F D T (T to decay modes, D
the division by z1 - r_i - r_j, F back), c a kicked tail of no
insertion (a conjugated detector row times R(0) and the pair's kick)
and x a monomial of prefix n - 1, the split's rows through the tag of
piece V are

    c^T F D T V x = sum_s ((V^T T^T P_s F^T c)^T x) o D_s,

with P_s the projection on the decay sector of rate sum s and D_s the
factor 1 / (z1 - s) on the z1 axis (o), s over the four poles: the
stationary sector is dropped, as the forward division drops it.  The
pulled-back covectors V^T T^T P_s F^T c carry no z1 axis: one transposed
insertion, all twelve tags at once, acts on the four sector parts of a
kicked tail, once per channel and pair (:func:`_pulled_back`).  Split
n reads them, and the step after its product is each sector's
division, on the contracted rows instead of on 256-row products: the
step matrices of :func:`_pole_sectors` on a pole basis, 1 / (z1 - s) on
a grid (:func:`_sector_division`).  So a chain of highest order n builds
no prefix and no tail longer than n - 1 insertions.

Split n keeps both pole guards of :func:`apply_resolvent`.  On a pole
basis, a monomial of prefix n - 1 has been through n z1 resolvents, so
it and its insertions carry at most the labels (r, n), below the
guarded (r, n + 1).  On a grid with a point on a pole, split n runs the
forward step on prefix n - 1 for its guard alone and discards the
quotients, and a pole whose weight the guard lets pass gets the factor
0, as in the forward division.

Two selection rules make most (net atom-1 exponent, tags) keys exactly
zero, and the chain never builds them:

  * Atom-phase parity: the exponent has the parity of the key's order,
    its number of tags.  Detection reads coherence order 0 on each
    atom.  A kick harmonic p shifts atom 1's coherence order by p, free
    decay keeps it, and each interaction insertion moves it by +-1.
  * Cartesian parity: counting both axis indices of every tag, each
    axis appears an even number of times in a key's tags, except in the
    perpendicular channel, where x and y appear kappa mod 2 times.
    Reflecting one axis is a symmetry of the isotropic J = 0 -> 1 atom,
    its decay and its detectors, whose observables are quadratic in the
    dipole; a coupling factor T_kl changes sign once per index on that
    axis.  The reflection flips a pulse polarized along the axis, which
    multiplies its harmonic p by (-1)^p, so the pulse's net harmonic
    -+kappa by (-1)^kappa.  Pulse 1 is along x and pulse 2 along x
    (parallel) or y (perpendicular): reflecting x flips both pulses in
    the parallel channel, whose signs cancel, but only pulse 1 in the
    perpendicular one; reflecting y flips pulse 2 there alone; and
    reflecting z flips neither.  The excited levels |2>, |3>, |4> are
    |x>, |y>, |z> (:mod:`mqcsim.atom`), so a reflection only flips the
    sign of one level and maps each basis element to plus or minus
    itself: every key that breaks the rule is an exact zero, not
    roundoff.

Kick 1 leaves a prefix monomial the powers (a, 0, c, 0) with
a + c = -kappa, so its kick-2 pairs are p2 = kappa - p1 (p1 = -a with
zero net atom phase) of the allowed atom-phase parity; they depend only
on its powers and the parity of the order it feeds.  The tails of each
length are grouped by the axis parity of their tags
(:func:`_interaction_tails`), and a prefix monomial meets only the
group that completes its own to the key's.

A third symmetry halves the interpulse stage.  The atoms are identical
and see the same pulses, so the atom exchange S, pair index 16 i + j
to 16 j + i, maps the chain onto itself: the ground pair, the decay
generator and so every resolvent are invariant; each of the twelve
interaction pieces maps to itself, since the coupling tensor is
symmetric and each piece sums both atom orders; the detectors sum over
both atoms, so the covectors and every tail are invariant; and a kick
harmonic pair (p1, p2) maps to (p2, p1).  S therefore maps the prefix
monomial (a, 0, c, 0, tags) to (c, 0, a, 0, tags), its coefficients
permuted by S, and its contraction through the pair (p1, p2) to the
mirror's through (p2, p1), which gives the same rows.  The key's
exponent e = a + p1 becomes c + p2 = -e, as a + c = -kappa and
p1 + p2 = kappa.  Insertions keep the powers, so the chain runs kick 1's
monomials with a < c as they are and drops those with a > c
(:func:`_mirror_half`).  Every prefix and contraction then builds the
rows P of one half, and the chain's rows are
rows(e, tags) = P(e, tags) + P(-e, tags) (:func:`_mirror_folded`):
2 P(0, tags) at e = 0, and mirror keys with bit-equal rows.  A monomial
with a == c, (-1, 0, -1, 0) at kappa = 2, is its own mirror: its rows
at e and -e are already each other's, so the fold would count it twice,
and it runs at weight 1/2, exact in floating point.  The pole
guard is unaffected: S maps each decay sector to one of the same rate
sum, and the guard measures every monomial against its own entries, so
the kept half raises exactly where the dropped half would.

Every reader takes the chain from one cache, :func:`_chain`;
:mod:`mqcsim.disorder` and :mod:`mqcsim.oracle` say what they read.
:func:`scattering_solution` keeps the whole forward state of one order,
both mirror halves included, and is the reference that the tests check
the driver against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .atom import (DETECTION_DIRECTIONS, FIRST_POLARIZATION,
                   POPULATION_BLOCK, SECOND_POLARIZATION, PoleError,
                   decay_eigensystem, detection_observable, kick_decomposition)
from .basis import (HILBERT_DIM, NUM_OPS, NUM_OPS_PAIR, apply_factorized,
                    expand, matrix_unit)
from .coupling import TAG_KEYS, interaction_products

#: keys of a chain with no row entry above this fraction of the chain's
#: largest entry are roundoff where the exact value is zero
TERM_FLOOR = 1e-13


@dataclass(frozen=True)
class PhaseMonomial:
    """Exponents of the pulse phases plus collected coupling factors.

    ``powers = (a, b, c, d)`` are the integer exponents of the phases of
    (pulse 1 at atom 1, pulse 2 at atom 1, pulse 1 at atom 2, pulse 2 at
    atom 2); the component oscillates as exp(i(a phi_11 + b phi_21 +
    c phi_12 + d phi_22)).  ``tags`` is the sorted multiset of coupling
    tensor factors, each a tag understood by
    :func:`mqcsim.coupling.tensor_tag_value`.
    """

    powers: tuple
    tags: tuple = ()

    @property
    def pulse_net(self):
        """Net exponent per pulse, (a + c, b + d); demodulating at
        harmonic kappa selects pulse_net == (-kappa, kappa)."""
        a, b, c, d = self.powers
        return (a + c, b + d)

    @property
    def atom_net(self):
        """Net exponent per atom, (a + b, c + d); these multiply the
        position phase of the respective atom."""
        a, b, c, d = self.powers
        return (a + b, c + d)

    @property
    def degree(self) -> int:
        """Number of collected coupling factors."""
        return len(self.tags)

    def kicked(self, pulse_index: int, p_atom1: int, p_atom2: int) -> "PhaseMonomial":
        """Monomial after a kick harmonic (p_atom1, p_atom2) of pulse 1 or 2."""
        a, b, c, d = self.powers
        if pulse_index == 1:
            return PhaseMonomial((a + p_atom1, b, c + p_atom2, d), self.tags)
        if pulse_index == 2:
            return PhaseMonomial((a, b + p_atom1, c, d + p_atom2), self.tags)
        raise ValueError(f"pulse_index must be 1 or 2, got {pulse_index}")

    def tagged(self, tag) -> "PhaseMonomial":
        return PhaseMonomial(self.powers, tuple(sorted(self.tags + (tag,))))


def _merge(terms: dict, key, value) -> None:
    """Accumulate ``value`` into ``terms`` under ``key``, adding it to a
    value already there: a component onto the coefficients of an equal
    monomial, or rows onto rows of an equal key."""
    terms[key] = terms[key] + value if key in terms else value


def initial_vector() -> dict:
    """Both atoms in the ground state, no phase exponents, no factors."""
    ground = expand(matrix_unit(1, 1))
    return {PhaseMonomial((0, 0, 0, 0)): np.kron(ground, ground)}


def apply_kick(vector: dict, pulse_index: int, theta: float,
               polarization: str, kappa=None) -> dict:
    """Kick both atoms with one pulse, branching over phase harmonics.

    The pulse reaches the atoms with individual phases (the monomials
    track them separately), so the pair map is the product of one
    five-harmonic decomposition per atom: 25 branches, pruned by exact
    structural zeros and, with ``kappa``, to the monomials that
    demodulation at harmonic kappa reads: pulse 1 keeps net pulse-1
    exponent -kappa, pulse 2 net pulse exponents (-kappa, kappa).
    """
    mats = kick_decomposition(theta, polarization)
    read = None if kappa is None else (-kappa, kappa)[:pulse_index]
    out = {}
    for monomial, coeffs in vector.items():
        for p1 in range(-2, 3):
            for p2 in range(-2, 3):
                kicked = monomial.kicked(pulse_index, p1, p2)
                if read is not None and kicked.pulse_net[:pulse_index] != read:
                    continue
                new = apply_factorized(mats[p1], mats[p2], coeffs)
                if not np.any(new):
                    continue
                _merge(out, kicked, new)
    return out


@functools.cache
def _decay_blocks():
    """Block form of the single-atom decay eigensystem.

    Returns ``(to_eigen, from_eigen, rates)``: the 4x4 maps between the
    diagonal basis indices 0-3 and the population modes (the stationary
    mode sigma_11 first), and the decay rate of every basis index, which
    :func:`mqcsim.atom.decay_eigensystem` lists in basis order.
    """
    eig = decay_eigensystem()
    from_eigen = eig.modes[:POPULATION_BLOCK, :POPULATION_BLOCK]
    return np.linalg.inv(from_eigen), from_eigen, eig.rates


def _map_population_block(matrix: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Apply ``matrix`` to the population indices of both atoms, in place.

    ``block`` has shape (..., 16, 16, V): optional stack axes, atom 1
    index, atom 2 index, batch.
    """
    p = POPULATION_BLOCK
    first = block[..., :p, :, :]
    block[..., :p, :, :] = np.matmul(
        matrix, first.reshape(first.shape[:-3] + (p, -1))).reshape(first.shape)
    block[..., :p, :] = np.matmul(matrix, block[..., :p, :])
    return block


@functools.cache
def _pole_rates() -> tuple:
    """The rate sums r_i + r_j of the pair's decay sectors, without the
    stationary sector (0, 0): the only poles a resolvent leaves on the
    z axis, in increasing order."""
    _, _, rates = _decay_blocks()
    sums = {float(r) for r in (rates[:, None] + rates[None, :]).flat}
    return tuple(sorted(sums - {0.0}))


@dataclass(frozen=True)
class PoleBasis:
    """Exact partial-fraction labels of a z axis, in place of a grid,
    for a chain of at most ``multiplicity`` resolvents (see the module
    docstring).  Coefficients carry K = ``size`` labels on their
    trailing axis: the constant first, then (p, 1), ..., (p,
    multiplicity) for each pole p of :func:`_pole_rates` in turn.
    """

    multiplicity: int

    @property
    def size(self) -> int:
        return 1 + len(_pole_rates()) * self.multiplicity

    def label(self, pole: int, power: int) -> int:
        """Axis index of 1 / (z - _pole_rates()[pole])^power."""
        return 1 + pole * self.multiplicity + power - 1

    def evaluation(self, z) -> np.ndarray:
        """(K, len(z)) matrix taking label coefficients to values at z."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.ones((self.size, z.size), dtype=complex)
        for i, pole in enumerate(_pole_rates()):
            for m in range(1, self.multiplicity + 1):
                out[self.label(i, m)] = (z - pole) ** -m
        return out


@functools.cache
def _pole_sectors(basis: PoleBasis) -> tuple:
    """The division f -> f / (z - r) of every decay sector on ``basis``.

    One entry per pole r: the flat pair indices of its sector, the K x K
    matrix ``step`` with  (coeffs @ step)  the labels of f / (z - r),
    and the label (r, multiplicity), whose weight would overflow:

      1 -> (r, 1);   (r, m) -> (r, m + 1);
      (q, m) -> d^-m (r, 1) - sum_{k=1..m} d^-(m-k+1) (q, k),  d = r - q.
    """
    _, _, rates = _decay_blocks()
    sums = (rates[:, None] + rates[None, :]).reshape(-1)
    poles, top = _pole_rates(), basis.multiplicity
    out = []
    for i, r in enumerate(poles):
        step = np.zeros((basis.size, basis.size))
        step[0, basis.label(i, 1)] = 1.0
        for m in range(1, top):
            step[basis.label(i, m), basis.label(i, m + 1)] = 1.0
        for j, q in enumerate(poles):
            if j == i:
                continue
            d = r - q
            for m in range(1, top + 1):
                row = basis.label(j, m)
                step[row, basis.label(i, 1)] = d ** -m
                for k in range(1, m + 1):
                    step[row, basis.label(j, k)] = -d ** -(m - k + 1)
        out.append((np.flatnonzero(sums == r), step, basis.label(i, top)))
    return tuple(out)


def _pole_division(basis: PoleBasis):
    """Division of decay-mode coefficients (..., 16, 16, K), which it
    overwrites, by z - r_i - r_j on the labels of ``basis``, with the
    stationary sector sent to 0 and the overflow guard of
    :func:`apply_resolvent`."""
    sectors = _pole_sectors(basis)

    def divide(eigen):
        flat = eigen.reshape(eigen.shape[:-3] + (NUM_OPS_PAIR, basis.size))
        for rows, step, top in sectors:
            part = flat[..., rows, :]
            if np.any(part[..., top]):
                raise PoleError(
                    f"pole multiplicity above {basis.multiplicity} of {basis}")
            flat[..., rows, :] = part @ step
        # the stationary sector, the one that no pole sector covers
        eigen[..., 0, 0, :] = 0.0
        return eigen

    return divide


def _grid_division(z):
    """Elementwise division of decay-mode coefficients (..., 16, 16, V)
    by z - r_i - r_j over the grid ``z``, with the stationary sector sent
    to 0 and the pole guard of :func:`apply_resolvent`, which measures
    each coefficient array of the leading stack axes on its own."""
    _, _, rates = _decay_blocks()
    denom = np.asarray(z, dtype=complex).reshape(1, 1, -1) - (
        rates[:, None, None] + rates[None, :, None])
    denom[0, 0] = 1.0
    on_pole = np.abs(denom) < 1e-12
    any_pole = bool(np.any(on_pole))
    inverse = 1.0 / np.where(on_pole, 1.0, denom)
    inverse[on_pole] = 0.0
    inverse[0, 0] = 0.0

    def divide(eigen):
        if any_pole:
            magnitude = np.abs(eigen)
            magnitude[..., 0, 0, :] = 0.0
            scale = np.maximum(np.max(magnitude, axis=(-3, -2, -1),
                                      keepdims=True), 1e-300)
            if np.any(on_pole & (magnitude > 1e-9 * scale)):
                raise PoleError(
                    f"pair resolvent evaluated on a pole at z = {z}")
        return eigen * inverse

    return divide


def _division(z):
    """The division by z - r_i - r_j of :func:`apply_resolvent` on the
    grid or :class:`PoleBasis` ``z``."""
    return _pole_division(z) if isinstance(z, PoleBasis) else _grid_division(z)


def _resolved(block: np.ndarray, divide) -> np.ndarray:
    """The resolvent of :func:`apply_resolvent` on coefficients
    (..., 16, 16, V), which it overwrites, with ``divide`` from
    :func:`_division`."""
    to_eigen, from_eigen, _ = _decay_blocks()
    eigen = _map_population_block(to_eigen, block)
    return _map_population_block(from_eigen, divide(eigen))


def apply_resolvent(vector: dict, z) -> dict:
    """Laplace-domain free evolution of every component (state picture).

    The exact pair resolvent (z - L1 - L2)^-1 in the block form of the
    decay eigensystem, with the stationary mode projected out (see the
    module docstring): the population block of each atom index is
    mapped to decay modes, every entry is divided by z - r_i - r_j, and
    the maps are undone.

    ``z`` is a scalar, a 1d grid, or a :class:`PoleBasis`.  On a grid,
    coefficients may carry one trailing batch axis, which broadcasts
    against the grid, and the division is elementwise, with the
    denominators and the pole mask computed once per call.  On a pole
    basis, coefficients carry its K labels on their trailing axis
    (coefficients without one are constant in z), and the division of
    each rate sector r is the exact K x K map of f -> f / (z - r)
    (:func:`_pole_sectors`).

    Raises:
        PoleError: on a grid, a component has weight, above 1e-9 of its
            largest decay-mode entry, in a sector whose rate sum equals
            some z of the grid (negligible weight on a pole is dropped);
            on a pole basis, a component has weight on the label
            (r, multiplicity) of its own sector r, which the division
            would raise past the basis.
    """
    basis = z if isinstance(z, PoleBasis) else None
    divide = _division(z)
    out = {}
    for monomial, coeffs in vector.items():
        if basis is not None and coeffs.ndim == 1:
            constant = np.zeros((NUM_OPS_PAIR, basis.size), dtype=complex)
            constant[:, 0] = coeffs
            coeffs = constant
        block = np.array(coeffs, dtype=complex).reshape(NUM_OPS, NUM_OPS, -1)
        solved = _resolved(block, divide)
        scalar_out = coeffs.ndim == 1 and np.ndim(z) == 0
        out[monomial] = (solved.reshape(-1) if scalar_out
                         else solved.reshape(NUM_OPS_PAIR, -1))
    return out


def apply_interaction(vector: dict) -> dict:
    """One pair-interaction insertion, branching over coupling factors.

    Each component acquires one symbolic tensor factor per canonical
    tag, with the matching 256x256 piece applied to its coefficients
    (:func:`mqcsim.coupling.interaction_products`); exactly zero
    products are dropped.
    """
    out = {}
    for monomial, coeffs in vector.items():
        products = interaction_products(coeffs)
        nonzero = products.reshape(len(TAG_KEYS), -1).any(axis=1)
        for tag, new, kept in zip(TAG_KEYS, products, nonzero):
            if kept:
                # a copy, so that the zero products are freed
                _merge(out, monomial.tagged(tag), new.copy())
    return out


def _detection_covector(direction) -> np.ndarray:
    """Coefficients of the observable a detector along ``direction``
    reads, summed over both atoms; a state's detected value is the
    conjugate covector times its coefficients."""
    single = expand(detection_observable(direction))
    identity = expand(np.eye(HILBERT_DIM))
    return np.kron(single, identity) + np.kron(identity, single)


@functools.cache
def _axis_parity(tags) -> int:
    """Parity of the count of each Cartesian axis index in ``tags``, as
    bits: bit k is set when axis k appears an odd number of times."""
    parity = 0
    for _, k, l in tags:
        parity ^= (1 << k) ^ (1 << l)
    return parity


def _key_parity(channel: str, kappa: int) -> int:
    """The :func:`_axis_parity` of every key that the chain at ``kappa``
    in ``channel`` can hold: x and y odd only in the perpendicular
    channel at odd kappa, where each pulse flips under its own axis."""
    return 0b011 if channel == "perpendicular" and kappa % 2 else 0


def _transposed_resolvent(tails: np.ndarray) -> np.ndarray:
    """R(0) transposed times ``tails`` (256, V), which it overwrites: the
    block form of :func:`apply_resolvent` at z = 0 with the transposed
    4x4 maps in reverse order, so that the tails project out the
    stationary mode exactly as the forward chain does."""
    to_eigen, from_eigen, _ = _decay_blocks()
    block = tails.reshape(NUM_OPS, NUM_OPS, -1)
    eigen = _grid_division(0.0)(_map_population_block(from_eigen.T, block))
    return _map_population_block(to_eigen.T, eigen).reshape(tails.shape)


@functools.cache
def _interaction_tails(length: int) -> dict:
    """Tails of ``length`` plain insertions: the transposed covectors
    (256, 2) of the detector rows times R(0) (V R(0))^length, merged by
    the sorted multiset of their tags and grouped by its
    :func:`_axis_parity`.  They depend on nothing else, so every chain
    shares them.  Returns a dict from the parity to the group's
    multisets and one array of its tails side by side, columns 2 i and
    2 i + 1 for multiset i."""
    if length == 0:
        groups = {0: {(): np.stack([_detection_covector(d).conj()
                                    for d in DETECTION_DIRECTIONS], axis=1)}}
    else:
        shorter = _interaction_tails(length - 1).values()
        keys = [tags for multisets, _ in shorter for tags in multisets]
        products = interaction_products(
            np.concatenate([tails for _, tails in shorter], axis=1),
            transposed=True).reshape(len(TAG_KEYS), NUM_OPS_PAIR,
                                     len(keys), 2)
        groups = {}
        for i, tags in enumerate(keys):
            for tag, product in zip(TAG_KEYS, products[:, :, i]):
                multiset = tuple(sorted(tags + (tag,)))
                _merge(groups.setdefault(_axis_parity(multiset), {}),
                       multiset, product)
    return {parity: (tuple(group), _transposed_resolvent(
                np.concatenate(list(group.values()), axis=1)))
            for parity, group in groups.items()}


def _on_pole(z1: np.ndarray) -> np.ndarray:
    """Mask (len(z1), poles) of the grid points that lie on each pole of
    :func:`_pole_rates`."""
    return np.abs(z1[:, None] - np.array(_pole_rates())) < 1e-12


def _interpulse_axis(z1: np.ndarray, resolvents: int):
    """The z1 axis of every prefix of a chain whose longest prefix has
    ``resolvents`` z1 resolvents: the exact :class:`PoleBasis` when it
    has fewer labels than the grid has points and no grid point lies on
    a pole, otherwise the grid, whose pole guard then reports a pole."""
    basis = PoleBasis(resolvents)
    return basis if basis.size < z1.size and not _on_pole(z1).any() else z1


def _sector_division(axis):
    """Split n's division by z1 - r of the rows of each pole sector r
    (see the module docstring): a function taking rows (..., poles, 2,
    B, axis size), sectors in :func:`_pole_rates` order, to their sum
    over sectors, each divided, of shape (..., 2, B, axis size): by the
    step matrices of :func:`_pole_sectors` in one product on a
    :class:`PoleBasis`, by 1 / (z1 - r), 0 on a pole, on a grid."""
    if isinstance(axis, PoleBasis):
        steps = np.concatenate([step for _, step, _ in _pole_sectors(axis)])

        def divide(rows):
            # sector and label axes side by side, then one product
            joined = np.moveaxis(rows, -4, -2)
            return (joined.reshape(-1, steps.shape[0]) @ steps).reshape(
                joined.shape[:-2] + (axis.size,))
        return divide
    on_pole = _on_pole(axis).T
    inverse = 1.0 / np.where(on_pole, 1.0,
                             axis[None, :] - np.array(_pole_rates())[:, None])
    inverse[on_pole] = 0.0
    return lambda rows: np.einsum("...sdbv,sv->...dbv", rows, inverse)


def _pulled_back(tails: np.ndarray) -> np.ndarray:
    """Split n's pulled-back covectors V^T T^T P_s F^T c of the kicked
    tails c (2, 256), rows the conjugated detectors (see the module
    docstring): shape (12, 256, poles x 2), one per tag, column 2 s + d
    for the detector row d of pole sector s."""
    to_eigen, from_eigen, rates = _decay_blocks()
    sums = rates[:, None] + rates[None, :]
    eigen = _map_population_block(
        from_eigen.T, tails.T.copy().reshape(NUM_OPS, NUM_OPS, -1))
    poles = _pole_rates()
    split = np.zeros((NUM_OPS, NUM_OPS, len(poles), len(tails)),
                     dtype=complex)
    for i, rate in enumerate(poles):
        split[sums == rate, i] = eigen[sums == rate]
    split = _map_population_block(
        to_eigen.T, split.reshape(NUM_OPS, NUM_OPS, -1))
    return interaction_products(split.reshape(NUM_OPS_PAIR, -1),
                                transposed=True)


def _insertion_resolved(monomial: PhaseMonomial, coeffs: np.ndarray,
                        divide):
    """The tagged monomials of one insertion on ``monomial`` and one z1
    resolvent, as :func:`apply_interaction` and :func:`apply_resolvent`
    make them.  The resolvent acts once on the nonzero products of
    :func:`mqcsim.coupling.interaction_products` stacked, each of which
    the pole guard measures on its own."""
    products = interaction_products(coeffs)
    kept = np.flatnonzero(products.reshape(len(TAG_KEYS), -1).any(axis=1))
    if not kept.size:
        return
    # a copy, so that the zero products are freed before the resolvent
    products = products[kept]
    solved = _resolved(products.reshape(len(kept), NUM_OPS, NUM_OPS, -1),
                       divide)
    for i, new in zip(kept, solved.reshape(products.shape)):
        # a copy, so that a reader holding it does not hold the stack
        yield monomial.tagged(TAG_KEYS[i]), new.copy()


def _chain_rows(orders, z1, theta: float, kappa: int, *,
                zero_phase: bool = False, fast: bool = False) -> tuple:
    """Detected rows of the two-pulse chain over ``orders``, summed over
    interaction splits and merged by key, on the chain's own z1 axis,
    in both channels.

    The splits, the first and the last split of the highest order, the
    selection rules and the mirror half are those of the module
    docstring.  One interpulse stage serves both channels, and a prefix
    is contracted one channel at a time, so that only one channel's
    kicked tails of a length are alive.

    All orders share the z1 axis of the splits of the highest order
    (:func:`_interpulse_axis`).  Only the monomials read out at
    demodulation harmonic ``kappa`` are kept, as :func:`apply_kick`
    prunes them.  With ``zero_phase``, kick 2 also keeps only zero net
    exponent on each atom, the monomials whose position phases survive
    the disorder average (:mod:`mqcsim.disorder`), so every key has
    e = 0 and no odd order survives.  The other arguments are those of
    :func:`scattering_solution`.

    Returns:
        the axis, and a dict from each channel to a dict mapping (net
        atom-1 phase exponent, sorted tags) to the detected rows of the
        monomials with that key, shape (len(DETECTION_DIRECTIONS), axis
        size).  It holds every key to which some split gives a nonzero
        part of its rows, and no other.
    """
    z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
    top = max(orders)
    splits = (0,) if fast else tuple(range(top + 1))
    axis = _interpulse_axis(z1, len(splits))
    harmonics = {channel: kick_decomposition(theta, polarization)
                 for channel, polarization in SECOND_POLARIZATION.items()}
    wanted = {channel: _key_parity(channel, kappa) for channel in harmonics}

    @functools.cache
    def kick2_pairs(powers, parity):
        # the kick-2 pairs of the module docstring, in every channel;
        # p1 = -a alone with ``zero_phase``
        a = powers[0]
        firsts = (-a,) if zero_phase else range(-2, 3)
        return tuple((p1, kappa - p1) for p1 in firsts
                     if abs(p1) <= 2 and abs(kappa - p1) <= 2
                     and (a + p1 - parity) % 2 == 0)

    out = {channel: {} for channel in harmonics}
    # the transposed tails kicked by (channel, p1, p2, length, group)
    kicked = {}

    def kicked_tails(channel, p1, p2, length, group):
        step = (channel, p1, p2, length, group)
        if step not in kicked:
            kick = harmonics[channel]
            kicked[step] = np.ascontiguousarray(apply_factorized(
                kick[p1].T, kick[p2].T,
                _interaction_tails(length)[group][1]).T)
        return kicked[step]

    def blocked(prefix):
        # the prefix by class (see the module docstring), each class
        # stacked once, (rows, monomials x axis), over the rows where any
        # of its monomials is nonzero
        classes, blocks = {}, []
        for monomial, coeffs in prefix.items():
            classes.setdefault((monomial.powers, _axis_parity(monomial.tags)),
                               []).append((monomial.tags, coeffs))
        for (powers, parity), members in classes.items():
            tags, block = zip(*members)
            support = np.flatnonzero(np.any(
                [np.any(coeffs, axis=1) for coeffs in block], axis=0))
            blocks.append((powers, parity, tags, support, np.stack(
                [coeffs[support] for coeffs in block], axis=1).reshape(
                    len(support), -1)))
        return blocks

    def contract(blocks, between, order, channel):
        # split ``between`` of ``order`` in ``channel``: through each
        # kick-2 pair, every class meets what its split reads in one
        # stacked product, (inserted tags, readers, columns), and its rows
        # are summed per (net atom-1 exponent, its tags plus inserted tag)
        last, forward = between == top > 0, order == top > between == 0
        length = order - between - forward
        groups, kick, sums = _interaction_tails(length), harmonics[channel], {}
        for p1, p2 in sorted({pair for powers, *_ in blocks
                              for pair in kick2_pairs(powers, order % 2)}):
            pulled = last and _pulled_back(kicked_tails(channel, p1, p2, 0, 0))
            for powers, parity, tags, support, columns in blocks:
                group = parity ^ wanted[channel]
                if (p1, p2) not in kick2_pairs(powers, order % 2):
                    continue
                if last:
                    # the tags that complete the class's parity to the key's
                    inserted = [i for i, tag in enumerate(TAG_KEYS)
                                if _axis_parity((tag,)) == group]
                    met = [([(TAG_KEYS[i],) for i in inserted], pulled[
                        np.ix_(inserted, support)].transpose(0, 2, 1), columns)]
                elif forward:
                    # kick 2, R(0) and one insertion on the class, one
                    # monomial of kick 1 here, as no two share powers; each
                    # nonzero product meets the plain tails of its group
                    state = np.zeros((NUM_OPS_PAIR, columns.shape[1]), complex)
                    state[support] = columns
                    state = _resolved(apply_factorized(
                        kick[p1], kick[p2], state).reshape(NUM_OPS, NUM_OPS, -1),
                        _grid_division(0.0)).reshape(state.shape)
                    met = [([(tag,)], groups[other][1].T, product)
                           for tag, product in zip(TAG_KEYS,
                                                   interaction_products(state))
                           if product.any() and (other := group ^ _axis_parity(
                               (tag,))) in groups]
                elif group in groups:
                    met = [([()], kicked_tails(channel, p1, p2, length, group)[
                        :, support], columns)]
                else:
                    continue
                for inserted, readers, right in met:
                    rows = np.matmul(readers, right).reshape(
                        len(inserted), -1, len(tags), axis.size)
                    if last:
                        rows = division(rows.reshape(
                            len(inserted), -1, 2, len(tags), axis.size))
                    # a key is built only where its rows are nonzero
                    for i, b in zip(*np.nonzero(rows.any(axis=(1, 3)))):
                        _merge(sums, (powers[0] + p1,
                                      tuple(sorted(tags[b] + inserted[i]))),
                               rows[i, :, b])
            # one pulled-back array alive at a time
            del pulled
        # each sum split over the tails it met, its nonzero parts merged
        # under the joined tags
        for (a, tags), rows in sums.items():
            tails, _ = groups[_axis_parity(tags) ^ wanted[channel]]
            parts = rows.reshape(len(tails), -1, axis.size)
            for tail, part in zip(tails, parts):
                if part.any():
                    _merge(out[channel], (a, tuple(sorted(tags + tail))),
                           part)
        # then drop the channel's kicked tails of this length whose pair
        # no later split reads at this length for any of kick 1's powers
        later = {pair for s in splits[between + 1:] if s + length in orders
                 for powers in first_powers
                 for pair in kick2_pairs(powers, (s + length) % 2)}
        for step in [step for step in kicked if step[0] == channel
                     and step[3] == length and step[1:3] not in later]:
            del kicked[step]

    prefix = apply_resolvent(_mirror_half(apply_kick(
        initial_vector(), 1, theta, FIRST_POLARIZATION, kappa)), axis)
    first_powers = {monomial.powers for monomial in prefix}
    divide, division = _division(axis), _sector_division(axis)
    blocks = blocked(prefix)
    for between in splits:
        if 0 < between < top:
            # one monomial of the prefix before at a time, merged by key
            made = (new for monomial, coeffs in prefix.items()
                    for new in _insertion_resolved(monomial, coeffs, divide))
            prefix = {}
            for monomial, coeffs in made:
                _merge(prefix, monomial, coeffs)
            blocks = blocked(prefix)
        elif between and not isinstance(axis, PoleBasis) and _on_pole(
                axis).any():
            # split top: the forward step's pole guard on the products it
            # would divide; the quotients are not needed
            for monomial, coeffs in prefix.items():
                list(_insertion_resolved(monomial, coeffs, divide))
        for n in orders:
            if n >= between:
                # one channel at a time: only its kicked tails are alive
                for channel in harmonics:
                    contract(blocks, between, n, channel)
    return axis, {channel: _mirror_folded(half)
                  for channel, half in out.items()}


@functools.lru_cache(maxsize=2)
def _chain(orders: tuple, z1: tuple, theta: float, kappa: int,
           zero_phase: bool = False, fast: bool = False) -> tuple:
    """The chain of :func:`_chain_rows` on the grid of the points ``z1``,
    every row read-only: the one cache of the chain, which every reader
    shares.  It holds the last two chains, so a run that reads one chain
    per kappa builds each once."""
    axis, rows = _chain_rows(orders, np.array(z1), theta, kappa,
                             zero_phase=zero_phase, fast=fast)
    for by_key in rows.values():
        for row in by_key.values():
            row.flags.writeable = False
    return axis, rows


def _mirror_half(vector: dict) -> dict:
    """One representative of each atom-exchange mirror pair among kick
    1's monomials, powers (a, 0, c, 0): those with a < c as they are,
    those with a == c (their own mirrors) times 1/2, and none with
    a > c (see the module docstring)."""
    out = {}
    for monomial, coeffs in vector.items():
        a, _, c, _ = monomial.powers
        if a < c:
            out[monomial] = coeffs
        elif a == c:
            out[monomial] = 0.5 * coeffs
    return out


def _mirror_folded(half: dict) -> dict:
    """The rows of the whole chain from the rows ``half`` of the mirror
    half of :func:`_mirror_half`: rows(e, tags) = half(e, tags) +
    half(-e, tags), 2 half(0, tags) at e = 0, and a key that only one
    side holds copied to the other."""
    out = {}
    for (exponent, tags), rows in half.items():
        mirror = half.get((-exponent, tags))
        if mirror is None:
            out[(exponent, tags)] = rows
            out[(-exponent, tags)] = rows.copy()
        else:
            out[(exponent, tags)] = rows + mirror
    return out


def _on_grid(axis, rows: np.ndarray, z1) -> np.ndarray:
    """Rows on a chain's z1 axis, of shape (..., axis size), evaluated
    on the grid ``z1``; rows on the grid itself are returned as they
    are."""
    if isinstance(axis, PoleBasis):
        return rows @ axis.evaluation(z1)
    return rows


def scattering_solution(order: int, z1, theta: float,
                        channel: str = "parallel", kappa=None,
                        fast: bool = False) -> dict:
    """Pair state after both pulses, expanded to a fixed interaction order.

    The state is Laplace transformed in the interpulse delay (at ``z1``)
    and integrated over the detection time (z2 = 0), from both atoms
    ground, with the stationary mode projected out of every resolvent
    (see the module docstring).

    Args:
        order: total number of pair-interaction insertions (0 keeps the
            atoms independent, 2 adds the leading interaction effect on
            demodulated signals).
        z1: Laplace variable conjugate to the interpulse delay, a
            scalar or a 1d grid.
        theta: pulse area (both pulses).
        channel: "parallel" for x,x pulse polarizations, "perpendicular"
            for x,y.
        kappa: optional demodulation harmonic; components that cannot
            reach it are pruned as early as possible.  None keeps all.
        fast: place all interaction insertions after the second pulse
            (detection stage only) instead of summing every split
            between the two evolution windows.

    Returns:
        dict mapping each :class:`PhaseMonomial` of the transformed state
        to its coefficients; the sum over interaction splits is already
        performed.
    """
    second_pol = SECOND_POLARIZATION[channel]
    splits = (0,) if fast else tuple(range(order + 1))
    prefixes = [apply_resolvent(apply_kick(
        initial_vector(), 1, theta, FIRST_POLARIZATION, kappa), z1)]
    for _ in range(splits[-1]):
        prefixes.append(apply_resolvent(apply_interaction(prefixes[-1]), z1))
    total = {}
    for between in splits:
        part = apply_resolvent(
            apply_kick(prefixes[between], 2, theta, second_pol, kappa),
            0.0)
        for _ in range(between, order):
            part = apply_resolvent(apply_interaction(part), 0.0)
        for monomial, coeffs in part.items():
            _merge(total, monomial, coeffs)
    return total
