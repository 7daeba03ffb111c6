"""Phase-tagged perturbative expansion of the driven pair state.

The experiment applies pulse 1 at time zero and pulse 2 after a delay,
then integrates fluorescence.  Each pulse kick splits into five optical
phase harmonics per atom (:func:`mqcsim.atom.kick_decomposition`), and
the pair interaction is linear in the coupling-tensor entries
(:func:`mqcsim.coupling.interaction_pieces`).  Rather than evaluating
phases and tensor entries numerically, the pipeline carries them as
symbols: a vector of components, each holding

  * a :class:`PhaseMonomial` recording the integer exponents of the four
    pulse phases (pulse j at atom alpha) and the multiset of coupling
    factors picked up from interaction insertions, and
  * a 256-entry coefficient vector over the two-atom operator basis.

Demodulation then reduces to selecting exponent combinations, and the
disorder average to replacing factor multisets by scalar weights
(:mod:`mqcsim.disorder`), both exact operations on this representation.

Everything here works in the state picture: components are pieces of
the density operator, and the free resolvent, interaction, and kick
maps act on them from the left.  Time dependence is handled in the
Laplace domain; the exact free resolvent is applied through the
analytic eigendecomposition of the single-atom decay generator, with
an optional exact projection of the stationary (both atoms ground)
direction that keeps z = 0 evaluations finite.  That direction carries
no fluorescence, so restricted resolvents are exact for every detected
quantity.

The decay eigendecomposition is block structured in the operator
basis.  Twelve of the sixteen single-atom decay modes are basis
elements themselves: the optical coherences sigma_1k, sigma_k1 (basis
indices 4-9, rate -1/2) and the Zeeman coherences sigma_kl (indices
10-15, rate -1).  The other four modes, sigma_11 (rate 0) and
sigma_kk - sigma_11 (rate -1), span only the diagonal indices 0-3.  The
pair resolvent therefore needs no dense change of basis: a 4x4 map on
the diagonal block of each atom index, one elementwise multiply by
1/(z - r_i - r_j), and the inverse 4x4 maps.  The interaction pieces
hold a few hundred nonzeros out of 65,536 and are applied as sparse
matrices.

One driver, :func:`two_pulse_chain`, sums over the splits of the
insertions between the two windows, for :func:`scattering_solution` and
:func:`mqcsim.disorder.averaged_solution` alike.  It builds each
interpulse prefix once and runs the splits from the longest prefix
down, freeing each prefix as its split uses it; in the other order a
tagged prefix would stay alive through the next split's detection
stage, where the working set peaks, and raise the peak memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .atom import (SECOND_POLARIZATION, PoleError, decay_eigensystem,
                   kick_decomposition)
from .basis import (
    NUM_OPS,
    NUM_OPS_PAIR,
    apply_factorized,
    expand,
    matrix_unit,
    pair_operator,
)
from .coupling import sparse_interaction_pieces, tensor_tag_value

#: basis indices spanned by the population decay modes; every other
#: basis element is a decay mode on its own
POPULATION_BLOCK = 4


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


class PhaseTaggedVector:
    """Linear combination of phase monomials with operator-basis coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = dict(terms) if terms else {}

    def add_term(self, monomial: PhaseMonomial, coeffs: np.ndarray) -> None:
        """Accumulate a component, merging with an existing monomial."""
        if monomial in self.terms:
            self.terms[monomial] = self.terms[monomial] + coeffs
        else:
            self.terms[monomial] = coeffs

    def items(self):
        return self.terms.items()

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "PhaseTaggedVector") -> "PhaseTaggedVector":
        out = PhaseTaggedVector(self.terms)
        for monomial, coeffs in other.items():
            out.add_term(monomial, coeffs)
        return out

    def filtered(self, keep) -> "PhaseTaggedVector":
        """Vector restricted to monomials satisfying ``keep(monomial)``."""
        return PhaseTaggedVector({m: c for m, c in self.items() if keep(m)})

    def evaluate(self, phases, tensor=None) -> np.ndarray:
        """Contract symbols with numbers: 256-entry coefficient vector.

        Args:
            phases: the four pulse phase values (phi_11, phi_21, phi_12,
                phi_22) matching the monomial exponent order.
            tensor: 3x3 coupling tensor for the collected factors; may be
                omitted for factor-free vectors.
        """
        phases = np.asarray(phases, dtype=float)
        out = np.zeros(NUM_OPS_PAIR, dtype=complex)
        for monomial, coeffs in self.items():
            weight = np.exp(1j * np.dot(monomial.powers, phases))
            for tag in monomial.tags:
                weight *= tensor_tag_value(tensor, tag)
            out += weight * coeffs
        return out


def initial_vector() -> PhaseTaggedVector:
    """Both atoms in the ground state, no phase exponents, no factors."""
    ground = expand(pair_operator(matrix_unit(1, 1), matrix_unit(1, 1)))
    return PhaseTaggedVector({PhaseMonomial((0, 0, 0, 0)): ground})


def apply_kick(vector: PhaseTaggedVector, pulse_index: int, theta: float,
               polarization: str, keep=None) -> PhaseTaggedVector:
    """Kick both atoms with one pulse, branching over phase harmonics.

    The pulse reaches the atoms with individual phases (the monomials
    track them separately), so the pair map is the product of one
    five-harmonic decomposition per atom: 25 branches, pruned by the
    optional ``keep`` predicate on the resulting monomial and by exact
    structural zeros.
    """
    harmonics = kick_decomposition(theta, polarization)
    mats = {p: harmonics.harmonic(p) for p in range(-2, 3)}
    out = PhaseTaggedVector()
    for monomial, coeffs in vector.items():
        for p1 in range(-2, 3):
            for p2 in range(-2, 3):
                kicked = monomial.kicked(pulse_index, p1, p2)
                if keep is not None and not keep(kicked):
                    continue
                new = apply_factorized(mats[p1], mats[p2], coeffs)
                if not np.any(new):
                    continue
                out.add_term(kicked, new)
    return out


@functools.cache
def _decay_blocks():
    """Block form of the single-atom decay eigensystem.

    Returns ``(to_eigen, from_eigen, rates)``: the 4x4 maps between the
    diagonal basis indices 0-3 and the population modes (the stationary
    mode sigma_11 first), and the decay rate of every basis index, with
    the population-mode rates in the first four places.
    """
    eig = decay_eigensystem()
    population = [m for m in range(NUM_OPS)
                  if not np.any(eig.modes[POPULATION_BLOCK:, m])]
    rates = np.empty(NUM_OPS)
    rates[:POPULATION_BLOCK] = eig.rates[population]
    for m in sorted(set(range(NUM_OPS)) - set(population)):
        (n,) = np.flatnonzero(eig.modes[:, m])
        rates[n] = eig.rates[m]
    from_eigen = eig.modes[:POPULATION_BLOCK, population]
    return np.linalg.inv(from_eigen), from_eigen, rates


def _map_population_block(matrix: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Apply ``matrix`` to the population indices of both atoms, in place.

    ``block`` has shape (16, 16, V): atom 1 index, atom 2 index, batch.
    """
    p = POPULATION_BLOCK
    block[:p] = (matrix @ block[:p].reshape(p, -1)).reshape(block[:p].shape)
    block[:, :p] = np.matmul(matrix, block[:, :p])
    return block


def apply_resolvent(vector: PhaseTaggedVector, z,
                    restrict_stationary: bool = False) -> PhaseTaggedVector:
    """Laplace-domain free evolution of every component (state picture).

    The exact pair resolvent (z - L1 - L2)^-1 in the block form of the
    decay eigensystem (see the module docstring): the population block
    of each atom index is mapped to decay modes, every entry is divided
    by z - r_i - r_j, and the maps are undone.  The denominators and
    the pole mask are computed once per call for all components.

    ``z`` may be a scalar or a 1d grid; coefficients may carry one
    trailing batch axis, which broadcasts against the grid, so a whole
    frequency grid costs a single pass per component.

    With ``restrict_stationary`` the both-atoms-ground stationary
    direction is projected out before inverting, which keeps z = 0
    regular.  Components whose phase exponents do not all cancel carry
    no stationary weight, so the restriction is exact for them; in the
    fully cancelled sector it discards a genuine z = 0 pole (the
    delay-independent background), which later kicks can redistribute.
    The discarded direction itself is invisible to fluorescence
    detection and annihilated by the pair interaction.

    Raises:
        PoleError: a component has weight, above 1e-9 of its largest
            decay-mode entry, in a sector whose rate sum equals some z
            of the grid.  Negligible weight on a pole is dropped.
    """
    to_eigen, from_eigen, rates = _decay_blocks()
    z_arr = np.asarray(z, dtype=complex)
    denom = z_arr.reshape(1, 1, -1) - (rates[:, None, None]
                                       + rates[None, :, None])
    if restrict_stationary:
        denom[0, 0] = 1.0
    on_pole = np.abs(denom) < 1e-12
    any_pole = bool(np.any(on_pole))
    inverse = 1.0 / np.where(on_pole, 1.0, denom)
    inverse[on_pole] = 0.0
    if restrict_stationary:
        inverse[0, 0] = 0.0
    out = PhaseTaggedVector()
    for monomial, coeffs in vector.items():
        block = np.array(coeffs, dtype=complex).reshape(NUM_OPS, NUM_OPS, -1)
        eigen = _map_population_block(to_eigen, block)
        if any_pole:
            magnitude = np.abs(eigen)
            if restrict_stationary:
                magnitude[0, 0] = 0.0
            scale = max(np.max(magnitude), 1e-300)
            if np.any(on_pole & (magnitude > 1e-9 * scale)):
                raise PoleError(
                    f"pair resolvent evaluated on a pole at z = {z}")
        solved = _map_population_block(from_eigen, eigen * inverse)
        scalar_out = coeffs.ndim == 1 and z_arr.ndim == 0
        out.terms[monomial] = (solved.reshape(-1) if scalar_out
                               else solved.reshape(NUM_OPS_PAIR, -1))
    return out


def apply_interaction(vector: PhaseTaggedVector) -> PhaseTaggedVector:
    """One pair-interaction insertion, branching over coupling factors.

    Each component acquires one symbolic tensor factor per canonical
    tag, with the matching 256x256 piece (held sparse) applied to its
    coefficients.
    """
    pieces = sparse_interaction_pieces()
    out = PhaseTaggedVector()
    for monomial, coeffs in vector.items():
        for tag, piece in pieces.items():
            new = piece @ coeffs
            if not np.any(new):
                continue
            out.add_term(monomial.tagged(tag), new)
    return out


def demodulation_keep(kappa: int):
    """Predicate selecting monomials read out at demodulation harmonic kappa."""
    return lambda monomial: monomial.pulse_net == (-kappa, kappa)


def two_pulse_chain(order: int, z1, z2, theta: float, channel: str, *,
                    keep1=None, keep2=None, closing=None, fast: bool = False,
                    initial=None,
                    restrict_stationary: bool = True) -> PhaseTaggedVector:
    """Sum over interaction splits of the two-pulse chain.

    Split ``between`` puts that many of the ``order`` insertions before
    the second kick (resolvents at ``z1``) and the rest after it (at
    ``z2``).  Each split's result goes in front of the running sum, so
    the monomials keep the order of an increasing-split sum.
    ``keep1`` and ``keep2`` optionally filter the monomials of the two
    kicks.  ``closing`` optionally maps, per tag, the last insertion of
    every split to a tag-free monomial (the averaged chain); otherwise
    every insertion is :func:`apply_interaction`.  The other arguments
    are those of :func:`scattering_solution`.
    """
    second_pol = SECOND_POLARIZATION[channel]
    if initial is None:
        initial = initial_vector()

    def insert(vector, step):
        if closing is None or step < order - 1:
            return apply_interaction(vector)
        out = PhaseTaggedVector()
        for monomial, coeffs in vector.items():
            (tag,) = monomial.tags
            new = closing[tag] @ coeffs
            if np.any(new):
                out.add_term(PhaseMonomial(monomial.powers), new)
        return out

    splits = (0,) if fast else tuple(range(order + 1))
    prefixes = [apply_resolvent(apply_kick(initial, 1, theta, "x", keep=keep1),
                                z1, restrict_stationary)]
    for step in range(splits[-1]):
        prefixes.append(apply_resolvent(insert(prefixes[-1], step), z1,
                                        restrict_stationary))
    total = PhaseTaggedVector()
    for between in reversed(splits):
        part = apply_kick(prefixes.pop(), 2, theta, second_pol, keep=keep2)
        part = apply_resolvent(part, z2, restrict_stationary)
        for step in range(between, order):
            # two statements, so that the uninserted part is freed first
            part = insert(part, step)
            part = apply_resolvent(part, z2, restrict_stationary)
        total = part + total
    return total


def scattering_solution(order: int, z1: complex, z2: complex, theta: float,
                        channel: str = "parallel", kappa=None, fast: bool = False,
                        initial=None,
                        restrict_stationary: bool = True) -> PhaseTaggedVector:
    """Pair state after both pulses, expanded to a fixed interaction order.

    Args:
        order: total number of pair-interaction insertions (0 keeps the
            atoms independent, 2 adds the leading interaction effect on
            demodulated signals).
        z1: Laplace variable conjugate to the interpulse delay.
        z2: Laplace variable conjugate to the detection time.
        theta: pulse area (both pulses).
        channel: "parallel" for x,x pulse polarizations, "perpendicular"
            for x,y.
        kappa: optional demodulation harmonic; components that cannot
            reach it are pruned as early as possible.  None keeps all.
        fast: place all interaction insertions after the second pulse
            (detection stage only) instead of summing every split
            between the two evolution windows.
        initial: starting vector, default both atoms ground.
        restrict_stationary: use stationary-restricted resolvents,
            finite at z = 0.  Demodulated components come out exact up
            to a piece along the detection-null ground-pair direction;
            only the unmodulated background sector is truly altered.

    Returns:
        PhaseTaggedVector of the doubly Laplace-transformed state; the
        sum over interaction splits is already performed.
    """
    keep1 = keep2 = None
    if kappa is not None:
        keep1 = lambda m: m.pulse_net[0] == -kappa
        keep2 = demodulation_keep(kappa)
    return two_pulse_chain(order, z1, z2, theta, channel, keep1=keep1,
                           keep2=keep2, fast=fast, initial=initial,
                           restrict_stationary=restrict_stationary)
