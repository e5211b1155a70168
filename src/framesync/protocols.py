"""Two-party protocols on top of the estimation layer.

One-way synchronization: Alice measures her half of a shared resource state
in the Fourier basis of her own space, tells Bob the outcome, and Bob runs
the optimal covariant estimation on his collapsed half.  Every outcome
leaves Bob with the same amplitude-magnitude profile as the shared state, so
one round of classical communication already attains the joint optimum; that
equality is the point of the whole construction and is what the Monte Carlo
here checks.

Also: two teleportation demos (coefficients survive classical relay, states
do not), an algebraic witness for why no protocol can do better, and exact
alignment for finite groups.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (NORM_ATOL, ContractViolation, DensityMatrix, Generator, Ket,
                   RandomSource)
from .estimation import (TWO_PI, CostFunction, EstimateDensity, min_joint_cost,
                         sample_estimate)
from .states import BipartiteFrameState, _slot_pairs, expand, sector_magnitudes

SUPPORT_ATOL = 1e-12   # amplitude threshold for level supports
TRIAL_BLOCK = 1024     # Monte Carlo trials per derived RNG stream
UI_PHI_POINTS = 256    # phase grid of the witness's distance from phase invariance


def alice_measure(state: BipartiteFrameState) -> tuple:
    """Deterministic table of Alice's outcomes on the shared state.

    Alice measures in the orthonormal d_A-point Fourier basis of her own
    space: outcome k is the row exp(2 pi i k a / d_A) / sqrt(d_A) over her
    basis slots a.  Each row has magnitude 1/sqrt(d_A) on every slot, so it
    scales every sector by the same 1/sqrt(d_A): each outcome has
    probability 1/d_A and leaves Bob with the profile |e_n|, also under
    degeneracy.

    The outcome is a number k in 0..d_A - 1, the index into the returned pair
    (probabilities, bob_states) of arrays of shapes (d_A,) and (d_A, d_B):
    row k is outcome k's probability and Bob's normalized collapsed state.
    """
    psi = expand(state).amplitudes.reshape(state.gen_a.dim, state.gen_b.dim)
    cond = np.fft.fft(psi, axis=0, norm="ortho")   # row k: Bob's unnormalized state
    probs = np.einsum("ij,ij->i", cond, cond.conj()).real
    return probs, cond / np.sqrt(probs)[:, None]


def sector_form_residual(state: BipartiteFrameState) -> float:
    """Self-check: distance of each collapsed state from its sector form.

    Every Alice outcome k should leave Bob in (a global phase times)
    sum_n e_n sum_l lam_{n,l} exp(-2 pi i k s_{n,l} / d_A) |n, l>, with
    s_{n,l} Alice's basis slot paired with Bob's slot (n, l).  Returns the
    worst global-phase-aligned distance over all outcomes; anything above
    ~1e-12 means the measurement and the sector bookkeeping disagree.

    The prediction comes from the sector data and the outcome index alone,
    never from the measurement, as one outcome x slot broadcast.
    """
    ga, gb = state.gen_a, state.gen_b
    _, bob = alice_measure(state)
    n, l, lam = _slot_pairs(state)
    slots = np.searchsorted(gb.eigenvalues(), n) + l
    s = np.searchsorted(ga.eigenvalues(), state.total - n) + l
    k = np.arange(ga.dim)[:, None]

    predicted = np.zeros((ga.dim, gb.dim), dtype=complex)
    # k s mod d_A keeps the phase argument below 2 pi, so it rounds like the FFT's
    predicted[:, slots] = state.amps[n] * lam * np.exp(-2j * np.pi * (k * s % ga.dim) / ga.dim)
    predicted /= np.linalg.norm(predicted, axis=1, keepdims=True)
    align = np.exp(1j * np.angle(np.sum(predicted.conj() * bob, axis=1)))   # 1 at zero overlap
    return float(np.linalg.norm(bob - align[:, None] * predicted, axis=1).max())


class SyncProtocol:
    """Precomputed one-way sync run: Alice's cumulative outcome probabilities
    plus Bob's error density.

    Bob's collapsed state has magnitude profile |e_n| for every outcome (the
    outcome only rotates phases, which the covariant seed absorbs), so a
    single density serves all outcomes.
    """

    def __init__(self, state: BipartiteFrameState):
        self.state = state
        # a Python list: bisect on it costs less per draw than searchsorted
        self._cum = np.cumsum(alice_measure(state)[0]).tolist()
        if not abs(self._cum[-1] - 1.0) <= NORM_ATOL:
            raise ContractViolation(
                f"outcome probabilities sum to {self._cum[-1]!r}, expected 1")
        self.density = EstimateDensity(state.magnitudes())

    def trial(self, phi_true: float, rng: np.random.Generator):
        """One round on the numpy Generator ``rng``: Alice's outcome k from one
        draw, then Bob's estimate from two.  Returns (phi_hat, k)."""
        k = min(bisect.bisect_right(self._cum, rng.random()), len(self._cum) - 1)
        return sample_estimate(self.density, phi_true, rng), k


def monte_carlo_cost(state: BipartiteFrameState, cost: CostFunction, trials: int,
                     rng: RandomSource):
    """Sample mean and standard error of the cost over seeded trials.

    The offset is drawn uniformly per trial.  Trials run serially in blocks of
    ``TRIAL_BLOCK``; block b draws from the stream ``rng.split(b)``, so the
    numbers depend only on ``rng`` and ``trials``.
    """
    if trials < 100:
        raise ContractViolation("need at least 100 trials for a standard error")
    if not isinstance(rng, RandomSource):
        raise ContractViolation("monte_carlo_cost needs a splittable RandomSource")
    protocol = SyncProtocol(state)
    errors = np.empty(trials)
    for block, start in enumerate(range(0, trials, TRIAL_BLOCK)):
        gen = rng.split(block).generator()
        phis = (TWO_PI * gen.random(min(TRIAL_BLOCK, trials - start))).tolist()
        for i, phi in enumerate(phis, start):
            errors[i] = protocol.trial(phi, gen)[0] - phi
    costs = cost.value(errors)
    mean = float(np.mean(costs))
    sem = float(np.std(costs, ddof=1) / math.sqrt(trials))
    return mean, sem


def frameness(state: BipartiteFrameState, cost: CostFunction) -> float:
    """Negated optimal joint cost; never increases under local operations
    and classical communication, which makes it a resource measure."""
    return -min_joint_cost(state.magnitudes(), cost)


def frameness_of_ket(e_ket: Ket, gen_a: Generator, gen_b: Generator,
                     cost: CostFunction) -> float:
    """Frameness straight from a ket, via sector block norms."""
    _, mags = sector_magnitudes(e_ket, gen_a, gen_b)
    return -min_joint_cost(mags, cost)


def _phases(phi) -> np.ndarray:
    """A phase or a 1-d array of phases as floats, all finite."""
    phis = np.asarray(phi, dtype=float)
    if phis.ndim > 1:
        raise ContractViolation("phases must be a number or a 1-d array")
    if not np.all(np.isfinite(phis)):
        raise ContractViolation("phase must be finite")
    return phis


def _rotated(amplitudes: np.ndarray, phi) -> np.ndarray:
    """exp(-i phi G) amplitudes for the ladder G = diag(0..d-1); a 1-d array
    of phases gives one row per phase."""
    return np.exp(-1j * np.multiply.outer(_phases(phi), np.arange(amplitudes.size))) * amplitudes


def si_teleport(alpha, phi):
    """Relay of the coefficient list across the frame mismatch.

    Sending the numbers alpha_n and re-preparing gives Bob the state with
    those coefficients in his own basis; described in Alice's basis that is
    the phase-shifted ket.  The numbers survive; the physical state differs.
    A 1-d array of phases gives the (phases, d) array of relayed amplitudes,
    one row per phase, behind one normalization gate.
    """
    psi = Ket(np.asarray(alpha, dtype=complex)).require_unit(what="coefficient list")
    relayed = _rotated(psi.amplitudes, phi)
    return Ket(relayed) if relayed.ndim == 1 else relayed


def fidelity_after_relay(alpha, phi):
    """Overlap of the relayed coefficients with their intended target.

    The target of sending numbers is the state carrying those coefficients in
    the receiver's basis, which is the relayed state itself: the relay hits
    it exactly for every mismatch, which is the contrast to
    :func:`teleport_with_mismatch`.  A 1-d array of phases gives one
    fidelity per phase.
    """
    relayed = si_teleport(alpha, phi)
    relayed = relayed.amplitudes if isinstance(relayed, Ket) else relayed
    fidelities = np.abs(np.sum(relayed.conj() * relayed, axis=-1)) ** 2
    return fidelities if fidelities.ndim else float(fidelities)


def teleport_with_mismatch(input_state: Ket, phi):
    """Teleportation with Bob's corrections expressed in his own frame.

    Standard protocol over the maximally entangled pair of the input's
    dimension d, except each correction C = X^a Z^b becomes U_phi C U_phi^dagger
    because Bob's reference differs from Alice's by the phase offset
    (U_phi = exp(-i phi G), G = diag(0..d-1)).  Returns the outcome-averaged
    output state; exact, no sampling.

    Outcome (a, b) leaves Bob with U_phi (C U_phi^dagger C^dagger) psi, and
    C U_phi^dagger C^dagger = diag(exp(i phi ((i - a) mod d))): the Z^b part
    cancels, and up to a global phase the map multiplies the levels below a
    by exp(i phi d).  Averaging over a gives the mismatch kernel

        rho = |psi><psi| o K,   K_ij = 1 - (|i - j| / d)(1 - exp(i phi d sgn(j - i))),

    that is K = 1 - |l| (1 - cos phi d) + i l sin phi d with l = (j - i) / d.
    A 1-d array of phases gives one DensityMatrix holding the (phases, d, d)
    stack of outputs, all checked at once.
    """
    psi = input_state.require_unit(what="input state")
    d = psi.dim
    a = psi.amplitudes
    lag = (np.arange(d) - np.arange(d)[:, None]) / d           # (j - i) / d
    theta = d * _phases(phi)[..., None, None]
    kernel = 1.0 - np.abs(lag) * (1.0 - np.cos(theta)) + 1j * lag * np.sin(theta)
    rho = np.outer(a, a.conj()) * kernel
    return DensityMatrix(rho)


@dataclass(frozen=True)
class WitnessReport:
    """Why classical relay cannot orient a frame: diagnostics of the
    fixed-level-difference decomposition of (input x resource)."""

    levels: tuple                 # level differences with nonzero weight
    weights: tuple                # matching component weights
    l_max: int                    # top reachable level difference
    invariance_residual: float    # commutator norm of the top component
    input_ui_norm: float          # how far the input is from phase-invariant

    def passes(self) -> bool:
        """The top component commutes with Bob's generator within 1e-10."""
        return self.invariance_residual <= 1e-10


def _rank_one_commutator_norm(v: np.ndarray, diag: np.ndarray) -> float:
    """Spectral norm of [|v><v|, D], D = diag(diag) real: |v| |Dv - mu v| with
    mu = <v|D|v> / <v|v>, the two equal singular values of |v><w| - |w><v|.
    Not the equal sqrt(|v|^2 |Dv|^2 - <v|D|v>^2): on the witness's top
    component D is constant, that difference cancels, and what remains is of
    order sqrt(epsilon) instead of epsilon."""
    norm2 = float(np.vdot(v, v).real)
    dv = diag * v
    mu = np.vdot(v, dv).real / norm2
    return math.sqrt(norm2) * float(np.linalg.norm(dv - mu * v))


def no_go_witness(psi0: Ket, gen_s: Generator, e_ket: Ket,
                  gen_a: Generator, gen_b: Generator) -> WitnessReport:
    """Decompose (input x resource) by level difference and test the blocker.

    Any protocol consuming the resource and classical messages only can be
    averaged over the unknown phase, which splits the global pure state over
    eigenspaces of (input level) - (Bob level).  The top-difference component
    is built solely from the input's highest level and Bob's lowest, so it
    commutes with Bob's generator; an input that is not phase-invariant
    therefore cannot be reproduced on Bob's side.  The report carries the
    commutator residual (should vanish) and the input's distance from phase
    invariance (should not), the largest over ``UI_PHI_POINTS`` phases.

    The weights are one ``bincount``; the top component is rank one against a
    diagonal G_B, so ``_rank_one_commutator_norm`` gives its residual.
    """
    psi0.require_unit(what="input state")
    e_ket.require_unit(what="resource ket")
    if e_ket.dim != gen_a.dim * gen_b.dim:
        raise ContractViolation(
            f"resource dimension {e_ket.dim} does not match {gen_a.dim} x {gen_b.dim}")
    if psi0.dim != gen_s.dim:
        raise ContractViolation("input dimension does not match its generator")

    joint = np.kron(psi0.amplitudes, e_ket.amplitudes)
    eig_s = gen_s.eigenvalues()
    eig_b = gen_b.eigenvalues()
    shape = (gen_s.dim, gen_a.dim, gen_b.dim)
    # level difference and Bob's level per joint basis slot, S x A x B ordering
    diff = np.broadcast_to(eig_s[:, None, None] - eig_b, shape).reshape(-1)
    level_b = np.broadcast_to(eig_b, shape).reshape(-1)

    lowest = int(diff.min())
    w = np.bincount(diff - lowest, weights=np.abs(joint) ** 2)
    present = np.flatnonzero(w > SUPPORT_ATOL)

    m_max = int(eig_s[np.abs(psi0.amplitudes) > SUPPORT_ATOL].max())
    res_b = np.linalg.norm(
        e_ket.amplitudes.reshape(gen_a.dim, gen_b.dim), axis=0)
    n_min = int(eig_b[res_b > SUPPORT_ATOL].min())
    l_max = m_max - n_min

    top = np.where(diff == l_max, joint, 0.0)
    invariance_residual = _rank_one_commutator_norm(top, level_b)

    grid = np.arange(UI_PHI_POINTS) * (TWO_PI / UI_PHI_POINTS)
    shifted = np.exp(-1j * np.outer(grid, eig_s)) * psi0.amplitudes[None, :]
    input_ui_norm = float(np.linalg.norm(shifted - psi0.amplitudes[None, :], axis=1).max())

    return WitnessReport(tuple(int(l) for l in present + lowest),
                         tuple(float(x) for x in w[present]), l_max,
                         invariance_residual, input_ui_norm)


@dataclass(frozen=True, eq=False)
class GroupTable:
    """Finite group as a multiplication table, axioms checked up front.

    ``table`` is the read-only (d, d) int64 array of products, row a column b
    holding ab; ``identity`` and the read-only ``inverses`` are set by the
    same check.
    """

    table: np.ndarray
    identity: int = field(init=False)
    inverses: np.ndarray = field(init=False)

    def __post_init__(self):
        rows = [[int(x) for x in row] for row in self.table]
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise ContractViolation("table must be square and nonempty")
        if any(not 0 <= x < d for row in rows for x in row):
            raise ContractViolation("table entries must be element indices")
        m = np.array(rows, dtype=np.int64)
        elements = np.arange(d)
        two_sided = (m == elements).all(axis=1) & (m == elements[:, None]).all(axis=0)
        if not two_sided.any():
            raise ContractViolation("table has no identity element")
        identity = int(np.argmax(two_sided))
        lacking = ~(m == identity).any(axis=1)
        if lacking.any():
            raise ContractViolation(f"element {np.argmax(lacking)} has no inverse")
        broken = m[m] != m[:, m]                      # (ab)c != a(bc) at [a, b, c]
        if broken.any():
            a, b, c = np.unravel_index(np.argmax(broken), broken.shape)
            raise ContractViolation(f"associativity fails at ({a}, {b}, {c})")
        m.setflags(write=False)
        inverses = np.argmax(m == identity, axis=1)   # first c with a c = e, row by row
        inverses.setflags(write=False)
        object.__setattr__(self, "table", m)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverses", inverses)

    @classmethod
    def cyclic(cls, order: int) -> "GroupTable":
        if order < 1:
            raise ContractViolation("cyclic group needs order >= 1")
        elements = np.arange(order)
        return cls((elements[:, None] + elements) % order)

    @property
    def order(self) -> int:
        return len(self.table)


def _correlated_state(row: np.ndarray) -> Ket:
    """Uniform pair sum_h |h>|row[h]> / sqrt(d), from the group's row of the
    mismatch (row[h] = mismatch * h)."""
    d = len(row)
    amps = np.zeros((d, d), dtype=complex)
    amps[np.arange(d), row] = 1.0 / math.sqrt(d)
    return Ket(amps.reshape(-1))


def finite_group_align(group: GroupTable, mismatch: int, trials: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Recover a finite-group frame mismatch exactly, once per shared pair.

    The parties share the uniform correlated state over group elements; Alice
    measures in her element basis (the computational one), Bob in his (offset
    by the mismatch), and the estimate (Bob's outcome) * (Alice's outcome)^-1
    is exact every time.  Returns the int array of ``trials`` estimates.

    All attempts are one block: ``rng.random((trials, 2))`` gives attempt i
    Alice's draw in column 0 and Bob's in column 1, the values and order of
    two ``core.measure`` calls per attempt on the numpy Generator ``rng``.
    """
    d = group.order
    if not 0 <= mismatch < d:
        raise ContractViolation(f"mismatch must be an element index 0..{d - 1}")
    if trials < 1:
        raise ContractViolation("align needs at least one trial")

    state = _correlated_state(group.table[mismatch]).require_unit(what="correlated state")
    psi = state.amplitudes.reshape(d, d)              # Alice's element x Bob's
    u = rng.random((trials, 2))

    # each party's draw follows core.measure: outcome = how many cumulative
    # probabilities are <= u, clamped to d - 1, the likeliest one where p <= 0
    p_a = np.einsum("ij,ij->i", psi, psi.conj()).real
    a = np.minimum(np.searchsorted(np.cumsum(p_a), u[:, 0], side="right"), d - 1)
    a = np.where(p_a[a] <= 0.0, np.argmax(p_a), a)

    # Bob's posterior for each Alice outcome; a row with p_a = 0 is never drawn
    posterior = psi / np.sqrt(np.where(p_a > 0.0, p_a, 1.0))[:, None]
    p_b = np.einsum("ij,ij->ij", posterior, posterior.conj()).real
    b = np.minimum(np.count_nonzero(np.cumsum(p_b, axis=1)[a] <= u[:, 1, None], axis=1), d - 1)
    b = np.where(p_b[a, b] <= 0.0, np.argmax(p_b, axis=1)[a], b)
    return group.table[b, group.inverses[a]]
