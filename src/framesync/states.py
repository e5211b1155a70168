"""Bipartite phase-reference resource states in sector form.

A resource state for a missing shared phase reference is an eigenstate of the
total level generator G_A + G_B with some eigenvalue N.  It splits into
sectors n = 0..N, where sector n lives on Alice level N-n and Bob level n:

    |E> = sum_n e_n |E_n>,   |E_n> = sum_l lam_{n,l} |N-n, l>_A |n, l>_B

with per-sector Schmidt coefficients lam paired through the degeneracy labels
of the two generators.  A state holds this data as arrays: the Schmidt rank
r_n of each sector (0 where it has none) and one flat array of every
sector's coefficients in level order.  A named family is its magnitude
profile (:func:`family_profile`); its builder puts that profile on ladder
generators with rank-one sectors.  Degenerate sectors are built only
from explicit (ranks, lam) input; there is deliberately no random-state
helper here, so the rank bookkeeping (r_n at most the smaller degeneracy)
stays visible at every call site.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, Generator, Ket, _frozen_array
from .estimation import CostFunction

FAMILIES = ("flat", "sine-paper", "optimal", "single-sector")

SECTOR_ATOL = 1e-12      # sector data normalization
EIGEN_ATOL = 1e-10       # eigenstate gate of sector_magnitudes
RESIDUAL_ATOL = 1e-10    # eigensolver residual gate


class NotInvariantState(ContractViolation):
    """Raised when a ket is not an eigenstate of the total generator."""


@dataclass(frozen=True, eq=False)
class BipartiteFrameState:
    """Sector-form state: amplitudes e_n for n = 0..total plus sector data.

    ``amps[n]`` multiplies sector n (Bob level n, Alice level total-n).
    ``ranks[n]`` is sector n's Schmidt rank, 0 where it has no Schmidt data,
    and ``lam`` holds every sector's coefficients in level order, each
    sector's nonnegative with unit sum of squares.  Every sector with nonzero
    amplitude must have Schmidt data, and its rank is capped by the smaller
    of the two level degeneracies.
    """

    total: int
    gen_a: Generator
    gen_b: Generator
    amps: np.ndarray
    ranks: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        n_tot = int(self.total)
        if n_tot < 0:
            raise ContractViolation("total level must be nonnegative")
        if self.gen_a.min_level < 0 or self.gen_b.min_level < 0:
            raise ContractViolation("frame-state generators must have nonnegative levels")
        amps = np.asarray(self.amps, dtype=complex)
        _unit_profile(n_tot, np.abs(amps))
        ranks = np.asarray(self.ranks)
        if ranks.shape != (n_tot + 1,) or ranks.dtype.kind not in "iu" or (ranks < 0).any():
            raise ContractViolation(
                f"ranks must be one nonnegative integer per sector 0..{n_tot}")
        ranks = _frozen_array(ranks, np.int64)
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (int(ranks.sum()),):
            raise ContractViolation(
                f"lam must hold the {int(ranks.sum())} coefficients the ranks ask for, "
                f"got shape {lam.shape}")

        # one row per fault, one column per sector; the first faulty sector
        # reports its first fault, as a scan over n = 0..total would
        n = np.arange(n_tot + 1)
        owner = np.repeat(n, ranks)
        with np.errstate(over="ignore"):   # a huge lam squares to inf and fails below
            negative = np.bincount(owner, ~(np.isfinite(lam) & (lam >= 0.0)), n_tot + 1)
            sum_sq = np.bincount(owner, lam * lam, n_tot + 1)
        da = self.gen_a.degeneracies(n_tot - n)
        db = self.gen_b.degeneracies(n)
        held = ranks > 0
        faults = np.stack((held & (negative > 0),
                           held & ~(np.abs(sum_sq - 1.0) <= SECTOR_ATOL),
                           held & ((da == 0) | (db == 0)),
                           ranks > np.minimum(da, db),
                           ~held & (np.abs(amps) > SECTOR_ATOL)))
        bad = np.flatnonzero(faults.any(axis=0))
        if bad.size:
            k = bad[0]
            raise ContractViolation((
                f"sector {k}: Schmidt coefficients must be finite and nonnegative",
                f"sector {k}: Schmidt coefficients must have unit sum of squares",
                f"sector {k} needs level {n_tot - k} on side A and level {k} on side B",
                f"sector {k}: rank {ranks[k]} exceeds min degeneracy {min(da[k], db[k])}",
                f"nonzero amplitude at sector {k} without Schmidt data",
            )[np.argmax(faults[:, k])])

        object.__setattr__(self, "total", n_tot)
        object.__setattr__(self, "amps", _frozen_array(amps, complex))
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "lam", _frozen_array(lam, float))

    def sector(self, n: int) -> np.ndarray | None:
        """Read-only view of sector n's Schmidt coefficients; None without data."""
        if not 0 <= n <= self.total or self.ranks[n] == 0:
            return None
        start = int(self.ranks[:n].sum())
        return self.lam[start:start + self.ranks[n]]

    def magnitudes(self) -> np.ndarray:
        """|e_n| for n = 0..total; all a joint measurement can use."""
        return np.abs(self.amps)


def _slot_pairs(state: BipartiteFrameState) -> tuple:
    """(n, l, lam_{n,l}) of every Schmidt pair of a populated sector, in
    level order: sector n, 0-based Schmidt label l and its coefficient."""
    ranks = state.ranks
    n = np.repeat(np.arange(state.total + 1), ranks)
    l = np.arange(n.size) - np.repeat(np.cumsum(ranks) - ranks, ranks)
    populated = state.amps[n] != 0.0
    return n[populated], l[populated], state.lam[populated]


def _unit_profile(n_tot: int, m: np.ndarray) -> np.ndarray:
    """``m`` if it holds one magnitude per sector 0..n_tot with unit sum of
    squares within SECTOR_ATOL; the amplitude gate of every state."""
    if m.shape != (n_tot + 1,):
        raise ContractViolation(
            f"amplitudes must have one entry per sector 0..{n_tot}, got shape {m.shape}")
    if not abs(float(np.sum(m * m)) - 1.0) <= SECTOR_ATOL:   # NaN fails
        raise ContractViolation("sector amplitudes must have unit sum of squares")
    return m


def _optimal_profile(n_tot: int, cost: CostFunction) -> np.ndarray:
    """Sector profile minimizing the joint cost (maximizing frameness).

    The optimum over unit nonnegative profiles of
    c_0 + sum_q c_q sum_n e_n e_{n+q} is the leading eigenvector of the
    symmetric Toeplitz matrix M with M[n, n+q] = band[q] = -c_q / 2.

    Two bands have a closed form, and no eigensolve runs for them:

    * tridiagonal (band[1] > 0, the rest zero; the variance cost or any
      c_1-only cost): e_n = sqrt(2 / (N + 2)) sin(pi (n + 1) / (N + 2)), the
      optimal phase state of Buzek, Derka & Massar (PRL 82, 2207 (1999); also
      Berry & Wiseman, PRL 85, 5098 (2000)), at cost c_0 + c_1 cos(pi / (N + 2));
    * constant (band[1:] equal and positive; the likelihood cost with
      q_max >= N): M is a multiple of (all ones - identity), so the optimum is
      the flat profile 1/sqrt(N + 1), at cost c_0 + c_1 N / 2.

    Both are the unique Perron vectors of an irreducible nonnegative band.

    Every other band is solved on the symmetric half of M.  M commutes with
    the reversal J, so its eigenspaces split into symmetric (Jv = v) and
    antisymmetric parts.  M has nonnegative entries, so its top eigenspace
    holds a nonnegative v (Perron-Frobenius); then v + Jv is nonnegative,
    symmetric and nonzero, so the top eigenvalue is reached on the symmetric
    subspace.  There v = (a, [c], a reversed), and M acts on (a, [c]) as the
    k x k matrix M[:k, :k] + M[:k, ::-1][:, :k], k = ceil(dim / 2); for odd
    dim the middle coordinate is rescaled by sqrt(2) to keep it symmetric.
    """
    dim = n_tot + 1
    band = 0.5 * np.abs(cost.band(dim))   # -c_q / 2, its zeros +0.0: eigh reads their sign
    if band[1] > 0.0 and not band[2:].any():           # tridiagonal
        n = np.arange(1, dim + 1)
        return math.sqrt(2.0 / (dim + 1)) * np.sin(np.pi * n / (dim + 1))
    if band[1] > 0.0 and (band[1:] == band[1]).all():   # constant: the flat profile
        return np.full(dim, 1.0 / math.sqrt(dim))

    idx = np.arange(dim)
    m = band[np.abs(idx[:, None] - idx)]
    half, k = dim // 2, dim - dim // 2
    r = m[:k, :k] + m[:k, ::-1][:, :k]
    if k > half:               # odd dim: the middle entry appears once in v
        r[half] /= math.sqrt(2.0)
        r[:, half] /= math.sqrt(2.0)
    vals, vecs = np.linalg.eigh(r)
    y = vecs[:, -1]
    lead = np.abs(np.concatenate((y[:half], math.sqrt(2.0) * y[half:], y[:half][::-1])))
    lead /= np.linalg.norm(lead)
    residual = float(np.linalg.norm(m @ lead - vals[-1] * lead))
    if residual > RESIDUAL_ATOL:
        raise ArithmeticError(
            f"eigenvector residual {residual:.3e} exceeds {RESIDUAL_ATOL:.0e}; "
            "the leading eigenspace has no nonnegative representative here")
    return lead


def family_profile(family: str, n_tot: int, cost: CostFunction | None = None,
                   level: int = 0) -> np.ndarray:
    """Sector magnitudes |e_n|, n = 0..n_tot, of a named family.

    A family is its profile; its state only adds ladder generators and
    rank-one sectors.  ``flat`` is 1/sqrt(N+1); ``sine-paper`` the fixed
    half-period sine of :func:`sine_state`; ``optimal`` the minimizer of
    ``cost``; ``single-sector`` all weight on sector ``level``.  The profile
    passes the amplitude gate of a state built from it.
    """
    if family not in FAMILIES:
        raise ContractViolation(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if family == "single-sector":
        if not 0 <= level <= n_tot:
            raise ContractViolation(f"sector level {level} outside 0..{n_tot}")
        return _unit_profile(n_tot, (np.arange(n_tot + 1) == level).astype(float))
    if n_tot < 1:
        raise ContractViolation(
            f"{family.removesuffix('-paper')} state needs total level >= 1")
    if family == "flat":
        profile = np.full(n_tot + 1, 1.0 / np.sqrt(n_tot + 1.0))
    elif family == "sine-paper":
        n = np.arange(n_tot + 1)
        profile = np.sin(np.pi * (n + 0.5) / (n_tot + 1)) * np.sqrt(2.0 / (n_tot + 1))
    elif cost is None:
        raise ContractViolation("the optimal family needs a cost")
    else:
        profile = _optimal_profile(n_tot, cost)
    return _unit_profile(n_tot, profile)


def _nondegenerate_state(n_tot: int, profile: np.ndarray) -> BipartiteFrameState:
    g = Generator.ladder(n_tot + 1)
    return BipartiteFrameState(n_tot, g, g, profile, np.ones(n_tot + 1, dtype=np.int64),
                               np.ones(n_tot + 1))


def flat_state(n_tot: int) -> BipartiteFrameState:
    """Uniform sector amplitudes 1/sqrt(N+1); linear-in-N cost scaling."""
    return _nondegenerate_state(n_tot, family_profile("flat", n_tot))


def sine_state(n_tot: int) -> BipartiteFrameState:
    """Fixed half-period sine amplitude profile over the N+1 sectors.

    e_n = sin(pi (n + 1/2) / (N + 1)) * sqrt(2 / (N + 1)).  Exactly normalized
    for every N.  Note this fixed profile is not the cost minimizer for N >= 2.
    The variance-cost optimum is the shifted sine
    sqrt(2 / (N + 2)) sin(pi (n + 1) / (N + 2)) of Buzek, Derka & Massar
    (PRL 82, 2207 (1999); also Berry & Wiseman, PRL 85, 5098 (2000)), and the
    likelihood-cost optimum (q_max >= N) is the flat profile.
    :func:`optimal_frameness_state` returns both in closed form; its
    eigensolve serves only other costs.
    """
    return _nondegenerate_state(n_tot, family_profile("sine-paper", n_tot))


def single_sector_state(n_tot: int, level: int = 0) -> BipartiteFrameState:
    """All weight on one sector; carries no phase information at all."""
    return _nondegenerate_state(n_tot, family_profile("single-sector", n_tot, level=level))


def optimal_frameness_state(n_tot: int, cost: CostFunction) -> BipartiteFrameState:
    """Resource minimizing the joint cost (maximizing frameness) at total
    level N: the leading eigenvector of the cost's symmetric Toeplitz coupling
    matrix, in closed form for the variance and the likelihood (q_max >= N)
    costs; see :func:`_optimal_profile`."""
    return _nondegenerate_state(n_tot, family_profile("optimal", n_tot, cost))


def expand(state: BipartiteFrameState) -> Ket:
    """Sector form to a dense ket on the A x B product space: slot pair
    (N - n, l) x (n, l) of each populated sector n carries e_n lam_{n,l}."""
    ga, gb = state.gen_a, state.gen_b
    n, l, lam = _slot_pairs(state)
    psi = np.zeros((ga.dim, gb.dim), dtype=complex)
    psi[ga.starts(state.total - n) + l, gb.starts(n) + l] = state.amps[n] * lam
    return Ket(psi.reshape(-1))


def _total_level(e_ket: Ket, gen_a: Generator, gen_b: Generator):
    """Total-generator eigenvalue of the ket, with the eigenstate gate."""
    if e_ket.dim != gen_a.dim * gen_b.dim:
        raise ContractViolation(
            f"ket dimension {e_ket.dim} does not match {gen_a.dim} x {gen_b.dim}")
    e_ket.require_unit(what="resource ket")
    eig = (gen_a.eigenvalues()[:, None] + gen_b.eigenvalues()[None, :]).reshape(-1)
    w = np.abs(e_ket.amplitudes) ** 2
    mean = float(np.dot(w, eig))
    n_tot = int(round(mean))
    residual = float(np.linalg.norm((eig - n_tot) * e_ket.amplitudes))
    if residual > EIGEN_ATOL * max(1.0, abs(n_tot)):
        support = sorted(set(eig[np.abs(e_ket.amplitudes) > 1e-12].tolist()))
        raise NotInvariantState(
            f"ket is not an eigenstate of the total generator: residual {residual:.3e}, "
            f"level-sum support {support}")
    return n_tot


def sector_magnitudes(e_ket: Ket, gen_a: Generator, gen_b: Generator):
    """(N, |e_n| for n = 0..N) of any total-generator eigenstate.

    Magnitudes are plain block norms, so they need no Schmidt alignment and
    are invariant under any local unitary that commutes with the generators.
    """
    n_tot = _total_level(e_ket, gen_a, gen_b)
    if n_tot < 0:
        raise ContractViolation(f"total level {n_tot} has no sectors; sector form needs N >= 0")
    level_a = gen_a.eigenvalues()[:, None]
    level_b = np.broadcast_to(gen_b.eigenvalues(), (gen_a.dim, gen_b.dim))
    # slots of sectors n = 0..N: Alice at N - n, Bob at n
    on = (level_a + level_b == n_tot) & (level_a >= 0) & (level_b >= 0)
    weights = np.abs(e_ket.amplitudes.reshape(gen_a.dim, gen_b.dim)[on]) ** 2
    return n_tot, np.sqrt(np.bincount(level_b[on], weights=weights, minlength=n_tot + 1))

