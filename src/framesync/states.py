"""Bipartite phase-reference resource states in sector form.

A resource state for a missing shared phase reference is an eigenstate of the
total level generator G_A + G_B with some eigenvalue N.  It splits into
sectors n = 0..N, where sector n lives on Alice level N-n and Bob level n:

    |E> = sum_n e_n |E_n>,   |E_n> = sum_l lam_{n,l} |N-n, l>_A |n, l>_B

with per-sector Schmidt coefficients lam paired through the degeneracy labels
of the two generators.  Degenerate sectors are built only through explicit
:class:`SchmidtSector` input; there is deliberately no random-state helper
here, so the rank bookkeeping (rank r_n at most the smaller degeneracy) stays
visible at every call site.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, Generator, Ket, _frozen_array
from .estimation import CostFunction

SECTOR_ATOL = 1e-12      # sector data normalization
EIGEN_ATOL = 1e-10       # eigenstate gate of sector_magnitudes
RESIDUAL_ATOL = 1e-10    # eigensolver residual gate


class NotInvariantState(ContractViolation):
    """Raised when a ket is not an eigenstate of the total generator."""


@dataclass(frozen=True)
class SchmidtSector:
    """One fixed-level-sum sector: level n on Bob's side plus paired
    Schmidt coefficients, nonnegative with unit sum of squares."""

    level: int
    lam: tuple

    def __post_init__(self):
        lam = tuple(float(x) for x in self.lam)
        if not lam:
            raise ContractViolation("sector needs at least one Schmidt coefficient")
        if any(x < 0.0 or not np.isfinite(x) for x in lam):
            raise ContractViolation("Schmidt coefficients must be finite and nonnegative")
        if abs(sum(x * x for x in lam) - 1.0) > SECTOR_ATOL:
            raise ContractViolation(
                f"sector {self.level}: Schmidt coefficients must have unit sum of squares")
        object.__setattr__(self, "level", int(self.level))
        object.__setattr__(self, "lam", lam)

    @property
    def rank(self) -> int:
        return len(self.lam)


@dataclass(frozen=True, eq=False)
class BipartiteFrameState:
    """Sector-form state: amplitudes e_n for n = 0..total plus sector data.

    ``amps[n]`` multiplies sector n (Bob level n, Alice level total-n).
    Every sector with nonzero amplitude must come with Schmidt data, and its
    rank is capped by the smaller of the two level degeneracies.
    """

    total: int
    gen_a: Generator
    gen_b: Generator
    amps: np.ndarray
    sectors: tuple

    def __post_init__(self):
        n_tot = int(self.total)
        if n_tot < 0:
            raise ContractViolation("total level must be nonnegative")
        if self.gen_a.min_level < 0 or self.gen_b.min_level < 0:
            raise ContractViolation("frame-state generators must have nonnegative levels")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (n_tot + 1,):
            raise ContractViolation(
                f"amplitudes must have one entry per sector 0..{n_tot}, got shape {amps.shape}")
        if not abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) <= SECTOR_ATOL:   # NaN fails
            raise ContractViolation("sector amplitudes must have unit sum of squares")

        sectors = tuple(self.sectors)
        levels = [s.level if isinstance(s, SchmidtSector) else None for s in sectors]
        by_level = dict(zip(levels, sectors))
        if len(by_level) < len(sectors) or None in by_level:
            _raise_first_sector_fault(levels)

        # per sector, in input order: level, rank, degeneracies on both sides
        try:
            n = np.array(levels, dtype=np.int64)
        except OverflowError:   # beyond int64 is outside 0..n_tot all the same
            n = np.clip(np.array(levels, dtype=object), -1, n_tot + 1).astype(np.int64)
        rank = np.array([s.rank for s in sectors], dtype=np.int64)
        outside = (n < 0) | (n > n_tot)
        da = self.gen_a.degeneracies(n_tot - n)
        db = self.gen_b.degeneracies(n)
        unpaired = (da == 0) | (db == 0)
        too_wide = rank > np.minimum(da, db)
        bad = np.flatnonzero(outside | unpaired | too_wide)
        if bad.size:
            i = bad[0]
            level, cap = levels[i], int(min(da[i], db[i]))
            if outside[i]:
                raise ContractViolation(f"sector level {level} outside 0..{n_tot}")
            if unpaired[i]:
                raise ContractViolation(
                    f"sector {level} needs level {n_tot - level} on side A and level {level} on side B")
            raise ContractViolation(
                f"sector {level}: rank {int(rank[i])} exceeds min degeneracy {cap}")
        covered = np.zeros(n_tot + 1, dtype=bool)
        covered[n] = True
        missing = np.flatnonzero((np.abs(amps) > SECTOR_ATOL) & ~covered)
        if missing.size:
            raise ContractViolation(
                f"nonzero amplitude at sector {missing[0]} without Schmidt data")

        object.__setattr__(self, "total", n_tot)
        object.__setattr__(self, "amps", _frozen_array(amps, complex))
        object.__setattr__(self, "sectors", sectors)
        object.__setattr__(self, "_by_level", by_level)

    def sector(self, n: int) -> SchmidtSector | None:
        return self._by_level.get(n)

    def magnitudes(self) -> np.ndarray:
        """|e_n| for n = 0..total; all a joint measurement can use."""
        return np.abs(self.amps)


def _raise_first_sector_fault(levels: list) -> None:
    """Raise the error an in-order scan of the sector levels meets first: a
    value that is not a SchmidtSector (level None) or a repeated level."""
    seen = set()
    for level in levels:
        if level is None:
            raise ContractViolation("sectors must be SchmidtSector values")
        if level in seen:
            raise ContractViolation(f"duplicate sector level {level}")
        seen.add(level)


@functools.lru_cache(maxsize=1024)
def _unit_sector(level: int) -> SchmidtSector:
    """The rank-one sector at ``level``, validated once and shared."""
    return SchmidtSector(level, (1.0,))


def _nondegenerate_state(n_tot: int, amps) -> BipartiteFrameState:
    g = Generator.ladder(n_tot + 1)
    sectors = tuple(_unit_sector(n) for n in range(n_tot + 1))
    return BipartiteFrameState(n_tot, g, g, np.asarray(amps, dtype=complex), sectors)


def flat_state(n_tot: int) -> BipartiteFrameState:
    """Uniform sector amplitudes 1/sqrt(N+1); linear-in-N cost scaling."""
    if n_tot < 1:
        raise ContractViolation("flat state needs total level >= 1")
    return _nondegenerate_state(n_tot, np.full(n_tot + 1, 1.0 / np.sqrt(n_tot + 1.0)))


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
    if n_tot < 1:
        raise ContractViolation("sine state needs total level >= 1")
    n = np.arange(n_tot + 1)
    amps = np.sin(np.pi * (n + 0.5) / (n_tot + 1)) * np.sqrt(2.0 / (n_tot + 1))
    return _nondegenerate_state(n_tot, amps)


def single_sector_state(n_tot: int, level: int = 0) -> BipartiteFrameState:
    """All weight on one sector; carries no phase information at all."""
    if not 0 <= level <= n_tot:
        raise ContractViolation(f"sector level {level} outside 0..{n_tot}")
    amps = np.zeros(n_tot + 1, dtype=complex)
    amps[level] = 1.0
    g = Generator.ladder(n_tot + 1)
    return BipartiteFrameState(n_tot, g, g, amps, (SchmidtSector(level, (1.0,)),))


def optimal_frameness_state(n_tot: int, cost: CostFunction) -> BipartiteFrameState:
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
    if n_tot < 1:
        raise ContractViolation("optimal state needs total level >= 1")
    dim = n_tot + 1
    band = np.zeros(dim)
    cq = np.asarray(cost.cq[:dim - 1])
    band[1:cq.size + 1] = -0.5 * cq
    if band[1] > 0.0 and not band[2:].any():           # tridiagonal
        n = np.arange(1, dim + 1)
        amps = math.sqrt(2.0 / (dim + 1)) * np.sin(np.pi * n / (dim + 1))
        return _nondegenerate_state(n_tot, amps)
    if band[1] > 0.0 and (band[1:] == band[1]).all():   # constant: the flat profile
        return _nondegenerate_state(n_tot, np.full(dim, 1.0 / math.sqrt(dim)))

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
    return _nondegenerate_state(n_tot, lead)


def expand(state: BipartiteFrameState) -> Ket:
    """Sector form to a dense ket on the A x B product space: slot pair
    (N - n, l) x (n, l) of each populated sector n carries e_n lam_{n,l}."""
    ga, gb = state.gen_a, state.gen_b
    secs = [s for s in state.sectors if state.amps[s.level] != 0.0]
    rank = [s.rank for s in secs]
    n = np.repeat([s.level for s in secs], rank)
    l = np.arange(n.size) - np.repeat(np.cumsum(rank) - rank, rank)   # 0-based Schmidt label
    lam = np.concatenate([s.lam for s in secs])
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
    psi = e_ket.amplitudes.reshape(gen_a.dim, gen_b.dim)
    mags = np.zeros(n_tot + 1)
    levels = np.arange(n_tot + 1)
    paired = (gen_a.degeneracies(n_tot - levels) > 0) & (gen_b.degeneracies(levels) > 0)
    for n in np.flatnonzero(paired):
        block = psi[gen_a.level_slice(n_tot - n), gen_b.level_slice(n)]
        mags[n] = np.linalg.norm(block)
    return n_tot, mags

