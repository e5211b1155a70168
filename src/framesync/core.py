"""Dense complex state-vector kernel.

Everything here is desk-scale (dimensions up to a few hundred), so states are
plain complex vectors, operators are dense ``numpy`` arrays, and no sparsity
or factorized structure is attempted.  The one domain-specific type is
:class:`Generator`, an integer-spectrum observable whose eigenvalues generate
phase rotations; it is given as (eigenvalue, degeneracy) pairs and looks up
each level's basis slots, so that level bookkeeping never relies on implicit
array positions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATOL = 1e-12       # structural tolerance: norms, unitarity, idempotence
NORM_ATOL = 1e-10  # unit-norm gate on input states and profiles (a NaN fails it too)


class ContractViolation(ValueError):
    """An input breaks a documented precondition (bad norm, bad dimension, ...)."""


def _frozen_array(values, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Ket:
    """Pure state as an ordered complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size == 0:
            raise ContractViolation(f"ket must be a nonempty 1-d vector, got shape {a.shape}")
        if not np.all(np.isfinite(a.view(float))):
            raise ContractViolation("ket amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _frozen_array(a, complex))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_unit(self) -> bool:
        return abs(self.norm() - 1.0) <= NORM_ATOL

    def require_unit(self, what: str = "state") -> "Ket":
        if not self.is_unit():
            raise ContractViolation(f"{what} must be normalized, got norm {self.norm():.6g}")
        return self


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state, or a (..., d, d) stack of them; each matrix is validated
    hermitian, positive and of unit trace on construction, all at once.  A
    failing stack reports the trace farthest from 1."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ContractViolation(f"density matrix must be square, got shape {m.shape}")
        # written as ``not ... <=`` so that a NaN fails each gate
        if not np.abs(m - m.conj().swapaxes(-1, -2)).max() <= ATOL:
            raise ContractViolation("density matrix must be hermitian within 1e-12")
        trace = np.trace(m, axis1=-2, axis2=-1).real
        worst = trace.flat[np.argmax(np.abs(trace - 1.0))]
        if not abs(worst - 1.0) <= ATOL:
            raise ContractViolation(f"density matrix trace must be 1, got {worst!r}")
        if not np.linalg.eigvalsh(m).min() >= -ATOL:
            raise ContractViolation("density matrix must be positive semidefinite")
        object.__setattr__(self, "entries", _frozen_array(m, complex))

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


@dataclass(frozen=True, eq=False)
class Generator:
    """Integer-spectrum observable given as (eigenvalue, degeneracy) levels.

    Levels are sorted strictly increasing.  The induced basis ordering is by
    level, then by 1-based degeneracy index, so level ``n`` occupies the
    basis slots ``level_slice(n)``, from ``starts(n)`` on.  One read-only
    table of eigenvalues, degeneracies and first slots answers every lookup;
    ``levels`` is its (L, 2) view of eigenvalue, degeneracy rows.
    """

    levels: np.ndarray

    def __post_init__(self):
        try:
            lv = np.array(self.levels, dtype=np.int64)
        except OverflowError:
            raise ContractViolation("levels and degeneracies must fit in 64-bit integers")
        except (TypeError, ValueError) as exc:
            raise ContractViolation(f"levels must be (eigenvalue, degeneracy) pairs: {exc}")
        if lv.size == 0:
            raise ContractViolation("generator needs at least one level")
        if lv.ndim != 2 or lv.shape[1] != 2:
            raise ContractViolation(
                f"levels must be (eigenvalue, degeneracy) pairs, got shape {lv.shape}")
        eigs, degs = lv.T
        empty = np.flatnonzero(degs < 1)
        if empty.size:
            raise ContractViolation(
                f"degeneracy must be >= 1, got {degs[empty[0]]} at level {eigs[empty[0]]}")
        if (eigs[1:] <= eigs[:-1]).any():
            raise ContractViolation("eigenvalues must be strictly increasing")
        ends = np.cumsum(degs)   # each term is below 2^63, so a sum that wraps turns negative
        if (ends < 0).any():
            raise ContractViolation("levels and degeneracies must fit in 64-bit integers")
        # the level table: rows eigenvalue, degeneracy, first basis slot
        table = _frozen_array((eigs, degs, ends - degs), np.int64)
        object.__setattr__(self, "levels", table[:2].T)
        object.__setattr__(self, "_table", table)

    @staticmethod
    def ladder(dim: int) -> "Generator":
        """Nondegenerate spectrum 0, 1, ..., dim-1."""
        if dim < 1:
            raise ContractViolation("ladder needs dim >= 1")
        return Generator(np.stack((np.arange(dim), np.ones(dim, dtype=np.int64)), axis=1))

    @property
    def dim(self) -> int:
        return int(self._table[1, -1] + self._table[2, -1])

    @property
    def min_level(self) -> int:
        return int(self._table[0, 0])

    def eigenvalues(self) -> np.ndarray:
        """Per-basis-slot eigenvalue, degeneracies expanded."""
        return np.repeat(self._table[0], self._table[1])

    def _rows(self, levels):
        """Table row of each entry of an integer array, and whether its level is there."""
        levels = np.asarray(levels, dtype=np.int64)
        eigs = self._table[0]
        at = np.minimum(np.searchsorted(eigs, levels), eigs.size - 1)
        return at, eigs[at] == levels

    def degeneracies(self, levels) -> np.ndarray:
        """Degeneracy of each entry of an integer array, 0 where absent."""
        at, present = self._rows(levels)
        return np.where(present, self._table[1, at], 0)

    def starts(self, levels) -> np.ndarray:
        """First basis slot of each entry of an integer array; every level
        must be present."""
        at, present = self._rows(levels)
        if not present.all():
            raise ContractViolation(f"generator has no level {np.asarray(levels)[~present][0]}")
        return self._table[2, at]

    def level_slice(self, n: int) -> slice:
        start = int(self.starts(n))
        return slice(start, start + int(self.degeneracies(n)))


@dataclass(frozen=True)
class RandomSource:
    """Deterministic splittable randomness.

    A source is a value, not a stream: ``generator()`` always materializes the
    same numpy Generator for the same (seed, path), so any operation taking a
    RandomSource is pure.  ``split(i)`` derives an independent child stream;
    parallel trial i can use ``root.split(i)`` and is reproducible regardless
    of scheduling.  Mixing is delegated to numpy's SeedSequence spawn keys.
    The samplers take the materialized numpy Generator, never the source.
    """

    seed: int
    path: tuple = ()

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ContractViolation("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "path", tuple(int(i) for i in self.path))

    def split(self, index: int) -> "RandomSource":
        return RandomSource(self.seed, self.path + (index,))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.default_rng(ss)


def measure(state: Ket, dim: int, rng: np.random.Generator):
    """Computational-basis measurement of the leading tensor factor.

    The measured factor has dimension ``dim``; the state dimension must be a
    multiple of it.  The outcome takes one ``random()`` draw from the numpy
    Generator ``rng``.  Returns (outcome index, posterior Ket of the
    unmeasured factors, probability).  For a complete measurement the
    posterior is the trivial 1-d ket.
    """
    state.require_unit()
    if dim < 1 or state.dim % dim != 0:
        raise ContractViolation(
            f"state dimension {state.dim} is not a multiple of the measured dimension {dim}")

    cond = state.amplitudes.reshape(dim, -1)   # outcome x rest
    probs = np.einsum("ij,ij->i", cond, cond.conj()).real
    u = rng.random()
    k = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    k = min(k, dim - 1)
    p = float(probs[k])
    if p <= 0.0:
        # can only happen by numerical accident at the cumsum edge
        k = int(np.argmax(probs))
        p = float(probs[k])
    posterior = Ket(cond[k] / np.sqrt(p))
    return k, posterior, p


def fidelity(rho: DensityMatrix, psi: Ket):
    """<psi| rho |psi> for a density matrix and a pure state; a stacked
    DensityMatrix gives one value per matrix."""
    m, v = rho.entries, psi.amplitudes
    if rho.dim != v.size:
        raise ContractViolation(f"dimension mismatch: operator {m.shape} vs ket {v.size}")
    # elementwise sums, so a matrix's value does not depend on the stack it is in
    f = np.real(((m * v).sum(axis=-1) * v.conj()).sum(axis=-1))
    return f if f.ndim else float(f)
