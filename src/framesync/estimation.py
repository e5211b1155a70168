"""Covariant phase estimation: admissible costs, the optimal joint value,
the canonical error density, and an independent brute-force check.

A cost is an even trigonometric series c(phi) = c_0 + sum_q c_q cos(q phi)
with c_q <= 0 for q >= 1.  For a state with level-amplitude magnitudes m_n,
the best any joint measurement can do is

    c_0 + sum_{q>=1} c_q sum_n m_n m_{n+q}

and the optimal measurement's error delta = estimate - truth is distributed
with density |sum_n m_n exp(i n delta)|^2 / (2 pi).  ``brute_force_min_cost``
re-derives the optimum by searching covariant rank-one seed phases theta
directly, without using the closed form: a seed costs c_0 + Re(u^dagger H u)
with u = exp(i theta) and H[n, n+q] = c_q conj(e_n) e_{n+q}.  It exists so the
formula can be checked against an implementation that cannot share its bugs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import NORM_ATOL, ContractViolation, RandomSource

TWO_PI = 2.0 * math.pi

RESTARTS = 8        # oracle descent restarts
LEVELS_PER_DOT = 32   # _joint_cost dots lag by lag while each lag has more levels than this


@dataclass(frozen=True, eq=False)
class CostFunction:
    """Even cosine-series cost; admissible means c_q <= 0 for every q >= 1.

    ``cq[q - 1]`` is c_q, stored as a read-only float64 array.
    """

    c0: float
    cq: np.ndarray

    def __post_init__(self):
        c0 = float(self.c0)
        cq = np.array(self.cq, dtype=float)
        if cq.ndim != 1:
            raise ContractViolation("cost coefficients c_q must be a flat sequence")
        if not (np.isfinite(c0) and np.isfinite(cq).all()):
            raise ContractViolation("cost coefficients must be finite")
        bad = np.flatnonzero(cq > 0.0) + 1
        if bad.size:
            raise ContractViolation(f"cost is not admissible: c_q > 0 at q = {bad.tolist()}")
        cq.setflags(write=False)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "cq", cq)

    @property
    def qmax(self) -> int:
        return self.cq.size

    def band(self, size: int) -> np.ndarray:
        """[0, c_1, ..., c_{size-1}]: the coefficient of each lag 0..size-1,
        zero past q_max."""
        band = np.zeros(size)
        cq = self.cq[:size - 1]
        band[1:cq.size + 1] = cq
        return band

    def value(self, phi):
        """c(phi), vectorized over phi."""
        phi = np.asarray(phi, dtype=float)
        out = np.full(phi.shape, self.c0)
        for q, c in enumerate(self.cq, start=1):
            if c != 0.0:
                out += c * np.cos(q * phi)
        return out if out.shape else float(out)


def variance_cost() -> CostFunction:
    """c(phi) = 4 sin^2(phi/2) = 2 - 2 cos(phi)."""
    return CostFunction(2.0, (-2.0,))


def likelihood_cost(q_max: int) -> CostFunction:
    """Truncated negative-delta cost, rewarding exact hits.

    The full series has c_0 = -1/(2 pi) and c_q = -1/pi for all q >= 1;
    truncation keeps q <= q_max.
    """
    if q_max < 1:
        raise ContractViolation("likelihood cost needs q_max >= 1")
    return CostFunction(-1.0 / TWO_PI, (-1.0 / math.pi,) * q_max)


def _magnitudes(e) -> np.ndarray:
    m = np.abs(np.asarray(e, dtype=complex))
    if m.ndim != 1 or m.size == 0:
        raise ContractViolation("amplitude vector must be nonempty and 1-d")
    if not abs(np.sum(m * m) - 1.0) <= NORM_ATOL:
        raise ContractViolation(f"amplitudes must be normalized, got sum of squares {np.sum(m*m)!r}")
    return m


def min_joint_cost(e, cost: CostFunction) -> float:
    """Minimum average cost over all joint measurements, from magnitudes alone."""
    return _joint_cost(_magnitudes(e), cost)


def _joint_cost(m: np.ndarray, cost: CostFunction) -> float:
    """c_0 + sum_q c_q sum_n m_n m_{n+q} of gated magnitudes ``m``, over only
    the lags q = 1..min(q_max, N) the cost reads.  A few lags take one dot
    each; more take one ``np.correlate``, whose lag q is the same dot."""
    cq = cost.cq[:m.size - 1]
    if cq.size * LEVELS_PER_DOT < m.size:
        lags = np.array([m[q:] @ m[:-q] for q in range(1, cq.size + 1)])
    else:
        lags = np.correlate(m, m, "full")[m.size:m.size + cq.size]
    return cost.c0 + float(cq @ lags)


@dataclass(frozen=True, eq=False)
class EstimateDensity:
    """Error density p(delta) = |sum_n m_n exp(i n delta)|^2 / (2 pi).

    ``magnitudes[n]`` is the amplitude magnitude at integer level n; zeros are
    fine and encode spectral gaps.  Stored as a read-only float array, checked
    once here: nonnegative (within 1e-12), 1-d, nonempty, unit sum of squares.
    """

    magnitudes: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.magnitudes, dtype=float)
        if (m < -1e-12).any():
            raise ContractViolation("magnitudes must be nonnegative")
        m = _magnitudes(m)
        m.setflags(write=False)
        object.__setattr__(self, "magnitudes", m)

    def pdf(self, delta):
        delta = np.asarray(delta, dtype=float)
        levels = np.arange(self.magnitudes.size)
        amp = np.exp(1j * np.multiply.outer(delta, levels)) @ self.magnitudes
        out = (amp.real**2 + amp.imag**2) / TWO_PI
        return out if out.shape else float(out)

    @cached_property
    def _mixture_table(self):
        """(D, i n) with D[k, n] = m_n exp(2 pi i n k / M) / sqrt(M), built once."""
        size = self.magnitudes.size
        levels = np.arange(size)
        table = (self.magnitudes / math.sqrt(size)
                 * np.exp(TWO_PI * 1j / size * (np.outer(levels, levels) % size)))
        return table, 1j * levels


def _outcome_probabilities(density: EstimateDensity, u: float) -> np.ndarray:
    """P(k | u) = |sum_n m_n exp(i n (u + 2 pi k / M))|^2 / M for k < M.

    One row of the uniform mixture of M-outcome covariant measurements,
    M = len(magnitudes): by Parseval the row sums to one, and
    (M / 2 pi) P(k | u) is the density at u + 2 pi k / M.
    """
    table, ilevels = density._mixture_table
    amp = table @ np.exp(u * ilevels)
    return np.abs(amp) ** 2


def sample_estimate(density: EstimateDensity, phi_true: float,
                    rng: np.random.Generator) -> float:
    """Draw an estimate whose error is distributed exactly as the density.

    The error density is a trigonometric polynomial of degree M - 1, so Bob's
    continuous covariant measurement equals a uniform mixture of M-outcome
    covariant measurements (Derka, Buzek & Ekert, PRL 80, 1571 (1998)): draw
    u uniform on [0, 2 pi / M), then outcome k with probability P(k | u), and
    return phi_true + u + 2 pi k / M reduced to [0, 2 pi).  No grid, no bias.
    Takes two ``random()`` draws from ``rng``: u, then the outcome.
    """
    size = density.magnitudes.size
    step = TWO_PI / size
    u = rng.random() * step
    cum = _outcome_probabilities(density, u).cumsum()
    k = min(int(cum.searchsorted(rng.random() * cum[-1], side="right")), size - 1)
    return float((phi_true + u + k * step) % TWO_PI)


def _seed_weights(e, cost: CostFunction):
    """Weight matrix of the covariant-seed objective.

    Returns (c0, H) with H strictly upper triangular,
    H[n, n+q] = c_q conj(e_n) e_{n+q}, so that the seed with phases theta
    has average cost c0 + Re(u^dagger H u), u = exp(i theta).  One gather
    band[n' - n] above the diagonal, then (c_q conj(e_n)) e_{n+q}.
    """
    e = np.asarray(e, dtype=complex)
    levels = np.arange(e.size)
    coeffs = np.triu(cost.band(e.size)[np.abs(levels - levels[:, None])], 1)
    return cost.c0, coeffs * e.conj()[:, None] * e


def _newton_polish(c0, h, sym, theta):
    """Newton steps on theta_1..theta_N from theta, with theta_0 = 0 fixed.

    With W = H + H^dagger and a = conj(u) (W u), the gradient is Im(a) and
    the Hessian is the weighted graph Laplacian Re(conj(u_k) W_kl u_l) -
    diag(Re a).  Where Cholesky finds it not positive definite (a saddle
    region, zero weights, or a band whose levels split into decoupled sets,
    each with its own free gauge), its diagonal is shifted so that its
    Gershgorin lower bound rises to at least max |gradient| > 0, so a step
    always exists.  A step is accepted only through backtracking that does not
    raise the cost.  Stops on 50 steps, a zero or empty gradient, a failed
    backtrack, a shifted Hessian still singular, a step that overflows, or a
    gain below 1e-15.
    Returns (value, theta) with theta in [0, 2 pi).
    """
    u = np.exp(1j * theta)
    current = c0 + (u.conj() @ (h @ u)).real
    free = np.arange(h.shape[0] - 1)
    for _ in range(50):
        a = u.conj() * (sym @ u)
        grad = a.imag[1:]
        if not grad.any():
            break
        hess = (u[1:, None].conj() * sym[1:, 1:] * u[1:]).real
        hess[free, free] -= a.real[1:]
        try:
            np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            diag = hess[free, free]
            deficit = np.abs(hess).sum(axis=1) - np.abs(diag) - diag   # off-diagonal row sum - diagonal
            hess[free, free] += max(deficit.max(), 0.0) + np.abs(grad).max()
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:   # singular even shifted: the gradient is at rounding level
            break
        if not np.isfinite(step).all():   # weights near the underflow limit overflow the step
            break
        for t in 0.5 ** np.arange(30):
            trial = np.concatenate(([0.0], (theta[1:] + t * step) % TWO_PI))
            trial_u = np.exp(1j * trial)
            new = c0 + (trial_u.conj() @ (h @ trial_u)).real
            if new <= current:
                break
        else:
            break
        gain = current - new
        theta, u, current = trial, trial_u, new
        if gain < 1e-15:
            break
    return current, theta


def _coordinate_descent(c0, h, rng):
    """Three sweeps of cyclic exact line search, then Newton steps, from
    ``RESTARTS`` random restarts.

    Restricted to one coordinate theta_n, the objective collapses to the
    single sinusoid Re(exp(-i theta_n) g) with g = ((H + H^dagger) u)_n, so
    each sweep update jumps straight to the continuous minimizer
    theta_n = pi + arg g.  The sweeps bring a restart into a basin; the
    Newton steps of ``_newton_polish`` then converge to its minimum to
    rounding.  Restarts guard against the rare non-global critical point and
    draw from the numpy Generator ``rng``.  Returns (value, theta) of the
    best restart, theta_0 = 0.
    """
    n_levels = h.shape[0]
    sym = h + h.conj().T
    best_val = math.inf
    best = np.zeros(n_levels)
    for _ in range(RESTARTS):
        theta = np.concatenate(([0.0], rng.uniform(0.0, TWO_PI, size=n_levels - 1)))
        u = np.exp(1j * theta)
        for _ in range(3):
            for n in range(1, n_levels):
                g = sym[n] @ u
                if abs(g) > 0.0:
                    theta[n] = (math.pi + math.atan2(g.imag, g.real)) % TWO_PI
                    u[n] = complex(math.cos(theta[n]), math.sin(theta[n]))
        current, theta = _newton_polish(c0, h, sym, theta)
        if current < best_val:
            best_val = float(current)
            best = theta
    return best_val, best


def brute_force_min_cost(e, cost: CostFunction, *,
                         rng: np.random.Generator | None = None) -> float:
    """Search covariant rank-one seeds for the minimum average cost.

    Each of ``RESTARTS`` random starts drawn from the numpy Generator ``rng``
    (default ``RandomSource(0).generator()``) takes three sweeps of
    coordinate descent with exact line search, then Newton steps with a
    Gershgorin shift and backtracking.  It uses no eigensolver and no closed
    form.  Returns the best value found, the cost of a real seed.
    """
    _magnitudes(e)  # validates normalization
    c0, h = _seed_weights(e, cost)
    return _coordinate_descent(c0, h, rng or RandomSource(0).generator())[0]
