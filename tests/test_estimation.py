import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framesync import (ContractViolation, CostFunction, EstimateDensity,
                       RandomSource, brute_force_min_cost, likelihood_cost,
                       min_joint_cost, optimal_frameness_state, sample_estimate,
                       variance_cost)
from framesync.estimation import (GRID_POINTS, _coordinate_descent, _grid_search,
                                  _outcome_probabilities, _seed_weights)
from conftest import random_unit

TWO_PI = 2 * math.pi

seeds = st.integers(0, 2**32 - 1)
angles = st.floats(0.0, TWO_PI, exclude_max=True)


def _random_profile(seed, n_levels, complex_valued=True):
    return random_unit(np.random.default_rng(seed), n_levels, complex_valued)


# ------------------------------------------------------------------ costs

def test_variance_cost_is_four_sine_squared():
    c = variance_cost()
    assert (c.c0, c.cq) == (2.0, (-2.0,))
    phi = np.linspace(-7, 7, 101)
    np.testing.assert_allclose(c.value(phi), 4 * np.sin(phi / 2) ** 2, atol=1e-12)


def test_likelihood_cost_coefficients():
    c = likelihood_cost(3)
    assert c.c0 == pytest.approx(-1 / TWO_PI)
    assert c.cq == (-1 / math.pi,) * 3
    assert c.value(0.0) == pytest.approx(-1 / TWO_PI - 3 / math.pi)
    with pytest.raises(ContractViolation):
        likelihood_cost(0)


def test_cost_rejects_positive_fourier_terms():
    with pytest.raises(ContractViolation, match="q = \\[2\\]"):
        CostFunction(1.0, (-1.0, 0.5))
    CostFunction(1.0, (-1.0, 0.0))   # zeros are allowed


def _cost_error(c0, cq):
    """Loop reference of CostFunction's checks: the first failing message, or None."""
    cq = tuple(float(c) for c in cq)
    if any(not np.isfinite(c) for c in (c0,) + cq):
        return "cost coefficients must be finite"
    bad = [q + 1 for q, c in enumerate(cq) if c > 0.0]
    return f"cost is not admissible: c_q > 0 at q = {bad}" if bad else None


_COEFFICIENTS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, -1.0, 1e-300, -np.inf]))


@settings(max_examples=200, deadline=None)
@given(c0=_COEFFICIENTS, cq=st.lists(_COEFFICIENTS, max_size=6))
def test_cost_checks_match_the_loop_reference(c0, cq):
    want = _cost_error(c0, cq)
    if want is None:
        cost = CostFunction(c0, tuple(cq))
        assert cost.cq == tuple(float(c) for c in cq)
        assert all(type(c) is float for c in cost.cq) and type(cost.c0) is float
    else:
        with pytest.raises(ContractViolation) as err:
            CostFunction(c0, tuple(cq))
        assert str(err.value) == want


def test_cost_validation_calls_isfinite_once_per_array(monkeypatch):
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x: calls.append(1) or isfinite(x))
    likelihood_cost(512)
    assert len(calls) <= 2


def test_cost_value_scalar_and_vector():
    c = variance_cost()
    assert isinstance(c.value(0.3), float)
    assert c.value(np.zeros(4)).shape == (4,)
    assert c.value(math.pi) == pytest.approx(4.0)


# --------------------------------------------------------- min joint cost

def test_min_joint_cost_flat_closed_form():
    for n_tot in (1, 2, 4, 9):
        e = np.full(n_tot + 1, 1 / math.sqrt(n_tot + 1))
        assert min_joint_cost(e, variance_cost()) == pytest.approx(
            2.0 / (n_tot + 1), abs=1e-12)


def test_min_joint_cost_flat_likelihood_closed_form():
    for n_tot in (1, 3, 8, 32):
        e = np.full(n_tot + 1, 1 / math.sqrt(n_tot + 1))
        got = min_joint_cost(e, likelihood_cost(n_tot))
        assert got == pytest.approx(-(n_tot + 1) / TWO_PI, abs=1e-12)


def test_min_joint_cost_single_level_has_no_interference():
    assert min_joint_cost([1.0], variance_cost()) == pytest.approx(2.0)
    assert min_joint_cost([0.0, 1.0, 0.0], variance_cost()) == pytest.approx(2.0)


@settings(max_examples=50)
@given(seed=seeds, n=st.integers(1, 9))
def test_min_joint_cost_beats_global_cost_minimum(seed, n):
    e = _random_profile(seed, n + 1)
    grid = np.linspace(0, TWO_PI, 4096, endpoint=False)
    for cost in (variance_cost(), likelihood_cost(max(1, n))):
        assert min_joint_cost(e, cost) >= cost.value(grid).min() - 1e-12


@settings(max_examples=50)
@given(seed=seeds, n=st.integers(1, 9))
def test_min_joint_cost_ignores_amplitude_phases(seed, n):
    gen = np.random.default_rng(seed)
    e = random_unit(gen, n + 1)
    rot = e * np.exp(1j * gen.uniform(0, TWO_PI, size=n + 1))
    c = variance_cost()
    assert min_joint_cost(rot, c) == pytest.approx(min_joint_cost(e, c), abs=1e-12)


@given(seed=seeds, pad=st.integers(1, 4))
def test_min_joint_cost_unmoved_by_trailing_zero_sectors(seed, pad):
    e = _random_profile(seed, 5)
    padded = np.concatenate([e, np.zeros(pad)])
    c = likelihood_cost(4)
    assert min_joint_cost(padded, c) == pytest.approx(
        min_joint_cost(e, c), abs=1e-14)


@settings(max_examples=60)
@given(seed=seeds, n=st.integers(1, 40), qmax=st.integers(1, 45))
def test_min_joint_cost_is_the_per_q_sum(seed, n, qmax):
    gen = np.random.default_rng(seed)
    e = _random_profile(seed, n)
    cost = CostFunction(gen.normal(), tuple(-gen.uniform(0.0, 2.0, size=qmax)))
    m = np.abs(e)
    want = cost.c0
    for q, c in enumerate(cost.cq, start=1):
        if q < m.size:
            want += c * float(np.dot(m[:-q], m[q:]))
    assert min_joint_cost(e, cost) == pytest.approx(want, abs=1e-12)


def test_min_joint_cost_requires_normalization():
    with pytest.raises(ContractViolation):
        min_joint_cost([1.0, 1.0], variance_cost())


@pytest.mark.parametrize("e", [[np.nan, 1.0], [np.nan], [1.0, complex(0.0, np.nan)]])
def test_min_joint_cost_rejects_nan(e):
    with pytest.raises(ContractViolation, match="normalized"):
        min_joint_cost(e, variance_cost())
    with pytest.raises(ContractViolation, match="normalized"):
        brute_force_min_cost(e, variance_cost())


# ----------------------------------------------------------- error density

def test_density_normalizes_and_is_nonnegative():
    for seed in range(5):
        dens = EstimateDensity(np.abs(_random_profile(seed, 6)))
        grid = np.linspace(0, TWO_PI, 1 << 16, endpoint=False)
        p = dens.pdf(grid)
        assert p.min() >= -1e-15
        assert np.mean(p) * TWO_PI == pytest.approx(1.0, abs=1e-12)


def test_density_flat_profile_peak_value():
    for n_tot in (1, 4, 16):
        dens = EstimateDensity(np.full(n_tot + 1, 1 / math.sqrt(n_tot + 1)))
        assert dens.pdf(0.0) == pytest.approx((n_tot + 1) / TWO_PI, abs=1e-12)


def test_density_single_level_is_uniform():
    dens = EstimateDensity([1.0])
    grid = np.linspace(0, TWO_PI, 64)
    np.testing.assert_allclose(dens.pdf(grid), 1 / TWO_PI, atol=1e-15)


def _average_cost(dens, cost, points=1 << 16):
    """Trapezoid quadrature of c(delta) p(delta) on a uniform periodic grid."""
    grid = np.arange(points) * (TWO_PI / points)
    return float(np.mean(cost.value(grid) * dens.pdf(grid)) * TWO_PI)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(1, 8))
def test_average_cost_equals_min_joint_cost(seed, n):
    # the two derivations must meet: quadrature of c * p against the
    # closed-form overlap sum
    m = np.abs(_random_profile(seed, n + 1))
    dens = EstimateDensity(m)
    for cost in (variance_cost(), likelihood_cost(n)):
        assert _average_cost(dens, cost) == pytest.approx(
            min_joint_cost(m, cost), abs=1e-9)


def test_average_cost_quadrature_is_exact_once_grid_beats_bandwidth():
    # c * p is a trigonometric polynomial of degree 9, so 64 points are exact
    m = np.abs(_random_profile(7, 9))
    dens = EstimateDensity(m)
    cost = variance_cost()
    coarse = _average_cost(dens, cost, points=64)
    assert coarse == pytest.approx(_average_cost(dens, cost), abs=1e-12)
    assert coarse == pytest.approx(min_joint_cost(m, cost), abs=1e-12)


def test_density_input_gates():
    with pytest.raises(ContractViolation):
        EstimateDensity(np.ones((2, 2)))
    with pytest.raises(ContractViolation):
        EstimateDensity((0.9, 0.9))
    with pytest.raises(ContractViolation):
        EstimateDensity((-0.5, math.sqrt(0.75)))


@pytest.mark.parametrize("m", [[np.nan, 0.5], [np.nan], [1.0, np.nan]])
def test_density_rejects_nan(m):
    with pytest.raises(ContractViolation, match="normalized"):
        EstimateDensity(m)


# ---------------------------------------------------------------- sampling

def test_sample_estimate_stays_in_range_and_replays():
    dens = EstimateDensity(np.full(3, 1 / math.sqrt(3)))
    src = RandomSource(21)
    xs = [sample_estimate(dens, 1.0, src.split(i).generator()) for i in range(200)]
    assert all(0.0 <= x < TWO_PI for x in xs)
    ys = [sample_estimate(dens, 1.0, src.split(i).generator()) for i in range(200)]
    assert xs == ys


@given(phi=angles)
def test_sample_estimate_error_is_offset_covariant(phi):
    dens = EstimateDensity(np.full(2, 1 / math.sqrt(2)))
    src = RandomSource(5, (17,))
    base = sample_estimate(dens, 0.0, src.generator())
    shifted = sample_estimate(dens, phi, src.generator())
    diff = (shifted - base - phi) % TWO_PI
    assert min(diff, TWO_PI - diff) < 1e-9


def test_mixture_outcome_law_is_the_density_pointwise():
    gen = np.random.default_rng(44)
    profiles = [np.abs(_random_profile(s, n)) for s, n in ((1, 1), (2, 2), (3, 5), (4, 17))]
    gapped = np.zeros(9)
    gapped[[0, 3, 4, 8]] = np.abs(_random_profile(5, 4))
    profiles += [gapped, np.array([0.0, 0.0, 1.0])]
    for m in profiles:
        dens = EstimateDensity(m)
        size = m.size
        for u in gen.uniform(0.0, TWO_PI / size, size=50):
            probs = _outcome_probabilities(dens, u)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            deltas = u + TWO_PI * np.arange(size) / size
            np.testing.assert_allclose(size / TWO_PI * probs, dens.pdf(deltas),
                                       rtol=0, atol=1e-12)


def test_sample_estimate_matches_density_ks():
    m = np.abs(_random_profile(3, 3))
    dens = EstimateDensity(m)
    n_samples = 20_000
    gen = RandomSource(8).generator()
    xs = np.sort([sample_estimate(dens, 0.0, gen) for _ in range(n_samples)])

    fine = np.linspace(0, TWO_PI, 1 << 18, endpoint=False)
    pdf = dens.pdf(fine)
    cdf = np.cumsum(pdf) * (TWO_PI / fine.size)
    cdf /= cdf[-1]
    f_at = np.interp(xs, fine, cdf)
    emp_hi = np.arange(1, n_samples + 1) / n_samples
    emp_lo = np.arange(0, n_samples) / n_samples
    ks = max(np.abs(f_at - emp_hi).max(), np.abs(f_at - emp_lo).max())
    assert ks < 1.63 / math.sqrt(n_samples)   # 1% point of the KS law


# ------------------------------------------------------------- brute force

def _seed_search(e, cost, method, grid_points=GRID_POINTS, rng=None):
    """(value, theta) of brute_force_min_cost's search, seed phases included."""
    c0, h = _seed_weights(e, cost)
    if method == "grid":
        return _grid_search(c0, h, grid_points)
    return _coordinate_descent(c0, h, rng)


def test_brute_force_flat_pair_is_exact_on_the_grid():
    e = np.full(2, 1 / math.sqrt(2))
    val, theta = _seed_search(e, variance_cost(), "grid")
    assert val == pytest.approx(1.0, abs=1e-15)
    assert val == brute_force_min_cost(e, variance_cost())
    assert theta[0] == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_brute_force_grid_matches_formula_three_levels(seed):
    e = _random_profile(seed, 3)
    want = min_joint_cost(e, variance_cost())
    got = brute_force_min_cost(e, variance_cost())
    assert got == pytest.approx(want, abs=1e-3)
    assert got >= want - 1e-12   # the search can never beat the optimum


@pytest.mark.parametrize("n_levels", [4, 5, 6])
def test_brute_force_descent_matches_formula(n_levels):
    e = _random_profile(n_levels * 11, n_levels)
    for cost in (variance_cost(), likelihood_cost(2)):
        want = min_joint_cost(e, cost)
        got = brute_force_min_cost(e, cost, rng=RandomSource(1).generator())
        assert got == pytest.approx(want, abs=1e-9)
        assert got >= want - 1e-12


def test_brute_force_seed_aligns_every_weighted_pair():
    e = _random_profile(42, 5)
    cost = variance_cost()
    val, theta = _seed_search(e, cost, "descent", rng=RandomSource(2).generator())
    arg = np.angle(np.asarray(e, dtype=complex))
    for n in range(4):
        # the weights are negative, so each pair should sit at cos = +1
        align = math.cos(theta[n + 1] - theta[n] + arg[n + 1] - arg[n])
        assert align == pytest.approx(1.0, abs=1e-9)
    assert val == pytest.approx(min_joint_cost(e, cost), abs=1e-9)


def _explicit_seed_cost(e, cost, theta):
    """Average cost of the covariant seed with phases theta, term by term."""
    m, arg = np.abs(e), np.angle(e)
    total = cost.c0
    for q, c in enumerate(cost.cq, start=1):
        for n in range(len(e) - q):
            total += c * m[n] * m[n + q] * math.cos(
                theta[n + q] - theta[n] + arg[n + q] - arg[n])
    return total


@pytest.mark.parametrize("cost", [variance_cost(), likelihood_cost(3)],
                         ids=["variance", "likelihood"])
@pytest.mark.parametrize("n_levels, method", [(2, "grid"), (3, "grid"), (7, "descent")],
                         ids=["grid-1-free", "grid-2-free", "descent"])
def test_brute_force_value_is_the_cost_of_its_seed(cost, n_levels, method):
    rng = RandomSource(5)
    for seed in range(3):
        e = _random_profile(100 + 10 * n_levels + seed, n_levels)
        val, theta = _seed_search(e, cost, method, rng=rng.generator())
        assert theta[0] == 0.0
        assert val == pytest.approx(_explicit_seed_cost(e, cost, theta), abs=1e-12)
        assert val == brute_force_min_cost(e, cost, rng=rng.generator())


@pytest.mark.parametrize("n_levels", [2, 3])
def test_grid_search_matches_the_loop_reference(n_levels):
    axis = TWO_PI * np.arange(24) / 24
    profiles = [_random_profile(200 + 10 * n_levels + seed, n_levels) for seed in range(3)]
    if n_levels == 3:   # theta_1 carries no weight, so its values tie: 0 must win
        profiles.append(np.array([1.0, 0.0, 1.0]) / math.sqrt(2))
    for e in profiles:
        for cost in (variance_cost(), likelihood_cost(2)):
            best_val, best = math.inf, None
            for idx in itertools.product(range(24), repeat=n_levels - 1):
                theta = np.concatenate(([0.0], axis[list(idx)]))
                val = _explicit_seed_cost(e, cost, theta)
                if val < best_val:
                    best_val, best = val, theta
            val, theta = _seed_search(e, cost, "grid", grid_points=24)
            assert val == pytest.approx(best_val, abs=1e-12)
            assert theta.tolist() == best.tolist()


def test_brute_force_likelihood_descent_at_n32():
    cost = likelihood_cost(32)
    e = optimal_frameness_state(32, cost).amps
    got = brute_force_min_cost(e, cost, rng=RandomSource(0).generator())
    assert got == pytest.approx(min_joint_cost(e, cost), abs=1e-9)


def test_brute_force_descent_replays_with_random_source():
    e = _random_profile(9, 6)
    v1, t1 = _seed_search(e, variance_cost(), "descent", rng=RandomSource(3).generator())
    v2, t2 = _seed_search(e, variance_cost(), "descent", rng=RandomSource(3).generator())
    assert v1 == v2 and t1.tolist() == t2.tolist()
    assert v1 == brute_force_min_cost(e, variance_cost(), rng=RandomSource(3).generator())


def test_brute_force_input_gates():
    with pytest.raises(ContractViolation):
        brute_force_min_cost(np.full(3, 1 / math.sqrt(6)), variance_cost())   # not normalized


def test_covariant_seed_gauge():
    # both searches fix the gauge theta_0 = 0, also where no pair is weighted
    for e in (_random_profile(3, 3), [1.0], [0.0, 1.0, 0.0]):
        for method in ("grid", "descent"):
            _, theta = _seed_search(e, variance_cost(), method, rng=RandomSource(1).generator())
            assert theta.shape == (len(e),) and theta[0] == 0.0
