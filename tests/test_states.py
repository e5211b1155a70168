import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framesync.states as states
from framesync import (BipartiteFrameState, ContractViolation, CostFunction,
                       Generator, Ket, NotInvariantState, expand, family_profile,
                       flat_state, frameness_of_ket, likelihood_cost, min_joint_cost,
                       sector_magnitudes, sine_state, single_sector_state,
                       optimal_frameness_state, variance_cost)
from framesync.config import cost_from_spec
from framesync.states import FAMILIES
from conftest import level_preserving_unitary, random_frame_state

seeds = st.integers(0, 2**32 - 1)


def _total_op(ga, gb):
    return (np.kron(np.diag(ga.eigenvalues()), np.eye(gb.dim))
            + np.kron(np.eye(ga.dim), np.diag(gb.eigenvalues())))


# ---------------------------------------------------------- named profiles

def test_flat_state_profile():
    s = flat_state(4)
    np.testing.assert_allclose(s.amps, np.full(5, 1 / np.sqrt(5)), atol=1e-15)
    assert s.total == 4 and s.sector(3).tolist() == [1.0]


def test_sine_state_frozen_values():
    np.testing.assert_allclose(sine_state(1).amps,
                               [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)
    np.testing.assert_allclose(
        sine_state(2).amps,
        [0.40824829046386296, 0.8164965809277261, 0.40824829046386296],
        atol=1e-14)


@given(st.integers(1, 64))
def test_sine_state_exactly_normalized(n_tot):
    assert np.sum(sine_state(n_tot).magnitudes() ** 2) == pytest.approx(1.0, abs=1e-12)


def test_named_profiles_reject_total_zero():
    for make in (flat_state, sine_state):
        with pytest.raises(ContractViolation):
            make(0)


def test_single_sector_state_is_one_hot():
    s = single_sector_state(3, level=2)
    np.testing.assert_allclose(s.magnitudes(), [0, 0, 1, 0], atol=0)
    with pytest.raises(ContractViolation):
        single_sector_state(3, level=4)


@pytest.mark.parametrize("n_tot", [1, 2, 7, 64, 511])
def test_family_profiles_are_their_states_magnitudes(n_tot):
    # a family is its profile: the state adds no magnitude information
    q3 = cost_from_spec({"type": "likelihood", "qmax": 3})
    builders = {"flat": lambda n, cost: flat_state(n),
                "sine-paper": lambda n, cost: sine_state(n),
                "optimal": optimal_frameness_state,
                "single-sector": lambda n, cost: single_sector_state(n, n // 2)}
    assert set(builders) == set(FAMILIES)
    for cost in (variance_cost(), likelihood_cost(n_tot), q3):
        for family, build in builders.items():
            got = family_profile(family, n_tot, cost, level=n_tot // 2)
            assert got.shape == (n_tot + 1,) and got.dtype == float
            assert got.tobytes() == build(n_tot, cost).magnitudes().tobytes(), family


def test_family_profile_refusals():
    with pytest.raises(ContractViolation, match="unknown family 'bogus'; known: flat, "
                                                "sine-paper, optimal, single-sector"):
        family_profile("bogus", 4)
    with pytest.raises(ContractViolation, match="the optimal family needs a cost"):
        family_profile("optimal", 4)
    for family, name in (("flat", "flat"), ("sine-paper", "sine"), ("optimal", "optimal")):
        with pytest.raises(ContractViolation, match=f"^{name} state needs total level >= 1$"):
            family_profile(family, 0, variance_cost())
    with pytest.raises(ContractViolation, match=r"sector level 4 outside 0\.\.3"):
        family_profile("single-sector", 3, level=4)
    assert family_profile("single-sector", 0).tolist() == [1.0]


def test_family_profile_gate_is_the_sector_tolerance(monkeypatch):
    # the state's 1e-12 gate, not min_joint_cost's looser 1e-10 one
    cost = variance_cost()
    off = np.full(5, math.sqrt((1.0 + 1e-11) / 5))
    near = np.full(5, math.sqrt((1.0 + 1e-13) / 5))
    min_joint_cost(off, cost)   # the cost gate alone would take it
    for profile, ok in ((off, False), (near, True),
                        (np.full(5, np.nan), False), (np.full(4, 0.5), False)):
        monkeypatch.setattr(states, "_optimal_profile", lambda n, c, p=profile: p)
        if ok:
            assert family_profile("optimal", 4, cost) is profile
        else:
            with pytest.raises(ContractViolation, match="unit sum of squares|one entry per sector"):
                family_profile("optimal", 4, cost)


def test_optimal_variance_profile_is_discrete_sine():
    # leading eigenvector of the free tridiagonal band: sin(pi (n+1) / (N+2))
    for n_tot in (1, 2, 5, 16, 64):
        got = optimal_frameness_state(n_tot, variance_cost()).amps.real
        n = np.arange(n_tot + 1)
        want = np.sin(np.pi * (n + 1) / (n_tot + 2))
        want /= np.linalg.norm(want)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_optimal_state_differs_from_fixed_sine_profile():
    a = optimal_frameness_state(4, variance_cost()).amps.real
    b = sine_state(4).amps.real
    assert np.abs(a - b).max() > 1e-3


def _toeplitz_cost_matrix(dim, cost):
    """M[n, n+q] = -c_q / 2, one band at a time."""
    m = np.zeros((dim, dim))
    rows = np.arange(dim)
    for q, c in enumerate(cost.cq[:dim - 1], start=1):
        m[rows[:-q], rows[q:]] = m[rows[q:], rows[:-q]] = -0.5 * c
    return m


def test_closed_forms_match_a_full_eigh():
    # the variance cost has a tridiagonal band, likelihood(N) a constant one;
    # the cost is checked at every N, the profile against eigh at small N and
    # at a few large sizes on both sides of a power of two
    eigh_sizes = set(range(1, 65)) | {127, 128, 255, 256, 511, 512}
    for n_tot in range(1, 513):
        for cost, want in ((variance_cost(), 2 - 2 * np.cos(np.pi / (n_tot + 2))),
                           (likelihood_cost(n_tot), -(n_tot + 1) / (2 * np.pi))):
            got = optimal_frameness_state(n_tot, cost).magnitudes()
            assert abs(min_joint_cost(got, cost) - want) <= 1e-12
            if n_tot in eigh_sizes:
                _, vecs = np.linalg.eigh(_toeplitz_cost_matrix(n_tot + 1, cost))
                np.testing.assert_allclose(got, np.abs(vecs[:, -1]), rtol=0, atol=1e-12)


def test_c1_only_spec_cost_takes_the_sine_form(monkeypatch):
    cost = cost_from_spec({"cq": [1, -3]})
    monkeypatch.setattr(np.linalg, "eigh", None)   # the closed form needs no solve
    for n_tot in (1, 2, 9, 100):
        got = optimal_frameness_state(n_tot, cost).magnitudes()
        want = np.sin(np.pi * np.arange(1, n_tot + 2) / (n_tot + 2))
        np.testing.assert_allclose(got, want / np.linalg.norm(want), rtol=0, atol=1e-12)
        assert abs(min_joint_cost(got, cost) - (1 - 3 * np.cos(np.pi / (n_tot + 2)))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=seeds, dim=st.integers(2, 41))
def test_optimal_state_half_solve_matches_full_eigh(seed, dim):
    # c_1 < 0 keeps M irreducible, so its top eigenvector is unique up to sign
    gen = np.random.default_rng(seed)
    cost = CostFunction(gen.normal(), tuple(-gen.uniform(0.05, 2.0, size=gen.integers(1, dim + 3))))
    vals, vecs = np.linalg.eigh(_toeplitz_cost_matrix(dim, cost))
    want = np.abs(vecs[:, -1]) / np.linalg.norm(vecs[:, -1])
    got = optimal_frameness_state(dim - 1, cost).magnitudes()
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("n_tot", [1, 3, 5, 8, 17, 40])
def test_optimal_state_half_solve_both_parities_and_costs(n_tot):
    # bands without a closed form once N > 3: likelihood with q_max < N, and c_1 + c_2
    for cost in (likelihood_cost(max(1, n_tot // 2)), CostFunction(0.5, (-1.0, -0.25))):
        vals, vecs = np.linalg.eigh(_toeplitz_cost_matrix(n_tot + 1, cost))
        got = optimal_frameness_state(n_tot, cost).magnitudes()
        np.testing.assert_allclose(got, np.abs(vecs[:, -1]), atol=1e-10)
        assert min_joint_cost(got, cost) == pytest.approx(cost.c0 - vals[-1], abs=1e-12)


@pytest.mark.parametrize("n_tot", [1, 3, 5, 9, 21, 41])
def test_optimal_state_on_a_degenerate_top_eigenspace(n_tot):
    # c_2 alone couples even levels to even and odd to odd; at odd N both
    # chains have the same length, so the top eigenvalue is double
    cost = CostFunction(1.0, (0.0, -1.0))
    m = _toeplitz_cost_matrix(n_tot + 1, cost)
    top = np.linalg.eigvalsh(m)
    assert top[-1] - top[-2] < 1e-12
    mags = optimal_frameness_state(n_tot, cost).magnitudes()
    assert np.all(mags >= 0.0)
    np.testing.assert_allclose(mags, mags[::-1], atol=1e-14)
    assert min_joint_cost(mags, cost) == pytest.approx(cost.c0 - top[-1], abs=1e-12)


def test_optimal_state_never_solves_at_full_dimension(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for n_tot in (1, 2, 7, 64, 511, 512):
        # at N = 1 only c_1 is kept; it is zero here, so that band has no closed form
        c1 = 0.0 if n_tot == 1 else -1.0
        optimal_frameness_state(n_tot, CostFunction(1.0, (c1, -0.5)))
    assert shapes == [(k, k) for k in (1, 2, 4, 33, 256, 257)]


# ------------------------------------------------------------- validation

def test_schmidt_sector_validation():
    # N = 1 on two doubly degenerate levels: sector 0 takes up to two coefficients
    g = Generator(((0, 2), (1, 2)))
    amps = [1.0, 0.0]
    BipartiteFrameState(1, g, g, amps, [2, 0], [0.6, 0.8])
    with pytest.raises(ContractViolation, match="sector 0 without Schmidt data"):
        BipartiteFrameState(1, g, g, amps, [0, 0], [])
    with pytest.raises(ContractViolation, match="finite and nonnegative"):
        BipartiteFrameState(1, g, g, amps, [2, 0], [-0.6, 0.8])
    with pytest.raises(ContractViolation, match="finite and nonnegative"):
        BipartiteFrameState(1, g, g, amps, [2, 0], [np.nan, 0.8])
    with pytest.raises(ContractViolation, match="unit sum of squares"):
        BipartiteFrameState(1, g, g, amps, [2, 0], [0.6, 0.6])


def test_frame_state_validation():
    g = Generator.ladder(3)
    ones = [1.0, 1.0, 1.0]
    amps = np.full(3, 1 / np.sqrt(3))
    BipartiteFrameState(2, g, g, amps, [1, 1, 1], ones)
    with pytest.raises(ContractViolation):
        BipartiteFrameState(2, g, g, amps * 2, [1, 1, 1], ones)      # norm
    with pytest.raises(ContractViolation):
        BipartiteFrameState(2, g, g, amps[:2], [1, 1, 1], ones)      # shape
    with pytest.raises(ContractViolation, match="sector 2 without Schmidt data"):
        BipartiteFrameState(2, g, g, amps, [1, 1, 0], ones[:2])
    for ranks in ([1, 1], [1.0, 1.0, 1.0], [1, -1, 1]):
        with pytest.raises(ContractViolation, match="nonnegative integer per sector"):
            BipartiteFrameState(2, g, g, amps, ranks, ones)
    with pytest.raises(ContractViolation, match="the 3 coefficients"):
        BipartiteFrameState(2, g, g, amps, [1, 1, 1], ones + [1.0])
    with pytest.raises(ContractViolation, match="rank 2 exceeds min degeneracy 1"):
        BipartiteFrameState(2, g, g, amps, [2, 1, 1], [0.6, 0.8, 1.0, 1.0])
    neg = Generator(((-1, 1), (0, 1), (1, 1)))
    with pytest.raises(ContractViolation, match="nonnegative levels"):
        BipartiteFrameState(2, neg, g, amps, [1, 1, 1], ones)


@pytest.mark.parametrize("amps", [[np.nan, 0.0, 1.0], [np.nan] * 3,
                                  [complex(0.6, np.nan), 0.8, 0.0]])
def test_frame_state_rejects_nan_amplitudes(amps):
    g = Generator.ladder(3)
    with pytest.raises(ContractViolation, match="unit sum of squares"):
        BipartiteFrameState(2, g, g, np.array(amps, dtype=complex), [1, 1, 1], [1.0] * 3)


def _sector_error(n_tot, gen_a, gen_b, amps, ranks, lam):
    """Loop reference of BipartiteFrameState's sector checks: the first
    failing message of a scan over n = 0..n_tot, or None."""
    start = 0
    for n in range(n_tot + 1):
        r = ranks[n]
        sector = lam[start:start + r].tolist()   # Python floats: x * x overflows quietly
        start += r
        if r == 0:
            if abs(amps[n]) > 1e-12:
                return f"nonzero amplitude at sector {n} without Schmidt data"
            continue
        if not all(math.isfinite(x) and x >= 0.0 for x in sector):
            return f"sector {n}: Schmidt coefficients must be finite and nonnegative"
        sum_sq = 0.0
        for x in sector:
            sum_sq += x * x
        if abs(sum_sq - 1.0) > 1e-12:
            return f"sector {n}: Schmidt coefficients must have unit sum of squares"
        da = dict(gen_a.levels).get(n_tot - n, 0)
        db = dict(gen_b.levels).get(n, 0)
        if da == 0 or db == 0:
            return f"sector {n} needs level {n_tot - n} on side A and level {n} on side B"
        if r > min(da, db):
            return f"sector {n}: rank {r} exceeds min degeneracy {min(da, db)}"
    return None


def _generators(max_level):
    """Mostly every level 0..max_level present, sometimes a random subset;
    degeneracies 1..3."""
    full = st.lists(st.integers(1, 3), min_size=max_level + 1, max_size=max_level + 1).map(
        lambda degs: tuple(enumerate(degs)))
    some = st.lists(st.tuples(st.integers(0, max_level), st.integers(1, 3)),
                    min_size=1, max_size=max_level + 1, unique_by=lambda p: p[0])
    return st.one_of(full, full, some).map(lambda lv: Generator(tuple(sorted(lv))))


@st.composite
def _sector_data(draw, n_tot):
    """Ranks 0..3 per sector, mostly 1 or 2, with uniform unit Schmidt
    vectors; sometimes one coefficient is negative, zero, too small or too
    large, huge, infinite or NaN."""
    ranks = draw(st.lists(st.sampled_from((0, 1, 1, 1, 2, 2, 3)),
                          min_size=n_tot + 1, max_size=n_tot + 1))
    lam = np.concatenate([np.full(r, 1 / np.sqrt(r)) for r in ranks if r] or [np.zeros(0)])
    if lam.size and draw(st.integers(0, 3)) == 0:
        lam[draw(st.integers(0, lam.size - 1))] = draw(st.sampled_from(
            (-0.5, 0.0, 0.5, 1.0 + 1e-9, 2.0, 1e200, np.inf, -np.inf, np.nan)))
    return ranks, lam


@st.composite
def _frame_state_inputs(draw):
    n_tot = draw(st.integers(0, 5))
    support = draw(st.lists(st.booleans(), min_size=n_tot + 1, max_size=n_tot + 1))
    amps = np.array(support, dtype=float)
    amps = amps / np.linalg.norm(amps) if amps.any() else np.eye(n_tot + 1)[0]
    return (n_tot, draw(_generators(5)), draw(_generators(5)), amps,
            *draw(_sector_data(n_tot)))


@settings(max_examples=300, deadline=None)
@given(inputs=_frame_state_inputs())
def test_frame_state_sector_checks_match_the_loop_reference(inputs):
    n_tot, gen_a, gen_b, amps, ranks, lam = inputs
    want = _sector_error(n_tot, gen_a, gen_b, amps, ranks, lam)
    if want is None:
        state = BipartiteFrameState(n_tot, gen_a, gen_b, amps, ranks, lam)
        start = 0
        for n, r in enumerate(ranks):
            sector = state.sector(n)
            if r == 0:
                assert sector is None
            else:
                np.testing.assert_array_equal(sector, lam[start:start + r])
                assert not sector.flags.writeable
            start += r
    else:
        with pytest.raises(ContractViolation) as err:
            BipartiteFrameState(n_tot, gen_a, gen_b, amps, ranks, lam)
        assert str(err.value) == want


@settings(max_examples=200, deadline=None)
@given(gen=_generators(8), probe=st.lists(st.integers(-2, 10), max_size=12))
def test_generator_starts_match_a_running_offset(gen, probe):
    offset, start = 0, {}
    for n, d in gen.levels:
        start[n] = offset
        offset += d
    assert gen.dim == offset
    present = [n for n in probe if n in start]
    np.testing.assert_array_equal(gen.starts(np.array(present, dtype=np.int64)),
                                  [start[n] for n in present])
    for n in probe:
        if n in start:
            assert gen.starts(n) == start[n]
            assert gen.level_slice(n) == slice(start[n], start[n] + dict(gen.levels)[n])
        else:
            with pytest.raises(ContractViolation, match=f"no level {n}$"):
                gen.level_slice(n)
            with pytest.raises(ContractViolation, match=f"no level {n}$"):
                gen.starts(present + [n])


def test_state_validation_makes_no_per_level_lookups(monkeypatch):
    def refuse(self, n):
        raise AssertionError("per-level slot lookup")
    lookups = []
    real = Generator.degeneracies
    monkeypatch.setattr(Generator, "level_slice", refuse)
    monkeypatch.setattr(Generator, "degeneracies",
                        lambda self, levels: lookups.append(np.size(levels)) or real(self, levels))
    assert flat_state(300).total == 300
    assert optimal_frameness_state(200, likelihood_cost(200)).total == 200
    g = Generator(((0, 2), (1, 2), (2, 2)))
    BipartiteFrameState(2, g, g, np.full(3, 1 / np.sqrt(3)), [1, 2, 1], [1.0, 0.6, 0.8, 1.0])
    assert lookups == [301, 301, 201, 201, 3, 3]   # one array lookup per side and state


def test_frame_state_amps_keep_phases():
    amps = np.array([1.0, 1.0j]) / np.sqrt(2)
    s = BipartiteFrameState(1, Generator.ladder(2), Generator.ladder(2), amps, [1, 1], [1.0, 1.0])
    np.testing.assert_allclose(s.amps, amps, atol=0)
    np.testing.assert_allclose(s.magnitudes(), [1 / np.sqrt(2)] * 2, atol=1e-15)


# ----------------------------------------------------------------- expand

def test_expand_flat_two_sectors_is_shared_pair():
    psi = expand(flat_state(1))
    np.testing.assert_allclose(psi.amplitudes,
                               [0, np.sqrt(0.5), np.sqrt(0.5), 0], atol=1e-15)


def test_expand_degenerate_frozen_layout():
    ga = Generator(((0, 1), (1, 2)))
    gb = Generator(((0, 2), (1, 1)))
    amps = np.array([0.8, 0.6j])
    s = BipartiteFrameState(1, ga, gb, amps, [2, 1], [0.6, 0.8, 1.0])
    psi = expand(s).amplitudes.reshape(3, 3)
    want = np.zeros((3, 3), dtype=complex)
    want[1, 0] = 0.8 * 0.6    # sector 0, first Schmidt pair
    want[2, 1] = 0.8 * 0.8    # sector 0, second pair
    want[0, 2] = 0.6j         # sector 1
    np.testing.assert_allclose(psi, want, atol=1e-15)


def _expand_by_sector(state):
    """Loop reference of expand: one sector and one Schmidt label at a time."""
    ga, gb = state.gen_a, state.gen_b
    psi = np.zeros((ga.dim, gb.dim), dtype=complex)
    for n in range(state.total + 1):
        e = state.amps[n]
        s = state.sector(n)
        if s is None or e == 0.0:
            continue
        sa = ga.level_slice(state.total - n)
        sb = gb.level_slice(n)
        for l, lam in enumerate(s):
            psi[sa.start + l, sb.start + l] = e * lam
    return psi.reshape(-1)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n_tot=st.integers(0, 7), max_deg=st.integers(1, 4),
       zeros=st.lists(st.integers(0, 7), max_size=3))
def test_expand_matches_the_per_sector_loop_reference(seed, n_tot, max_deg, zeros):
    s = random_frame_state(np.random.default_rng(seed), n_tot, max_deg)
    amps = s.amps.copy()
    amps[[z for z in zeros if z <= n_tot]] = 0.0   # unpopulated sectors write nothing
    if np.linalg.norm(amps) > 0.0:
        s = BipartiteFrameState(n_tot, s.gen_a, s.gen_b, amps / np.linalg.norm(amps),
                                s.ranks, s.lam)
    np.testing.assert_array_equal(expand(s).amplitudes, _expand_by_sector(s))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n_tot=st.integers(1, 5), max_deg=st.integers(1, 3))
def test_expand_gives_total_level_eigenstate(seed, n_tot, max_deg):
    s = random_frame_state(np.random.default_rng(seed), n_tot, max_deg)
    psi = expand(s)
    assert psi.is_unit()
    h = _total_op(s.gen_a, s.gen_b)
    np.testing.assert_allclose(h @ psi.amplitudes, n_tot * psi.amplitudes,
                               atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, phi=st.floats(-10, 10))
def test_expanded_state_only_picks_up_a_global_phase(seed, phi):
    s = random_frame_state(np.random.default_rng(seed), 3, 2)
    psi = expand(s).amplitudes
    u_a = np.exp(-1j * phi * s.gen_a.eigenvalues())
    u_b = np.exp(-1j * phi * s.gen_b.eigenvalues())
    np.testing.assert_allclose(np.kron(u_a, u_b) * psi,
                               np.exp(-1j * phi * s.total) * psi, atol=1e-12)


# ------------------------------------------------------------- magnitudes

@settings(max_examples=25, deadline=None)
@given(seed=seeds, n_tot=st.integers(1, 4), max_deg=st.integers(1, 3))
def test_sector_magnitudes_match_state(seed, n_tot, max_deg):
    s = random_frame_state(np.random.default_rng(seed), n_tot, max_deg)
    n_back, mags = sector_magnitudes(expand(s), s.gen_a, s.gen_b)
    assert n_back == n_tot
    np.testing.assert_allclose(mags, s.magnitudes(), atol=1e-12)


def test_sector_magnitudes_invariant_under_level_preserving_unitaries():
    gen = np.random.default_rng(314)
    s = random_frame_state(gen, 3, 3)
    psi = expand(s)
    _, base = sector_magnitudes(psi, s.gen_a, s.gen_b)
    for _ in range(20):
        u = np.kron(level_preserving_unitary(gen, s.gen_a),
                    level_preserving_unitary(gen, s.gen_b))
        _, mags = sector_magnitudes(Ket(u @ psi.amplitudes), s.gen_a, s.gen_b)
        np.testing.assert_allclose(mags, base, atol=1e-10)


def test_sector_magnitudes_handles_missing_levels():
    # Alice lacks level 1, so sector n = 1 of N = 2 cannot carry weight
    ga = Generator(((0, 1), (2, 1)))
    gb = Generator.ladder(3)
    psi = np.zeros((2, 3), dtype=complex)
    psi[1, 0] = psi[0, 2] = 1 / np.sqrt(2)
    n_tot, mags = sector_magnitudes(Ket(psi.reshape(-1)), ga, gb)
    assert n_tot == 2
    np.testing.assert_allclose(mags, [np.sqrt(0.5), 0.0, np.sqrt(0.5)], atol=1e-15)


def test_sector_magnitudes_rejects_non_eigenstate():
    g = Generator.ladder(2)
    with pytest.raises(NotInvariantState, match=r"level-sum support \[0, 2\]"):
        sector_magnitudes(Ket([1, 0, 0, 1]).normalized(), g, g)


@pytest.mark.parametrize("n_tot", [-2, -1])
def test_sector_magnitudes_refuses_a_negative_total_level(n_tot):
    psi, ga, gb = Ket([1.0]), Generator(((n_tot, 1),)), Generator.ladder(1)
    message = f"^total level {n_tot} has no sectors; sector form needs N >= 0$"
    with pytest.raises(ContractViolation, match=message):
        sector_magnitudes(psi, ga, gb)
    with pytest.raises(ContractViolation, match=message):
        frameness_of_ket(psi, ga, gb, variance_cost())


def test_sector_magnitudes_dimension_gate():
    g = Generator.ladder(2)
    with pytest.raises(ContractViolation):
        sector_magnitudes(Ket([1, 0, 0]), g, g)
