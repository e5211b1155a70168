import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framesync import (BipartiteFrameState, ContractViolation, CostFunction,
                       Generator, Ket, NotInvariantState, SchmidtSector, expand,
                       flat_state, ket, likelihood_cost, min_joint_cost,
                       sector_magnitudes, sine_state, single_sector_state,
                       tensor, optimal_frameness_state, variance_cost)
from framesync.config import cost_from_spec
from conftest import level_preserving_unitary, random_frame_state

seeds = st.integers(0, 2**32 - 1)


def _total_op(ga, gb):
    return (tensor(np.diag(ga.eigenvalues()), np.eye(gb.dim))
            + tensor(np.eye(ga.dim), np.diag(gb.eigenvalues())))


# ---------------------------------------------------------- named profiles

def test_flat_state_profile():
    s = flat_state(4)
    np.testing.assert_allclose(s.amps, np.full(5, 1 / np.sqrt(5)), atol=1e-15)
    assert s.total == 4 and s.sector(3).lam == (1.0,)


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
    # the variance cost has a tridiagonal band, likelihood(N) a constant one
    for n_tot in range(1, 513):
        for cost, want in ((variance_cost(), 2 - 2 * np.cos(np.pi / (n_tot + 2))),
                           (likelihood_cost(n_tot), -(n_tot + 1) / (2 * np.pi))):
            _, vecs = np.linalg.eigh(_toeplitz_cost_matrix(n_tot + 1, cost))
            got = optimal_frameness_state(n_tot, cost).magnitudes()
            np.testing.assert_allclose(got, np.abs(vecs[:, -1]), rtol=0, atol=1e-12)
            assert abs(min_joint_cost(got, cost) - want) <= 1e-12


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


def test_nondegenerate_states_share_their_sectors_and_ladder():
    a, b = flat_state(5), optimal_frameness_state(7, variance_cost())
    assert a.sector(3) is b.sector(3)
    assert Generator.ladder(8) is b.gen_a is b.gen_b is sine_state(7).gen_a


# ------------------------------------------------------------- validation

def test_schmidt_sector_validation():
    SchmidtSector(0, (0.6, 0.8))
    with pytest.raises(ContractViolation):
        SchmidtSector(0, ())
    with pytest.raises(ContractViolation):
        SchmidtSector(0, (-0.6, 0.8))
    with pytest.raises(ContractViolation):
        SchmidtSector(0, (0.6, 0.6))


def test_frame_state_validation():
    g = Generator.ladder(3)
    ok = tuple(SchmidtSector(n, (1.0,)) for n in range(3))
    amps = np.full(3, 1 / np.sqrt(3))
    BipartiteFrameState(2, g, g, amps, ok)
    with pytest.raises(ContractViolation):
        BipartiteFrameState(2, g, g, amps * 2, ok)            # norm
    with pytest.raises(ContractViolation):
        BipartiteFrameState(2, g, g, amps[:2], ok)            # shape
    with pytest.raises(ContractViolation):
        BipartiteFrameState(2, g, g, amps, ok[:2])            # missing sector 2
    with pytest.raises(ContractViolation):
        BipartiteFrameState(2, g, g, amps, ok + (SchmidtSector(0, (1.0,)),))
    with pytest.raises(ContractViolation):
        # rank 2 in a nondegenerate sector
        BipartiteFrameState(2, g, g, amps,
                            (SchmidtSector(0, (0.6, 0.8)),) + ok[1:])
    neg = Generator(((-1, 1), (0, 1), (1, 1)))
    with pytest.raises(ContractViolation, match="nonnegative levels"):
        BipartiteFrameState(2, neg, g, amps, ok)


@pytest.mark.parametrize("amps", [[np.nan, 0.0, 1.0], [np.nan] * 3,
                                  [complex(0.6, np.nan), 0.8, 0.0]])
def test_frame_state_rejects_nan_amplitudes(amps):
    g = Generator.ladder(3)
    ok = tuple(SchmidtSector(n, (1.0,)) for n in range(3))
    with pytest.raises(ContractViolation, match="unit sum of squares"):
        BipartiteFrameState(2, g, g, np.array(amps, dtype=complex), ok)


def _sector_error(n_tot, gen_a, gen_b, amps, sectors):
    """Loop reference of BipartiteFrameState's sector checks: the first
    failing message, or None."""
    by_level = {}
    for s in sectors:
        if not isinstance(s, SchmidtSector):
            return "sectors must be SchmidtSector values"
        if s.level in by_level:
            return f"duplicate sector level {s.level}"
        by_level[s.level] = s
    for n, s in by_level.items():
        if not 0 <= n <= n_tot:
            return f"sector level {n} outside 0..{n_tot}"
        da = dict(gen_a.levels).get(n_tot - n, 0)
        db = dict(gen_b.levels).get(n, 0)
        if da == 0 or db == 0:
            return f"sector {n} needs level {n_tot - n} on side A and level {n} on side B"
        if s.rank > min(da, db):
            return f"sector {n}: rank {s.rank} exceeds min degeneracy {min(da, db)}"
    for n in range(n_tot + 1):
        if abs(amps[n]) > 1e-12 and n not in by_level:
            return f"nonzero amplitude at sector {n} without Schmidt data"
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
def _sector_lists(draw, n_tot):
    """Sectors for every level 0..n_tot or for random levels, in random
    order, ranks 1..2, sometimes with a repeated level or a non-sector."""
    levels = draw(st.one_of(st.just(list(range(n_tot + 1))),
                            st.lists(st.integers(-1, 6), max_size=7, unique=True)))
    items = [SchmidtSector(n, (1 / np.sqrt(r),) * r)
             for n, r in zip(draw(st.permutations(levels)),
                             draw(st.lists(st.integers(1, 2), min_size=len(levels),
                                           max_size=len(levels))))]
    if items and draw(st.integers(0, 4)) == 0:
        items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(items)))
    if draw(st.integers(0, 4)) == 0:
        items.insert(draw(st.integers(0, len(items))), "not a sector")
    return items


@st.composite
def _frame_state_inputs(draw):
    n_tot = draw(st.integers(0, 5))
    support = draw(st.lists(st.booleans(), min_size=n_tot + 1, max_size=n_tot + 1))
    amps = np.array(support, dtype=float)
    amps = amps / np.linalg.norm(amps) if amps.any() else np.eye(n_tot + 1)[0]
    return (n_tot, draw(_generators(5)), draw(_generators(5)), amps,
            draw(_sector_lists(n_tot)))


@settings(max_examples=300, deadline=None)
@given(inputs=_frame_state_inputs())
def test_frame_state_sector_checks_match_the_loop_reference(inputs):
    n_tot, gen_a, gen_b, amps, sectors = inputs
    want = _sector_error(n_tot, gen_a, gen_b, amps, sectors)
    if want is None:
        state = BipartiteFrameState(n_tot, gen_a, gen_b, amps, tuple(sectors))
        assert all(state.sector(s.level) is s for s in sectors)
    else:
        with pytest.raises(ContractViolation) as err:
            BipartiteFrameState(n_tot, gen_a, gen_b, amps, tuple(sectors))
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
    BipartiteFrameState(2, g, g, np.full(3, 1 / np.sqrt(3)),
                        (SchmidtSector(0, (1.0,)), SchmidtSector(1, (0.6, 0.8)),
                         SchmidtSector(2, (1.0,))))
    assert lookups == [301, 301, 201, 201, 3, 3]   # one array lookup per side and state


def test_frame_state_amps_keep_phases():
    amps = np.array([1.0, 1.0j]) / np.sqrt(2)
    s = BipartiteFrameState(1, Generator.ladder(2), Generator.ladder(2), amps,
                            (SchmidtSector(0, (1.0,)), SchmidtSector(1, (1.0,))))
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
    s = BipartiteFrameState(1, ga, gb, amps,
                            (SchmidtSector(0, (0.6, 0.8)), SchmidtSector(1, (1.0,))))
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
        for l, lam in enumerate(s.lam):
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
        s = BipartiteFrameState(n_tot, s.gen_a, s.gen_b, amps / np.linalg.norm(amps), s.sectors)
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
        u = tensor(level_preserving_unitary(gen, s.gen_a),
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
        sector_magnitudes(ket([1, 0, 0, 1]).normalized(), g, g)


def test_sector_magnitudes_dimension_gate():
    g = Generator.ladder(2)
    with pytest.raises(ContractViolation):
        sector_magnitudes(ket([1, 0, 0]), g, g)
