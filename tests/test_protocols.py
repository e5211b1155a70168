import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framesync import (BipartiteFrameState, ContractViolation, DensityMatrix, Generator,
                       Ket, RandomSource, SyncProtocol, alice_measure,
                       sector_form_residual, fidelity, fidelity_after_relay,
                       finite_group_align, flat_state, likelihood_cost, min_joint_cost,
                       monte_carlo_cost, no_go_witness, optimal_frameness_state,
                       sector_magnitudes, si_teleport, sine_state, single_sector_state,
                       expand, teleport_with_mismatch, variance_cost)
import framesync.cli as cli
import framesync.core as core
import framesync.protocols as protocols
from framesync.cli import main
from framesync.core import measure
from framesync.protocols import _rank_one_commutator_norm
from conftest import level_preserving_unitary, random_frame_state, unit_ket

TWO_PI = 2 * math.pi
seeds = st.integers(0, 2**32 - 1)


# --------------------------------------------------- Fourier measurement

def _dft_outcomes_by_loop(state):
    """Loop reference of alice_measure: one Fourier row of Alice's space at
    a time, projected onto the shared state.  Item k is outcome k's
    (probability, Bob's normalized state)."""
    d_a = state.gen_a.dim
    psi = expand(state).amplitudes.reshape(d_a, state.gen_b.dim)
    outcomes = []
    for k in range(d_a):
        row = np.array([np.exp(2j * np.pi * k * a / d_a) for a in range(d_a)]) / math.sqrt(d_a)
        cond = row.conj() @ psi
        p = float(np.vdot(cond, cond).real)
        outcomes.append((p, cond / math.sqrt(p)))
    return outcomes


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n_tot=st.integers(1, 4), max_deg=st.integers(1, 3))
def test_alice_outcomes_match_the_dft_loop_reference(seed, n_tot, max_deg):
    state = random_frame_state(np.random.default_rng(seed), n_tot, max_deg)
    probs, bob = alice_measure(state)
    want = _dft_outcomes_by_loop(state)
    assert probs.shape == (len(want),) and bob.shape == (len(want), state.gen_b.dim)
    for k, (p, bob_k) in enumerate(want):
        assert probs[k] == pytest.approx(p, abs=1e-12)
        np.testing.assert_allclose(bob[k], bob_k, atol=1e-12)


def test_alice_measure_shared_pair_frozen():
    probs, bob = alice_measure(flat_state(1))
    assert probs.shape == (2,) and bob.shape == (2, 2)
    plus = unit_ket([1.0, 1.0])
    minus = unit_ket([1.0, -1.0])
    for k, want in enumerate((plus, minus)):
        assert probs[k] == pytest.approx(0.5, abs=1e-12)
        assert abs(np.vdot(want.amplitudes, bob[k])) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n_tot=st.integers(1, 4), max_deg=st.integers(1, 3))
def test_alice_measure_uniform_probabilities(seed, n_tot, max_deg):
    state = random_frame_state(np.random.default_rng(seed), n_tot, max_deg)
    probs, _ = alice_measure(state)
    d_a = state.gen_a.dim
    assert probs.shape == (d_a,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(probs, 1 / d_a, atol=1e-12)   # uniform by construction


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n_tot=st.integers(1, 4), max_deg=st.integers(1, 3))
def test_every_outcome_leaves_bob_with_the_joint_profile(seed, n_tot, max_deg):
    state = random_frame_state(np.random.default_rng(seed), n_tot, max_deg)
    gb = state.gen_b
    want = state.magnitudes()
    for bob_k in alice_measure(state)[1]:
        mags = np.array([np.linalg.norm(bob_k[gb.level_slice(n)]) for n in range(n_tot + 1)])
        np.testing.assert_allclose(mags, want, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n_tot=st.integers(1, 4), max_deg=st.integers(1, 3))
def test_collapsed_states_match_sector_form(seed, n_tot, max_deg):
    state = random_frame_state(np.random.default_rng(seed), n_tot, max_deg)
    assert sector_form_residual(state) < 1e-12


def _residual_by_outcome(state, bob):
    """Loop reference of sector_form_residual, one outcome and Schmidt pair at
    a time: Bob's slot (n, l) carries e_n lam_{n,l} exp(-2 pi i k s / d_A),
    with s Alice's slot paired with it.  Row k of ``bob`` is outcome k."""
    ga, gb = state.gen_a, state.gen_b
    worst = 0.0
    for k, bob_k in enumerate(bob):
        predicted = np.zeros(gb.dim, dtype=complex)
        for n in range(state.total + 1):
            sec = state.sector(n)
            if sec is None or state.amps[n] == 0.0:
                continue
            sa, sb = ga.level_slice(state.total - n), gb.level_slice(n)
            for l, lam in enumerate(sec):
                phase = np.exp(-2j * np.pi * k * (sa.start + l) / ga.dim)
                predicted[sb.start + l] = state.amps[n] * lam * phase
        predicted /= np.linalg.norm(predicted)
        overlap = np.vdot(predicted, bob_k)
        align = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
        worst = max(worst, float(np.linalg.norm(bob_k - align * predicted)))
    return worst


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n_tot=st.integers(1, 5), max_deg=st.integers(1, 3))
def test_sector_form_residual_matches_the_per_outcome_loop(seed, n_tot, max_deg):
    state = random_frame_state(np.random.default_rng(seed), n_tot, max_deg)
    probs, bob = alice_measure(state)
    assert sector_form_residual(state) == pytest.approx(
        _residual_by_outcome(state, bob), abs=1e-12)
    # Bob's states handed to the wrong outcomes: a large residual, the same in both
    shifted = (probs, np.roll(bob, -1, axis=0))
    want = _residual_by_outcome(state, shifted[1])
    original = protocols.alice_measure
    protocols.alice_measure = lambda s: shifted
    try:
        got = sector_form_residual(state)
    finally:
        protocols.alice_measure = original
    assert got == pytest.approx(want, abs=1e-12)


def test_sector_form_residual_skips_empty_sectors():
    g = Generator(((0, 2), (1, 1), (2, 2)))
    amps = np.array([0.6, 0.0, 0.8j])
    state = BipartiteFrameState(2, g, g, amps, [2, 0, 2], [1.0, 0.0, 0.6, 0.8])
    assert sector_form_residual(state) < 1e-12
    assert sector_form_residual(state) == pytest.approx(
        _residual_by_outcome(state, alice_measure(state)[1]), abs=1e-12)


def test_per_outcome_cost_equals_joint_optimum():
    state = random_frame_state(np.random.default_rng(77), 3, 3)
    cost = variance_cost()
    joint = min_joint_cost(state.magnitudes(), cost)
    gb = state.gen_b
    for bob_k in alice_measure(state)[1]:
        mags = np.array([np.linalg.norm(bob_k[gb.level_slice(n)]) for n in range(state.total + 1)])
        assert min_joint_cost(mags, cost) == pytest.approx(joint, abs=1e-12)


# ------------------------------------------------------------ sync trials

def test_sync_trial_replays_and_stays_in_range():
    state = flat_state(3)
    src = RandomSource(4, (2,))
    a = SyncProtocol(state).trial(1.2, src.generator())
    b = SyncProtocol(state).trial(1.2, src.generator())
    assert a == b
    assert 0.0 <= a[0] < TWO_PI


def test_sync_protocol_rejects_nothing_but_reuses_density():
    proto = SyncProtocol(sine_state(4))
    gen = RandomSource(9).generator()
    for _ in range(50):
        phi_hat, k = proto.trial(0.0, gen)
        assert 0.0 <= phi_hat < TWO_PI
        assert 0 <= k < 5


def test_sync_trial_reports_a_uniform_outcome_index():
    # Alice's message is the number k; each of the d_A outcomes has probability 1/d_A
    state = optimal_frameness_state(6, variance_cost())
    proto = SyncProtocol(state)
    d_a, trials = state.gen_a.dim, 7000
    gen = RandomSource(3).generator()
    ks = [proto.trial(0.5, gen)[1] for _ in range(trials)]
    assert all(type(k) is int and 0 <= k < d_a for k in ks)
    sigma = math.sqrt(trials * (1 / d_a) * (1 - 1 / d_a))
    assert np.abs(np.bincount(ks, minlength=d_a) - trials / d_a).max() <= 5 * sigma


def test_monte_carlo_cost_hits_the_formula():
    state = flat_state(4)
    mean, sem = monte_carlo_cost(state, variance_cost(), 4000, RandomSource(12))
    assert sem < 0.05
    assert abs(mean - 0.4) < 4 * sem


def test_monte_carlo_cost_runs_one_protocol_trial_per_trial(monkeypatch):
    calls = []
    original = SyncProtocol.trial

    def counted(self, phi_true, rng):
        calls.append(phi_true)
        return original(self, phi_true, rng)

    monkeypatch.setattr(SyncProtocol, "trial", counted)
    monte_carlo_cost(flat_state(2), variance_cost(), 2500, RandomSource(6))
    assert len(calls) == 2500


def test_monte_carlo_cost_coverage_over_many_seeds():
    # 4-sigma misses should be rare: demand at least 95 hits in 100 runs
    state = flat_state(2)
    cost = variance_cost()
    want = min_joint_cost(state.magnitudes(), cost)
    hits = 0
    for seed in range(100):
        mean, sem = monte_carlo_cost(state, cost, 500, RandomSource(seed))
        hits += abs(mean - want) <= 4 * sem
    assert hits >= 95


def test_monte_carlo_cost_input_gates():
    state = flat_state(2)
    with pytest.raises(ContractViolation):
        monte_carlo_cost(state, variance_cost(), 50, RandomSource(0))
    with pytest.raises(ContractViolation):
        monte_carlo_cost(state, variance_cost(), 200, np.random.default_rng(0))


# -------------------------------------------------------------- frameness

def test_single_sector_state_has_least_frameness():
    c = variance_cost()
    single = -min_joint_cost(single_sector_state(3).magnitudes(), c)
    assert single == pytest.approx(-2.0, abs=1e-12)
    assert -min_joint_cost(flat_state(3).magnitudes(), c) > single


def test_frameness_ordering_of_named_profiles():
    c = variance_cost()
    for n_tot in (2, 5, 12):
        f_opt = -min_joint_cost(optimal_frameness_state(n_tot, c).magnitudes(), c)
        f_sine = -min_joint_cost(sine_state(n_tot).magnitudes(), c)
        f_flat = -min_joint_cost(flat_state(n_tot).magnitudes(), c)
        assert f_opt >= f_sine - 1e-12
        assert f_sine >= f_flat - 1e-12
        assert f_opt > f_flat


def test_frameness_of_ket_invariant_under_level_preserving_unitaries():
    gen = np.random.default_rng(2718)
    state = random_frame_state(gen, 3, 2)
    psi = expand(state)
    c = likelihood_cost(3)
    base = -min_joint_cost(sector_magnitudes(psi, state.gen_a, state.gen_b)[1], c)
    for _ in range(10):
        u = np.kron(level_preserving_unitary(gen, state.gen_a),
                    level_preserving_unitary(gen, state.gen_b))
        moved = Ket(u @ psi.amplitudes)
        got = -min_joint_cost(sector_magnitudes(moved, state.gen_a, state.gen_b)[1], c)
        assert got == pytest.approx(base, abs=1e-10)


# ----------------------------------------------------------- teleportation

def test_si_teleport_coefficients_always_arrive():
    alpha = np.array([0.6, 0.8j])
    out = si_teleport(alpha, 2.2)
    np.testing.assert_allclose(np.abs(out.amplitudes), [0.6, 0.8], atol=1e-12)
    for phi in np.linspace(0, TWO_PI, 9):
        assert fidelity_after_relay(alpha, phi) == pytest.approx(1.0, abs=1e-12)


def test_teleport_plus_state_fidelity_curve():
    plus = unit_ket([1.0, 1.0])
    for phi in np.linspace(0.0, TWO_PI, 17):
        rho = teleport_with_mismatch(plus, phi)
        got = fidelity(rho, plus)
        assert got == pytest.approx(0.5 + 0.5 * math.cos(phi) ** 2, abs=1e-12)


def test_teleport_level_populations_never_suffer():
    for v in (Ket(np.eye(2)[0]), Ket(np.eye(2)[1])):
        rho = teleport_with_mismatch(v, 2.31)
        assert fidelity(rho, v) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=20)
@given(seed=seeds)
def test_teleport_without_mismatch_is_exact(seed):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=2) + 1j * gen.normal(size=2)
    psi = unit_ket(a)
    rho = teleport_with_mismatch(psi, 0.0)
    assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)


def test_teleport_qutrit_needs_matching_resource():
    qutrit = Ket(np.eye(3)[1])
    rho = teleport_with_mismatch(qutrit, 0.3)
    assert fidelity(rho, qutrit) == pytest.approx(1.0, abs=1e-12)


def test_teleport_output_is_a_valid_density_matrix():
    plus = unit_ket([1.0, 1.0])
    rho = teleport_with_mismatch(plus, 1.0)
    assert isinstance(rho, DensityMatrix)   # constructor already validates


def _shift_clock(d):
    x = np.roll(np.eye(d), 1, axis=0)                    # X|j> = |j+1 mod d>
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return x, z


def _teleport_by_outcome(psi, phi):
    """One Bell outcome at a time: project, normalize, correct in Bob's frame."""
    d = psi.size
    x, z = _shift_clock(d)
    u_phi = np.diag(np.exp(-1j * phi * np.arange(d)))
    phi_plus = np.eye(d).reshape(-1) / math.sqrt(d)
    joint = np.kron(psi, phi_plus).reshape(d * d, d)
    rho = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            c = np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            row = (np.kron(c, np.eye(d)) @ phi_plus).conj() @ joint
            p = float(np.vdot(row, row).real)
            if p <= 0.0:
                continue
            out = u_phi @ c @ u_phi.conj().T @ (row / math.sqrt(p))
            rho += p * np.outer(out, out.conj())
    return rho


@pytest.mark.parametrize("d", [5, 8])
def test_teleport_matches_the_per_outcome_protocol(d):
    gen = np.random.default_rng(40 + d)
    for _ in range(5):
        psi = unit_ket(gen.normal(size=d) + 1j * gen.normal(size=d))
        phi = float(gen.uniform(0.0, TWO_PI))
        rho = teleport_with_mismatch(psi, phi)
        np.testing.assert_allclose(rho.entries, _teleport_by_outcome(psi.amplitudes, phi),
                                   atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_teleport_kernel_over_a_phase_grid_matches_the_per_outcome_protocol(d):
    gen = np.random.default_rng(70 + d)
    phis = np.concatenate([np.linspace(0.0, TWO_PI, 25), gen.uniform(-10.0, 10.0, 8)])
    for _ in range(3):
        psi = unit_ket(gen.normal(size=d) + 1j * gen.normal(size=d))
        stack = teleport_with_mismatch(psi, phis)
        assert isinstance(stack, DensityMatrix) and stack.dim == d
        assert stack.entries.shape == (phis.size, d, d) and not stack.entries.flags.writeable
        for phi, rho in zip(phis, stack.entries):
            np.testing.assert_allclose(rho, _teleport_by_outcome(psi.amplitudes, phi),
                                       atol=1e-12)


def test_teleport_grid_runs_the_density_checks_on_every_phase(monkeypatch):
    plus = unit_ket([1.0, 1.0])
    with pytest.raises(ContractViolation, match="phase must be finite"):
        teleport_with_mismatch(plus, np.array([0.0, np.nan]))
    with pytest.raises(ContractViolation, match="1-d"):
        teleport_with_mismatch(plus, np.zeros((2, 2)))
    checked = []
    real = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        lambda self: checked.append(np.shape(self.entries)) or real(self))
    teleport_with_mismatch(plus, np.linspace(0.0, 1.0, 7))
    assert checked == [(7, 2, 2)]


def test_relay_over_a_phase_grid_gates_the_coefficients_once():
    alpha = np.array([0.6, 0.8j])
    phis = np.linspace(0.0, TWO_PI, 9)
    rows = si_teleport(alpha, phis)
    assert rows.shape == (9, 2)
    for phi, row in zip(phis, rows):
        np.testing.assert_allclose(row, si_teleport(alpha, phi).amplitudes, atol=1e-15)
    fids = fidelity_after_relay(alpha, phis)
    np.testing.assert_allclose(fids, [fidelity_after_relay(alpha, p) for p in phis], atol=1e-15)
    with pytest.raises(ContractViolation, match="normalized"):
        fidelity_after_relay([1.0, 1.0], phis)


# ---------------------------------------------------------------- witness

def _ladder2():
    return Generator.ladder(2)


def test_witness_shared_pair_frozen_report():
    plus = unit_ket([1.0, 1.0])
    bell = unit_ket([0.0, 1.0, 1.0, 0.0])
    rep = no_go_witness(plus, _ladder2(), bell, _ladder2(), _ladder2())
    assert rep.levels == (-1, 0, 1)
    np.testing.assert_allclose(rep.weights, (0.25, 0.5, 0.25), atol=1e-12)
    assert rep.l_max == 1
    assert rep.invariance_residual < 1e-12
    assert rep.input_ui_norm == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert rep.passes()


def test_witness_weights_sum_to_one():
    state = random_frame_state(np.random.default_rng(6), 2, 2)
    psi0 = Ket([0.5, 0.5, 0.5, 0.5])
    rep = no_go_witness(psi0, Generator.ladder(4), expand(state),
                        state.gen_a, state.gen_b)
    assert sum(rep.weights) == pytest.approx(1.0, abs=1e-10)
    assert rep.l_max == max(rep.levels)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n_tot=st.integers(1, 3), max_deg=st.integers(1, 2))
def test_witness_top_component_always_commutes(seed, n_tot, max_deg):
    gen = np.random.default_rng(seed)
    state = random_frame_state(gen, n_tot, max_deg)
    a = gen.normal(size=3) + 1j * gen.normal(size=3)
    psi0 = unit_ket(a)
    rep = no_go_witness(psi0, Generator.ladder(3), expand(state),
                        state.gen_a, state.gen_b)
    assert rep.invariance_residual < 1e-10


def test_witness_invariant_input_has_zero_ui_norm():
    zero = Ket(np.eye(2)[0])
    bell = unit_ket([0.0, 1.0, 1.0, 0.0])
    rep = no_go_witness(zero, _ladder2(), bell, _ladder2(), _ladder2())
    assert rep.input_ui_norm == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [5, 40, 300])
def test_rank_one_residual_is_the_dense_commutator_norm(n):
    gen = np.random.default_rng(n)
    for _ in range(3):
        v = gen.normal(size=n) + 1j * gen.normal(size=n)
        diag = gen.normal(size=n) * 10.0
        dense = np.outer(v, v.conj()) * (diag[None, :] - diag[:, None])
        want = np.linalg.norm(dense, 2)
        assert _rank_one_commutator_norm(v, diag) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("c", [1.0, 3.0, 17.0, 40.0, 64.0])
def test_rank_one_residual_vanishes_on_constant_diagonal(c):
    # the witness's top component sees Bob's generator as one constant level;
    # a residual that cancels two large numbers would leave ~1e-4 here
    gen = np.random.default_rng(int(c))
    for n, support in ((2, 1), (23, 9), (200, 120)):
        top = np.zeros(n, dtype=complex)
        top[:support] = gen.normal(size=support) + 1j * gen.normal(size=support)
        top /= np.linalg.norm(top)
        diag = gen.integers(0, 65, size=n).astype(float)
        diag[:support] = c
        assert _rank_one_commutator_norm(top, diag) <= 1e-12


def test_witness_dimension_gates():
    plus = unit_ket([1.0, 1.0])
    bell = unit_ket([0.0, 1.0, 1.0, 0.0])
    with pytest.raises(ContractViolation):
        no_go_witness(plus, Generator.ladder(3), bell, _ladder2(), _ladder2())
    with pytest.raises(ContractViolation):
        no_go_witness(plus, _ladder2(), Ket([1.0, 0.0]), _ladder2(), _ladder2())


# ------------------------------------------------------------ finite groups

@pytest.mark.parametrize("order", [2, 3, 5, 8])
def test_finite_group_alignment_is_exact(order):
    root = RandomSource(31).split(order)
    for g in range(order):
        estimates = finite_group_align(order, g, 50, root.split(g).generator())
        assert estimates.shape == (50,)
        assert (estimates == g).all()


def _align_by_shots(d, mismatch, trials, rng):
    """Per-shot reference of finite_group_align: two core.measure calls per
    attempt, Alice's then Bob's, on the same stream."""
    state = protocols._correlated_state(d, mismatch)
    estimates = []
    for _ in range(trials):
        a_out, posterior, _ = measure(state, d, rng)
        b_out, _, _ = measure(posterior, d, rng)
        estimates.append((b_out - a_out) % d)
    return np.array(estimates)


class _Draws:
    """Stand-in for a numpy Generator that hands out fixed uniform draws in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        out, self.values = self.values[:n], self.values[n:]
        return out[0] if size is None else np.array(out).reshape(size)


def _lopsided_state(d):
    """A unit ket on d x d slots with an empty last row and column and a norm
    just under 1: both parties' cumulative sums can stop below a draw, and
    the outcome d - 1 they then clamp to has probability 0."""
    amps = np.random.default_rng(d).normal(size=(d, d, 2)) @ np.array([1, 1j])
    amps[-1, :] = amps[:, -1] = 0.0
    return Ket(amps.reshape(-1) * (1 - 1e-13) / np.linalg.norm(amps))


@pytest.mark.parametrize("d", [2, 5, 16, 64], ids=lambda d: f"order{d}")
def test_align_block_matches_the_per_shot_reference(d, monkeypatch):
    root = RandomSource(4242).split(d)
    for g in range(d):
        block_rng, shot_rng = root.split(g).generator(), root.split(g).generator()
        block = finite_group_align(d, g, 20, block_rng)
        np.testing.assert_array_equal(block, _align_by_shots(d, g, 20, shot_rng))
        assert block_rng.bit_generator.state == shot_rng.bit_generator.state

    # On the correlated state every draw gives the exact estimate; on a
    # lopsided shared state the estimate depends on both outcomes, so equal
    # arrays mean equal outcomes, draw by draw, edge rules included.
    lopsided = _lopsided_state(d)
    monkeypatch.setattr(protocols, "_correlated_state", lambda order, mismatch: lopsided)
    block_rng, shot_rng = root.generator(), root.generator()
    np.testing.assert_array_equal(finite_group_align(d, 0, 300, block_rng),
                                  _align_by_shots(d, 0, 300, shot_rng))
    # draws 0, j/d and the largest float below 1, each against the others
    last = np.nextafter(1.0, 0.0)
    edges = [0.0, last] + [j / d for j in range(1, d)]
    draws = [u for e in edges for u in (e, last, last, e, e, e)]
    # draws equal to a cumulative sum, where side="right" decides: Alice's
    # sum before row r selects r, and Bob's draw hits a sum of that row
    psi = lopsided.amplitudes.reshape(d, d)
    p_a = np.einsum("ij,ij->i", psi, psi.conj()).real
    cum_a = np.concatenate(([0.0], np.cumsum(p_a)))
    for r in range(d - 1):
        posterior = psi[r] / np.sqrt(p_a[r])
        cum_b = np.cumsum((posterior * posterior.conj()).real)
        draws += [u for k in sorted({0, 1, d // 2, d - 2}) for u in (cum_a[r], cum_b[k])]
    np.testing.assert_array_equal(finite_group_align(d, 0, len(draws) // 2, _Draws(draws)),
                                  _align_by_shots(d, 0, len(draws) // 2, _Draws(draws)))


def test_align_makes_one_block_per_mismatch_and_no_measure_call(monkeypatch, capsys):
    blocks, shots = [], []
    block = cli.finite_group_align
    monkeypatch.setattr(cli, "finite_group_align",
                        lambda *a: (blocks.append(a[1]), block(*a))[1])
    for module in (core, protocols, cli):
        if getattr(module, "measure", None) is core.measure:
            monkeypatch.setattr(module, "measure", lambda *a: shots.append(1))
    assert main(["align", "--d", "16", "--trials", "2"]) == 0
    capsys.readouterr()
    assert blocks == list(range(16)) and shots == []


def test_finite_group_align_input_gate():
    for order, mismatch, trials in ((3, 3, 1), (3, -1, 1), (3, 0, 0), (3, 0, -5),
                                    (0, 0, 1), (-1, 0, 1)):
        rng = RandomSource(0).generator()
        before = rng.bit_generator.state
        with pytest.raises(ContractViolation):
            finite_group_align(order, mismatch, trials, rng)
        assert rng.bit_generator.state == before      # refused before any draw
