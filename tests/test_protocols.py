import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framesync import (BipartiteFrameState, ContractViolation, DensityMatrix, Generator,
                       GroupTable, Ket, RandomSource, SchmidtSector,
                       SyncProtocol, alice_measure, basis_ket,
                       sector_form_residual, fidelity, fidelity_after_relay,
                       finite_group_align, flat_state, frameness,
                       frameness_of_ket, ket, likelihood_cost, min_joint_cost,
                       monte_carlo_cost, no_go_witness, optimal_frameness_state,
                       si_teleport, sine_state, single_sector_state, expand,
                       teleport_with_mismatch, tensor, variance_cost)
import framesync.protocols as protocols
from framesync.cli import main
from framesync.protocols import _rank_one_commutator_norm
from conftest import level_preserving_unitary, random_frame_state

TWO_PI = 2 * math.pi
seeds = st.integers(0, 2**32 - 1)


# --------------------------------------------------- Fourier measurement

def _dft_outcomes_by_loop(state):
    """Loop reference of _alice_outcomes: one Fourier row of Alice's space at
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
    protocols._alice_outcomes.cache_clear()
    probs, bob = protocols._alice_outcomes(state)
    want = _dft_outcomes_by_loop(state)
    assert probs.shape == (len(want),) and bob.shape == (len(want), state.gen_b.dim)
    for k, (p, bob_k) in enumerate(want):
        assert probs[k] == pytest.approx(p, abs=1e-12)
        np.testing.assert_allclose(bob[k], bob_k, atol=1e-12)


def test_alice_measure_shared_pair_frozen():
    probs, bob = alice_measure(flat_state(1))
    assert probs.shape == (2,) and bob.shape == (2, 2)
    plus = ket([1.0, 1.0]).normalized()
    minus = ket([1.0, -1.0]).normalized()
    for k, want in enumerate((plus, minus)):
        assert probs[k] == pytest.approx(0.5, abs=1e-12)
        assert abs(np.vdot(want.amplitudes, bob[k])) == pytest.approx(1.0, abs=1e-12)


def test_alice_measure_tables_are_read_only():
    # the pair is cached per state, so a write would poison every later caller
    state = flat_state(2)
    probs, bob = alice_measure(state)
    with pytest.raises(ValueError):
        probs[0] = 1.0
    with pytest.raises(ValueError):
        bob[0, 0] = 1.0
    assert alice_measure(state)[0] is probs
    np.testing.assert_allclose(probs, 1 / 3, atol=1e-12)


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
            for l, lam in enumerate(sec.lam):
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
    state = BipartiteFrameState(2, g, g, amps, (SchmidtSector(2, (0.6, 0.8)),
                                                SchmidtSector(0, (1.0, 0.0))))
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
    proto = SyncProtocol(optimal_frameness_state(6, variance_cost()))
    d_a, trials = proto.state.gen_a.dim, 7000
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


def test_sync_sim_enumerates_alice_outcomes_once_per_n(monkeypatch, capsys):
    protocols._alice_outcomes.cache_clear()
    assert main(["sync-sim", "--N-range", "2..4", "--trials", "200"]) == 0
    capsys.readouterr()
    info = protocols._alice_outcomes.cache_info()
    assert (info.misses, info.hits) == (3, 3)   # one evaluation per N, reused by the residual


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
    assert frameness(single_sector_state(3), c) == pytest.approx(-2.0, abs=1e-12)
    assert frameness(flat_state(3), c) > frameness(single_sector_state(3), c)


def test_frameness_ordering_of_named_profiles():
    c = variance_cost()
    for n_tot in (2, 5, 12):
        f_opt = frameness(optimal_frameness_state(n_tot, c), c)
        f_sine = frameness(sine_state(n_tot), c)
        f_flat = frameness(flat_state(n_tot), c)
        assert f_opt >= f_sine - 1e-12
        assert f_sine >= f_flat - 1e-12
        assert f_opt > f_flat


def test_frameness_of_ket_invariant_under_level_preserving_unitaries():
    gen = np.random.default_rng(2718)
    state = random_frame_state(gen, 3, 2)
    psi = expand(state)
    c = likelihood_cost(3)
    base = frameness_of_ket(psi, state.gen_a, state.gen_b, c)
    for _ in range(10):
        u = tensor(level_preserving_unitary(gen, state.gen_a),
                   level_preserving_unitary(gen, state.gen_b))
        moved = Ket(u @ psi.amplitudes)
        assert frameness_of_ket(moved, state.gen_a, state.gen_b, c) == \
            pytest.approx(base, abs=1e-10)


# ----------------------------------------------------------- teleportation

def test_si_teleport_coefficients_always_arrive():
    alpha = np.array([0.6, 0.8j])
    out = si_teleport(alpha, 2.2)
    np.testing.assert_allclose(np.abs(out.amplitudes), [0.6, 0.8], atol=1e-12)
    for phi in np.linspace(0, TWO_PI, 9):
        assert fidelity_after_relay(alpha, phi) == pytest.approx(1.0, abs=1e-12)


def test_teleport_plus_state_fidelity_curve():
    plus = ket([1.0, 1.0]).normalized()
    for phi in np.linspace(0.0, TWO_PI, 17):
        rho = teleport_with_mismatch(plus, phi)
        got = fidelity(rho, plus)
        assert got == pytest.approx(0.5 + 0.5 * math.cos(phi) ** 2, abs=1e-12)


def test_teleport_level_populations_never_suffer():
    for v in (basis_ket(2, 0), basis_ket(2, 1)):
        rho = teleport_with_mismatch(v, 2.31)
        assert fidelity(rho, v) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=20)
@given(seed=seeds)
def test_teleport_without_mismatch_is_exact(seed):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=2) + 1j * gen.normal(size=2)
    psi = ket(a).normalized()
    rho = teleport_with_mismatch(psi, 0.0)
    assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)


def test_teleport_qutrit_needs_matching_resource():
    qutrit = basis_ket(3, 1)
    rho = teleport_with_mismatch(qutrit, 0.3)
    assert fidelity(rho, qutrit) == pytest.approx(1.0, abs=1e-12)


def test_teleport_output_is_a_valid_density_matrix():
    plus = ket([1.0, 1.0]).normalized()
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
        psi = ket(gen.normal(size=d) + 1j * gen.normal(size=d)).normalized()
        phi = float(gen.uniform(0.0, TWO_PI))
        rho = teleport_with_mismatch(psi, phi)
        np.testing.assert_allclose(rho.entries, _teleport_by_outcome(psi.amplitudes, phi),
                                   atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_teleport_kernel_over_a_phase_grid_matches_the_per_outcome_protocol(d):
    gen = np.random.default_rng(70 + d)
    phis = np.concatenate([np.linspace(0.0, TWO_PI, 25), gen.uniform(-10.0, 10.0, 8)])
    for _ in range(3):
        psi = ket(gen.normal(size=d) + 1j * gen.normal(size=d)).normalized()
        stack = teleport_with_mismatch(psi, phis)
        assert isinstance(stack, DensityMatrix) and stack.dim == d
        assert stack.entries.shape == (phis.size, d, d) and not stack.entries.flags.writeable
        for phi, rho in zip(phis, stack.entries):
            np.testing.assert_allclose(rho, _teleport_by_outcome(psi.amplitudes, phi),
                                       atol=1e-12)


def test_teleport_grid_runs_the_density_checks_on_every_phase(monkeypatch):
    plus = ket([1.0, 1.0]).normalized()
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
    plus = ket([1.0, 1.0]).normalized()
    bell = ket([0.0, 1.0, 1.0, 0.0]).normalized()
    rep = no_go_witness(plus, _ladder2(), bell, _ladder2(), _ladder2())
    assert rep.levels == (-1, 0, 1)
    np.testing.assert_allclose(rep.weights, (0.25, 0.5, 0.25), atol=1e-12)
    assert rep.l_max == 1
    assert rep.invariance_residual < 1e-12
    assert rep.input_ui_norm == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert rep.passes()


def test_witness_weights_sum_to_one():
    state = random_frame_state(np.random.default_rng(6), 2, 2)
    psi0 = ket([0.5, 0.5, 0.5, 0.5])
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
    psi0 = ket(a).normalized()
    rep = no_go_witness(psi0, Generator.ladder(3), expand(state),
                        state.gen_a, state.gen_b)
    assert rep.invariance_residual < 1e-10


def test_witness_invariant_input_has_zero_ui_norm():
    zero = basis_ket(2, 0)
    bell = ket([0.0, 1.0, 1.0, 0.0]).normalized()
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
    plus = ket([1.0, 1.0]).normalized()
    bell = ket([0.0, 1.0, 1.0, 0.0]).normalized()
    with pytest.raises(ContractViolation):
        no_go_witness(plus, Generator.ladder(3), bell, _ladder2(), _ladder2())
    with pytest.raises(ContractViolation):
        no_go_witness(plus, _ladder2(), ket([1.0, 0.0]), _ladder2(), _ladder2())


# ------------------------------------------------------------ finite groups

def test_cyclic_group_table():
    g = GroupTable.cyclic(5)
    assert g.order == 5 and g.identity == 0
    assert g.mul(2, 4) == 1
    assert g.inverse(3) == 2
    assert g.mul(3, g.inverse(3)) == g.identity


def test_group_table_rejects_broken_axioms():
    with pytest.raises(ContractViolation):
        GroupTable(((0, 1),))                                  # not square
    with pytest.raises(ContractViolation):
        GroupTable(((0, 1), (1, 5)))                           # out of range
    with pytest.raises(ContractViolation):
        GroupTable(((1, 0), (0, 0)))                           # no identity
    with pytest.raises(ContractViolation):
        GroupTable(((0, 1, 2), (1, 0, 0), (2, 0, 1)))          # not associative


def _group_axiom_error(table):
    """Loop reference of GroupTable's checks: the first failing message, or None."""
    t = tuple(tuple(int(x) for x in row) for row in table)
    d = len(t)
    if d == 0 or any(len(row) != d for row in t):
        return "table must be square and nonempty"
    if any(not 0 <= x < d for row in t for x in row):
        return "table entries must be element indices"
    identity = next((e for e in range(d)
                     if all(t[e][x] == x and t[x][e] == x for x in range(d))), None)
    if identity is None:
        return "table has no identity element"
    for a in range(d):
        if identity not in t[a]:
            return f"element {a} has no inverse"
    for a in range(d):
        for b in range(d):
            for c in range(d):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return f"associativity fails at ({a}, {b}, {c})"
    return None


_KLEIN = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
_S3 = ((0, 1, 2, 3, 4, 5), (1, 0, 4, 5, 2, 3), (2, 5, 0, 4, 3, 1),   # permutations
       (3, 4, 5, 0, 1, 2), (4, 3, 1, 2, 5, 0), (5, 2, 3, 1, 0, 4))    # of 3 points


@st.composite
def _near_group_tables(draw):
    """A relabelled group table (cyclic, Klein, S3) with up to three entries
    overwritten, sometimes including out-of-range values or a short row."""
    base = draw(st.sampled_from(
        [tuple(tuple((a + b) % n for b in range(n)) for a in range(n)) for n in range(1, 6)]
        + [_KLEIN, _S3]))
    d = len(base)
    perm = draw(st.permutations(range(d)))
    t = [[0] * d for _ in range(d)]
    for a in range(d):
        for b in range(d):
            t[perm[a]][perm[b]] = perm[base[a][b]]
    for _ in range(draw(st.integers(0, 3))):
        t[draw(st.integers(0, d - 1))][draw(st.integers(0, d - 1))] = draw(st.integers(-1, d))
    if draw(st.integers(0, 9)) == 0:
        t[draw(st.integers(0, d - 1))].pop()
    return tuple(tuple(row) for row in t)


@settings(max_examples=300, deadline=None)
@given(table=_near_group_tables())
def test_group_table_checks_match_the_loop_reference(table):
    want = _group_axiom_error(table)
    if want is None:
        group = GroupTable(table)
        assert group.table == table
        assert all(group.mul(a, group.inverse(a)) == group.identity for a in range(group.order))
    else:
        with pytest.raises(ContractViolation) as err:
            GroupTable(table)
        assert str(err.value) == want


def test_group_table_reports_the_first_failing_triple():
    # S3 with one product changed: many triples fail, the first in (a, b, c) order is named
    t = [list(row) for row in _S3]
    t[2][3] = 5
    with pytest.raises(ContractViolation) as err:
        GroupTable(tuple(tuple(row) for row in t))
    assert str(err.value) == "associativity fails at (1, 2, 3)" == _group_axiom_error(t)


@pytest.mark.parametrize("order", [2, 3, 5, 8])
def test_finite_group_alignment_is_exact(order):
    group = GroupTable.cyclic(order)
    root = RandomSource(31).split(order)
    for g in range(order):
        gen = root.split(g).generator()
        for _ in range(50):
            assert finite_group_align(group, g, gen) == g


def test_align_run_checks_its_group_once(monkeypatch, capsys):
    calls = []
    check = GroupTable.__post_init__
    monkeypatch.setattr(GroupTable, "__post_init__",
                        lambda self: (calls.append(1), check(self))[1])
    protocols._correlated_state.cache_clear()
    assert main(["align", "--d", "16", "--trials", "2"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_finite_group_align_input_gate():
    with pytest.raises(ContractViolation):
        finite_group_align(GroupTable.cyclic(3), 3, RandomSource(0).generator())
