"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single [acceptance] PASS/FAIL line with its runtime; the
budgets are part of the criteria and are asserted, not advisory.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import framesync.estimation
import framesync.states
from framesync import (EstimateDensity, GroupTable, RandomSource, alice_measure,
                       brute_force_min_cost, expand,
                       fidelity, finite_group_align, flat_state, frameness,
                       frameness_of_ket, ket, likelihood_cost,
                       min_joint_cost, monte_carlo_cost,
                       no_go_witness, optimal_frameness_state, sine_state,
                       teleport_with_mismatch, tensor, variance_cost,
                       Generator, Ket)
from framesync.cli import main
from conftest import level_preserving_unitary, random_frame_state, random_unit

TWO_PI = 2 * math.pi


@contextmanager
def criterion(name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if dt >= budget_s:
            raise AssertionError(
                f"{name} exceeded its {budget_s:.0f} s budget: {dt:.1f} s")
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({dt:.2f} s)")


def test_criterion_01_brute_force_oracle_matches_formula():
    with criterion("minimum-cost formula vs seed-search oracle", 30):
        cost = variance_cost()
        gen = np.random.default_rng(101)
        for _ in range(10):
            e = random_unit(gen, 3)
            want = min_joint_cost(e, cost)
            got = brute_force_min_cost(e, cost)
            assert abs(got - want) <= 1e-3
        for _ in range(5):
            e = random_unit(gen, 4)
            want = min_joint_cost(e, cost)
            got = brute_force_min_cost(e, cost, rng=RandomSource(55).generator())
            assert abs(got - want) <= 1e-3


def test_criterion_01_oracle_is_independent_of_the_closed_forms(monkeypatch):
    with criterion("seed-search oracle without closed forms or eigensolves", 30):
        cases = [(variance_cost(), 8, 2 - 2 * math.cos(math.pi / 10)),
                 (likelihood_cost(13), 13, -14 / TWO_PI)]
        states = [(optimal_frameness_state(n, cost), cost, want) for cost, n, want in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle reached the closed form or an eigensolve")

        monkeypatch.setattr(framesync.states, "optimal_frameness_state", refuse)
        monkeypatch.setattr(framesync.estimation, "min_joint_cost", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for state, cost, want in states:
            got = brute_force_min_cost(state.amps, cost, rng=RandomSource(55).generator())
            assert want - 1e-12 <= got <= want + 1e-3


def test_criterion_02_heisenberg_vs_linear_scaling():
    with criterion("Heisenberg vs linear cost scaling", 10):
        cost = variance_cost()
        for n in range(1, 65):
            got = min_joint_cost(optimal_frameness_state(n, cost).magnitudes(), cost)
            assert abs(got - (2 - 2 * math.cos(math.pi / (n + 2)))) <= 1e-10
            flat = min_joint_cost(flat_state(n).magnitudes(), cost)
            assert abs(flat - 2 / (n + 1)) <= 1e-12

        ns = np.arange(8, 257)
        opt = np.array([min_joint_cost(
            optimal_frameness_state(int(n), cost).magnitudes(), cost) for n in ns])
        lin = np.array([min_joint_cost(
            flat_state(int(n)).magnitudes(), cost) for n in ns])
        upper = ns >= (8 + 256) / 2
        slope_opt = np.polyfit(np.log(ns[upper]), np.log(opt[upper]), 1)[0]
        slope_lin = np.polyfit(np.log(ns[upper]), np.log(lin[upper]), 1)[0]
        assert -2.1 <= slope_opt <= -1.9
        assert -1.1 <= slope_lin <= -0.9


def test_criterion_03_protocol_attains_the_optimum():
    with criterion("one-way protocol attains the joint optimum", 60):
        cost = variance_cost()
        mean, sem = monte_carlo_cost(flat_state(4), cost, 100_000,
                                     RandomSource(12345))
        assert abs(mean - 0.4) <= 3 * sem

        target = 2 - 2 * math.cos(math.pi / 10)
        state = optimal_frameness_state(8, cost)
        mean, sem = monte_carlo_cost(state, cost, 100_000, RandomSource(54321))
        assert abs(mean - target) <= 3 * sem


def test_criterion_04_degenerate_conditional_states():
    with criterion("degenerate-measurement conditional states", 30):
        cost = variance_cost()
        gen = np.random.default_rng(2025)
        for _ in range(20):
            n_tot = int(gen.integers(1, 5))
            state = random_frame_state(gen, n_tot, max_deg=3)
            ga, gb = state.gen_a, state.gen_b
            joint = min_joint_cost(state.magnitudes(), cost)
            probs, bob = alice_measure(state)
            assert abs(probs.sum() - 1.0) <= 1e-10
            for k, bob_k in enumerate(bob):
                predicted = np.zeros(gb.dim, dtype=complex)
                for n in range(n_tot + 1):
                    sec = state.sector(n)
                    sa = ga.level_slice(n_tot - n)
                    sb = gb.level_slice(n)
                    for l, lam in enumerate(sec.lam):
                        predicted[sb.start + l] = (
                            state.amps[n]
                            * lam
                            * np.exp(-2j * np.pi * k * (sa.start + l) / ga.dim))
                predicted /= np.linalg.norm(predicted)
                overlap = np.vdot(predicted, bob_k)
                aligned = predicted * (overlap / abs(overlap))
                assert np.linalg.norm(bob_k - aligned) <= 1e-12

                mags = np.array([np.linalg.norm(bob_k[gb.level_slice(n)])
                                 for n in range(n_tot + 1)])
                assert abs(min_joint_cost(mags, cost) - joint) <= 1e-12


def test_criterion_05_likelihood_density_peak_and_cost():
    with criterion("likelihood density peak and minimum cost", 5):
        for n in range(1, 33):
            state = flat_state(n)
            cost = likelihood_cost(n)
            dens = EstimateDensity(state.magnitudes())
            assert abs(dens.pdf(0.0) - (n + 1) / TWO_PI) <= 1e-9
            got = min_joint_cost(state.magnitudes(), cost)
            assert abs(got - (-(n + 1) / TWO_PI)) <= 1e-9


def test_criterion_06_teleportation_mismatch_curve():
    with criterion("teleportation under frame mismatch", 10):
        plus = ket([1.0, 1.0]).normalized()
        zero = ket([1.0, 0.0])
        grid = TWO_PI * np.arange(1024) / 1024
        total = 0.0
        for phi in grid:
            f = fidelity(teleport_with_mismatch(plus, phi), plus)
            assert abs(f - (0.5 + 0.5 * math.cos(phi) ** 2)) <= 1e-9
            total += f
            f0 = fidelity(teleport_with_mismatch(zero, phi), zero)
            assert abs(f0 - 1.0) <= 1e-12
        assert abs(total / grid.size - 0.75) <= 1e-6

        gen = np.random.default_rng(808)
        for _ in range(20):
            psi = ket(gen.normal(size=2) + 1j * gen.normal(size=2)).normalized()
            assert abs(fidelity(teleport_with_mismatch(psi, 0.0), psi) - 1.0) <= 1e-12


def test_criterion_07_no_go_witness_reports():
    with criterion("algebraic no-go witness", 1):
        plus = ket([1.0, 1.0]).normalized()
        g2 = Generator.ladder(2)
        bell = ket([1.0, 0.0, 0.0, 1.0]).normalized()
        shared = expand(flat_state(1))
        for resource in (bell, shared):
            rep = no_go_witness(plus, g2, resource, g2, g2)
            assert rep.invariance_residual < 1e-12
            assert abs(rep.input_ui_norm - math.sqrt(2.0)) <= 1e-12


def test_criterion_08_finite_group_alignment_exactness():
    with criterion("finite-group alignment exactness", 10):
        root = RandomSource(90210)
        for d in range(2, 13):
            group = GroupTable.cyclic(d)
            for g in range(d):
                gen = root.split(d).split(g).generator()
                for _ in range(1000):
                    assert finite_group_align(group, g, gen) == g


def test_criterion_09_frameness_invariance_and_ordering():
    with criterion("frameness invariance and profile ordering", 20):
        gen = np.random.default_rng(606)
        states = [flat_state(4), sine_state(3),
                  random_frame_state(gen, 3, 1),
                  random_frame_state(gen, 3, 3),
                  random_frame_state(gen, 4, 2)]
        for state in states:
            psi = expand(state)
            for cost in (variance_cost(), likelihood_cost(state.total)):
                base = frameness_of_ket(psi, state.gen_a, state.gen_b, cost)
                for _ in range(20):
                    u = tensor(level_preserving_unitary(gen, state.gen_a),
                               level_preserving_unitary(gen, state.gen_b))
                    moved = Ket(u @ psi.amplitudes)
                    got = frameness_of_ket(moved, state.gen_a, state.gen_b, cost)
                    assert abs(got - base) <= 1e-10

        cost = variance_cost()
        for n in range(2, 65):
            f_opt = frameness(optimal_frameness_state(n, cost), cost)
            f_sine = frameness(sine_state(n), cost)
            f_flat = frameness(flat_state(n), cost)
            assert f_opt > f_sine            # strict: the fixed profile loses
            assert f_sine >= f_flat - 1e-12


def test_criterion_10_replayed_runs_are_byte_identical(tmp_path):
    with criterion("replay determinism of the sync report", 30):
        argv = ["sync-sim", "--N-range", "2..4", "--trials", "2000",
                "--seed", "31415"]
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for path in paths:
            assert main(argv + ["--out", str(path)]) == 0
        first, second = (
            [l for l in p.read_text().splitlines() if not l.startswith("#")]
            for p in paths)
        assert first == second
        assert len(first) > 1
