import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framesync import (ContractViolation, DensityMatrix, Generator, Ket,
                       RandomSource, basis_ket, fidelity, ket, measure, tensor)

RT2 = np.sqrt(2.0)


# ---------------------------------------------------------------- kets

def test_ket_norm_and_normalized():
    v = ket([3.0, 4.0j])
    assert v.norm() == pytest.approx(5.0, abs=1e-15)
    assert not v.is_unit()
    u = v.normalized()
    assert u.is_unit()
    np.testing.assert_allclose(u.amplitudes, [0.6, 0.8j], atol=1e-15)


@pytest.mark.parametrize("excess, unit", [(0.0, True), (5e-11, True), (-5e-11, True),
                                          (5e-10, False), (-5e-10, False)])
def test_is_unit_is_the_require_unit_gate(excess, unit):
    v = ket([1.0 + excess, 0.0])
    assert v.is_unit() is unit
    if unit:
        assert v.require_unit() is v
    else:
        with pytest.raises(ContractViolation, match="must be normalized"):
            v.require_unit()


def test_ket_rejects_bad_shapes():
    with pytest.raises(ContractViolation):
        ket([])
    with pytest.raises(ContractViolation):
        ket([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ContractViolation):
        ket([np.nan, 0.0])
    with pytest.raises(ContractViolation):
        ket([0.0, 0.0]).normalized()


def test_inner_is_conjugate_linear_in_first_slot():
    assert ket([1j, 0]).inner(ket([1, 0])) == pytest.approx(-1j)
    assert ket([1, 0]).inner(ket([1j, 0])) == pytest.approx(1j)


def test_ket_amplitudes_are_read_only():
    v = basis_ket(3, 0)
    with pytest.raises(ValueError):
        v.amplitudes[1] = 1.0


def test_outer_is_rank_one_projector():
    v = ket([1.0, 1.0j]).normalized()
    p = v.outer()
    np.testing.assert_allclose(p, p.conj().T, atol=1e-15)
    np.testing.assert_allclose(p @ p, p, atol=1e-15)
    assert np.trace(p) == pytest.approx(1.0)


# ------------------------------------------------------ density matrices

def test_density_matrix_validation():
    DensityMatrix(np.diag([0.5, 0.5]))
    with pytest.raises(ContractViolation):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))      # not hermitian
    with pytest.raises(ContractViolation):
        DensityMatrix(np.diag([0.7, 0.7]))                     # trace 1.4
    with pytest.raises(ContractViolation):
        DensityMatrix(np.diag([1.5, -0.5]))                    # not positive


@pytest.mark.parametrize("bad, message", [
    (np.array([[0.5, 0.5], [0.0, 0.5]]), "hermitian"),
    (np.diag([0.7, 0.7]), "trace must be 1, got np.float64(1.4)"),
    (np.diag([1.5, -0.5]), "positive semidefinite"),
])
def test_stacked_density_checks_find_one_bad_matrix(bad, message):
    good = np.diag([0.5, 0.5])
    with pytest.raises(ContractViolation) as single:
        DensityMatrix(bad)
    assert message in str(single.value)
    for at in range(3):
        stack = np.array([good, good, good], dtype=complex)
        stack[at] = bad
        with pytest.raises(ContractViolation) as stacked:
            DensityMatrix(stack)
        assert str(stacked.value) == str(single.value)
    checked = DensityMatrix(np.array([good, good]))
    assert checked.entries.shape == (2, 2, 2) and checked.dim == 2
    assert not checked.entries.flags.writeable


@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
def test_density_checks_reject_nan(where):
    bad = np.diag([0.5, 0.5]).astype(complex)
    bad[where] = np.nan
    for m in (bad, np.full((2, 2), np.nan), np.array([np.diag([0.5, 0.5]), bad])):
        with pytest.raises(ContractViolation, match="hermitian"):
            DensityMatrix(m)


def test_generator_degeneracies_match_the_scalar_lookup():
    g = Generator(((-2, 1), (0, 3), (1, 2), (5, 1)))
    levels = np.arange(-4, 8)
    np.testing.assert_array_equal(g.degeneracies(levels),
                                  [dict(g.levels).get(int(n), 0) for n in levels])
    for levels in (((0, 1), (2**70, 1)), ((0, 2**62), (1, 2**62), (2, 1))):
        with pytest.raises(ContractViolation, match="64-bit"):   # a level or a first slot
            Generator(levels)


def test_fidelity_of_a_stack_is_one_value_per_matrix():
    plus = ket([1.0, 1.0]).normalized()
    stack = np.array([np.diag([1.0, 0.0]), plus.outer(), np.eye(2) / 2])
    np.testing.assert_allclose(fidelity(DensityMatrix(stack), plus),
                               [fidelity(DensityMatrix(m), plus) for m in stack], atol=1e-15)
    with pytest.raises(ContractViolation, match="dimension mismatch"):
        fidelity(DensityMatrix(np.broadcast_to(np.eye(3) / 3, (4, 3, 3))), plus)


def test_pure_density_normalizes():
    rho = DensityMatrix.pure(ket([2.0, 0.0]))
    np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-15)


# ------------------------------------------------------------ generators

def test_generator_labels_and_lookup():
    g = Generator(((0, 2), (2, 1)))
    assert g.dim == 3
    np.testing.assert_array_equal(g.eigenvalues(), [0, 0, 2])
    assert g.level_slice(0) == slice(0, 2)
    assert g.level_slice(2) == slice(2, 3)
    np.testing.assert_array_equal(g.degeneracies([0, 1, 2]), [2, 0, 1])
    np.testing.assert_array_equal(g.starts([2, 0]), [2, 0])
    for absent in (lambda: g.level_slice(1), lambda: g.starts([0, 1, 2])):
        with pytest.raises(ContractViolation, match="no level 1"):
            absent()


def test_generator_rejects_bad_spectra():
    with pytest.raises(ContractViolation):
        Generator(())
    with pytest.raises(ContractViolation):
        Generator(((1, 1), (0, 1)))     # not increasing
    with pytest.raises(ContractViolation):
        Generator(((0, 1), (0, 2)))     # duplicate level
    with pytest.raises(ContractViolation):
        Generator(((0, 0),))            # empty level


def test_ladder_is_nondegenerate_range():
    g = Generator.ladder(4)
    np.testing.assert_array_equal(g.eigenvalues(), [0, 1, 2, 3])


# ---------------------------------------------------------------- tensor

def test_tensor_kets_and_type_mismatch():
    v = tensor(ket([1.0, 0.0]), ket([0.0, 1.0]))
    np.testing.assert_allclose(v.amplitudes, [0, 1, 0, 0], atol=0)
    with pytest.raises(ContractViolation):
        tensor(ket([1.0, 0.0]), np.eye(2))
    np.testing.assert_allclose(tensor(np.eye(2), np.eye(3)), np.eye(6), atol=0)


@given(st.integers(0, 3), st.integers(0, 2))
def test_tensor_of_basis_kets_is_basis_ket(i, j):
    v = tensor(basis_ket(4, i), basis_ket(3, j))
    assert v.amplitudes[i * 3 + j] == 1.0
    assert v.norm() == pytest.approx(1.0)


# ------------------------------------------------------------ randomness

def test_random_source_is_a_value():
    src = RandomSource(7, (1, 2))
    a = src.generator().random(5)
    b = src.generator().random(5)
    np.testing.assert_array_equal(a, b)


def test_random_source_split_streams_differ():
    root = RandomSource(7)
    a = root.split(0).generator().random(8)
    b = root.split(1).generator().random(8)
    assert not np.array_equal(a, b)
    assert root.split(0).path == (0,)


def test_random_source_validates_seed():
    with pytest.raises(ContractViolation):
        RandomSource(-1)
    with pytest.raises(ContractViolation):
        RandomSource(2**64)


# ----------------------------------------------------------- measurement

def test_measure_complete_basis_frozen_probs():
    state = ket([0.6, 0.8j])
    counts = np.zeros(2)
    gen = np.random.default_rng(11)
    for _ in range(200):
        k, post, p = measure(state, 2, gen)
        counts[k] += 1
        assert post.dim == 1 and post.is_unit()
        assert p == pytest.approx(0.36 if k == 0 else 0.64, abs=1e-12)
    assert counts[0] > 0 and counts[1] > 0


def test_measure_leading_factor_posterior():
    # (|01> + |10>)/sqrt(2) with H on the first qubit, which is then measured:
    # that is a +/- measurement of the Bell pair, so both outcomes have
    # p = 1/2 and leave the second qubit in the matching +/- state (up to a
    # global sign).
    bell = ket([0.0, 1.0, 1.0, 0.0]).normalized()
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / RT2
    rotated = Ket(tensor(hadamard, np.eye(2)) @ bell.amplitudes)
    plus = ket([1.0, 1.0]).normalized()
    minus = ket([1.0, -1.0]).normalized()
    gen = np.random.default_rng(5)
    seen = set()
    for _ in range(40):
        k, post, p = measure(rotated, 2, gen)
        seen.add(k)
        assert p == pytest.approx(0.5, abs=1e-12)
        expected = plus if k == 0 else minus
        assert abs(post.inner(expected)) == pytest.approx(1.0, abs=1e-12)
    assert seen == {0, 1}


def test_measure_born_frequencies():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    state = ket(np.sqrt(probs) * np.exp(1j * np.array([0.0, 0.4, 1.1, 2.0])))
    trials = 100_000
    gen = RandomSource(2024).generator()
    counts = np.zeros(4)
    for _ in range(trials):
        k, _, _ = measure(state, 4, gen)
        counts[k] += 1
    freq = counts / trials
    sigma = np.sqrt(probs * (1 - probs) / trials)
    np.testing.assert_array_less(np.abs(freq - probs), 4 * sigma)


def test_measure_matches_the_projector_reference():
    # Born rule term by term: outcome k has projector |k><k| x I, and the
    # first k whose running probability passes the uniform draw is picked.
    for (dim, rest), seed in itertools.product([(2, 1), (3, 4), (5, 2), (4, 3)], range(10)):
        gen = np.random.default_rng(seed)
        psi = ket(gen.normal(size=dim * rest) + 1j * gen.normal(size=dim * rest)).normalized()
        k, post, p = measure(psi, dim, RandomSource(seed).generator())

        u = RandomSource(seed).generator().random()   # the twin of measure's draw
        running, want = 0.0, None
        for j in range(dim):
            projector = tensor(basis_ket(dim, j).outer(), np.eye(rest))
            p_j = float(np.vdot(psi.amplitudes, projector @ psi.amplitudes).real)
            running += p_j
            if want is None and running > u:
                want = j, p_j, (basis_ket(dim, j).amplitudes.conj()
                                @ psi.amplitudes.reshape(dim, rest)) / np.sqrt(p_j)
        want_k, want_p, want_post = want
        assert k == want_k
        assert p == pytest.approx(want_p, abs=1e-12)
        np.testing.assert_allclose(post.amplitudes, want_post, atol=1e-12)


def test_measure_validates_inputs():
    gen = np.random.default_rng(0)
    with pytest.raises(ContractViolation):
        measure(ket([1.0, 1.0]), 2, gen)   # norm
    with pytest.raises(ContractViolation):
        measure(basis_ket(3, 0), 2, gen)   # 3 % 2
    with pytest.raises(ContractViolation):
        measure(basis_ket(3, 0), 0, gen)


def test_measure_replays_under_random_source():
    state = ket([0.5, 0.5, 0.5, 0.5])
    src = RandomSource(99, (4,))
    first = [measure(state, 2, src.split(i).generator()) for i in range(20)]
    second = [measure(state, 2, src.split(i).generator()) for i in range(20)]
    for (k1, v1, p1), (k2, v2, p2) in zip(first, second):
        assert k1 == k2 and p1 == p2
        np.testing.assert_array_equal(v1.amplitudes, v2.amplitudes)


# -------------------------------------------------------------- fidelity

def test_fidelity_frozen_and_validated():
    zero = basis_ket(2, 0)
    plus = ket([1.0, 1.0]).normalized()
    assert fidelity(DensityMatrix.pure(zero), plus) == pytest.approx(0.5, abs=1e-15)
    assert fidelity(DensityMatrix(zero.outer()), zero) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ContractViolation):
        fidelity(DensityMatrix(np.eye(3) / 3.0), zero)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_fidelity_of_state_with_itself(seed):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=5) + 1j * gen.normal(size=5)
    v = ket(a).normalized()
    assert fidelity(DensityMatrix.pure(v), v) == pytest.approx(1.0, abs=1e-12)
