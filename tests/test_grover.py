"""Oracle, diffusion, iterate behaviour, and the success-probability formulas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qids.errors import InputError, KZero, SizeLimit
from qids.grover import (amplified_probabilities, amplified_state,
                         apply_diffusion, apply_oracle, grover_iterate,
                         literal_iterations, marked_mass, optimal_iterations,
                         predicted_success_asymptotic, predicted_success_exact,
                         simulated_success)
from qids.production import marked_vector, tree_system
from qids.statevector import prepare_halt_minus, uniform_superposition


def minus_uniform(n):
    return prepare_halt_minus(uniform_superposition(n))


def random_state(gen, n):
    raw = gen.normal(size=(n, 2)) + 1j * gen.normal(size=(n, 2))
    return raw / np.linalg.norm(raw)


# --- oracle ---------------------------------------------------------------------

def test_oracle_phase_flips_marked_entry_only():
    state = minus_uniform(4)
    marks = np.arange(4) == 1
    flipped = apply_oracle(state, marks)
    assert np.allclose(flipped[1], -state[1])
    for p in (0, 2, 3):
        assert np.allclose(flipped[p], state[p])


def test_oracle_with_empty_predicate_is_identity():
    state = minus_uniform(8)
    marks = np.zeros(8, dtype=bool)
    assert np.array_equal(apply_oracle(state, marks), state)


def test_oracle_is_involution():
    gen = np.random.default_rng(31)
    for _ in range(10):
        state = random_state(gen, 16)
        marks = gen.random(16) < 0.4
        twice = apply_oracle(apply_oracle(state, marks), marks)
        assert np.max(np.abs(twice - state)) < 1e-12


def test_oracle_xors_halt_bit_without_minus_preparation():
    state = uniform_superposition(4)  # halt bit |0> everywhere
    marks = np.arange(4) == 3
    out = apply_oracle(state, marks)
    assert out[3, 0] == 0 and out[3, 1] != 0


def test_oracle_reads_a_0_1_integer_array_as_a_mask():
    state = minus_uniform(4)
    as_bool = apply_oracle(state, np.arange(4) == 1)
    assert np.array_equal(apply_oracle(state, np.array([0, 1, 0, 0])), as_bool)


def test_oracle_rejects_a_bitmap_of_another_length():
    with pytest.raises(InputError):
        apply_oracle(minus_uniform(4), np.zeros(8, dtype=bool))


# --- diffusion -------------------------------------------------------------------

def test_diffusion_fixes_uniform_state():
    state = minus_uniform(8)
    assert np.max(np.abs(apply_diffusion(state) - state)) < 1e-12


def test_diffusion_on_basis_vector():
    state = np.zeros((4, 2), dtype=np.complex128)
    state[0, 0] = 1.0
    out = apply_diffusion(state)
    assert np.allclose(out[:, 0], [-0.5, 0.5, 0.5, 0.5])
    assert np.all(out[:, 1] == 0)


def test_diffusion_preserves_norm():
    gen = np.random.default_rng(8)
    state = random_state(gen, 32)
    assert abs(np.linalg.norm(apply_diffusion(state)) - 1.0) < 1e-12


# --- iterate ---------------------------------------------------------------------

def test_single_iterate_nails_n4_k1():
    marks = np.arange(4) == 2
    state = grover_iterate(minus_uniform(4), marks)
    assert marked_mass(state, marks) == pytest.approx(1.0, abs=1e-12)


def test_iterate_with_no_marks_fixes_uniform():
    marks = np.zeros(8, dtype=bool)
    state = minus_uniform(8)
    out = grover_iterate(state, marks)
    assert np.max(np.abs(out - state)) < 1e-12


def test_three_iterates_n16():
    marks = np.arange(16) == 11
    assert simulated_success(marks, 3) == pytest.approx(0.9613, abs=1e-4)


# --- iterate-count policy -----------------------------------------------------------

def test_optimal_iterations_examples():
    assert optimal_iterations(4, 1) == 1
    assert optimal_iterations(64, 1) == 6
    assert optimal_iterations(32, 32) == 0


def test_optimal_iterations_kzero():
    with pytest.raises(KZero):
        optimal_iterations(16, 0)


def test_literal_iterations():
    assert literal_iterations(16) == 4
    assert literal_iterations(17) == 4


# --- closed forms --------------------------------------------------------------------

def test_asymptotic_form_at_b2_d2():
    assert predicted_success_asymptotic(2, 2, 1) == pytest.approx(0.6832866694, abs=1e-9)


def test_asymptotic_form_all_marked_corner():
    # theta = pi when every sequence is marked
    for n_paths, b, d in ((4, 2, 2), (27, 3, 3)):
        by_hand = math.sin(math.pi / 2 * (math.pi / 2 + 1)) ** 2
        assert predicted_success_asymptotic(b, d, n_paths) == pytest.approx(by_hand, abs=1e-12)


def test_asymptotic_tracks_exact_at_depth8():
    exact = predicted_success_exact(256, 1, optimal_iterations(256, 1))
    asym = predicted_success_asymptotic(2, 8, 1)
    assert abs(asym - exact) <= 0.05
    marks = np.arange(256) == 77
    sim = simulated_success(marks, optimal_iterations(256, 1))
    assert abs(asym - sim) <= 0.05


def test_exact_form_examples():
    assert predicted_success_exact(4, 1, 1) == pytest.approx(1.0, abs=1e-12)
    for n, k in ((8, 1), (16, 4), (32, 2)):
        assert predicted_success_exact(n, k, 0) == pytest.approx(k / n, abs=1e-12)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_exact_form_matches_simulation(n, k):
    gen = np.random.default_rng(n * 100 + k)
    marks = np.zeros(n, dtype=bool)
    marks[gen.choice(n, size=k, replace=False)] = True
    for m in range(11):
        assert abs(simulated_success(marks, m)
                   - predicted_success_exact(n, k, m)) < 1e-9


@st.composite
def marks_and_iterates(draw):
    """A mark table over N <= 256 sequences and an iterate count up to 3x optimal."""
    n = draw(st.integers(1, 256))
    kind = draw(st.sampled_from(("none", "all", "some")))
    if kind == "some":
        marks = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        marks = np.full(n, kind == "all")
    k = int(marks.sum())
    m = draw(st.integers(0, 3 * optimal_iterations(n, max(k, 1))))
    return marks, m


@settings(max_examples=150, deadline=None)
@given(marks_and_iterates())
@example((np.zeros(64, dtype=bool), 6))
@example((np.ones(64, dtype=bool), 5))
def test_closed_form_probabilities_match_dense_engine(case):
    marks, m = case
    k = int(marks.sum())
    closed = amplified_probabilities(marks, k, m)
    state = amplified_state(marks, m)
    assert state.shape == (len(marks), 2)
    dense = np.abs(state.ravel()) ** 2
    assert closed.shape == dense.shape
    assert np.max(np.abs(closed - dense)) <= 1e-12
    assert abs(closed.sum() - 1.0) <= 1e-12


def test_closed_form_probabilities_reject_bad_input(monkeypatch):
    with pytest.raises(InputError):
        amplified_probabilities(np.zeros(4, dtype=bool), 5, 1)
    with pytest.raises(InputError):
        amplified_probabilities(np.zeros(4, dtype=bool), 0, -1)
    monkeypatch.setenv("QIDS_SIM_CAP", "64")
    with pytest.raises(SizeLimit):
        amplified_probabilities(np.zeros(64, dtype=bool), 0, 1)


def test_optimal_policy_reaches_half_mass_when_sparse():
    for n in (8, 16, 32, 64, 128):
        for k in range(1, n // 4 + 1):
            m = optimal_iterations(n, k)
            assert predicted_success_exact(n, k, m) >= 0.5, (n, k, m)


# --- counting -------------------------------------------------------------------------

def test_prefix_structure_grows_counts():
    system = tree_system(3)
    k = {d: int(marked_vector(system, "E", d).sum()) for d in range(7)}
    for d in range(3, 6):
        assert k[d + 1] >= 2 * k[d]


def test_prefix_structure_grows_counts_on_random_systems():
    from conftest import random_system
    for trial in range(8):
        system, start = random_system(np.random.default_rng(5600 + trial))
        b = system.branching_factor
        for d in range(5):
            k_here = int(marked_vector(system, start, d).sum())
            k_next = int(marked_vector(system, start, d + 1).sum())
            assert k_next >= b * k_here


def test_unitarity_across_iterates():
    gen = np.random.default_rng(17)
    marks = gen.random(64) < 0.2
    state = minus_uniform(64)
    for _ in range(200):
        state = grover_iterate(state, marks)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
