"""Statevector engine: preparation, oracle, diffusion, iterate, measurement, projection, demo."""

import numpy as np
import pytest

from conftest import make_system
from qids.errors import InputError, NormDrift, SizeLimit, ZeroProbability
from qids.statevector import (amplified_state, apply_diffusion, apply_oracle, grover_iterate,
                              halt_timing_demo, measure, prepare_halt_minus, project_halt,
                              simulated_success, uniform_superposition)
from qids.verify import halt_timing_system


def basis_state(labels, label, h):
    """All amplitude on one (label, h) basis state."""
    state = np.zeros((labels, 2), dtype=np.complex128)
    state[label, h] = 1.0
    return state


def minus_uniform(n):
    return prepare_halt_minus(uniform_superposition(n))


def random_state(gen, n):
    raw = gen.normal(size=(n, 2)) + 1j * gen.normal(size=(n, 2))
    return raw / np.linalg.norm(raw)


def test_basis_index_layout_keeps_halt_least_significant():
    state = basis_state(9, 7, 1)
    assert state.flags.c_contiguous
    assert np.flatnonzero(state.ravel()).tolist() == [2 * 7 + 1]
    assert measure(state, np.random.default_rng(0)) == (7, 1)


def test_uniform_superposition_weights():
    state = uniform_superposition(8)
    assert state.shape == (8, 2) and state.dtype == np.complex128
    assert np.allclose(state[:, 0], 1 / np.sqrt(8))
    assert np.all(state[:, 1] == 0)


def test_uniform_superposition_depth_zero():
    # depth 0 has the one empty sequence
    state = uniform_superposition(1)
    assert state.size == 2
    assert state[0, 0] == 1.0


def test_uniform_superposition_needs_a_label():
    with pytest.raises(InputError):
        uniform_superposition(0)


def test_uniform_superposition_norm_exact():
    assert np.linalg.norm(uniform_superposition(9)) == pytest.approx(1.0, abs=1e-15)


def test_uniform_superposition_refuses_oversize(monkeypatch):
    monkeypatch.setenv("QIDS_SIM_CAP", "64")
    with pytest.raises(SizeLimit):
        uniform_superposition(33)


def test_prepare_halt_minus_on_basis_state():
    minus = prepare_halt_minus(basis_state(1, 0, 0))
    assert minus[0, 0] == pytest.approx(1 / np.sqrt(2))
    assert minus[0, 1] == pytest.approx(-1 / np.sqrt(2))


def test_prepare_halt_minus_on_uniform_eight_paths():
    minus = prepare_halt_minus(uniform_superposition(8))
    assert np.allclose(minus[:, 0], 0.25)
    assert np.allclose(minus[:, 1], -0.25)
    assert abs(np.linalg.norm(minus) - 1.0) < 1e-12


def test_prepare_halt_minus_requires_clean_halt_bit():
    state = basis_state(1, 0, 1)
    with pytest.raises(InputError):
        prepare_halt_minus(state)


def test_measure_uniform_four_outcomes():
    state = np.full((2, 2), 0.5, dtype=np.complex128)  # all four (label, h) states
    rng = np.random.default_rng(11)
    counts = np.zeros((2, 2))
    draws = 100_000
    for _ in range(draws):
        counts[measure(state, rng)] += 1
    assert np.all(np.abs(counts / draws - 0.25) < 0.01)


def test_measure_basis_state_is_certain():
    state = basis_state(9, 7, 1)
    for seed in range(5):
        assert measure(state, np.random.default_rng(seed)) == (7, 1)


def test_measure_is_seed_deterministic():
    state = uniform_superposition(16)
    a = [measure(state, np.random.default_rng(42)) for _ in range(10)]
    b = [measure(state, np.random.default_rng(42)) for _ in range(10)]
    assert a == b


def test_measure_amplified_state_frequency():
    state = amplified_state(np.arange(16) == 5, 3)
    marked_prob = float(np.sum(np.abs(state[5]) ** 2))
    rng = np.random.default_rng(123)
    hits = sum(measure(state, rng)[0] == 5 for _ in range(10_000))
    assert abs(hits / 10_000 - marked_prob) < 0.02


def test_measure_flags_norm_drift():
    state = uniform_superposition(4) * 1.01
    with pytest.raises(NormDrift):
        measure(state, np.random.default_rng(0))


def test_project_halt_equal_amplitude_example():
    # (|00>|0> + |01>|1> + |10>|1> + |11>|0>) / 2
    state = np.zeros((4, 2), dtype=np.complex128)
    state[0, 0] = state[3, 0] = 0.5
    state[1, 1] = state[2, 1] = 0.5
    p1, projected = project_halt(state, 1)
    assert p1 == pytest.approx(0.5, abs=1e-12)
    expected = np.zeros_like(state)
    expected[1, 1] = expected[2, 1] = 1 / np.sqrt(2)
    assert np.allclose(projected, expected)


def test_project_halt_identity_when_all_support_matches():
    state = uniform_superposition(4)
    p0, projected = project_halt(state, 0)
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(projected, state)


def test_project_halt_probabilities_sum_to_one():
    gen = np.random.default_rng(77)
    for _ in range(20):
        raw = gen.normal(size=(8, 2)) + 1j * gen.normal(size=(8, 2))
        state = raw / np.linalg.norm(raw)
        p0, _ = project_halt(state, 0)
        p1, _ = project_halt(state, 1)
        assert abs(p0 + p1 - 1.0) < 1e-10


def test_project_halt_zero_probability():
    state = uniform_superposition(4)  # all support on h=0
    with pytest.raises(ZeroProbability):
        project_halt(state, 1)


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
    assert np.sum(np.abs(state[marks]) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_iterate_with_no_marks_fixes_uniform():
    marks = np.zeros(8, dtype=bool)
    state = minus_uniform(8)
    out = grover_iterate(state, marks)
    assert np.max(np.abs(out - state)) < 1e-12


def test_three_iterates_n16():
    marks = np.arange(16) == 11
    assert simulated_success(marks, 3) == pytest.approx(0.9613, abs=1e-4)


def test_unitarity_across_iterates():
    gen = np.random.default_rng(17)
    marks = gen.random(64) < 0.2
    state = minus_uniform(64)
    for _ in range(200):
        state = grover_iterate(state, marks)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


@pytest.mark.parametrize("coeff", [2.0, 2.0 + 1e-3])
def test_amplified_state_is_m_iterates_bit_for_bit(coeff):
    """The in-place iterate of `amplified_state` equals the pure `grover_iterate`
    exactly, under the true diffusion coefficient and the injected fault's."""
    gen = np.random.default_rng(12)
    for marks in (gen.random(64) < 0.2, np.zeros(8, dtype=bool), np.ones(8, dtype=bool),
                  np.arange(1024) == 77):
        state = minus_uniform(len(marks))
        for m in range(30):
            assert np.array_equal(amplified_state(marks, m, coeff), state)
            state = grover_iterate(state, marks, coeff)


# --- halt-observation demo -----------------------------------------------------

def test_demo_two_inputs_split():
    system = make_system([("A", "B")], alphabet="ABX", goals=("B",),
                         starts=("A", "X"))
    report = halt_timing_demo(system, 3)
    assert report.steps_to_halt == [1, None]
    assert report.p_halt == pytest.approx(0.5, abs=1e-12)
    assert report.pre_measurement.shape == (2, 2)
    assert abs(report.projected_halt[0, 1]) == pytest.approx(1.0)
    assert np.all(np.abs(report.projected_halt[1]) == 0)


def test_demo_all_halting():
    system = make_system([("A", "B")], goals=("B",))
    report = halt_timing_demo(system, 2)
    assert report.p_halt == pytest.approx(1.0, abs=1e-12)
    assert report.projected_continue is None


def test_demo_four_inputs_straddling():
    report = halt_timing_demo(halt_timing_system(), 3, step_cap=8)
    assert report.steps_to_halt == [1, 2, 5, 5]
    assert report.p_halt == pytest.approx(0.5, abs=1e-10)
    assert abs(np.linalg.norm(report.projected_halt) - 1.0) < 1e-10
    assert abs(np.linalg.norm(report.projected_continue) - 1.0) < 1e-10


def test_demo_probabilities_complementary():
    report = halt_timing_demo(halt_timing_system(), 4, step_cap=8)
    assert abs(report.p_halt + report.p_continue - 1.0) < 1e-10


def test_demo_step_count_past_the_sim_cap_is_refused(monkeypatch):
    monkeypatch.setenv("QIDS_SIM_CAP", "64")
    system = make_system([("A", "A")], goals=("B",))
    with pytest.raises(SizeLimit):
        halt_timing_demo(system, 65)
    with pytest.raises(SizeLimit):
        halt_timing_demo(system, 3, step_cap=65)
    assert halt_timing_demo(system, 64).steps_to_halt == [None]
