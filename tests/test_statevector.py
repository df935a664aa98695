"""Statevector engine: preparation, measurement, projection, demo."""

import numpy as np
import pytest

from conftest import make_system
from qids.errors import InputError, NormDrift, SizeLimit, ZeroProbability
from qids.statevector import (halt_timing_demo, measure, prepare_halt_minus,
                              project_halt, uniform_superposition)
from qids.verify import halt_timing_system


def basis_state(labels, label, h):
    """All amplitude on one (label, h) basis state."""
    state = np.zeros((labels, 2), dtype=np.complex128)
    state[label, h] = 1.0
    return state


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
    from qids.grover import amplified_state
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
