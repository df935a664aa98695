"""Statevector engine: preparation, measurement, projection, demo."""

import itertools

import numpy as np
import pytest

from conftest import make_system
from qids.errors import InputError, NormDrift, SizeLimit, ZeroProbability
from qids.statevector import (BasisIndex, halt_timing_demo, measure,
                              prepare_halt_minus, project_halt,
                              uniform_superposition)
from qids.verify import halt_timing_system


def basis_state(b, d, label):
    """All amplitude on one basis label of a fixed-start register."""
    state = uniform_superposition(b, d)
    state.amps[:] = 0
    state.amps[label.to_flat(1, b, d)] = 1.0
    return state


def test_basis_index_round_trip():
    for num_s, b, d in itertools.product((1, 2, 4), (1, 2, 3), (0, 2, 5, 8)):
        dim = num_s * b**d * 2
        for flat in range(dim):
            label = BasisIndex.from_flat(flat, num_s, b, d)
            assert label.to_flat(num_s, b, d) == flat


def test_basis_index_layout_keeps_halt_least_significant():
    assert BasisIndex(0, 0, 1).to_flat(1, 2, 3) == 1
    assert BasisIndex(0, 3, 0).to_flat(1, 2, 3) == 6
    assert BasisIndex(1, 0, 0).to_flat(2, 2, 3) == 16


def test_uniform_superposition_weights():
    state = uniform_superposition(2, 3)
    grid = state.grid()
    assert np.allclose(grid[0, :, 0], 1 / np.sqrt(8))
    assert np.all(grid[0, :, 1] == 0)


def test_uniform_superposition_depth_zero():
    state = uniform_superposition(2, 0)
    assert state.dimension == 2
    assert state.amps[0] == 1.0


def test_uniform_superposition_norm_exact():
    assert uniform_superposition(3, 2).norm() == pytest.approx(1.0, abs=1e-15)


def test_uniform_superposition_refuses_oversize(monkeypatch):
    monkeypatch.setenv("QIDS_SIM_CAP", "64")
    with pytest.raises(SizeLimit):
        uniform_superposition(2, 8)


def test_prepare_halt_minus_on_basis_state():
    state = basis_state(2, 0, BasisIndex(0, 0, 0))
    minus = prepare_halt_minus(state)
    assert minus.amps[0] == pytest.approx(1 / np.sqrt(2))
    assert minus.amps[1] == pytest.approx(-1 / np.sqrt(2))


def test_prepare_halt_minus_on_uniform_eight_paths():
    minus = prepare_halt_minus(uniform_superposition(2, 3))
    grid = minus.grid()
    assert np.allclose(grid[0, :, 0], 0.25)
    assert np.allclose(grid[0, :, 1], -0.25)
    assert abs(minus.norm() - 1.0) < 1e-12


def test_prepare_halt_minus_requires_clean_halt_bit():
    state = basis_state(2, 0, BasisIndex(0, 0, 1))
    with pytest.raises(InputError):
        prepare_halt_minus(state)


def test_measure_uniform_four_outcomes():
    state = uniform_superposition(2, 1)
    state.amps[:] = 0.5  # equal weight on all four (p, h) basis states
    rng = np.random.default_rng(11)
    counts = np.zeros(4)
    draws = 100_000
    for _ in range(draws):
        label = measure(state, rng)
        counts[label.to_flat(1, 2, 1)] += 1
    assert np.all(np.abs(counts / draws - 0.25) < 0.01)


def test_measure_basis_state_is_certain():
    state = basis_state(3, 2, BasisIndex(0, 7, 1))
    for _ in range(5):
        label = measure(state, np.random.default_rng(0))
        assert label == BasisIndex(0, 7, 1)


def test_measure_is_seed_deterministic():
    state = uniform_superposition(2, 4)
    a = [measure(state, np.random.default_rng(42)) for _ in range(10)]
    b = [measure(state, np.random.default_rng(42)) for _ in range(10)]
    assert a == b


def test_measure_amplified_state_frequency():
    from qids.grover import amplified_state
    state = amplified_state(2, 4, np.arange(16) == 5, 3)
    marked_prob = float(np.sum(np.abs(state.grid()[0, 5, :]) ** 2))
    rng = np.random.default_rng(123)
    hits = sum(measure(state, rng).p_index == 5 for _ in range(10_000))
    assert abs(hits / 10_000 - marked_prob) < 0.02


def test_measure_flags_norm_drift():
    state = uniform_superposition(2, 2)
    state.amps *= 1.01
    with pytest.raises(NormDrift):
        measure(state, np.random.default_rng(0))


def test_project_halt_equal_amplitude_example():
    # (|00>|0> + |01>|1> + |10>|1> + |11>|0>) / 2
    state = uniform_superposition(2, 2)
    state.amps[:] = 0
    grid = state.grid()
    grid[0, 0, 0] = grid[0, 3, 0] = 0.5
    grid[0, 1, 1] = grid[0, 2, 1] = 0.5
    p1, projected = project_halt(state, 1)
    assert p1 == pytest.approx(0.5, abs=1e-12)
    expected = np.zeros_like(state.amps)
    expected[BasisIndex(0, 1, 1).to_flat(1, 2, 2)] = 1 / np.sqrt(2)
    expected[BasisIndex(0, 2, 1).to_flat(1, 2, 2)] = 1 / np.sqrt(2)
    assert np.allclose(projected.amps, expected)


def test_project_halt_identity_when_all_support_matches():
    state = uniform_superposition(2, 2)
    p0, projected = project_halt(state, 0)
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(projected.amps, state.amps)


def test_project_halt_probabilities_sum_to_one():
    gen = np.random.default_rng(77)
    for _ in range(20):
        state = uniform_superposition(2, 3)
        raw = gen.normal(size=state.dimension) + 1j * gen.normal(size=state.dimension)
        state.amps[:] = raw / np.linalg.norm(raw)
        p0, _ = project_halt(state, 0)
        p1, _ = project_halt(state, 1)
        assert abs(p0 + p1 - 1.0) < 1e-10


def test_project_halt_zero_probability():
    state = uniform_superposition(2, 2)  # all support on h=0
    with pytest.raises(ZeroProbability):
        project_halt(state, 1)


# --- halt-observation demo -----------------------------------------------------

def test_demo_two_inputs_split():
    system = make_system([("A", "B")], alphabet="ABX", goals=("B",),
                         starts=("A", "X"))
    report = halt_timing_demo(system, 3)
    assert report.steps_to_halt == [1, None]
    assert report.p_halt == pytest.approx(0.5, abs=1e-12)
    grid = report.projected_halt.grid()
    assert abs(grid[0, 0, 1]) == pytest.approx(1.0)
    assert np.all(np.abs(grid[1]) == 0)


def test_demo_all_halting():
    system = make_system([("A", "B")], goals=("B",))
    report = halt_timing_demo(system, 2)
    assert report.p_halt == pytest.approx(1.0, abs=1e-12)
    assert report.projected_continue is None


def test_demo_four_inputs_straddling():
    report = halt_timing_demo(halt_timing_system(), 3, step_cap=8)
    assert report.steps_to_halt == [1, 2, 5, 5]
    assert report.p_halt == pytest.approx(0.5, abs=1e-10)
    assert abs(report.projected_halt.norm() - 1.0) < 1e-10
    assert abs(report.projected_continue.norm() - 1.0) < 1e-10


def test_demo_probabilities_complementary():
    report = halt_timing_demo(halt_timing_system(), 4, step_cap=8)
    assert abs(report.p_halt + report.p_continue - 1.0) < 1e-10
