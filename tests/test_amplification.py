"""Iterate counts, the success-probability formulas and the closed-form vector."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qids.errors import InputError, KZero, SizeLimit
from qids.driver import (amplified_probabilities, literal_iterations, optimal_iterations,
                         predicted_success_asymptotic, predicted_success_exact)
from qids.statevector import amplified_state, simulated_success


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
    closed = amplified_probabilities(marks, m)
    state = amplified_state(marks, m)
    assert state.shape == (len(marks), 2)
    dense = np.abs(state.ravel()) ** 2
    assert closed.shape == dense.shape
    assert np.max(np.abs(closed - dense)) <= 1e-12
    assert abs(closed.sum() - 1.0) <= 1e-12


def test_closed_form_probabilities_reject_bad_input(monkeypatch):
    with pytest.raises(InputError):
        amplified_probabilities(np.zeros(4, dtype=bool), -1)
    monkeypatch.setenv("QIDS_SIM_CAP", "64")
    with pytest.raises(SizeLimit):
        amplified_probabilities(np.zeros(64, dtype=bool), 1)


def test_optimal_policy_reaches_half_mass_when_sparse():
    for n in (8, 16, 32, 64, 128):
        for k in range(1, n // 4 + 1):
            m = optimal_iterations(n, k)
            assert predicted_success_exact(n, k, m) >= 0.5, (n, k, m)
