"""The exact success form against simulation, and counting; the iterate counts, the
closed forms and the closed-form vector are in tests/test_amplification.py."""

import numpy as np
import pytest

from conftest import tree_system
from qids.driver import predicted_success_exact
from qids.production import marked_vector
from qids.statevector import simulated_success


# --- closed forms --------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_exact_form_matches_simulation(n, k):
    gen = np.random.default_rng(n * 100 + k)
    marks = np.zeros(n, dtype=bool)
    marks[gen.choice(n, size=k, replace=False)] = True
    for m in range(11):
        assert abs(simulated_success(marks, m)
                   - predicted_success_exact(n, k, m)) < 1e-9


# --- counting -------------------------------------------------------------------------

def test_prefix_structure_grows_counts():
    system = tree_system(3)
    k = {d: marked_vector(system, "E", d).k for d in range(7)}
    for d in range(3, 6):
        assert k[d + 1] >= 2 * k[d]


def test_prefix_structure_grows_counts_on_random_systems():
    from conftest import random_system
    for trial in range(8):
        system, start = random_system(np.random.default_rng(5600 + trial))
        b = system.branching_factor
        for d in range(5):
            k_here = marked_vector(system, start, d).k
            k_next = marked_vector(system, start, d + 1).k
            assert k_next >= b * k_here
