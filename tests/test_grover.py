"""The exact success form against simulation; the iterate counts, the closed forms and
the closed-form vector are in tests/test_amplification.py, and the counting properties
of the marking walk in tests/test_production.py."""

import numpy as np
import pytest

from qids.driver import predicted_success_exact
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
