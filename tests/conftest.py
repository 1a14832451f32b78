import os

import numpy as np
import pytest

from gammaw import (
    MCConfig,
    SearchConfig,
    gaussian_problem,
    make_problem,
)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` lets this process run on k CPUs, as far as the
    reproduce-paper worker count sees."""
    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    return set_cpus


@pytest.fixture
def p2():
    """Gaussian potential with the sqrt(1+|x|^2) weight, dim 2."""
    return gaussian_problem(2)


@pytest.fixture
def p1():
    return gaussian_problem(1)


@pytest.fixture
def p2_noweight():
    return make_problem(2, "gaussian", "zero")


@pytest.fixture
def fast_search():
    # keep grids small; unit tests only need the right extremum basin
    return SearchConfig(
        radii_schedule=(10.0, 100.0, 1000.0),
        grid_per_axis=33,
        multistart_count=4,
        local_steps=200,
        seed=0,
    )


@pytest.fixture
def small_mc():
    return MCConfig(n_paths=4000, dt=1e-2, seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
