import numpy as np
import pytest

from cmvscat import CircleGrid, LaurentSeries, ScatteringFunction
from cmvscat.config import RunConfig
from cmvscat.families import random_trig

# the seven families of the README's examples, the anchor second
README_FAMILIES = ["zero", "random,degree=4,margin=0.2,seed=0", "blaschke,r=0.8",
                   "monomial,gamma=0.5,k=1", "monomial,gamma=0.7447,k=8",
                   "random,degree=8,margin=0.2,seed=3", "monomial,gamma=0.5,k=100"]


@pytest.fixture
def grid():
    return CircleGrid(256)


@pytest.fixture
def small_cfg():
    # scaled-down defaults so unit tests stay quick
    return RunConfig(
        grid_size=256,
        levels=6,
        section_start=16,
        section_cap=128,
    )


@pytest.fixture
def r_zero(grid):
    return ScatteringFunction.from_coeffs(LaurentSeries(0, [0j]), grid)


@pytest.fixture
def r_half(grid):
    # R = 0.5 tbar, the worked rank-one case
    return ScatteringFunction.from_coeffs(LaurentSeries(-1, [0.5]), grid)


@pytest.fixture
def r_smooth(grid):
    return random_trig(grid, degree=6, margin=0.25, seed=7)


def assert_close(a, b, tol, label=""):
    dev = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    assert dev <= tol, f"{label}: deviation {dev:.3e} > {tol:.1e}"
