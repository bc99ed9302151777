import math

import numpy as np
import pytest

import swlp
from swlp import SolverConfig, default_filter, gaussian_bump, make_grid


@pytest.fixture(scope="session")
def grid2d():
    return make_grid(2, 64, (2 * math.pi, 2 * math.pi))


@pytest.fixture(scope="session")
def filt2d(grid2d):
    return default_filter(grid2d)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def acceptance_run(tmp_path_factory):
    """The large shared decay run (criteria on exponents, conservation,
    max principle, and working-norm growth all read from it)."""
    from swlp.harness import RunConfig, run

    config = RunConfig(dim=2, n=512, period=64.0, mu=0.1, a=1e-5, dt=0.05,
                       t_end=20.0, amplitude=0.5, width=1.0, eps=1e-3, seed=0)
    out = tmp_path_factory.mktemp("acceptance_run")
    return run(config, out_dir=out)
