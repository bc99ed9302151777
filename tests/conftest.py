import importlib
import math
import sys

import numpy as np
import pytest

from swlp import default_filter, make_grid

pytest.register_assert_rewrite("guards")  # the guard tests assert there, and their failures list the sites


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


def _counted(monkeypatch, module: str, name: str) -> list:
    """Counts calls of ``swlp.<module>.<name>`` made from any swlp module."""
    original = getattr(importlib.import_module(f"swlp.{module}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, module_obj in list(sys.modules.items()):
        if mod_name.startswith("swlp") and getattr(module_obj, name, None) is original:
            monkeypatch.setattr(module_obj, name, counted)
    return calls


@pytest.fixture
def counted(monkeypatch):
    """``counted(module, name)`` starts counting calls of ``swlp.<module>.<name>``."""
    return lambda module, name: _counted(monkeypatch, module, name)


@pytest.fixture
def inverse_transforms(monkeypatch):
    """Counts calls of ``grid.inverse_transform`` made from any swlp module."""
    return _counted(monkeypatch, "grid", "inverse_transform")


@pytest.fixture
def transforms(monkeypatch):
    """Counts calls of ``grid.transform`` made from any swlp module."""
    return _counted(monkeypatch, "grid", "transform")
