import pytest

from swlp.sweeps import RATIO_NAMES, _TWO_SIDED, frozen_path, load_frozen, sweep_ratios

HEADROOM = 1.1


@pytest.fixture(scope="module")
def frozen():
    assert frozen_path().exists(), "frozen constants missing; run scripts/freeze_sweeps.py"
    return load_frozen()


def test_frozen_covers_all_ratios(frozen):
    assert set(frozen) == set(RATIO_NAMES)
    for name, rec in frozen.items():
        assert rec["max"] > 0
        if name in _TWO_SIDED:
            assert 0 < rec["min"] <= rec["max"]


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_fresh_seed_within_frozen_envelope(frozen, seed):
    ratios = sweep_ratios(seed)
    for name in RATIO_NAMES:
        assert ratios[name] <= HEADROOM * frozen[name]["max"], name
        if name in _TWO_SIDED:
            assert ratios[name] >= frozen[name]["min"] / HEADROOM, name


def test_ratios_finite_and_positive():
    ratios = sweep_ratios(4242)
    for name, v in ratios.items():
        assert v > 0 and v == v, name
