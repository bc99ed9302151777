"""The heat semigroup e^{-mu |xi|^2 t} is one multiplier, ``grid._heat_multiplier``: the ``heat_flow`` rule of
``guards.py``, on every package file and on its example source."""

from guards import example_test, package_test

test_the_heat_semigroup_is_one_multiplier = package_test("heat_flow")
test_the_guard_sees_direct_and_assigned_uses = example_test("heat_flow")
