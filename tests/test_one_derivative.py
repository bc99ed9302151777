"""Every spatial derivative goes through grid's one ``i xi`` multiplier: the ``derivative`` rule of ``guards.py``, on
every package file and on its example source."""

from guards import example_test, package_test

test_derivatives_use_the_one_multiplier = package_test("derivative")
test_the_guard_sees_every_form = example_test("derivative")
