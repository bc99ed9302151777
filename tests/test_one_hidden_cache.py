"""A value holds what it is: no ``cached_property`` and no ``copy`` module in the package, the
``hidden_cache`` rule of ``guards.py``, on every package file and on its example source."""

from guards import example_test, package_test

test_nothing_is_cached_on_a_value = package_test("hidden_cache")
test_the_guard_sees_cached_properties_and_copies = example_test("hidden_cache")
