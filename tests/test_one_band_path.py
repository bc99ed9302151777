"""``dyadic`` is the one owner of a field's band values: the ``band_path`` rule of ``guards.py``, on every package
file and on its example source."""

from guards import example_test, package_test

test_dyadic_owns_the_band_values = package_test("band_path")
test_the_guard_sees_calls_reads_writes_and_names = example_test("band_path")
