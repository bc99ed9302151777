"""Every Besov-type norm weights its dyadic blocks in ``besov._weighted``: the ``weighted_sum`` rule of
``guards.py``, on every package file and on its example source."""

from guards import example_test, package_test

test_block_weights_use_the_one_sum = package_test("weighted_sum")
test_the_guard_sees_both_spellings = example_test("weighted_sum")
