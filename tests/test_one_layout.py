"""Only ``grid.py`` knows how Fourier coefficients are stored: the ``layout`` rule of ``guards.py``, on every other
package file and on its example source."""

from guards import PACKAGE, example_test, package_test

test_only_grid_knows_the_layout = package_test("layout", [p for p in PACKAGE if p.name != "grid.py"])
test_the_guard_sees_every_form = example_test("layout")
