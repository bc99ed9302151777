"""The Hermitian part of the Nyquist planes is formed once, in ``grid._nyquist_hermitian``: the ``hermitian_part``
rule of ``guards.py``, on the package and on its example source."""

from guards import PACKAGE, example_test, package_sites

test_the_guard_sees_every_form = example_test("hermitian_part")


def test_the_hermitian_part_is_formed_once():
    assert [site for path in PACKAGE for site in package_sites("hermitian_part", path)] == []
