"""Every function the benchmark's tracer wraps exists in the package.

``perfbench/tracer.py`` is read with ``ast``, not imported, so this guard
runs with the package's own tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_pairs() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("no TRACED tuple in perfbench/tracer.py")


@pytest.mark.parametrize("module, name", traced_pairs(), ids=lambda x: x)
def test_traced_name_resolves(module, name):
    owner = importlib.import_module(f"swlp.{module}")
    if (module, name) == ("dyadic", "cumulative_below"):
        # the tracer wraps this method on the class
        owner = owner.DyadicFilter
    assert callable(getattr(owner, name, None)), f"{module}.{name}"
