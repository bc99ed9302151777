"""Locate the package source of the checkout the benchmark sits in.

The benchmark always measures the ``swlp`` under ``<checkout>/src``, never a
copy installed elsewhere, so it refuses to run when that tree is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".perfbench_out"


class MissingSource(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Put ``<checkout>/src`` first on ``sys.path``; raise if it holds no ``swlp``."""
    if not (SRC / "swlp" / "__init__.py").is_file():
        raise MissingSource(f"no swlp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(1, here)


def check_imported() -> None:
    """Raise if the imported ``swlp`` does not come from ``<checkout>/src``."""
    import swlp

    if SRC.resolve() not in Path(swlp.__file__).resolve().parents:
        raise MissingSource(f"swlp imported from {swlp.__file__}, not from {SRC}")
