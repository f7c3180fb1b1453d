"""Point the interpreter at the checkout's own ``src`` tree.

The benchmark measures the program as it stands in the checkout it runs
from, never a copy installed elsewhere; without ``src`` it must fail.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Import ``dersizer`` from ``<checkout>/src`` or exit with an error."""
    if not (SRC / "dersizer" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dersizer

    if Path(dersizer.__file__).resolve().parent != (SRC / "dersizer").resolve():
        sys.exit(f"perfbench: dersizer imported from {dersizer.__file__}, not {SRC}")
