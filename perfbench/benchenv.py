"""Where the benchmark finds the program: the ``src`` tree of the
checkout it sits in, never an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    pass


def import_xcover():
    """Import xcover from ROOT/src; raise MissingProgram when it is not there."""
    if not (SRC / "xcover" / "__init__.py").is_file():
        raise MissingProgram(f"no xcover sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import xcover
    if Path(xcover.__file__).resolve().parent != SRC / "xcover":
        raise MissingProgram(f"imported xcover from {xcover.__file__}, "
                             f"not from {SRC}")
    return xcover
