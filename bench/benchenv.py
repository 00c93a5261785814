"""Where the benchmark finds the program, and the thread settings it runs with."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: the steadiest timing on a small shared machine,
# and within any machine's core count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1


def use_checkout_sources() -> None:
    """Import ``pcplace`` from this checkout's ``src`` or exit with code 2.

    Must run before numpy is imported, so that the thread pin holds.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if not (SRC / "pcplace" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no program sources at {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import pcplace

    if Path(pcplace.__file__).resolve().parent != SRC / "pcplace":
        sys.stderr.write(f"benchmark: imported pcplace from {pcplace.__file__}\n")
        raise SystemExit(2)
