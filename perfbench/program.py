"""Locate the dpsco sources of this checkout and import them from there."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Cells run serially on one core.  A second BLAS thread would share the
# other core of a small shared host with whatever else runs there, and the
# main thread waits for it inside every matrix-vector product: on 2 vCPUs
# that made convex_trend's run medians spread by up to 40 % between runs.
# Set before numpy is first imported; child processes inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    pass


def load():
    """Put ``<checkout>/src`` first on sys.path and import dpsco from it."""
    if not (SRC / "dpsco" / "__init__.py").is_file():
        raise MissingProgram(f"no dpsco sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dpsco

    if Path(dpsco.__file__).resolve().parent != SRC / "dpsco":
        raise MissingProgram(f"dpsco was imported from {dpsco.__file__}, not from {SRC}")
    return dpsco
