"""Process set-up shared by the benchmark's entry points.

Imports nothing heavy: BLAS reads its thread count when NumPy first
loads it, so the pin must be in the environment before that import.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("large_vectors", "large_values", "serve_small", "scale_sweep")

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def prepare() -> None:
    """Pin BLAS to one thread and put the checkout's ``src`` first on the
    import path.  Raises :class:`MissingProgram` when there is no source
    tree, so a stray installed ``repro`` is never measured instead."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Fail unless ``module`` was loaded from this checkout's ``src``."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise MissingProgram(f"repro was imported from {path}, not {SRC}")
