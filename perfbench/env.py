"""Process set-up shared by the benchmark entry points.

Pins the BLAS/OpenMP thread pools before numpy is imported, puts the
checkout's ``src`` first on the import path, and records the environment.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "work"          # scratch files, traces, run records

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class MissingProgram(RuntimeError):
    """The checkout holds no molstrip sources to benchmark."""


def pin_threads() -> None:
    """One thread per pool: the workloads run in one process and one thread."""
    for name in THREAD_VARS:
        os.environ[name] = "1"


def add_source_path() -> None:
    if not (SRC / "molstrip" / "__init__.py").is_file():
        raise MissingProgram(f"no molstrip package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


def check_imported(module) -> None:
    """Refuse to measure a molstrip that was not imported from this checkout."""
    if Path(module.__file__).resolve().parent.parent != SRC:
        raise MissingProgram(f"molstrip imported from {module.__file__}, not {SRC}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }
