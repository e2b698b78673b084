"""Process set-up shared by the benchmark's scripts.

BLAS threads are pinned before numpy is first imported, in this process and
in every child it starts, so the parent commit and a change are measured
with the same thread count. ``sepsim`` is imported from the checkout's
``src/``, never from an installed copy.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


class MissingSource(RuntimeError):
    """The checkout holds no ``src/sepsim`` package to benchmark."""


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source() -> None:
    """Put ``src/`` first on sys.path and check that ``sepsim`` comes from it."""
    if not (SRC / "sepsim" / "__init__.py").is_file():
        raise MissingSource(f"no sepsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sepsim

    if Path(sepsim.__file__).resolve().parent != (SRC / "sepsim").resolve():
        raise MissingSource(f"sepsim imported from {sepsim.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for child processes: pinned threads, checkout source."""
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env
