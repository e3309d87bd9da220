"""The settings a result was measured under, recorded with every result so
that figures from different machines or thread settings are never compared
unnoticed."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy without the dict form of the build config
        return {"name": None, "version": None}


def _git(root: Path) -> dict:
    # a source tree without its own .git (an exported checkout) has no commit;
    # asking git there would report an enclosing repository instead
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, capture_output=True, text=True, timeout=30,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def run_record(root: Path) -> dict:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": _blas(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git": _git(root),
    }


def platform_key(record: dict) -> dict:
    """The fields that decide whether float results can match bit for bit."""
    return {"cpu": record["cpu"], "blas": record["blas"], "numpy": record["numpy"]}
