"""What the numbers were measured on: cores, CPU, Python, NumPy, BLAS, cache."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l3_bytes() -> int:
    """Size of the highest-level cache cpu0 sees, from sysfs; 0 if unknown."""
    best_level, size = 0, 0
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = int(_read(str(index / "level")) or 0)
        text = _read(str(index / "size")).strip()
        if level > best_level and text.endswith("K"):
            best_level, size = level, int(text[:-1]) * 1024
    return size


def _blas() -> tuple[str, int]:
    """BLAS library NumPy was built with, and its thread count (-1 if unknown)."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        label = f"{name.get('name')} {name.get('version')}"
    except (TypeError, KeyError):
        label = "unknown"
    loaded = {
        line.split()[-1]
        for line in _read("/proc/self/maps").splitlines()
        if "blas" in line.lower() and line.split()[-1].startswith("/")
    }
    for path in sorted(loaded):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return label, int(getter())
    return label, -1


def report(n_qubits: int) -> dict:
    """Machine facts plus the size of one n-qubit complex128 state beside the LLC."""
    blas, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "llc_bytes": _l3_bytes(),
        "state_bytes": 16 << n_qubits,
    }
