"""Read-only host facts that change benchmark results.

Every run record carries the CPU count, the BLAS library with its
version and thread count, the 1-minute load and the CPU steal ticks
accrued over the run, so that a slip between two runs can be tied to
the host or ruled out.  Nothing here changes a setting: the BLAS thread
count is read through the library's own getter, and the kernel figures
come from ``/proc``.
"""

from __future__ import annotations

import ctypes
import glob
import os
from pathlib import Path

_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_build() -> dict:
    """BLAS name and version as numpy reports its build."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"vendor": "unknown", "version": "unknown"}
    return {
        "vendor": str(blas.get("name", "unknown")),
        "version": str(blas.get("version", "unknown")),
    }


def _blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS will use, or ``None`` if unknown."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def steal_ticks() -> int | None:
    """Cumulative CPU steal ticks of the whole host (``/proc/stat``)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def load_1min() -> float | None:
    """The host's 1-minute load average."""
    try:
        return float(os.getloadavg()[0])
    except OSError:
        return None


def facts() -> dict:
    """Snapshot of the static host facts plus the current load."""
    build = _blas_build()
    return {
        "cpu_count": os.cpu_count(),
        "blas_vendor": build["vendor"],
        "blas_version": build["version"],
        "blas_threads": _blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads_env": os.environ.get("OMP_NUM_THREADS"),
        "load_1min": load_1min(),
    }
