"""What a result was measured on. Results are comparable only between runs
with the same interpreter, numpy, BLAS and thread count, and core count."""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _libc_sysconf(name: int) -> int | None:
    try:
        value = ctypes.CDLL(None).sysconf(name)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


# glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE; Python's
# os.sysconf does not know these names.
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded will use, asked of the library."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def describe_environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "l2_bytes": _libc_sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _libc_sysconf(_SC_LEVEL3_CACHE_SIZE),
        "workload_seed": seed,
    }
