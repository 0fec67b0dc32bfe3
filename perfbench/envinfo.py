"""Environment record printed with every benchmark result.

Two results are comparable only when these match: interpreter and library
versions, the BLAS and its thread count, the processors this process may use,
and the cache sizes that decide whether a workload's arrays stay on chip.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _blas_threads():
    # numpy wheels bundle scipy-openblas; ask it directly, as threadpoolctl would
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_bytes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        unit = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
        sizes[f"L{level}"] = int(size.rstrip("KM")) * unit
    return sizes


def environment(largest_array: str, largest_array_bytes: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_bytes()
    l3 = caches.get("L3")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "largest_array": largest_array,
        "largest_array_mb": largest_array_bytes / 1e6,
        "largest_array_over_l3": largest_array_bytes / l3 if l3 else None,
    }
