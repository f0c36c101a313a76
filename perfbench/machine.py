"""The environment record every benchmark result carries.

Run as a script it prints the record as JSON; the benchmark runs it in a child
with the same environment as the flatmin children, so the OpenBLAS thread
count is the one they see and the benchmark process itself never loads numpy
for an untraced run.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    """Cache level -> size as the kernel reports it for cpu0 (e.g. "2048K")."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _openblas() -> dict:
    """Runtime OpenBLAS config and thread count, from the library numpy loaded."""
    info = {"build_version": None, "config": None, "threads": None}
    build = getattr(np.__config__, "CONFIG", {})  # numpy >= 2 only
    blas = build.get("Build Dependencies", {}).get("blas", {})
    info["build_version"] = blas.get("version")
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return info
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", ""), ("openblas_", "64_")):
            try:
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            info["threads"] = threads()
            info["config"] = config().decode()
            return info
    return info


def record() -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "FLATMIN_THREADS_set": "FLATMIN_THREADS" in os.environ,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


if __name__ == "__main__":
    json.dump(record(), sys.stdout, sort_keys=True)
    print()
