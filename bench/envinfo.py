"""Environment record attached to every benchmark result.

BLAS threads are recorded, never pinned: the thread count changes the
floating-point reduction order inside LAPACK and with it the solver's
iterate path, so a pinned count would hide what users of the default
install see.  Two results whose records differ are flagged by compare.py.
"""
from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

# OpenBLAS builds bundled with numpy/scipy wheels prefix or suffix their symbols
_THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
_CONFIG_SYMBOLS = ("openblas_get_config", "openblas_get_config64_",
                   "scipy_openblas_get_config", "scipy_openblas_get_config64_")


def _loaded_blas_libraries() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = {ln.split()[-1] for ln in maps if ln.count(" ") >= 5}
    return sorted(p for p in paths
                  if "openblas" in Path(p).name.lower() and Path(p).name.startswith("lib"))


def _call_first(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def blas_info() -> list[dict]:
    out = []
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _call_first(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        out.append({
            "library": Path(path).name,
            "owner": Path(path).parent.name,
            "config": config.decode(errors="replace").strip() if config else None,
            "threads": _call_first(lib, _THREAD_SYMBOLS, ctypes.c_int),
        })
    return out


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() or None


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def environment(root: Path) -> dict:
    """Call after numpy and scipy are imported, so their BLAS is mapped."""
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "src_lines": src_line_count(root),
    }
