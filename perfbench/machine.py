"""Run metadata and the machine-speed probe.

The probe is a fixed small job run between ops.  Its times are recorded so
that host drift within and across runs is visible; they never scale a metric.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

_PROBE_MATRIX = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)


def probe_ms() -> float:
    """Milliseconds for a fixed mix of small matrix products and interpreter work."""
    start = time.perf_counter()
    a = _PROBE_MATRIX
    for _ in range(20):
        a = np.tanh(a @ _PROBE_MATRIX)
    total = 0
    for i in range(20_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        size = _read(str(index / "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _blas() -> dict:
    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = deps.get("name")
        info["version"] = deps.get("version")
    except (TypeError, KeyError):
        pass
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" in path.lower():
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    break
            break
    return info


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source(root: Path) -> dict:
    lines = code = 0
    for path in sorted((root / "src").rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            lines += 1
            stripped = line.strip()
            code += bool(stripped) and not stripped.startswith("#")
    return {"src_lines": lines, "src_code_lines": code}


def metadata(root: Path) -> dict:
    return {
        "machine": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "caches": _caches(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas": _blas()},
        "program": {"git_commit": _git_commit(root), **_source(root)},
    }
