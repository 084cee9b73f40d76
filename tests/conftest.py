"""Shared fixtures: preset designs and transforms are built once per session.

``filter_design.design`` keeps its recent results, so a test that patches
what ``design`` calls must call ``fd.design.cache_clear()`` first.

The session header names numpy's BLAS, the CPU kernels it picked at run
time and the threads it may split a product between.  The kernel, statistic
and detection tests assert round-off bounds (``roundoff.py``) that hold on
every kernel and thread count; the golden-byte tests of ``test_cli.py`` hold
for the kernels the golden files were written with (OpenBLAS 0.3.31,
SkylakeX).
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest

import sgwhiten as sg
from sgwhiten.detector import build_ortho_transform


def _openblas(name: str, restype):
    """A no-argument function of numpy's bundled scipy-openblas, or None
    where numpy bundles none or it has no such function."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            function = getattr(ctypes.CDLL(str(path)), name)
        except (OSError, AttributeError):
            continue
        function.argtypes = []
        function.restype = restype
        return function
    return None


def _blas_core() -> str:
    """The CPU kernels numpy's bundled OpenBLAS picked at run time, or
    "unknown" where numpy bundles none or it does not say."""
    corename = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return "unknown" if corename is None else corename().decode()


def _blas_threads() -> str:
    """The threads numpy's bundled OpenBLAS may split a product between, or
    "unknown" where numpy bundles none or it does not say."""
    threads = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return "unknown" if threads is None else str(threads())


def _blas_build() -> str:
    """Name and version of the BLAS numpy was built with, or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # numpy before 1.25 has no dicts mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def pytest_report_header(config):
    return (f"numpy {np.__version__}, BLAS {_blas_build()}, "
            f"BLAS core {_blas_core()}, BLAS threads {_blas_threads()}")


@pytest.fixture(scope="session")
def presets():
    return {lab: sg.design_preset(lab) for lab in sg.PRESET_LABELS}


@pytest.fixture(scope="session")
def transforms(presets):
    return {lab: build_ortho_transform(f.operators.psi, f.operators.weight.matrix)
            for lab, f in presets.items()}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
