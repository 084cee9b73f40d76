"""Shared fixtures: preset designs and transforms are built once per session.

``filter_design.design`` keeps its recent results, so a test that patches
what ``design`` calls must call ``fd.design.cache_clear()`` first.

The session header names numpy's BLAS and the CPU kernels it picked at run
time.  The kernel, statistic and detection tests assert round-off bounds
(``roundoff.py``) that hold on every kernel; the golden-byte tests of
``test_cli.py`` hold for the kernels the golden files were written with
(OpenBLAS 0.3.31, SkylakeX).
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest

import sgwhiten as sg
from sgwhiten.detector import build_ortho_transform


def _blas_core() -> str:
    """The CPU kernels of numpy's bundled scipy-openblas at run time, or
    "unknown" where numpy bundles none or it does not say."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _blas_build() -> str:
    """Name and version of the BLAS numpy was built with, or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # numpy before 1.25 has no dicts mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def pytest_report_header(config):
    return (f"numpy {np.__version__}, BLAS {_blas_build()}, "
            f"BLAS core {_blas_core()}")


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
