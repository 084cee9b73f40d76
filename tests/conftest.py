"""Shared fixtures: preset designs and transforms are built once per session.

``filter_design.design`` keeps its recent results, so a test that patches
what ``design`` calls must call ``fd.design.cache_clear()`` first.
"""

import numpy as np
import pytest

import sgwhiten as sg
from sgwhiten.detector import build_ortho_transform


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
