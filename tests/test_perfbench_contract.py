"""The benchmark's calls into the program still give checked outputs.

``perfbench/workloads.py`` calls the program by name and signature, and
``perfbench/reference.py`` checks what comes back.  Both are loaded read-only,
with ``perfbench/`` on ``sys.path`` only while they are imported, and a
short run of each kind of call must pass the benchmark's own checks.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from sgwhiten import filter_design as fd

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The (workloads, reference) modules, imported from ``perfbench/``; the
    path entry and the two top-level module names are taken away again."""
    names = ("workloads", "reference")
    sys.path.insert(0, str(PERFBENCH))
    try:
        return tuple(importlib.import_module(name) for name in names)
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in names:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("label, m", [("A", 17), ("E", 17), ("E", 257)])
def test_detect_block_matches_the_reference(perfbench, label, m):
    workloads, reference = perfbench
    filt = fd.design_preset(label, m=m)
    rng = np.random.default_rng(m)
    x = workloads.recording(rng, 4096 + m - 1)
    seq = workloads.ab.SampleSequence(values=x, start=1000)
    z, events = workloads.detect_block(seq, filt, workloads.transform_of(filt))
    assert len(z) == 4096
    assert reference.check_detection(seq, filt, z, events, workloads.EPSILON,
                                     workloads.GAMMA_DB) == []


@pytest.mark.parametrize("name", ["paper-table", "cli-files"])
def test_workload_op_passes_its_check(perfbench, tmp_path, name):
    workloads, _ = perfbench
    workload = workloads.WORKLOADS[name](7, tmp_path / name)
    try:
        output = workload.op(0)[1]
        assert workload.check(0, output) == []
    finally:
        workload.close()
