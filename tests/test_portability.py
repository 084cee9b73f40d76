"""The round-off bound tests on another OpenBLAS kernel and one thread.

numpy's bundled OpenBLAS picks its CPU kernels at run time, and
``OPENBLAS_CORETYPE`` overrides that pick for one process; it splits a large
product between threads unless ``OPENBLAS_NUM_THREADS=1``.  This test
re-runs the kernel, statistic, shared-pass and batched-detection tests, and
the weight-route and KKT-oracle tests whose LAPACK solves and eigenvalues
go through BLAS, in a child pytest with ``OPENBLAS_CORETYPE=Haswell`` and
``OPENBLAS_NUM_THREADS=1``, set in the child's environment only, so that a
check which holds only on the host's own kernels or thread split fails
here.  The golden-byte tests of ``test_cli.py`` stay out of
it: the golden files are the bytes of the kernels they were written with
until preset A's taps and ``convolve`` no longer go through BLAS (ROADMAP
item 2(a)).
"""

import os
from pathlib import Path
import subprocess
import sys

import pytest

from conftest import _blas_core

ROOT = Path(__file__).resolve().parent.parent
BOUND_TESTS = [
    "tests/test_analysis_bank.py::TestRunBank::test_every_row_equals_its_window_alone",
    "tests/test_analysis_bank.py::TestStreaming::test_identical_to_batch",
    "tests/test_analysis_bank.py::TestStreaming::test_random_chunkings_equal_batch",
    "tests/test_analysis_bank.py::TestStreaming::test_rejects_non_finite_chunk_and_keeps_nothing_of_it",
    "tests/test_bank_properties.py",
    "tests/test_detector.py::TestNoiseCorrection::test_residual_slices_equal_one_pass",
    "tests/test_detector.py::TestStatisticBlocks",
    "tests/test_detector.py::TestFusedProducts",
    "tests/test_sim_harness.py::TestCalibration::test_read_span_peaks_equal_whole_trace_peaks",
    "tests/test_sim_harness.py::TestBatchedDetection::test_reports_equal_per_trace_path",
    "tests/test_sim_harness.py::TestBatchedDetection::test_groups_give_one_pass_results",
    "tests/test_sim_harness.py::TestBatchedDetection::test_run_detector_is_the_one_trace_case",
    "tests/test_sim_harness.py::TestKeptDesigns::test_reports_equal_a_fresh_design_and_transform",
    "tests/test_cli.py::TestDetectionCsv",
    "tests/test_weight_properties.py",
]


def _has_avx2() -> bool:
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


@pytest.mark.skipif(_blas_core() == "unknown" or not _has_avx2(),
                    reason="needs numpy's bundled OpenBLAS and an AVX2 CPU")
def test_bound_tests_pass_on_haswell_kernels():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *BOUND_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert "BLAS core Haswell, BLAS threads 1" in result.stdout, \
        result.stdout[:2000]
    assert result.returncode == 0, result.stdout[-4000:]
