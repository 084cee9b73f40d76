"""The benchmark's span tracer still reaches the program.

``perfbench/tracing.py`` names the functions it wraps and the parameters its
hooks read; a renamed function fails when the tracer is built, and a renamed
hooked parameter fails when a hooked span records its info.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from sgwhiten import analysis_bank as ab
from sgwhiten import cli
from sgwhiten import sim_harness as sim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooked_spans_record_their_info(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        sim.calibrate_amplitude(seeds=(0,))
        sim.run_experiment(seeds=(0,))
        # Detection forms no bank rows; a direct call exercises the bank hook.
        ab.run_bank(ab.SampleSequence(values=np.arange(40.0)), np.ones((5, 17)))
        path = tmp_path / "x.csv"
        cli.write_csv(path, ("x",), [np.arange(4.0)])
        cli.read_csv_column(path, "x")
    finally:
        tracer.uninstall()
    hooks = tracing._hooks({layer: sys.modules[f"sgwhiten.{layer}"]
                            for layer in tracing.TRACED})
    hooked = [span for span in tracer.spans if span[tracing.NAME] in hooks]
    assert {span[tracing.NAME] for span in hooked} >= {
        "filter_design.design", "analysis_bank.run_bank",
        "sim_harness.calibrate_amplitude", "cli.write_csv", "cli.read_csv_column"}
    assert all(span[tracing.INFO] is not None for span in hooked)
    assert tracer.layer_metrics(1)["sim_harness.calibrate_amplitude.calls"] == 1
