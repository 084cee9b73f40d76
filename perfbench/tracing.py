"""Span tracing of the program's public functions, for the traced run only.

``Tracer.install`` rebinds each traced function to a wrapper in every loaded
``sgwhiten`` module that holds it, including names one module imported from
another, and ``uninstall`` puts the originals back.  A span is (name, start,
end, parent, op).  A span's self time is its duration minus the time its
children's wrappers took, so the tracer's own bookkeeping lands in no layer's
self time and shows up only as tracing overhead.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter


def _digest(a) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(a).view(np.uint8), digest_size=16).digest()


def _arg(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return get


# Per-call details recorded after a traced call returns: f(args, kwargs, result).
def _hooks(modules) -> dict:
    fd, ab, dt, sim, cli = (modules[k] for k in
                            ("filter_design", "analysis_bank", "detector", "sim_harness", "cli"))
    spec = _arg(fd.design, "spec")
    bank_x, bank_h = _arg(ab.run_bank, "x"), _arg(ab.run_bank, "h_matrix")
    seeds = _arg(sim.calibrate_amplitude, "seeds")
    csv_out, csv_in = _arg(cli.write_csv, "path"), _arg(cli.read_csv_column, "path")

    def run_bank(a, k, result):
        x, h = bank_x(a, k), np.asarray(bank_h(a, k), dtype=float)
        return {"key": (_digest(x.values), x.start, _digest(h)), "n": len(x),
                "rows": len(result), "l": h.shape[0], "m": h.shape[1]}

    return {
        "filter_design.design": lambda a, k, r: {"key": spec(a, k)},
        "analysis_bank.run_bank": run_bank,
        "detector.compute_statistic": lambda a, k, r: {"samples": len(r)},
        "detector.threshold_detect": lambda a, k, r: {"events": len(r)},
        "sim_harness.calibrate_amplitude": lambda a, k, r: {"seeds": len(tuple(seeds(a, k)))},
        "cli.write_csv": lambda a, k, r: {"bytes": os.path.getsize(csv_out(a, k))},
        "cli.read_csv_column": lambda a, k, r: {"bytes": os.path.getsize(csv_in(a, k))},
    }


TRACED = {
    "noise_models": ("weight_matrix", "condition_estimate", "toeplitz_from_autocorr",
                     "invert_to_weight"),
    "filter_design": ("design", "solve_kkt", "solve_weighted_ls", "first_null_frequency",
                      "preset_cutoff"),
    "analysis_bank": ("run_bank", "convolve"),
    "detector": ("compute_statistic", "to_decibels", "threshold_detect", "peak_snr",
                 "detect", "build_ortho_transform"),
    "sim_harness": ("build_trace", "run_experiment", "calibrate_amplitude", "run_detector"),
    "cli": ("main", "write_csv", "read_csv_column", "write_filter_file", "load_filter_file"),
}

NAME, START, END, PARENT, OP, COVERED, INFO = range(7)


class Tracer:
    def __init__(self):
        modules = {layer: sys.modules[f"sgwhiten.{layer}"] for layer in TRACED}
        hooks = _hooks(modules)
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sgwhiten" or name.startswith("sgwhiten."))]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.patches = []
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, hooks.get(f"{layer}.{fname}"))
                for module in package:
                    for attr, value in vars(module).items():
                        if value is original:
                            self.patches.append((module, attr, original, wrapper))

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                rec[INFO] = hook(args, kwargs, result)
            if parent >= 0:
                spans[parent][COVERED] += clock() - entered
            return result
        return wrapper

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.patches:
            setattr(module, attr, original)
        self.op = -1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP]}) + "\n")

    def layer_metrics(self, ops: int) -> dict:
        """Per-op layer counts and self times over ``ops`` traced ops."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        design_keys = defaultdict(list)
        bank_keys = defaultdict(list)
        per = defaultdict(float)
        op_self_s = defaultdict(float)
        evals = 0.0
        for s in self.spans:
            name = s[NAME]
            calls[name] += 1
            own = (s[END] - s[START]) - s[COVERED]
            self_s[name] += own
            op_self_s[s[OP]] += own
            info = s[INFO]
            if name == "filter_design.design":
                design_keys[s[OP]].append(info["key"])
            elif name == "analysis_bank.run_bank":
                bank_keys[s[OP]].append(info["key"])
                per["run_bank.samples"] += info["rows"]
                per["run_bank.flops"] += 2 * info["rows"] * info["l"] * info["m"]
                per["run_bank.bytes"] += 8 * (info["n"] + info["l"] * info["m"]
                                              + info["rows"] * info["l"])
            elif name == "detector.compute_statistic":
                per["compute_statistic.samples"] += info["samples"]
            elif name == "detector.threshold_detect":
                per["events"] += info["events"]
            elif name in ("cli.write_csv", "cli.read_csv_column"):
                per[name + ".bytes"] += info["bytes"]
            elif name == "sim_harness.build_trace":
                parent = s[PARENT]
                while parent >= 0 and self.spans[parent][NAME] != "sim_harness.calibrate_amplitude":
                    parent = self.spans[parent][PARENT]
                if parent >= 0:
                    evals += 1.0 / self.spans[parent][INFO]["seeds"]

        def unique_share(keys_by_op) -> float:
            shares = [len(set(keys)) / len(keys) for keys in keys_by_op.values()]
            return float(np.mean(shares)) if shares else 0.0

        out = {}
        for layer, names in TRACED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = calls[name] / ops
                out[f"{name}.self_ms"] = self_s[name] * 1e3 / ops
        designs = calls["filter_design.design"]
        out.update({
            "filter_design.design.unique_share": unique_share(design_keys),
            "filter_design.kkt_share": calls["filter_design.solve_kkt"] / designs if designs else 0.0,
            "analysis_bank.run_bank.unique_share": unique_share(bank_keys),
            "analysis_bank.run_bank.samples": per["run_bank.samples"] / ops,
            "analysis_bank.run_bank.flops": per["run_bank.flops"] / ops,
            "analysis_bank.run_bank.bytes": per["run_bank.bytes"] / ops,
            "detector.compute_statistic.samples": per["compute_statistic.samples"] / ops,
            "detector.events": per["events"] / ops,
            "sim_harness.calibrate_amplitude.evals": evals / ops,
            "cli.write_csv.bytes": per["cli.write_csv.bytes"] / ops,
            "cli.read_csv_column.bytes": per["cli.read_csv_column.bytes"] / ops,
            "trace.layers_self_ms": float(np.median(list(op_self_s.values()) or [0.0])) * 1e3,
        })
        return out
