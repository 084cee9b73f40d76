"""Benchmark for sgwhiten: one workload, one seed, one run.

    python3 perfbench/run.py --workload long-stream --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  With ``--trace 0`` the run reports the end-to-end metrics
named in ``BENCHMARK.json``, and the ungated ``REPORTED`` ones in its
metadata; with ``--trace 1`` it interleaves untraced and traced ops and
reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it (``meta ...``) holds the run's metadata.
Set-up time is the median of several fresh-interpreter set-ups, each timed
from before the interpreter is started until it is ready for its first op.
They are spread over the run, between ops, so that they sample the host's
speed across the run rather than at one moment.

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
OUTDIR = ROOT / ".perfbench_out"

# One process with at most two BLAS threads, whatever the host's core count.
THREADS = str(min(2, os.cpu_count() or 1))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = THREADS

import machine  # noqa: E402  (imports numpy, which reads the thread settings)

# Reported with every untraced run but not gated in BENCHMARK.json: on a host
# whose speed switches between two states, these follow the share of the run
# spent in the fast state (see README.md); failed_ops_frac is 0 when all is well.
REPORTED = {"samples_per_s": "1/s", "op_p50_ms": "ms", "failed_ops_frac": "ratio"}

SETUP_REPEATS = 7
PROBE_INTERVAL_S = 0.5
CHILD_TIMEOUT_S = 60


def load_program():
    """Import sgwhiten from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "sgwhiten" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sgwhiten package under {src}")
    sys.path.insert(0, str(src))
    import sgwhiten
    if Path(sgwhiten.__file__).resolve().parent != (src / "sgwhiten").resolve():
        sys.exit(f"perfbench: imported sgwhiten from {sgwhiten.__file__}, not {src}")


def build(workload: str, seed: int, workdir: Path):
    """Set-up as a user would pay it: inputs, preset designs, one warm-up op."""
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed, workdir)
    return wl, wl.op(-1)[1]


def setup_time(args) -> float:
    """Seconds from spawning a fresh interpreter to its workload being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    spawned = time.monotonic()
    child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        sys.exit(f"perfbench: set-up child failed:\n{child.stderr}")
    return json.loads(child.stdout.strip().splitlines()[-1])["ready"] - spawned


def quantiles(values, n):
    """Cut points by linear interpolation between order statistics."""
    if len(values) < 2:
        return [values[0]] * (n - 1)
    return statistics.quantiles(values, n=n, method="inclusive")


def checked(wl, i, output):
    """The op's check; a check that raises is a failed check."""
    try:
        return wl.check(i, output)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_ops(wl, seconds: float, tracer, setup):
    """Closed loop of ops until the time is up.

    Checks, probes and the ``setup`` measurements (if ``setup`` is given) sit
    between ops, outside the timed intervals.
    """
    untraced, traced, samples = [], [], 0
    setups: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    probes: list[tuple[float, float]] = []
    begin = time.perf_counter()
    next_probe = begin
    timed = 0.0
    i = 0
    # A traced run makes at least one untraced and one traced op.
    while timed < seconds or (tracer is not None and i < 2):
        tracing = tracer is not None and i % 2 == 1
        if tracing:
            tracer.install(i)
        start = time.perf_counter()
        try:
            count, output = wl.op(i)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            elapsed = time.perf_counter() - start
            output, count = None, 0
            problems.append(f"op {i}: raised {type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - start
        finally:
            if tracing:
                tracer.uninstall()
        timed += elapsed
        attempted += 1
        if output is None:
            failed += 1
        else:
            (traced if tracing else untraced).append(elapsed)
            samples += count
            found = checked(wl, i, output)
            if found:
                failed += 1
                problems += [f"op {i}: {p}" for p in found]
        now = time.perf_counter()
        if now >= next_probe:
            probes.append((now - begin, machine.probe_ms()))
            next_probe = now + PROBE_INTERVAL_S
        if (setup is not None and len(setups) < SETUP_REPEATS
                and len(setups) * seconds <= SETUP_REPEATS * timed):
            setups.append(setup())
        i += 1
    while setup is not None and len(setups) < SETUP_REPEATS:
        setups.append(setup())
    return {"untraced": untraced, "traced": traced, "samples": samples, "timed": timed,
            "attempted": attempted, "failed": failed, "problems": problems,
            "probes": probes, "setups": setups}


def end_to_end(res) -> dict:
    lat = res["untraced"]
    return {
        "samples_per_s": res["samples"] / sum(lat) if lat else 0.0,
        "op_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "op_p90_ms": quantiles(lat, 10)[8] * 1e3 if lat else 0.0,
        "setup_s": statistics.median(res["setups"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ops_frac": res["failed"] / res["attempted"],
    }


def per_layer(res, tracer) -> dict:
    """Layer metrics per traced op, the tracing overhead and the coverage check."""
    untraced, traced = res["untraced"], res["traced"]
    out = tracer.layer_metrics(len(traced))
    out["trace.op_untraced_p50_ms"] = statistics.median(untraced) * 1e3
    out["trace.op_traced_p50_ms"] = statistics.median(traced) * 1e3
    out["trace.overhead_ms"] = out["trace.op_traced_p50_ms"] - out["trace.op_untraced_p50_ms"]
    # The layers' self times must account for the untraced op time to within
    # the tracing overhead.
    gap = abs(out["trace.layers_self_ms"] - out["trace.op_untraced_p50_ms"])
    out["trace.coverage_ok"] = float(gap <= abs(out["trace.overhead_ms"]))
    return out


def main(argv=None) -> int:
    from_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    load_program()

    if args.setup_only:
        # Set-ups run while the measuring process holds WORKDIR.
        wl, _ = build(args.workload, args.seed, WORKDIR / "setup")
        ready = time.monotonic()
        wl.close()
        print(json.dumps({"ready": ready}))
        return 0

    wl, warmup = build(args.workload, args.seed, WORKDIR)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    try:
        # The warm-up output is checked in full but is not counted as an op.
        warmup_problems = [f"warm-up: {p}" for p in checked(wl, 0, warmup)]
        setup = None if args.trace else lambda: setup_time(args)
        res = run_ops(wl, args.seconds, tracer, setup)
    finally:
        wl.close()
    res["problems"][:0] = warmup_problems

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(res, tracer) if args.trace else end_to_end(res)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    reported = {} if args.trace else {name: {"value": values[name], "unit": unit}
                                      for name, unit in REPORTED.items()}
    probe = [ms for _, ms in res["probes"]]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": wl.sizes, **machine.metadata(ROOT),
        "blas_threads_env": THREADS,
        "ops": {"untraced": len(res["untraced"]), "traced": len(res["traced"]),
                "checked_every": wl.checked_every, "timed_s": res["timed"]},
        "reported": reported,
        "setup_s_each": res["setups"],
        "probe_ms": {"median": statistics.median(probe), "quartiles": quantiles(probe, 4),
                     "series": [[round(t, 2), round(ms, 3)] for t, ms in res["probes"]]},
        "problems": res["problems"][:20],
        "wall_s": time.monotonic() - from_start,
    }
    OUTDIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUTDIR / f"{stem}.spans.jsonl")
    result = {"correct": not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    (OUTDIR / f"{stem}.json").write_text(json.dumps({"meta": meta, **result,
                                                     "all": values}, indent=1))
    for problem in res["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, m in {**metrics, **reported}.items():
        print(f"{args.workload:12s} {name:45s} {m['value']:14.6g} {m['unit']}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
