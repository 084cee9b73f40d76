"""Steadiness check: two sets of ten benchmark runs of the same commit.

    python3 perfbench/steady.py                          # every workload
    python3 perfbench/steady.py --workload long-stream   # one workload (repeatable)

Each run is ``perfbench/run.py`` at the ``run_seconds`` of ``BENCHMARK.json``
with its own seed, run one at a time, the workloads taking turns.  The raw
results are written to ``.perfbench_out/`` first.  Then, for every workload
and end-to-end metric, it prints the median and quartiles of each set with
the unit, the spread (quartile distance over the median), and whether the
sets agree within the bound in ``BENCHMARK.json``: every spread within the
bound, and the two sets' medians within the bound of each other.  It prints
the ungated ``samples_per_s`` and ``op_p50_ms`` the same way, and the
failed-op fraction of each set.  Exit code 0 means they agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run: its result, with the ungated metrics merged in."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2].removeprefix("meta "))
    result["metrics"].update(meta["reported"])
    return result


def spread(values):
    # statistics.quantiles' default (exclusive) method: the bounds in
    # BENCHMARK.json are judged on quartiles taken this way.
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    started = time.monotonic()
    for s in range(SETS):
        for r in range(RUNS):
            for w in workloads:
                seed = 1000 * (s + 1) + r
                results[w][s].append(run_once(w, seed, spec["run_seconds"]))
                print(f"# set {s + 1} run {r + 1} {w} seed {seed} done "
                      f"({time.monotonic() - started:.0f} s)", file=sys.stderr)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(json.dumps(results, indent=1))

    agree = True
    for w in workloads:
        print(f"\n{w}")
        for m in spec["end_to_end"] + [{"name": "samples_per_s"}, {"name": "op_p50_ms"}]:
            name, bound = m["name"], m.get("bound")
            medians = []
            for s, runs in enumerate(results[w]):
                q1, med, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                unit = runs[0]["metrics"][name]["unit"]
                medians.append(med)
                if bound is None:
                    verdict = "(reported, not gated)"
                else:
                    ok = sp <= bound
                    agree &= ok
                    verdict = (f"(bound {bound}, target < {bound / 3:.3f}) "
                               f"{'ok' if ok else 'TOO WIDE'}")
                print(f"  {name:15s} set {s + 1}: median {med:12.6g} {unit:5s} "
                      f"q1 {q1:12.6g} q3 {q3:12.6g} spread {sp:6.3f} {verdict}")
            if bound is not None:
                change = (medians[1] - medians[0]) / medians[0]
                ok = abs(change) <= bound
                agree &= ok
                print(f"  {name:15s} set 2 vs set 1: {change:+.3f} "
                      f"(bound {bound}) {'ok' if ok else 'DIFFER'}")
        for s, runs in enumerate(results[w]):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            agree &= failed == 0 and all(r["correct"] for r in runs)
            print(f"  {'failed_ops_frac':15s} set {s + 1}: {failed / attempted:.6g} ratio "
                  f"({failed} of {attempted} ops)")
    print(f"\n{'AGREE' if agree else 'DISAGREE'} within the bounds of BENCHMARK.json")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
