"""Run the khlab benchmark's workloads one after another and summarise them.

    python3 perfbench/report.py                   # all metrics, every workload
    python3 perfbench/report.py --spread 10       # ten seeds: medians and quartile spreads
    python3 perfbench/report.py --determinism     # counts repeat for a seed, inputs change with it

Run from the repository root.  Each run is a fresh process of run.py, one at
a time, so no two workloads share the machine's two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py process; its result line merged with the run record it wrote."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result | {"record": json.loads(record.read_text())}


def show_all(seed: int, seconds: float) -> None:
    for name in WORKLOADS:
        res = run(name, seed, seconds, 0)
        rec = res["record"]
        print(f"\n{name} (seed {seed}): {res['attempted']} inputs, {rec['passes']} passes, "
              f"correct={res['correct']}, failed_frac={res['failed']}/{res['attempted']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:20s} {m['value']:12.4f} {m['unit']}")
        print(f"  latency_tail_ms is p{rec['tail_percentile']} of {rec['samples']} samples, "
              f"{rec['samples_beyond_tail']} beyond it")
        for probe, outcome in rec["known_defects"].items():
            print(f"  known-defect input {probe}: {outcome}")
        traced = run(name, seed, seconds, 1)["metrics"]
        print(f"  traced: wall {traced['trace.wall_s']['value']:.3f} s per pass, "
              f"self times sum to {traced['trace.self_sum_s']['value']:.3f} s, "
              f"tracing overhead x{traced['trace.overhead_ratio']['value']:.3f}")
        layers = sorted(((m["value"], k) for k, m in traced.items()
                         if k.endswith(".self_s") and m["value"]), reverse=True)
        for value, metric in layers[:6]:
            print(f"    {metric:44s} {value:.4f} s")


def show_spread(first_seed: int, seeds: int, seconds: float) -> int:
    """Median and quartile spread of every end-to-end metric over several seeds.

    Writes the summary, with the machine, to .perfbench/spread.json.
    """
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seeds": list(range(first_seed, first_seed + seeds)), "seconds": seconds,
        "workloads": {},
    }
    status = 0
    for name in WORKLOADS:
        runs = [run(name, seed, seconds, 0) for seed in summary["seeds"]]
        summary["workloads"][name] = rows = {}
        print(f"\n{name}: {seeds} seeds from {first_seed}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = metric == "setup_s" or spread < bound / 3
            status |= not steady
            rows[metric] = {"median": median, "q1": q1, "q3": q3, "iqr_over_median": spread,
                            "bound": bound, "values": values}
            print(f"  {metric:16s} median {median:12.4f}  IQR/median {spread:6.3f}  "
                  f"bound {bound}  {'ok' if steady else 'wider than bound/3'}")
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            print("  some runs were incorrect")
            status = 1
    (ROOT / ".perfbench" / "spread.json").write_text(json.dumps(summary, indent=1))
    return status


def counts_of(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def check_determinism(seed: int) -> int:
    status = 0
    for name in WORKLOADS:
        a, b, other = (run(name, s, 1, 1) for s in (seed, seed, seed + 1))
        same_counts = counts_of(a) == counts_of(b)
        same_inputs = a["record"]["inputs_sha256"] == b["record"]["inputs_sha256"]
        new_inputs = a["record"]["inputs_sha256"] != other["record"]["inputs_sha256"]
        ok = same_counts and same_inputs and new_inputs
        status |= not ok
        print(f"{name}: counts repeat {same_counts}, inputs repeat {same_inputs}, "
              f"another seed changes inputs {new_inputs}")
        if not same_counts:
            for k, v in counts_of(a).items():
                if counts_of(b).get(k) != v:
                    print(f"  {k}: {v} != {counts_of(b).get(k)}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--spread", type=int, metavar="SEEDS")
    mode.add_argument("--determinism", action="store_true")
    args = parser.parse_args()
    if args.spread:
        return show_spread(args.seed, args.spread, args.seconds)
    if args.determinism:
        return check_determinism(args.seed)
    show_all(args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
