"""Run every workload over several seeds and summarise the end-to-end metrics.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Runs perfbench/run.py once per (seed, workload), one process at a time,
seeds 1..runs (shifted by --first-seed), workloads interleaved so that
drift on the machine spreads over all of them. For each workload and metric
it records the ten values, their median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json. It does the same, without bounds, for
the workload-specific metrics each run prints above its JSON line.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    """(result JSON, machine block, printed workload-specific metrics) of one run."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line[len("machine "):]) for line in lines if line.startswith("machine "))
    start = next(i for i, line in enumerate(lines) if line.startswith("end-to-end ("))
    named = {}
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        name, value, unit = line.split()
        named[name] = (float(value), unit)
    return json.loads(lines[-1]), machine, named


def summarize(values: list[float], unit: str, bound: float | None = None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "unit": unit, "values": values, "n": len(values), "median": median,
        "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "bound": bound,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {w: [] for w in workloads}
    machine = None
    started = time.time()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            result, machine, named = run_once(workload, seed, spec["run_seconds"])
            results[workload].append({"seed": seed, "named": named, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    report = {"machine": machine, "run_seconds": spec["run_seconds"],
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "wall_s": round(time.time() - started, 1), "workloads": {}}
    for workload, runs in results.items():
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs],
                                   runs[0]["metrics"][name]["unit"], bound)
                   for name, bound in bounds.items()}
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
            # the workload-specific names printed above the JSON line; not bounded
            "printed": {name: summarize([r["named"][name][0] for r in runs], unit)
                        for name, (_, unit) in runs[0]["named"].items()},
        }
        print(f"\n{workload}")
        printed = report["workloads"][workload]["printed"]
        for name, m in {**printed, **metrics}.items():
            bound = f"bound {m['bound']:.0%}" if m["bound"] is not None else "printed"
            flag = "  <-- above a third of the bound" if m["bound"] and m["spread"] > m["bound"] / 3 else ""
            print(f"  {name:20s} median {m['median']:12.6g} {m['unit']:9s} "
                  f"spread {m['spread']:7.2%} ({bound}){flag}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
