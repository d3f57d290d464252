"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-soft --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced; with --trace 1 they are its per-layer metrics, from a
traced run that follows an untraced one of half the length (their ratio is
the tracing overhead). The traced run's spans are written under
.perfbench_out/.
"""

import bootstrap  # noqa: F401  (caps BLAS threads before numpy loads)

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

import workloads as W
from tracer import END, NAME, OP, START, Tracer

OUT_DIR = bootstrap.ROOT / ".perfbench_out"


def machine_block(load_at_start) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "thread_cap": int(bootstrap.THREAD_CAP),
        "commit": git_commit(),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def phases(workload: str, seed: int, work_dir):
    """(make set-up, measure(setup, seconds, tag, learn), summarize(setup, run)) for a workload.

    `learn` asks train-soft for its quality call; decode workloads ignore it.
    """
    if workload == "train-soft":
        return (partial(W.setup_train, seed),
                lambda setup, seconds, tag, learn: W.measure_train(setup, seed, seconds,
                                                                   work_dir / tag, learn),
                W.summarize_train)
    return (partial(W.setup_decode, W.DECODERS[workload], seed),
            lambda setup, seconds, tag, learn: W.measure_decode(setup, seconds),
            W.summarize_decode)


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir) -> tuple:
    """Returns (outcome, setup_s, reported metrics, lines to print)."""
    make, measure, summarize = phases(workload, seed, work_dir)
    lines = []
    if not trace:
        setup, setup_s = W.timed_setups(make)
        outcome = summarize(setup, measure(setup, seconds, "run", True))
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (W.peak_rss_mb(), "MB"),
            "ok_ratio": ((outcome.attempted - outcome.failed) / max(1, outcome.attempted), "share"),
            **outcome.metrics,
        }
        return outcome, setup_s, metrics, lines

    setup_tracer = Tracer()
    with setup_tracer.installed():
        setup, setup_s = W.timed_setups(make)
    load_s = [s[END] - s[START] for s in setup_tracer.spans if s[NAME] == "checkpoint.load"]
    plain = summarize(setup, measure(setup, seconds / 2, "plain", False))
    tracer = Tracer()
    with tracer.installed():
        traced_run = measure(setup, seconds, "traced", False)
    outcome = summarize(setup, traced_run)
    overhead = plain.metrics["ops_per_s"][0] / outcome.metrics["ops_per_s"][0] - 1.0
    coverage, problems = tracer.check(traced_run.wall_s, traced_run.op_s)
    outcome.problems += problems
    metrics = tracer.layer_metrics(outcome.generated_tokens, load_s, coverage, overhead)
    spans_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
    tracer.write(str(spans_path))
    ops = len({s[OP] for s in tracer.roots() if s[NAME] in ("training.step", "training.beam_decode")})
    lines.append(f"self time by span over {ops} ops ({len(tracer.spans)} spans -> {spans_path.name}):")
    for name, calls, self_s, share in tracer.table():
        lines.append(f"  {name:26s} {calls:9d} calls {1e3 * self_s / max(1, ops):10.4f} ms/op "
                     f"{share:7.1%}")
    lines.append(f"root spans cover {coverage:.1%} of the measured time; tracing overhead "
                 f"{overhead:+.1%} (untraced {plain.metrics['ops_per_s'][0]:.2f} ops/s, "
                 f"traced {outcome.metrics['ops_per_s'][0]:.2f} ops/s)")
    return outcome, setup_s, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_at_start = os.getloadavg()
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        outcome, setup_s, metrics, lines = run(args.workload, args.seed, args.seconds,
                                               bool(args.trace), Path(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine_block(load_at_start), sort_keys=True))
    fail_ratio = outcome.failed / max(1, outcome.attempted)
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (W.peak_rss_mb(), "MB"),
             "fail_ratio": (fail_ratio, "share"), **outcome.names}
    print(f"end-to-end ({outcome.attempted} ops attempted, {outcome.failed} failed):")
    for name, (value, unit) in named.items():
        print(f"  {name:22s} {value:14.6g} {unit}")
    for line in lines:
        print(line)
    for problem in outcome.problems:
        print(f"problem: {problem}")
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
