"""Time-to-verdict benchmark of veiler.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ei-scaling --seed 1 --seconds 20 --trace 0

It writes the workload's seeded inputs under ``.perfbench-work/``, times the
program's set-up in fresh interpreters, then drives ``veiler.cli.cli_main``
from one worker process in a closed loop, checking every output.  Every
time it reports is in reference seconds (``speed.py``), which takes out
most of the host's speed drift.  The run is a fixed number of passes of the
workload's mix: ``--seconds`` divided by the request time of one pass at the
seed commit (``pass_seconds`` in ``workloads.json``), rounded, at least one.
So a given ``--seconds`` runs the same requests on every commit, and the tail
is always the same rank.  The last line of stdout is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
from collections import Counter

from checks import ORACLE_DISAGREEMENT
from tracing import PER_LAYER_UNITS
from workloads import WORKLOADS, build_plan

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up is probed half before and half after the requests, so that its median
# spans more than one of the machine's speed phases.
SETUP_PROBES = 16
# Imports the program in a fresh, isolated interpreter and prints the time
# taken in reference seconds, scaled by two references timed right after it
# (a first, untimed one pays for the new process's allocations).
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import veiler, veiler.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "speed.reference_seconds()\n"
    "print(speed.scaled(elapsed, speed.reference_seconds(), speed.reference_seconds()))\n"
)
TAIL_BEYOND = 10


def _setup_seconds(src: str, probes: int) -> list:
    """Import times of ``probes`` fresh interpreters; one more runs first to fill caches."""
    samples = []
    for probe in range(probes + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", PROBE, src, HERE],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if probe:
            samples.append(float(done.stdout.strip()))
    return samples


def passes(workload: str, seconds: float, trace: bool) -> int:
    """Passes of one run; a traced run makes them twice (untraced, then traced)."""
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as handle:
        pass_seconds = json.load(handle)["workloads"][workload]["pass_seconds"]
    return max(1, round(seconds / (2 if trace else 1) / pass_seconds))


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records: list, setup_s: float, peak_rss_mb: float) -> dict:
    latencies = [r[1] for r in records]
    tail_s, _ = tail(latencies)
    return {
        "verdicts_per_s": (sum(r[2] for r in records) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "veiler", "__init__.py")):
        print("perfbench: no src/veiler in the current directory; run from a checkout", file=sys.stderr)
        return 2

    work = os.path.join(root, ".perfbench-work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    plan = build_plan(
        args.workload, args.seed, os.path.join(work, "inputs"),
        passes(args.workload, args.seconds, bool(args.trace)),
    )
    setup = [] if args.trace else _setup_seconds(src, SETUP_PROBES // 2)

    plan_path = os.path.join(work, "plan.pickle")
    result_path = os.path.join(work, "result.json")
    with open(plan_path, "wb") as handle:
        pickle.dump({
            "passes": plan,
            "trace": bool(args.trace),
            "spans_path": os.path.join(work, "spans.json"),
        }, handle)
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
        env=env, timeout=3 * args.seconds + 90, check=True,
    )
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    if not args.trace:
        setup += _setup_seconds(src, SETUP_PROBES // 2)

    records = result["records"]  # [pass, latency, verdicts, failed, reasons]
    checked = [r[2:] for r in records] + result["repeats"]  # [verdicts, failed, reasons]
    attempted = sum(c[0] for c in checked)
    failed = sum(c[1] for c in checked)
    reasons = Counter(reason for c in checked for reason in c[2])
    correct = set(reasons) <= {ORACLE_DISAGREEMENT}
    if args.trace:
        layers = dict(result["layers"])
        layers["check.failed_ratio"] = failed / attempted
        agreeing, compared = result["agree"]
        layers["oracle.agree_ratio"] = agreeing / compared if compared else 0.0
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = end_to_end(records, statistics.median(setup), result["peak_rss_mb"])
    _, percentile = tail([r[1] for r in records])
    print(
        f"perfbench: {args.workload} seed={args.seed} requests={len(records)}"
        f" repeats={len(result['repeats'])} verdicts={attempted} failed={failed}"
        f" tail=p{percentile:.1f} reference_ms={result['reference_ms']:.2f}"
        f" failures={dict(reasons)}"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
