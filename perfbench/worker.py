"""The single worker process: a closed loop over ``veiler.cli.cli_main``.

Usage (from ``run.py``, with ``src`` on ``PYTHONPATH``):
``python3 perfbench/worker.py PLAN.pickle RESULT.json``.
One client, no threads: the next request starts only after the previous
verdict returned and its output was checked.  Latency is the time inside
``cli_main`` in reference seconds (``speed.py``): between two requests the
worker times one reference computation, and each request's wall time is
scaled by the references right before and after it.  The checks and the
references between requests are not timed.  The plan fixes the
passes, so every commit runs the same requests.  After them, the requests
marked ``repeat`` run once more, untimed, to check that their output repeats.
With tracing on, the worker runs the passes untraced, then replays them
traced, so the overhead compares identical work.
"""
from __future__ import annotations

import io
import json
import os
import pickle
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from typing import Optional

import veiler.cli
from checks import Checker
from speed import reference_seconds, scaled
from tracing import Tracer, calls_per_request, layer_metrics


def _request(request, checker: Checker) -> tuple:
    """Run one request through cli_main; returns (latency, failed verdicts, reasons)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    code = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = veiler.cli.cli_main(list(request.argv))
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            error = repr(exc)
        latency = time.perf_counter() - start
    dot = None
    if request.dot is not None and error is None and os.path.exists(request.dot):
        with open(request.dot, encoding="utf-8") as handle:
            dot = handle.read()
    failed, reasons = checker.check(request, code, error, stdout.getvalue(), dot)
    return latency, failed, reasons


def _passes(passes: list, checker: Checker, references: list, tracer: Optional[Tracer] = None) -> list:
    """Run every pass once; one record [pass, latency, verdicts, failed, reasons] per request.

    Appends the wall time of each reference it takes to ``references``.
    """
    records = []
    before = reference_seconds()
    references.append(before)
    for p, requests in enumerate(passes):
        for request in requests:
            if tracer is not None:
                tracer.request = len(records)
            latency, failed, reasons = _request(request, checker)
            after = reference_seconds()
            references.append(after)
            records.append([p, scaled(latency, before, after), request.verdicts, failed, reasons])
            before = after
    return records


def _repeats(passes: list, checker: Checker) -> list:
    """Run the requests marked repeat once more, untimed; one [verdicts, failed, reasons] each."""
    repeats = []
    for request in (request for requests in passes for request in requests if request.repeat):
        _, failed, reasons = _request(request, checker)
        repeats.append([request.verdicts, failed, reasons])
    return repeats


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, "rb") as handle:
        plan = pickle.load(handle)
    passes = plan["passes"]
    checker = Checker()
    result: dict = {"repeats": []}
    reference_seconds()  # the first call in a fresh process pays for its allocations
    references: list = []
    records = _passes(passes, checker, references)
    if not plan["trace"]:
        result["repeats"] = _repeats(passes, checker)
    else:
        # The traced replay repeats every input, so no separate repeats.
        tracer = Tracer()
        tracer.install()
        traced = _passes(passes, checker, references, tracer)
        keys = [request.key for requests in passes for request in requests]
        result["layers"] = layer_metrics(tracer.spans, len(traced))
        result["layers"]["trace.overhead_ratio"] = (
            sum(r[1] for r in traced) / sum(r[1] for r in records)
        )
        result["agree"] = [checker.agreeing, checker.compared]
        result["calls"] = [[key, dict(calls)] for key, calls in zip(keys, calls_per_request(tracer.spans))]
        with open(plan["spans_path"], "w", encoding="utf-8") as handle:
            json.dump({"requests": keys, "spans": tracer.spans}, handle)
        records += traced
    result["records"] = records
    result["reference_ms"] = statistics.median(references) * 1000
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(*sys.argv[1:3])
