"""Smoke test of the benchmark itself.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench``.
It takes about two minutes: every workload runs one pass.
"""
from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import worker  # noqa: E402
from checks import Checker  # noqa: E402
from run import passes, tail  # noqa: E402
from workloads import Request, build_plan, request_class  # noqa: E402
import veiler.cli  # noqa: E402
from veiler.oracle import random_constraints, random_dfa  # noqa: E402
from veiler.textio import emit_automaton  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _handle:
    RECORDS = json.load(_handle)["workloads"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("n_states", [1, 2, 4, 20, 40, 60, 160])
@pytest.mark.parametrize("live", [True, False])
def test_generator_matches_library(n_states, live):
    for seed in range(40):
        ours = gen.random_dfa(seed, n_states, live=live)
        theirs = random_dfa(seed, n_states, live=live)
        assert gen.aut_text(ours, "g") == emit_automaton(theirs, "g")
        constraints = random_constraints(seed, "abc")
        assert gen.random_constraints(seed, "abc") == (
            sorted(constraints.before), sorted(constraints.after)
        )


def test_generator_matches_library_on_large_and_sparse_systems():
    assert gen.aut_text(gen.random_dfa(3, 2000, live=True), "g") == emit_automaton(
        random_dfa(3, 2000, live=True), "g"
    )
    assert gen.aut_text(gen.random_dfa(7, 80, trans_density=0.3, live=True), "g") == emit_automaton(
        random_dfa(7, 80, trans_density=0.3, live=True), "g"
    )


def test_g1_goes_through_the_cli_path_with_its_readme_numbers():
    g1 = os.path.join(ROOT, "tests", "data", "g1.aut")
    checker = Checker()
    expected = [
        (("verify-ei", g1, "--json"), "ei", (19, 14, 8)),
        (("verify-eic", g1, "--json", "--insert-before", "b,c", "--insert-after", "a"), "eic", (17, 11, 9)),
    ]
    for argv, kind, counts in expected:
        out = io.StringIO()
        with redirect_stdout(out):
            code = veiler.cli.cli_main(list(argv))
        assert checker.check(Request(kind, argv, kind), code, None, out.getvalue(), None) == (0, [])
        report = json.loads(out.getvalue())
        got = (len(report["verifier_states"]), len(report["staying_nonblocking"]), len(report["admissible"]))
        assert got == counts


def test_tail_has_ten_samples_beyond_it():
    assert tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workloads_json_matches_the_plan(workload, tmp_path):
    record = RECORDS[workload]
    count = passes(workload, BENCHMARK["run_seconds"], trace=False)
    plan = build_plan(workload, 0, str(tmp_path), count)
    for requests in plan:
        assert Counter(request_class(r.key) for r in requests) == record["mix"]
        assert sorted({request_class(r.key) for r in requests if r.repeat}) == sorted(record["repeat"])
    samples = sum(len(requests) for requests in plan)
    assert samples == record["tail"]["samples_per_run"]
    value, percentile = tail([float(i) for i in range(samples)])
    assert samples - value == record["tail"]["rank_from_top"]
    assert round(percentile, 1) == record["tail"]["percentile"]


def _fake_cli(argv: list) -> int:
    """A stand-in for cli_main whose valid report changes on every call."""
    _fake_cli.calls += 1
    if argv[0] == "check-opacity":
        report = {"opaque": True, "witness_observation": None, "violating_estimates": []}
    elif argv[0] == "oracle-check":
        first, count = int(argv[argv.index("--seed") + 1]), int(argv[argv.index("--count") + 1])
        trials = [{"seed": s, "construction": True, "search": True, "agree": True} for s in range(first, first + count)]
        report = {"trials": trials, "disagreements": []}
    else:
        report = {
            "verifier_states": [], "staying_nonblocking": [], "admissible": [],
            "uncovered_actual_states": [], "enforceable": True, "unreachable_actual_states": [],
        }
    report["call"] = _fake_cli.calls
    print(json.dumps(report))
    dot = argv[argv.index("--dot") + 1] if "--dot" in argv else None
    if dot is not None:
        with open(dot, "w", encoding="utf-8") as handle:
            handle.write("digraph g {}\n")
    return 0


_fake_cli.calls = 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untimed_repeats_count_a_differing_output(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(veiler.cli, "cli_main", _fake_cli)
    plan = build_plan(workload, 0, str(tmp_path), 1)
    checker = Checker()
    records = worker._passes(plan, checker, [])
    repeats = worker._repeats(plan, checker)
    # Within the pass, only keys met before (the anchors) fail.
    keys = [request.key for request in plan[0]]
    assert sum(1 for r in records if r[3]) == len(keys) - len(set(keys))
    assert repeats
    for verdicts, failed, reasons in repeats:
        assert failed == verdicts
        assert reasons == ["output differs from an earlier run of the same input"]


def test_checker_counts_broken_invariants_and_nondeterminism():
    checker = Checker()
    request = Request("x", (), "opacity")
    good = json.dumps({"opaque": True, "witness_observation": None, "violating_estimates": []})
    bad = json.dumps({"opaque": True, "witness_observation": ["a"], "violating_estimates": []})
    assert checker.check(request, 0, None, good, None) == (0, [])
    assert checker.check(request, 0, None, good.replace(" ", ""), None)[0] == 1
    assert checker.check(Request("y", (), "opacity"), 0, None, bad, None)[0] == 1
    assert checker.check(Request("z", (), "opacity"), 1, None, good, None)[0] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    done = _run(workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["ei-scaling", "eic-cascade"])
def test_traced_run_prints_every_layer_metric_and_known_counts(workload):
    done = _run(workload, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    with open(os.path.join(ROOT, ".perfbench-work", f"{workload}-0", "result.json")) as handle:
        calls = json.load(handle)["calls"]
    if workload == "eic-cascade":
        (cascade,) = {json.dumps(c, sort_keys=True) for key, c in calls if key == "cascade"}
        assert json.loads(cascade)["constrained.find_eic_trapping_states"] == 37
        assert result["metrics"]["constrained.insertion_automaton_calls"]["value"] == 2
    else:
        plain = [c for key, c in calls if key.startswith(("a160", "ei40"))]
        assert plain and all(c["insertion.build_insertion_automaton"] == 2 for c in plain)
        assert result["metrics"]["insertion.insertion_automaton_calls"]["value"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
