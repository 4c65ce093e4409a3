"""The four workloads: seeded request lists for ``veiler.cli.cli_main``.

A plan is a list of passes; the worker runs them in a closed loop.  Each
pass interleaves fixed anchor systems (the same in every run) with systems
drawn from the benchmark seed.  Instance costs of random systems are
heavy-tailed (pruning cascades, powerset blow-ups), so the large sizes are
fixed anchors and the seeded draws are small systems, and each pass has a
fixed mix, sized so that the median and the tail (the 11th-largest latency)
fall inside a class with many samples: that keeps a run's totals and order
statistics steady from seed to seed.  A request's class is its key up to the
first ``-`` or ``@``.  ``workloads.json`` records each pass's class counts
(the smoke test holds them equal to this file), the number of passes of a
run, the reasons for each workload and the layers it stresses.

Requests marked ``repeat`` are run once more, untimed, after the timed
passes, so that every workload's run checks that repeated inputs give the
same output.
"""
from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, replace
from typing import Optional

from gen import aut_text, random_constraints, random_dfa

# The ROADMAP's fixed scaling family and pruning-cascade system.
ANCHOR_SEED = 1
CASCADE = dict(seed=7, n_states=80, trans_density=0.3, constraint_seed=3)
# Seeds per oracle-check request (the request classes ei36 and eic36).  An EIC
# seed costs about twice an EI seed, and a group runs two EI requests per EIC
# request, so the median falls inside the EI class and the tail inside the EIC
# class; with equal counts the median would sit on the boundary between them.
ORACLE_BATCH = 36
ORACLE_GROUPS = 24


@dataclass(frozen=True)
class Request:
    key: str  # names the input; a repeated key must reproduce its output
    argv: tuple
    kind: str  # "ei", "eic", "opacity" or "oracle"
    verdicts: int = 1
    dot: Optional[str] = None
    first_seed: int = 0  # oracle: the seed range the request covers
    repeat: bool = False  # run once more, untimed, after the timed passes


def request_class(key: str) -> str:
    return re.split("[-@]", key, maxsplit=1)[0]


class _Inputs:
    """Writes each generated system once into the run's input directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def aut(self, name: str, dfa, unobservable=()) -> str:
        path = os.path.join(self.directory, name + ".aut")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(aut_text(dfa, name, unobservable))
        return path


def _verify_ei(inputs: _Inputs, name: str, dfa, dot: bool = False) -> Request:
    path = inputs.aut(name, dfa)
    argv = ("verify-ei", path, "--json")
    dot_path = None
    if dot:
        dot_path = os.path.join(inputs.directory, name + ".dot")
        argv += ("--dot", dot_path)
    return Request(name, argv, "ei", dot=dot_path)


def _verify_eic(inputs: _Inputs, name: str, dfa, before, after) -> Request:
    path = inputs.aut(name, dfa)
    argv = (
        "verify-eic", path, "--json",
        "--insert-before", ",".join(before), "--insert-after", ",".join(after),
    )
    return Request(name, argv, "eic")


def _check_opacity(inputs: _Inputs, name: str, dfa, unobservable=()) -> Request:
    return Request(name, ("check-opacity", inputs.aut(name, dfa, unobservable), "--json"), "opacity")


def _interleave(*groups: list) -> list:
    """Merge groups so each is spread evenly through the pass."""
    keyed = [
        ((i + 0.5) / len(group), g, request)
        for g, group in enumerate(groups)
        for i, request in enumerate(group)
    ]
    return [request for *_, request in sorted(keyed, key=lambda item: item[:2])]


def ei_scaling(inputs: _Inputs, rng: random.Random) -> list:
    # One pass fills a run.  The twelve n=80 requests rank between the one
    # n=160 request and the cheap n=40 draws, so they hold both the median
    # and the 11th-largest latency.
    a160 = _verify_ei(inputs, "a160", random_dfa(ANCHOR_SEED, 160, live=True))
    a80 = _verify_ei(inputs, "a80", random_dfa(ANCHOR_SEED, 80, live=True), dot=True)
    draws = [
        _verify_ei(inputs, f"ei40-{s}", random_dfa(s, 40, live=True))
        for s in (rng.randrange(2**31) for _ in range(9))
    ]
    draws[0] = replace(draws[0], repeat=True)
    return _interleave([a160], [a80] * 12, draws)


def _constraint_draws(rng: random.Random, count: int) -> list:
    """(before, after) pairs with the distribution of ``random_constraints``, stratified.

    ``random_constraints`` makes all 64 pairs of subsets of "abc" equally
    likely, and the pair explains most of the cost of a small EIC request.
    Cycling through all 64 in seeded order keeps each pass's mix of pairs
    the same, which removes that share of the seed-to-seed spread.
    """
    subsets = [[sym for i, sym in enumerate("abc") if mask >> i & 1] for mask in range(8)]
    draws: list = []
    while len(draws) < count:
        cycle = [(before, after) for before in subsets for after in subsets]
        rng.shuffle(cycle)
        draws.extend(cycle)
    return draws[:count]


def eic_cascade(inputs: _Inputs, rng: random.Random) -> list:
    # One pass fills a run.  The twelve requests on the fixed n=40 anchor rank
    # just below the cascade system, so they hold the 11th-largest latency:
    # the tail of the seeded draws alone moved by a tenth from seed to seed.
    # The n=20 draws hold the median.  Their costs spread over a factor of
    # ten, so the pass has 128 of them, each constraint pair twice.
    dfa = random_dfa(CASCADE["seed"], CASCADE["n_states"], trans_density=CASCADE["trans_density"], live=True)
    cascade = _verify_eic(inputs, "cascade", dfa, *random_constraints(CASCADE["constraint_seed"], dfa.symbols))
    anchor = random_dfa(ANCHOR_SEED, 40, live=True)
    a40 = _verify_eic(inputs, "a40", anchor, *random_constraints(ANCHOR_SEED, anchor.symbols))
    groups = [[cascade], [a40] * 12]
    for n, count in ((40, 2), (20, 128)):
        requests = []
        for before, after in _constraint_draws(rng, count):
            s = rng.randrange(2**31)
            requests.append(_verify_eic(inputs, f"eic{n}-{s}", random_dfa(s, n, live=True), before, after))
        requests[0] = replace(requests[0], repeat=True)
        groups.append(requests)
    return _interleave(*groups)


def oracle_batch(inputs: _Inputs, rng: random.Random) -> list:
    plan = []
    for i in range(ORACLE_GROUPS):
        first = rng.randrange(2**30)
        for flags, start in (((), first), (("--eic",), first), ((), first + ORACLE_BATCH)):
            argv = ("oracle-check",) + flags + ("--seed", str(start), "--count", str(ORACLE_BATCH), "--json")
            kind = "eic" if flags else "ei"
            plan.append(Request(
                f"{kind}{ORACLE_BATCH}@{start}", argv, "oracle", ORACLE_BATCH, first_seed=start, repeat=i == 0,
            ))
    return plan


def opacity_scan(inputs: _Inputs, rng: random.Random) -> list:
    # Median and tail land among the 2000-state files, where parsing dominates.
    # The cheap partially observed files sit below the median, so few of them
    # keep the median near the middle of the 2000-state class rather than at a
    # low order statistic, which would follow the machine's fastest phases.
    def draw(kind: str, n: int, unobservable=(), repeat=False) -> Request:
        s = rng.randrange(2**31)
        request = _check_opacity(inputs, f"{kind}{n}-{s}", random_dfa(s, n, live=True), unobservable)
        return replace(request, repeat=repeat)

    return _interleave(
        [draw("full", 4000)],
        [draw("full", 2000, repeat=i == 0) for i in range(12)],
        [draw("partial", 60, ("c",), repeat=i == 0) for i in range(4)],
    )


WORKLOADS = {
    "ei-scaling": ei_scaling,
    "eic-cascade": eic_cascade,
    "oracle-batch": oracle_batch,
    "opacity-scan": opacity_scan,
}


def build_plan(workload: str, seed: int, directory: str, passes: int) -> list:
    """``passes`` passes, each a list of requests; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    inputs = _Inputs(directory)
    return [WORKLOADS[workload](inputs, rng) for _ in range(passes)]
