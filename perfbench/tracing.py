"""Per-module spans, recorded from outside the program.

``Tracer.install`` wraps the public functions that the CLI and the pipelines
call, in every ``veiler`` module namespace that binds them (``cli`` imports
``check_ei_enforceable`` and the others by name), plus ``Automaton.__init__``
and ``Automaton.accessible_part``.  A span is ``[name, start, end, parent,
request, size]``; spans stay in memory until the run writes them out.
``layer_metrics`` turns them into the per-layer metrics, per traced request,
including each layer's self time.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Layer (module name) -> public functions wrapped in that layer.
TARGETS = {
    "textio": ("parse_document",),
    "observer": ("build_observer", "check_current_state_opacity"),
    "fsm": ("strongly_connected_components",),
    "insertion": (
        "build_insertion_automaton", "build_indicator", "partition_subspaces",
        "find_trapping_sccs", "build_verifier", "find_staying_nonblocking",
        "admissible_states", "check_ei_enforceable",
    ),
    "constrained": (
        "build_eic_insertion_automaton", "build_eic_indicator", "find_eic_trapping_states",
        "build_eic_verifier", "find_staying_eic_nonblocking", "eic_admissible_states",
        "check_eic_enforceable",
    ),
    "oracle": ("oracle_ei_enforceable", "oracle_eic_enforceable", "random_dfa", "random_constraints"),
    "report": ("opacity_report", "ei_report", "eic_report", "oracle_report", "to_json"),
    "dot": ("emit_dot",),
    "cli": ("cli_main",),
}
AUTOMATON_METHODS = ("__init__", "accessible_part")

# Work counted at a span, from the call's arguments and result.
SIZES = {
    "textio.parse_document": lambda args, result: args[0].count("\n"),
    "observer.build_observer": lambda args, result: len(result.states),
    "insertion.build_indicator": lambda args, result: len(result.states),
    "constrained.build_eic_indicator": lambda args, result: len(result.states),
    "insertion.build_verifier": lambda args, result: len(args[0].states) - len(result.states),
    "constrained.build_eic_verifier": lambda args, result: len(args[0].states) - len(result.states),
    "dot.emit_dot": lambda args, result: len(result),
    "report.to_json": lambda args, result: len(result),
}

PER_LAYER_UNITS = {
    "textio.parse_s": "s",
    "textio.lines_per_s": "1/s",
    "observer.build_s": "s",
    "observer.estimates": "count",
    "fsm.automata_built": "count",
    "fsm.construct_s": "s",
    "fsm.accessible_s": "s",
    "fsm.scc_s": "s",
    **{
        f"{layer}.{name}": unit
        for layer in ("insertion", "constrained")
        for name, unit in (
            ("insertion_automaton_calls", "count"), ("indicator_s", "s"),
            ("indicator_states", "count"), ("verifier_s", "s"), ("prune_rounds", "count"),
            ("pruned_pairs", "count"), ("nonblocking_s", "s"), ("check_s", "s"),
        )
    },
    "oracle.ei_s": "s",
    "oracle.eic_s": "s",
    "oracle.generate_s": "s",
    "oracle.agree_ratio": "ratio",
    "report.json_s": "s",
    "report.json_bytes": "bytes",
    "dot.emit_s": "s",
    "dot.bytes": "bytes",
    "cli.dot_rebuild_s": "s",
    **{f"{layer}.self_s": "s" for layer in TARGETS},
    "trace.overhead_ratio": "ratio",
    "check.failed_ratio": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.request = -1
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock, size = self.spans, self._stack, time.perf_counter, SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced

    def install(self) -> None:
        import veiler.cli  # noqa: F401  (loads every module the CLI binds)
        from veiler.fsm import Automaton

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "veiler"]
        for layer, names in TARGETS.items():
            home = sys.modules[f"veiler.{layer}"]
            for name in names:
                original = getattr(home, name)
                traced = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
        for method in AUTOMATON_METHODS:
            setattr(Automaton, method, self.wrap(f"fsm.Automaton.{method}", getattr(Automaton, method)))


def _under(spans: list, index: int, ancestor: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def calls_per_request(spans: list) -> list:
    """Counter of span names per request: the exact counts behind each metric."""
    out: list = []
    for name, _, _, _, request, _ in spans:
        while len(out) <= request:
            out.append(Counter())
        out[request][name] += 1
    return out


def layer_metrics(spans: list, requests: int) -> dict:
    """Per-layer metrics; times and counts are per traced request."""
    total: dict = defaultdict(float)
    count: Counter = Counter()
    size: Counter = Counter()
    covered: dict = defaultdict(float)
    for name, start, end, parent, _, sz in spans:
        total[name] += end - start
        count[name] += 1
        if sz is not None:
            size[name] += sz
        if parent >= 0:
            covered[parent] += end - start
    # Self time: a span's duration minus the part its child spans cover.
    self_time: dict = defaultdict(float)
    for index, (name, start, end, *_) in enumerate(spans):
        self_time[name.split(".")[0]] += end - start - covered[index]

    def per_request(value: float) -> float:
        return value / requests

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "textio.parse_s": per_request(total["textio.parse_document"]),
        "textio.lines_per_s": ratio(size["textio.parse_document"], total["textio.parse_document"]),
        "observer.build_s": per_request(total["observer.build_observer"]),
        "observer.estimates": per_request(size["observer.build_observer"]),
        "fsm.automata_built": per_request(count["fsm.Automaton.__init__"]),
        "fsm.construct_s": per_request(total["fsm.Automaton.__init__"]),
        "fsm.accessible_s": per_request(total["fsm.Automaton.accessible_part"]),
        "fsm.scc_s": per_request(total["fsm.strongly_connected_components"]),
    }
    for layer, prefix, check, rounds_fn in (
        ("insertion", "", "insertion.check_ei_enforceable", "find_trapping_sccs"),
        ("constrained", "eic_", "constrained.check_eic_enforceable", "find_eic_trapping_states"),
    ):
        automaton = f"{layer}.build_{prefix}insertion_automaton"
        indicator = f"{layer}.build_{prefix}indicator"
        verifier = f"{layer}.build_{prefix}verifier"
        nonblocking = f"{layer}.find_staying_{prefix}nonblocking"
        inside_check = sum(
            1 for i, span in enumerate(spans) if span[0] == automaton and _under(spans, i, check)
        )
        m.update({
            f"{layer}.insertion_automaton_calls": ratio(inside_check, count[check]),
            f"{layer}.indicator_s": per_request(total[indicator]),
            f"{layer}.indicator_states": ratio(size[indicator], count[indicator]),
            f"{layer}.verifier_s": per_request(total[verifier]),
            f"{layer}.prune_rounds": ratio(count[f"{layer}.{rounds_fn}"], count[verifier]),
            f"{layer}.pruned_pairs": ratio(size[verifier], count[verifier]),
            f"{layer}.nonblocking_s": per_request(total[nonblocking]),
            f"{layer}.check_s": per_request(total[check]),
        })
    report_names = ("opacity_report", "ei_report", "eic_report", "oracle_report", "to_json")
    rebuilds = {
        "insertion.build_insertion_automaton", "insertion.build_indicator",
        "constrained.build_eic_insertion_automaton", "constrained.build_eic_indicator",
    }
    m.update({
        "oracle.ei_s": per_request(total["oracle.oracle_ei_enforceable"]),
        "oracle.eic_s": per_request(total["oracle.oracle_eic_enforceable"]),
        "oracle.generate_s": per_request(total["oracle.random_dfa"] + total["oracle.random_constraints"]),
        "report.json_s": per_request(sum(total[f"report.{n}"] for n in report_names)),
        "report.json_bytes": per_request(size["report.to_json"]),
        "dot.emit_s": per_request(total["dot.emit_dot"]),
        "dot.bytes": per_request(size["dot.emit_dot"]),
        "cli.dot_rebuild_s": per_request(sum(
            span[2] - span[1]
            for span in spans
            if span[0] in rebuilds and span[3] >= 0 and spans[span[3]][0] == "cli.cli_main"
        )),
    })
    m.update({f"{layer}.self_s": per_request(self_time[layer]) for layer in TARGETS})
    return m
