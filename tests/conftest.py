from __future__ import annotations

import os
from pathlib import Path
from typing import Collection, Mapping, NamedTuple, Optional

import pytest

from veiler.constrained import (
    InsertionConstraints,
    base_of,
    build_eic_indicator,
    build_eic_insertion_automaton,
    build_eic_verifier,
    eic_admissible_states,
    find_staying_eic_nonblocking,
)
from veiler.fsm import Automaton, state_display
from veiler.insertion import (
    _ADMISSIBLE,
    _IN_VERIFIER,
    admissible_states,
    build_indicator,
    build_insertion_automaton,
    build_verifier,
    find_staying_nonblocking,
)
from veiler.report import _pairs_payload


class StagedReport(NamedTuple):
    """The six fields of an ``EnforcementReport``, from the staged pipeline."""

    enforceable: bool
    verifier: Automaton
    staying_nonblocking: Collection
    admissible: frozenset
    uncovered_actual_states: frozenset
    unreachable_actual_states: frozenset

    @classmethod
    def of(cls, report) -> StagedReport:
        """The six fields of ``report``, read one by one."""
        return cls(*(getattr(report, field) for field in cls._fields))

    def payload(self, name: str, constraints: Optional[InsertionConstraints] = None) -> dict:
        """The verify-ei / verify-eic payload, coded pair object by pair
        object: the reference for ``report.ei_report`` / ``eic_report``."""
        # On a system that can halt, staying pairs may lie outside the verifier.
        staying = self.staying_nonblocking
        kinds = staying if isinstance(staying, Mapping) else dict.fromkeys(staying, 1)
        verifier = self.verifier.states
        pairs = [*kinds, *(pair for pair in verifier if pair not in kinds)]
        rows = sorted(
            (
                state_display(pair),
                i,
                (_IN_VERIFIER if pair in verifier else 0)
                | kinds.get(pair, 0) << 1
                | (_ADMISSIBLE if pair in self.admissible else 0),
            )
            for i, pair in enumerate(pairs)
        )
        return _pairs_payload(name, self, rows, constraints)


@pytest.fixture(scope="session", autouse=True)
def checkout_on_subprocess_path():
    """Let ``python -m veiler`` subprocesses import this checkout's package.

    pyproject's ``pythonpath`` setting puts ``src`` on the test process's
    path only; this does the same for the processes the CLI tests start.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield


@pytest.fixture
def g1() -> Automaton:
    """Six-state running example: two secret states, one cycle through each."""
    return Automaton.dfa(
        states=range(6),
        events=["a", "b", "c"],
        transitions={
            (0, "a"): 1,
            (0, "b"): 3,
            (0, "c"): 2,
            (1, "a"): 1,
            (2, "a"): 4,
            (3, "a"): 5,
            (4, "b"): 2,
            (5, "c"): 3,
        },
        initial=0,
        secret=[2, 3],
    )


@pytest.fixture
def tracking_trap() -> Automaton:
    """Four-state system built to catch a one-step nonblocking check.

    With only 'a' insertable before outputs, observing b (true state 2,
    secret) leaves two disguises: relay from 0 and look like 2 itself, or
    insert a and look like 3.  The first ends secret; the second strands
    one step later, when the true run continues a b and the believed state
    3 has no b move and no way to walk to one.  A check that only asks
    whether the next output can be relayed accepts the second disguise;
    the verifier construction and the search oracle both follow the relays
    on and refuse it.
    """
    return Automaton.dfa(
        states=range(4),
        events=["a", "b"],
        transitions={
            (0, "a"): 1,
            (0, "b"): 2,
            (1, "b"): 3,
            (2, "a"): 0,
            (3, "a"): 3,
        },
        initial=0,
        secret=[2],
    )


@pytest.fixture
def staged_ei_report():
    """The unconstrained pipeline run stage by stage, as the paper builds it.

    ``check_ei_enforceable`` decides on interned pair ids instead; its
    report's six fields must equal these one by one.  The staying stage runs
    on the whole indicator: pruning names the verifier but decides nothing.
    """

    def run(g: Automaton) -> StagedReport:
        ia = build_indicator(g, build_insertion_automaton(g))
        v = build_verifier(ia, g)
        snb = find_staying_nonblocking(ia, g)
        admissible = admissible_states(v, snb, g.secret)
        uncovered = frozenset(g.states - {pair.actual for pair in admissible})
        unreachable = frozenset(g.states - g.accessible_part().states)
        return StagedReport(not uncovered, v, snb, admissible, uncovered, unreachable)

    return run


@pytest.fixture
def staged_eic_report():
    """The constrained pipeline run stage by stage, as the paper builds it.

    ``check_eic_enforceable`` decides on interned pair ids instead; its
    report's six fields must equal these one by one.  The staying stage runs
    on the whole indicator: pruning names the verifier but decides nothing.
    """

    def run(g: Automaton, c: InsertionConstraints) -> StagedReport:
        eia = build_eic_indicator(g, build_eic_insertion_automaton(g, c))
        v = build_eic_verifier(eia)
        nb = find_staying_eic_nonblocking(eia, g)
        admissible = eic_admissible_states(v, nb, g.secret)
        uncovered = frozenset(g.states - {base_of(pair.actual) for pair in admissible})
        unreachable = frozenset(g.states - g.accessible_part().states)
        return StagedReport(not uncovered, v, nb, admissible, uncovered, unreachable)

    return run
