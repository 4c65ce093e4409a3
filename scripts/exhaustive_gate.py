"""Exhaustive gate: the construction against the search oracle on every
accessible 3-state, 2-event DFA with every secret set, 13,056 systems.

For each system the EI verdict and the EIC verdicts under all 16 (before,
after) constraint pairs over {a, b} must equal the oracle's.  The EI
report's verifier must hold the states of the paper's staged verifier,
``build_verifier`` of the staged indicator, which prunes trapping SCCs
round by round.  The EIC report's reachable pairs must equal the pairs the
kernel's one-pair search reaches, and its verifier the ones a pair-by-pair
dead-end removal on that search keeps.  No reference shares code with the
bitmask relays, phase masks or trim.  Two counts are printed: the systems
that are EI- but not EIC(S, {})-enforceable, S being the whole alphabet,
and the violations of alphabet monotonicity (a constraint pair
enforceable, a pair with one more symbol not), which must be 0.  So must
the systems that are EIC(S, {})- but not EI-enforceable.

Run from the repository root:

    PYTHONPATH=src python scripts/exhaustive_gate.py

Exit status 0 when everything agrees, 1 otherwise.
"""
from __future__ import annotations

import sys
from itertools import product

from veiler.constrained import InsertionConstraints, check_eic_enforceable
from veiler.fsm import Automaton
from veiler.insertion import (
    build_indicator,
    build_insertion_automaton,
    build_verifier,
    check_ei_enforceable,
)
from veiler.oracle import oracle_ei_enforceable, oracle_eic_enforceable

STATES = range(3)
SYMBOLS = "ab"
SUBSETS = ["", "a", "b", "ab"]
CONSTRAINTS = {
    (before, after): InsertionConstraints.of(before, after)
    for before in SUBSETS
    for after in SUBSETS
}
# Each constraint pair with every pair that holds one more symbol.
WIDER = {
    (before, after): [
        wider
        for wider in CONSTRAINTS
        if set(before) <= set(wider[0])
        and set(after) <= set(wider[1])
        and len(wider[0]) + len(wider[1]) == len(before) + len(after) + 1
    ]
    for before, after in CONSTRAINTS
}


def systems():
    """Every accessible DFA on states 0-2 and events a, b with initial
    state 0, under each of the 8 secret sets, as (transitions, secret,
    automaton)."""
    slots = [(x, e) for x in STATES for e in SYMBOLS]
    for targets in product((None, *STATES), repeat=len(slots)):
        transitions = {slot: y for slot, y in zip(slots, targets) if y is not None}
        seen, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for e in SYMBOLS:
                y = transitions.get((x, e))
                if y is not None and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) < len(STATES):
            continue
        for mask in range(1 << len(STATES)):
            secret = [x for x in STATES if mask >> x & 1]
            yield transitions, secret, Automaton.dfa(STATES, SYMBOLS, transitions, 0, secret)


def pruned(targets: dict[int, list[int]]) -> set[int]:
    """The pairs of ``targets`` left once those with no move into the rest
    are removed, round by round."""
    kept = set(targets)
    while True:
        dead = {p for p in kept if not any(t in kept for t in targets[p])}
        if not dead:
            return kept
        kept -= dead


def check(g: Automaton) -> tuple[list[str], dict, bool]:
    """The disagreements on ``g``, its EIC verdicts and its EI verdict."""
    faults = []
    report = check_ei_enforceable(g)
    ei = report.enforceable
    if ei != oracle_ei_enforceable(g):
        faults.append(f"EI verdict {ei}, oracle {not ei}")
    kernel = report.kernel
    verifier = kernel.objects(kernel.ids(report.verifier_masks)).values()
    if set(verifier) != build_verifier(build_indicator(g, build_insertion_automaton(g)), g).states:
        faults.append("EI verifier differs from the staged verifier")
    verdicts = {}
    for key, c in CONSTRAINTS.items():
        report = check_eic_enforceable(g, c)
        verdict = verdicts[key] = report.enforceable
        if verdict != oracle_eic_enforceable(g, c):
            faults.append(f"EIC{key} verdict {verdict}, oracle {not verdict}")
        kernel = report.kernel
        targets = kernel.search()
        if set(kernel.ids(report.reachable)) != set(targets):
            faults.append(f"EIC{key} reachable pairs differ from the search")
        elif set(kernel.ids(report.verifier_masks)) != pruned(targets):
            faults.append(f"EIC{key} verifier differs from the pair-by-pair pruning")
    return faults, verdicts, ei


def main() -> int:
    count = disagreements = ei_only = eic_only = violations = 0
    for transitions, secret, g in systems():
        count += 1
        faults, verdicts, ei = check(g)
        disagreements += len(faults)
        for fault in faults:
            print(f"{fault}: transitions {transitions}, secret {secret}")
        top = verdicts["ab", ""]
        ei_only += ei and not top
        eic_only += top and not ei
        violations += sum(
            verdicts[key] and not verdicts[wider] for key in CONSTRAINTS for wider in WIDER[key]
        )
    print(f"systems: {count}")
    print(f"EI- but not EIC(S, {{}})-enforceable: {ei_only}")
    print(f"alphabet-monotonicity violations: {violations}")
    if eic_only:
        print(f"EIC(S, {{}})- but not EI-enforceable: {eic_only}")
    return 1 if disagreements or violations or eic_only else 0


if __name__ == "__main__":
    sys.exit(main())
