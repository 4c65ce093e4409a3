"""Seeded system generator of the benchmark, independent of the library.

It draws the same automata as ``veiler.oracle.random_dfa`` and the same
constraints as ``veiler.oracle.random_constraints`` (same random calls in
the same order; ``test_perfbench.py`` pins the equality), but it lives here so
that a later change to the library's generator cannot silently shift the
workloads.  The spanning phase keeps its free-slot list incrementally instead
of rebuilding it per state, which makes 4000-state systems cheap to draw.
Systems are written as ``.aut`` text byte-identical to
``veiler.textio.emit_automaton``, so the program only ever sees files.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Dfa:
    n_states: int
    symbols: tuple[str, ...]
    transitions: dict  # (state, symbol) -> state
    secret: tuple[int, ...]


def random_dfa(
    seed: int,
    n_states: int = 4,
    n_events: int = 3,
    trans_density: float = 0.5,
    secret_density: float = 0.3,
    live: bool = False,
) -> Dfa:
    rng = random.Random(seed)
    symbols = [chr(ord("a") + i) for i in range(n_events)]
    transitions: dict = {}
    # Unused (source, symbol) slots with source < x, in (source, symbol) order.
    free: list = []
    for x in range(1, n_states):
        free.extend((x - 1, sym) for sym in symbols)
        # choice() over the indices draws exactly what choice(free) would.
        transitions[free.pop(rng.choice(range(len(free))))] = x
    for x in range(n_states):
        for sym in symbols:
            if (x, sym) not in transitions and rng.random() < trans_density:
                transitions[(x, sym)] = rng.randrange(n_states)
    if live:
        with_out = {x for (x, _) in transitions}
        for x in range(n_states):
            if x not in with_out:
                transitions[(x, rng.choice(symbols))] = rng.randrange(n_states)
    secret = tuple(x for x in range(n_states) if rng.random() < secret_density)
    return Dfa(n_states, tuple(symbols), transitions, secret)


def random_constraints(seed: int, symbols) -> tuple[list[str], list[str]]:
    """(before, after) insertable symbols, as ``veiler.oracle.random_constraints``."""
    rng = random.Random(seed)
    before = [sym for sym in symbols if rng.random() < 0.5]
    after = [sym for sym in symbols if rng.random() < 0.5]
    return before, after


def aut_text(dfa: Dfa, name: str, unobservable=()) -> str:
    """Canonical ``.aut`` text: states and rows sorted by their display strings."""
    lines = [f"automaton {name}", "events " + " ".join(sorted(dfa.symbols))]
    if unobservable:
        lines.append("unobservable " + " ".join(sorted(unobservable)))
    lines.append("states " + " ".join(sorted(str(x) for x in range(dfa.n_states))))
    lines.append("initial 0")
    if dfa.secret:
        lines.append("secret " + " ".join(sorted(str(x) for x in dfa.secret)))
    rows = sorted((str(x), sym, str(y)) for (x, sym), y in dfa.transitions.items())
    lines.extend(f"trans {x} {sym} {y}" for x, sym, y in rows)
    lines.append("end")
    return "\n".join(lines) + "\n"
