"""Write the large systems that ``hash_seeds.py``, ``malformed.py``,
``dot_at_scale.py`` and ``peak_memory.py`` read, into the working
directory.

Each is ``random_dfa(1, n)`` at the default density, or over 26 events
with about 2.2 moves per state (op2000w).  The halting* systems keep their
integer state names; the others are renamed s{x}, with state 5 of
renamed320 named "s6,s7", and c is unobservable in op60.
"""
from veiler.fsm import Automaton
from veiler.oracle import random_dfa
from veiler.textio import emit_automaton

SYSTEMS = (
    ("ei160", 160, True), ("ei160h", 160, False), ("eic80", 80, True), ("eic80h", 80, False),
    ("op2000", 2000, True), ("op2000w", 2000, True), ("op60", 60, True), ("op20000", 20000, True),
    ("renamed320", 320, False), ("halting320", 320, False),
    ("halting1280", 1280, False), ("halting2560", 2560, False),
)


def main() -> None:
    for name, n, live in SYSTEMS:
        wide = {"n_events": 26, "trans_density": 0.04} if name == "op2000w" else {}
        g = random_dfa(1, n_states=n, live=live, **wide)
        if not name.startswith("halting"):
            s = {x: "s6,s7" if name == "renamed320" and x == 5 else f"s{x}" for x in g.states}
            g = Automaton(
                frozenset(s.values()),
                g.events,
                {(s[x], e): frozenset(s[y] for y in ys) for (x, e), ys in g.transitions.items()},
                frozenset(s[x] for x in g.initial),
                frozenset(s[x] for x in g.secret),
            )
        with open(f"{name}.aut", "w") as handle:
            handle.write(emit_automaton(g, name, ("c",) if name == "op60" else ()))


if __name__ == "__main__":
    main()
