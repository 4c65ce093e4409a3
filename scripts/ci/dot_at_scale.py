"""The CLI's DOT file matches the per-pair reference at scale.

The CLI draws every indicator in name order straight from the report's
masks.  On the EI and EIC systems ``write_systems.py`` writes, live and
halting, and on renamed320, it must give the bytes of
``tests/test_dot.py``'s reference, which names, codes and sorts one pair
object at a time.  The library's ``emit_dot``, which sorts plainly, must
give the reference's bytes too on the staged indicators of the EI and EIC
systems (16k-24k states), with their staying pairs and the pairs pruning
removes highlighted.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))

from test_dot import _FILL_OF_CODE, _naive_digraph, _naive_emit_dot, _naive_rows  # noqa: E402

from veiler.constrained import (  # noqa: E402
    InsertionConstraints, build_eic_indicator, build_eic_insertion_automaton, check_eic_enforceable,
)
from veiler.dot import _ranked_digraph, emit_dot  # noqa: E402
from veiler.insertion import (  # noqa: E402
    build_indicator, build_insertion_automaton, check_ei_enforceable,
)
from veiler.textio import parse_document  # noqa: E402


def main() -> int:
    constraints = InsertionConstraints.of({"a"}, {"a", "b", "c"})
    for name in ("ei160", "ei160h", "eic80", "eic80h", "renamed320"):
        with open(f"{name}.aut") as handle:
            named = parse_document(handle.read()).automaton
        if name.startswith("ei1"):
            report = check_ei_enforceable(named)
        else:
            report = check_eic_enforceable(named, constraints)
        kernel = report.kernel
        drawn = "".join(_ranked_digraph(name, report))
        rows, labels = _naive_rows(report), kernel.edge_labels()
        expected = _naive_digraph(name, rows, _FILL_OF_CODE, (kernel.start,), kernel.moves, labels)
        print(f"{name}: {len(drawn)} characters, {'equal' if drawn == expected else 'DIFFERENT'}")
        if drawn != expected:
            return 1
        if name == "renamed320":
            continue
        if name.startswith("ei1"):
            indicator = build_indicator(named, build_insertion_automaton(named))
        else:
            geic = build_eic_insertion_automaton(named, constraints)
            indicator = build_eic_indicator(named, geic)
        staying = set(report.staying_nonblocking)
        pruned = indicator.states - report.verifier.states
        drawn = emit_dot(indicator, name, staying, pruned)
        expected = _naive_emit_dot(indicator, name, staying, pruned)
        print(f"{name} emit_dot: {len(indicator.states)} states, "
              f"{'equal' if drawn == expected else 'DIFFERENT'}")
        if drawn != expected:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
