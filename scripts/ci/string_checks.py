"""The string checks agree with the set-based references at larger sizes.

``is_feasible`` and ``is_desirable_bounded`` have no state limit, and the
tier-1 differential test draws 2 to 8 states.  Here 200 systems of 8 to 16
states, live and halting, each get three EI and three EIC draws of an
observation and guided insertions, both checks against
``tests/conftest.py``'s set-based references at horizon 6: about 1 s on
Python 3.11.  Then one EI and one EIC check at horizon 5000, past the
default recursion limit, on a 16-state system must give a bool, the
reference's verdict at horizon 64.
"""
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))

from conftest import reference_is_desirable_bounded, reference_is_feasible  # noqa: E402
from test_oracle import _guided_segments, _outcome, _random_observation  # noqa: E402

from veiler.oracle import (  # noqa: E402
    ExtendedInsertionSequence, is_desirable_bounded, is_feasible, random_constraints, random_dfa,
)


def main() -> None:
    tally = {}
    for seed in range(200):
        g = random_dfa(seed, n_states=8 + seed % 9, live=seed % 2 == 0)
        c = random_constraints(seed, "abc")
        for mode, pools in (("EI", ("abc", "abc")), ("EIC", (sorted(c.before), sorted(c.after)))):
            for draw in range(3):
                rng = random.Random(f"{seed} {mode} {draw}")
                s = _random_observation(g, rng, max_len=6)
                segments = _guided_segments(g, rng, s, pools)
                if mode == "EI":
                    ei = ExtendedInsertionSequence.ei(*segments)
                else:
                    ei = ExtendedInsertionSequence.eic(*segments, c)
                got = (_outcome(is_feasible, g, s, ei), _outcome(is_desirable_bounded, g, s, ei, 6))
                want = (
                    _outcome(reference_is_feasible, g, s, ei),
                    _outcome(reference_is_desirable_bounded, g, s, ei, 6),
                )
                if got != want:
                    sys.exit(f"seed {seed} {mode} draw {draw}: {got}, the reference {want}")
                tally[got] = tally.get(got, 0) + 1
    for (feasible, desirable), count in sorted(tally.items(), key=str):
        print(f"feasible {feasible}, desirable at horizon 6 {desirable}: {count}")
    g = random_dfa(1, 16, live=True)
    c = random_constraints(1, "abc")
    for mode, ei in (
        ("EI", ExtendedInsertionSequence.ei([], [])),
        ("EIC", ExtendedInsertionSequence.eic([], [], c)),
    ):
        verdict = is_desirable_bounded(g, "", ei, 5000)
        if not isinstance(verdict, bool) or verdict is not reference_is_desirable_bounded(g, "", ei, 64):
            sys.exit(f"{mode} at horizon 5000: {verdict!r}")
        print(f"{mode} desirable at horizon 5000: {verdict}")


if __name__ == "__main__":
    main()
