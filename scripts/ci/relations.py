"""The metamorphic relations of ``tests/test_constrained.py`` that need no
second decider (``_relation_violations``), on ``random_dfa(n, n)``, live
and halting, for each size n given: 320, 640 and 1280 when none is, 64
checks.  Tier-1 runs them at n <= 160.  The 52 checks before the unreachable
component's 12 took about 12 s on Python 3.11, and those 12 add about 15 %.
It prints one line per system, with its checks and violations, and each
violation under it.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))

from test_constrained import _relation_violations  # noqa: E402

from veiler.oracle import random_dfa  # noqa: E402

SIZES = (320, 640, 1280)


def main(argv: list[str]) -> int:
    failed = False
    for n in map(int, argv) if argv else SIZES:
        for live in (True, False):
            checks, violations = _relation_violations(random_dfa(n, n, live=live))
            print(f"random_dfa({n}, {n}, live={live}): {checks} checks, {len(violations)} violations")
            for line in violations:
                print(f"  {line}")
            failed |= bool(violations)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
