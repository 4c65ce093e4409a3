"""The construction and the search oracle agree: ``oracle-check`` on 500
seeds, EI and EIC, under ``-W error``.

Three EIC runs fix extreme alphabets: with nothing insertable before an
output every before-SCC is a single state.  The forward and the relay game
compute each distinct mask's images once, so their cost grows with the
number of distinct masks relayed and won.  The last run uses the alphabets
of the eic-cascade benchmark's n=40 anchor, where many states share one
mask and the memos are hit most.
"""
import shlex
import subprocess
import sys

RUNS = (
    (), ("--eic",),
    ("--eic", "--insert-before", "", "--insert-after", "a,b,c"),
    ("--eic", "--insert-before", "a,b,c", "--insert-after", ""),
    ("--eic", "--insert-before", "", "--insert-after", ""),
    ("--eic", "--insert-before", "a", "--insert-after", "a,b,c"),
)


def main() -> int:
    codes = []
    for options in RUNS:
        argv = ["oracle-check", "--count", "500", *options]
        print(f"$ veiler {shlex.join(argv)}", flush=True)
        command = [sys.executable, "-W", "error", "-m", "veiler", *argv]
        codes.append(subprocess.run(command).returncode)
    return int(any(codes))


if __name__ == "__main__":
    sys.exit(main())
