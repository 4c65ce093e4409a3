"""Large verify and opacity outputs are byte-identical across hash seeds.

The tier-1 hash-seed test runs 4- to 6-state systems; these have string
state names and bitmask columns many bytes wide, and the halting systems
are where the verifiers prune: the live EI one keeps every pair, the
halting one prunes 4429 of 23956; each EIC system also runs with an empty
before and an empty after alphabet.  check-opacity names the estimates of
a 2000-state fully observed system, of one over 26 events with about 2.2
moves per state, where most of the search's lookups miss, and of a
60-state one whose unobservable c merges states into estimates.
oracle-check --json, EI and EIC over 500 seeds, writes its trials as JSON
text.  Each run's stdout and DOT file must be the same bytes under
PYTHONHASHSEED=0 and 1.
"""
import os
import shlex
import subprocess
import sys
from pathlib import Path

SEEDS = ("0", "1")


def _runs():
    """Each run as (its outputs' stem, its arguments, its outputs' suffixes,
    stdout's first and "dot" for a DOT file, the exit codes it may end with)."""
    # exit code 3 is a "not enforceable" verdict, not a failure
    for name in ("ei160", "ei160h"):
        yield name, ["verify-ei", f"{name}.aut", "--json"], ("json", "dot"), (0, 3)
    for name in ("eic80", "eic80h"):
        # an empty before alphabet, then an empty after alphabet: the
        # report skips the relation and the rows left empty
        for stem, before, after in (
            (name, "a", "a,b,c"), (f"{name}-nb", "", "a,b,c"), (f"{name}-na", "a", ""),
        ):
            argv = ["verify-eic", f"{name}.aut", "--json", "--insert-before", before,
                    "--insert-after", after]
            yield stem, argv, ("json", "dot"), (0, 3)
    # exit code 2 is a "not opaque" verdict, not a failure
    for name in ("op2000", "op2000w", "op60"):
        yield name, ["check-opacity", f"{name}.aut", "--json"], ("json",), (0, 2)
        yield name, ["check-opacity", f"{name}.aut"], ("txt",), (0, 2)
    yield "oracle-ei", ["oracle-check", "--count", "500", "--json"], ("json",), (0,)
    yield "oracle-eic", ["oracle-check", "--count", "500", "--eic", "--json"], ("json",), (0,)


def main() -> int:
    failed = False
    for seed in SEEDS:
        env = {**os.environ, "PYTHONHASHSEED": seed}
        for stem, argv, suffixes, allowed in _runs():
            if "dot" in suffixes:
                argv = [*argv, "--dot", f"{stem}-{seed}.dot"]
            with open(f"{stem}-{seed}.{suffixes[0]}", "w") as out:
                command = [sys.executable, "-m", "veiler", *argv]
                code = subprocess.run(command, stdout=out, env=env).returncode
            if code not in allowed:
                print(f"PYTHONHASHSEED={seed} veiler {shlex.join(argv)}: exit code {code}")
                failed = True
    outputs = [(stem, suffix) for stem, _, suffixes, _ in _runs() for suffix in suffixes]
    differ = [f"{stem}.{suffix}" for stem, suffix in outputs
              if len({Path(f"{stem}-{seed}.{suffix}").read_bytes() for seed in SEEDS}) > 1]
    print(f"{len(outputs) - len(differ)} of {len(outputs)} outputs equal across hash seeds "
          f"{' and '.join(SEEDS)}{''.join(f'; {out} differs' for out in differ)}")
    return int(failed or bool(differ))


if __name__ == "__main__":
    sys.exit(main())
