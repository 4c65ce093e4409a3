"""Output digests: what the CLI and the deciders give, one SHA-256 a line.

Four blocks, each line a name, `` | ``-separated fields and a hash:

- ``run``: one CLI run, in process, from a directory holding the system
  files.  Its fields are the system, the argv, the exit code, and one
  SHA-256 of its stdout, its stderr and the DOT file it wrote.  The systems
  are ``tests/data/*.aut`` and the 40 generated ones of ``generated``; each
  runs in the six modes of ``MODES``.
- ``system``: the ``emit_automaton`` text of each generated system, so a
  change to ``random_dfa`` shows up as itself and not as a changed run.
- ``masks``: the four mask lists of the EI and the EIC report (reachable,
  staying, admissible and verifier) of each system of
  ``kernel_population``.
- ``oracle``: one ``oracle-check`` run of ``ORACLE_RUNS``, in process.  Its
  fields are the argv, the exit code and one SHA-256 of its stdout and its
  stderr.

``tests/test_digests.py`` recomputes the lines and names each one that
differs from ``tests/data/digests.txt``.  A change meant to alter output
rewrites the file, from the repository root:

    PYTHONPATH=src python scripts/digests.py > tests/data/digests.txt
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path
from typing import Iterator

from veiler.cli import cli_main
from veiler.constrained import InsertionConstraints, check_eic_enforceable
from veiler.insertion import check_ei_enforceable
from veiler.oracle import random_dfa
from veiler.textio import emit_automaton

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
DOT = "out.dot"
# After the command and the file: text and JSON of each command, the JSON
# ones of verify-* with a DOT file, and verify-eic under two constraint
# pairs over the events a and b that every system has.
MODES = (
    ("check-opacity",),
    ("check-opacity", "--json"),
    ("verify-ei",),
    ("verify-ei", "--json", "--dot", DOT),
    ("verify-eic", "--insert-before", "b", "--insert-after", "a"),
    ("verify-eic", "--insert-before", "a", "--insert-after", "a,b", "--json", "--dot", DOT),
)

# oracle-check over 300 seeds, in text and JSON: EI, EIC under random pairs
# (an empty before or after alphabet among them) and under two fixed pairs;
# then one seed, and the two usage errors.
ORACLE_RUNS = tuple(
    ["oracle-check", "--count", "300", *options, *output]
    for options in (
        (),
        ("--eic",),
        ("--eic", "--insert-before", "a", "--insert-after", "a,b,c"),
        ("--eic", "--insert-before", "", "--insert-after", ""),
    )
    for output in ((), ("--json",))
) + (
    ["oracle-check", "--seed", "7", "--count", "1"],
    ["oracle-check", "--seed", "7", "--count", "1", "--json"],
    ["oracle-check", "--count", "0"],
    ["oracle-check", "--insert-before", "a"],
)


def generated() -> Iterator[tuple[str, str]]:
    """(name, text) of 40 ``random_dfa`` systems of 4 to 160 states, live
    at even seeds and halting at odd ones."""
    for seed in range(40):
        n, live = 4 * (seed + 1), seed % 2 == 0
        name = f"random{n}{'' if live else 'h'}"
        yield name, emit_automaton(random_dfa(seed, n_states=n, live=live), name)


def kernel_population():
    """(seed, live, g, constraints) for 320 seeded systems of 2 to 14
    states, live and halting, whose constraints cover all 64 (before,
    after) pairs over abc, and 16 of 17 and 33 states, whose bitmasks span
    three or more 8-bit chunks; no move enters x0 in six of those."""
    subsets = [frozenset(s for i, s in enumerate("abc") if mask >> i & 1) for mask in range(8)]
    for seed in range(336):
        live = seed % 2 == 0
        g = random_dfa(
            seed,
            n_states=2 + seed % 13 if seed < 320 else (17, 17, 33, 33)[seed % 4],
            trans_density=(0.2, 0.5, 0.8)[seed % 3],
            live=live,
        )
        yield seed, live, g, InsertionConstraints(subsets[seed % 8], subsets[seed // 8 % 8])


def _sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(b"%d:" % len(part))
        digest.update(part)
    return digest.hexdigest()


def _run(argv: list[str]) -> tuple[int, str]:
    """The exit code of ``cli_main(argv)`` and the hash of what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    dot = b""
    if os.path.exists(DOT):
        dot = Path(DOT).read_bytes()
        os.unlink(DOT)
    return code, _sha256(out.getvalue().encode(), err.getvalue().encode(), dot)


def digest_lines() -> list[str]:
    """The lines of ``tests/data/digests.txt``, as this checkout gives them."""
    systems = {path.name: path.read_bytes() for path in sorted(DATA.glob("*.aut"))}
    lines = []
    for name, text in generated():
        systems[f"{name}.aut"] = text.encode()
        lines.append(f"system {name} | {_sha256(text.encode())}")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for file, data in systems.items():
                Path(file).write_bytes(data)
            for file in systems:
                for command, *options in MODES:
                    argv = [command, file, *options]
                    code, digest = _run(argv)
                    lines.append(f"run {file} | {shlex.join(argv)} | {code} | {digest}")
            oracle = []
            for argv in ORACLE_RUNS:
                code, digest = _run(argv)
                oracle.append(f"oracle {shlex.join(argv)} | {code} | {digest}")
        finally:
            os.chdir(home)
    for seed, _, g, c in kernel_population():
        ei, eic = check_ei_enforceable(g), check_eic_enforceable(g, c)
        masks = [
            (r.reachable, r.staying_masks, r.admissible_masks, r.verifier_masks) for r in (ei, eic)
        ]
        lines.append(f"masks {seed} | {_sha256(repr(masks).encode())}")
    return lines + oracle


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in digest_lines()))
