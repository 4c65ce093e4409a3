"""A large malformed file ends with exit 1 and its line.

The parser checks each transition as it reads its line, and its table
becomes the automaton with no second check.  On op2000.aut, the 2000-state
system ``write_systems.py`` writes, a trans line with an undeclared target
or event just before end, and a secret line naming an undeclared state,
must each end check-opacity and verify-ei with exit code 1 and the line's
number on stderr, not a traceback.
"""
import subprocess
import sys


def main() -> int:
    with open("op2000.aut") as handle:
        lines = handle.read().splitlines()
    end = len(lines) - 1  # the index of the end line
    secret = next(i for i, line in enumerate(lines) if line.startswith("secret "))
    broken = {
        "target": (end, "trans s0 a nowhere", "undeclared state 'nowhere'"),
        "event": (end, "trans s0 z s1", "undeclared event 'z'"),
        "secret": (secret, lines[secret] + " nowhere", "undeclared state 'nowhere'"),
    }
    failed = False
    for name, (i, line, message) in broken.items():
        text = lines[:i] + [line] + lines[i + (name == "secret"):]
        with open(f"bad-{name}.aut", "w") as handle:
            handle.write("\n".join(text) + "\n")
        expected = f"error: line {i + 1}: {message}\n"
        for command in ("check-opacity", "verify-ei"):
            run = subprocess.run(
                [sys.executable, "-m", "veiler", command, f"bad-{name}.aut"],
                capture_output=True, text=True, timeout=120,
            )
            ok = run.returncode == 1 and run.stderr == expected and not run.stdout
            print(f"{command} bad-{name}.aut: exit code {run.returncode}, "
                  f"stderr {run.stderr!r}{'' if ok else f', expected {expected!r}'}")
            failed |= not ok
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
