"""Every check of the CI workflow, in its order; the workflow runs only this
script.  Each step is a child process with ``PYTHONPATH=src`` (before the
caller's own), all in one temporary directory: tier-1, the output digests
under a fixed hash seed, then the scripts, which say what they check and
exit 1 when it fails; ``write_systems.py`` writes the systems the steps
after it read.  Every step runs, even after one fails, and a line after
each gives its exit code and seconds.  Exit status 1 when any step failed.

    python scripts/ci/all.py
"""
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PYTEST = (sys.executable, "-m", "pytest", "-q")
SCRIPTS = (
    "ci/oracle_agrees.py", "ci/string_checks.py", "exhaustive_gate.py", "ci/relations.py",
    "ci/write_systems.py", "ci/hash_seeds.py", "ci/malformed.py", "ci/dot_at_scale.py",
    *(f"ci/peak_memory.py {name}"
      for name in ("halting320", "renamed320", "halting1280", "halting2560", "op20000")),
)
# (name, command, environment added to the caller's)
STEPS = (
    ("tier-1", (*PYTEST, "--continue-on-collection-errors", str(ROOT / "tests")), {}),
    # Tier-1 runs under a random hash seed; the committed digests of
    # tests/data/digests.txt must also hold under this one.
    ("digests", (*PYTEST, str(ROOT / "tests" / "test_digests.py")), {"PYTHONHASHSEED": "1"}),
    *((step, (sys.executable, str(ROOT / "scripts" / script), *args), {})
      for step in SCRIPTS for script, *args in [step.split()]),
)


def main() -> int:
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    failed = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="veiler-ci-") as work:
        for name, command, extra in STEPS:
            began = time.perf_counter()
            code = subprocess.run(command, cwd=work, env={**env, **extra}).returncode
            print(f"{name}: exit code {code}, {time.perf_counter() - began:.1f} s", flush=True)
            failed += code != 0
    total = time.perf_counter() - start
    print(f"{len(STEPS) - failed} of {len(STEPS)} steps passed in {total:.0f} s")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
