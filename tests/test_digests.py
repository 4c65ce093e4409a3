"""Output is byte-identical to what ``tests/data/digests.txt`` records: every
CLI run of ``scripts/digests.py``, each generated system's text and each
report's masks.  A change meant to alter output rewrites the file with that
script and says which lines changed and why."""
from __future__ import annotations

from digests import DATA, digest_lines


def test_every_output_matches_its_committed_digest():
    committed = (DATA / "digests.txt").read_text(encoding="utf-8").splitlines()
    now = digest_lines()
    changed = [f"- {line}" for line in committed if line not in now]
    changed += [f"+ {line}" for line in now if line not in committed]
    assert not changed, "\n".join(["lines of digests.txt (-) that now read (+):", *changed])
    assert now == committed
