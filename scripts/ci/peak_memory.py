"""Peak memory of a large verify or opacity run stays bounded.

The DOT file is drawn in name order straight from the report's masks and
streamed in chunks: on the halting 320-state system (a 48.9 MB drawing)
peak RSS is ~20 MB on Python 3.11.  It was 328 MB when the whole text was
built first and 155 MB when every edge key was held, which this bound
refuses.  The same system with s{x} names and state 5 named "s6,s7"
(renamed320) peaks at ~20 MB too; it took 157 MB when such names, whose
pair names were not escaped, were drawn from every edge key.

The kernel keeps its relays, and under constraints its relations, for as
long as the report lives.  A halting 1280-state verify-eic (before a,
after a,b,c) and a halting 2560-state verify-ei, both with text output,
peak at 32.0 MB and 24.3 MB on Python 3.11 (31.6 and 24.3 MB when the
report dropped them after pruning); the first took 51 MB before the
forward and the relay game computed each distinct mask's images once.

check-opacity --json on a live 20000-state system (s{x} names) peaks at
~33 MB on Python 3.11, as the parser's per-label maps are the observer's;
it took ~36 MB when the parser keyed every move by (state, label) and the
search split that table by label again.

The one argument names the system, run once per process: halting320,
renamed320, halting1280, halting2560 or op20000.
"""
import contextlib
import resource
import sys

from veiler.cli import cli_main


def main(name: str) -> int:
    argv = ["verify-eic", f"{name}.aut", "--insert-before", "a", "--insert-after", "a,b,c"]
    limit, verdicts = 64, (0, 3)  # exit code 3 is a "not enforceable" verdict
    if name == "halting2560":
        argv = ["verify-ei", f"{name}.aut"]
    elif name == "op20000":
        argv = ["check-opacity", f"{name}.aut", "--json"]
        limit, verdicts = 48, (0, 2)  # exit code 2 is a "not opaque" verdict
    elif name.endswith("320"):
        argv += ["--dot", f"{name}.dot"]
    with open(f"{name}.out", "w") as out, contextlib.redirect_stdout(out):
        code = cli_main(argv)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{argv[0]} {name}: exit code {code}, peak RSS {peak_mb:.0f} MB (limit {limit} MB)")
    return int(code not in verdicts or peak_mb > limit)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
