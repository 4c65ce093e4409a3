"""The machine's momentary speed, measured with a fixed reference computation.

The benchmark runs on a shared host whose speed drifts: for seconds to
minutes at a time the same code runs up to twice as fast or as slow, in CPU
time as well as in wall time.  Times taken in different phases of that drift
cannot be compared, so the benchmark reports each timed operation in
reference seconds: its time multiplied by ``REFERENCE_S`` over the mean time
that ``reference`` took right before and after it.  A reference second is a
second of a machine on which ``reference`` takes exactly ``REFERENCE_S``,
about the host's usual phase.  A request much longer than a phase, such as
the six-second cascade system, can span phases that the two references miss,
so its scaled time stays noisier than that of short requests.

``reference`` is the same kind of work as the program's (a breadth-first
search of a product automaton with tuple states, dicts and sets, then a
``sorted(key=repr)``) so that it speeds up and slows down with the program.
It lives in the benchmark, imports nothing, and no change to the program can
change it.
"""
from __future__ import annotations

import gc
import time

REFERENCE_S = 0.012
_STATES = 60
_SYMBOLS = 3


def _dfa(seed: int) -> dict:
    """A total random DFA over ``_STATES`` states, from a linear congruential generator."""
    delta, x = {}, seed
    for q in range(_STATES):
        for s in range(_SYMBOLS):
            x = (x * 1103515245 + 12345) % 2**31
            delta[q, s] = (x >> 16) % _STATES
    return delta


_A, _B = _dfa(1), _dfa(2)


def reference() -> int:
    """Search the product of two fixed DFAs from (0, 0); returns states + transitions."""
    start = (0, 0)
    seen, todo, delta = {start}, [start], {}
    while todo:
        p, q = todo.pop()
        for s in range(_SYMBOLS):
            t = (_A[p, s], _B[q, s])
            delta[(p, q), s] = t
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return len(sorted(seen, key=repr)) + len(delta)


def reference_seconds() -> float:
    """Wall time of one ``reference``.

    The garbage collector is off meanwhile, so the program's heap does not count.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` in reference seconds, given the reference's times right before and after."""
    return seconds * REFERENCE_S * 2 / (before + after)
