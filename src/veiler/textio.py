"""Line-oriented text format for automata.

The format is deliberately plain: one declaration per line, '#' starts a
comment, tokens are whitespace-separated.  Sections appear in a fixed order
so error messages can point at the exact line that breaks the grammar::

    automaton g1
    events a b c
    unobservable          # optional
    states 0 1 2 3 4 5
    initial 0
    secret 2 3            # optional
    trans 0 a 1
    trans 0 b 3
    end

State tokens consisting of digits parse as integers so that files written by
hand line up with programmatically built fixtures.
"""
from __future__ import annotations

import sys
from typing import Iterable, NamedTuple, Sequence

from .fsm import Automaton, EventLabel, State, sorted_states, state_display


class ParseError(ValueError):
    """A grammar violation, carrying the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class AutomatonDocument(NamedTuple):
    """A parsed file: the automaton plus file-level declarations."""

    name: str
    automaton: Automaton
    unobservable: frozenset


def _state_tokens(tokens: Sequence[str], lineno: int) -> list[State]:
    """The states ``tokens`` name on line ``lineno``: ints where decimal."""
    try:
        return [int(token) if token.isdecimal() else token for token in tokens]
    except ValueError:  # a number of more digits than the interpreter converts
        digits = max(len(token) for token in tokens if token.isdecimal())
        message = f"state of {digits} digits; at most {sys.get_int_max_str_digits()} are read"
        raise ParseError(lineno, message) from None


def _declare(lineno: int, kind: str, tokens: list[str], names: list) -> set:
    """The set of ``names``; the line is an error if two tokens name the same one."""
    declared: set = set()
    for token, name in zip(tokens, names):
        if name in declared:
            raise ParseError(lineno, f"{kind} {token!r} declared twice")
        declared.add(name)
    return declared


_SECTION_ORDER = ["automaton", "events", "unobservable", "states", "initial", "secret", "trans", "end"]
_RANK = {keyword: rank for rank, keyword in enumerate(_SECTION_ORDER)}
_REQUIRED = {"automaton", "events", "states", "initial", "end"}


def parse_document(text: str) -> AutomatonDocument:
    name = ""
    labels: dict[str, EventLabel] = {}
    unobservable: list[str] = []
    states: list[State] = []
    state_set: set = set()
    initial: list[State] = []
    secret: list[State] = []
    # Each target set is stored once: a first target is its state's shared
    # one-state set, and a key with several targets gathers them in ``more``.
    table: dict[tuple[State, EventLabel], frozenset] = {}
    more: dict[tuple[State, EventLabel], set] = {}
    seen: dict[str, int] = {}
    top = -1  # rank of the highest section seen so far
    ended = False
    # Token text -> state and state -> its one-state target set, from the
    # states line, and whether a trans line has been accepted and no end
    # seen: then a trans line of declared tokens can break no rule of the
    # grammar and is added at once.
    state_of: dict[str, State] = {}
    single: dict[State, frozenset] = {}
    in_trans = False

    def add(key: tuple[State, EventLabel], y: State) -> None:
        targets = table.setdefault(key, single[y])
        if y not in targets:
            more.setdefault(key, set(targets)).add(y)

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if in_trans and len(tokens) == 4 and tokens[0] == "trans":
            _, src, sym, dst = tokens
            if src in state_of and dst in state_of and sym in labels:
                add((state_of[src], labels[sym]), state_of[dst])
                continue
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]
        if ended:
            raise ParseError(lineno, "text after end")
        rank = _RANK.get(keyword)
        if rank is None:
            raise ParseError(lineno, f"unknown declaration {keyword!r}")
        if keyword != "trans":
            if keyword in seen:
                raise ParseError(lineno, f"duplicate {keyword} section")
            seen[keyword] = lineno
        elif "trans" not in seen:
            seen["trans"] = lineno
        if rank < top:
            later = next(k for k in _SECTION_ORDER[rank + 1 :] if k in seen)
            raise ParseError(lineno, f"{keyword} must come before {later}")
        top = rank

        if keyword == "trans":
            if "initial" not in seen:
                raise ParseError(lineno, "trans must come after initial")
            if len(args) != 3:
                raise ParseError(lineno, "trans takes source, event, target")
            (src, dst), sym = _state_tokens((args[0], args[2]), lineno), args[1]
            if src not in state_set:
                raise ParseError(lineno, f"undeclared state {args[0]!r}")
            if dst not in state_set:
                raise ParseError(lineno, f"undeclared state {args[2]!r}")
            label = labels.get(sym)
            if label is None:
                raise ParseError(lineno, f"undeclared event {sym!r}")
            add((src, label), dst)
            in_trans = True
        elif keyword == "automaton":
            if len(args) != 1:
                raise ParseError(lineno, "automaton takes exactly one name")
            name = args[0]
        elif keyword == "events":
            _declare(lineno, "event", args, args)
            labels = {sym: EventLabel(sym) for sym in args}
        elif keyword == "unobservable":
            unobservable = args
        elif keyword == "states":
            states = _state_tokens(args, lineno)
            state_set = _declare(lineno, "state", args, states)
            state_of = dict(zip(args, states))
            single = {x: frozenset((x,)) for x in states}
        elif keyword == "initial":
            initial = _state_tokens(args, lineno)
        elif keyword == "secret":
            secret = _state_tokens(args, lineno)
        else:  # end
            ended = True
            in_trans = False

    missing = [k for k in _SECTION_ORDER if k in _REQUIRED and k not in seen]
    if missing:
        raise ParseError(len(lines) or 1, f"missing {missing[0]} section")

    for group, section in ((initial, "initial"), (secret, "secret")):
        for x in group:
            if x not in state_set:
                raise ParseError(
                    seen[section], f"undeclared state {state_display(x)!r}"
                )
    for sym in unobservable:
        if sym not in labels:
            raise ParseError(seen["unobservable"], f"undeclared event {sym!r}")

    for key, targets in more.items():
        table[key] = frozenset(targets)
    automaton = Automaton(
        frozenset(states),
        frozenset(labels.values()),
        table,
        frozenset(initial),
        frozenset(secret),
    )
    return AutomatonDocument(name, automaton, frozenset(unobservable))


def parse_automaton(text: str) -> Automaton:
    return parse_document(text).automaton


def emit_document(doc: AutomatonDocument) -> str:
    return emit_automaton(doc.automaton, doc.name, doc.unobservable)


def _written(kind: str, value: object, text: str, read) -> str:
    """``text``, which names ``value`` in a file; a ValueError if it would not read back."""
    if not text or any(ch.isspace() or ch == "#" for ch in text):
        problem = "is empty or holds whitespace or '#'"
    elif read(text) != value:
        problem = f"reads back as {read(text)!r}"
    else:
        return text
    raise ValueError(f"{kind} {value!r} has no text form: {text!r} {problem}")


def emit_automaton(
    a: Automaton, name: str = "g", unobservable: Iterable[str] = ()
) -> str:
    """Canonical text form; parse(emit(a)) equals a for file-representable automata.

    A name that would not read back as itself is a ValueError: an empty one,
    one with whitespace or ``#``, or a state whose display is not its token,
    such as the string ``'01'`` (read as the integer 1) or the integer -1.
    """
    if any(e.inserted for e in a.events):
        raise ValueError("only automata over actual events have a text form")
    _written("automaton name", name, name, str)
    for e in a.events:
        _written("event", e.symbol, str(e.symbol), str)
    for x in a.states:
        _written("state", x, state_display(x), lambda text: _state_tokens((text,), 0)[0])
    lines = [f"automaton {name}"]
    lines.append(("events " + " ".join(sorted(e.symbol for e in a.events))).rstrip())
    unobservable = sorted(unobservable)
    if unobservable:
        lines.append("unobservable " + " ".join(unobservable))
    lines.append("states " + " ".join(state_display(x) for x in sorted_states(a.states)))
    lines.append(
        "initial " + " ".join(state_display(x) for x in sorted_states(a.initial))
    )
    if a.secret:
        lines.append(
            "secret " + " ".join(state_display(x) for x in sorted_states(a.secret))
        )
    rows = []
    for (src, label), targets in a.transitions.items():
        for dst in targets:
            rows.append((state_display(src), label.symbol, state_display(dst)))
    for src, sym, dst in sorted(rows):
        lines.append(f"trans {src} {sym} {dst}")
    lines.append("end")
    return "\n".join(lines) + "\n"
