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


def _declare(lineno: int, kind: str, tokens: list[str], names: list) -> frozenset:
    """The set of ``names``; the line is an error if two tokens name the same one."""
    declared = frozenset(names)
    if len(declared) < len(names):  # walk the tokens to name the first repeat
        first: set = set()
        for token, name in zip(tokens, names):
            if name in first:
                raise ParseError(lineno, f"{kind} {token!r} declared twice")
            first.add(name)
    return declared


_SECTION_ORDER = ["automaton", "events", "unobservable", "states", "initial", "secret", "trans", "end"]
_RANK = {keyword: rank for rank, keyword in enumerate(_SECTION_ORDER)}
_REQUIRED = {"automaton", "events", "states", "initial", "end"}


def parse_document(text: str) -> AutomatonDocument:
    """The document ``text`` holds; a ``ParseError`` names the first line
    that breaks the grammar.

    Every transition is checked as its line is read and added to its
    label's successor map, so the maps become the automaton's ``moves``
    with no second walk (``Automaton._checked``).
    """
    name = ""
    labels: dict[str, EventLabel] = {}
    rows: dict[str, dict[State, frozenset]] = {}  # each event's successor map
    unobservable: list[str] = []
    states: frozenset = frozenset()
    initial: list[State] = []
    secret: list[State] = []
    # Each target set is stored once: a first target is its state's shared
    # one-state set (a new one on a checked line), and a (symbol, state)
    # move with several targets gathers them in ``more``.
    more: dict[tuple[str, State], set] = {}
    seen: dict[str, int] = {}  # each section's first line
    # The rank of the highest section seen so far: at the trans rank a trans
    # line has been accepted and no end seen, and then a trans line of
    # declared tokens (token text -> state and token text -> its state's
    # one-state target set, from the states line; event token -> its row)
    # can break no rule of the grammar and is added at once.
    top = -1
    trans_rank, end_rank = _RANK["trans"], _RANK["end"]
    state_of: dict[str, State] = {}
    one_of: dict[str, frozenset] = {}

    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if top == trans_rank and len(tokens) == 4 and tokens[0] == "trans":
            _, src, sym, dst = tokens
            try:
                row, x, one = rows[sym], state_of[src], one_of[dst]
            except KeyError:
                pass
            else:
                targets = row.setdefault(x, one)
                if targets is not one and not one <= targets:
                    more.setdefault((sym, x), set(targets)).update(one)
                continue
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]
        if top == end_rank:
            raise ParseError(lineno, "text after end")
        rank = _RANK.get(keyword)
        if rank is None:
            raise ParseError(lineno, f"unknown declaration {keyword!r}")
        if keyword in seen and rank != trans_rank:
            raise ParseError(lineno, f"duplicate {keyword} section")
        seen.setdefault(keyword, lineno)
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
            if src not in states:
                raise ParseError(lineno, f"undeclared state {args[0]!r}")
            if dst not in states:
                raise ParseError(lineno, f"undeclared state {args[2]!r}")
            row = rows.get(sym)
            if row is None:
                raise ParseError(lineno, f"undeclared event {sym!r}")
            targets = row.setdefault(src, frozenset((dst,)))
            if dst not in targets:
                more.setdefault((sym, src), set(targets)).add(dst)
        elif keyword == "automaton":
            if len(args) != 1:
                raise ParseError(lineno, "automaton takes exactly one name")
            name = args[0]
        elif keyword == "events":
            _declare(lineno, "event", args, args)
            labels = {sym: EventLabel(sym) for sym in args}
            rows = {sym: {} for sym in args}
        elif keyword == "unobservable":
            unobservable = args
        elif keyword == "states":
            names = _state_tokens(args, lineno)
            states = _declare(lineno, "state", args, names)
            state_of = dict(zip(args, names))
            one_of = dict(zip(args, map(frozenset, zip(names))))
        elif keyword == "initial":
            initial = _state_tokens(args, lineno)
        elif keyword == "secret":
            secret = _state_tokens(args, lineno)

    missing = [k for k in _SECTION_ORDER if k in _REQUIRED and k not in seen]
    if missing:
        raise ParseError(len(lines) or 1, f"missing {missing[0]} section")

    for group, section in ((initial, "initial"), (secret, "secret")):
        if not states.issuperset(group):
            x = next(x for x in group if x not in states)
            raise ParseError(seen[section], f"undeclared state {state_display(x)!r}")
    hidden = frozenset(unobservable)
    if not labels.keys() >= hidden:
        sym = next(sym for sym in unobservable if sym not in labels)
        raise ParseError(seen["unobservable"], f"undeclared event {sym!r}")

    # The lines have passed every check of ``fsm._checked_moves``; the
    # moves are nondeterministic where one got a second target (``more``)
    # or where there is not one initial state.
    for (sym, x), targets in more.items():
        rows[sym][x] = frozenset(targets)
    initial_set = frozenset(initial)
    automaton = Automaton._checked(
        states,
        frozenset(labels.values()),
        {labels[sym]: row for sym, row in rows.items() if row},
        initial_set,
        frozenset(secret),
        not more and len(initial_set) == 1,
    )
    return AutomatonDocument(name, automaton, hidden)


def parse_automaton(text: str) -> Automaton:
    return parse_document(text).automaton


def emit_document(doc: AutomatonDocument) -> str:
    return emit_automaton(doc.automaton, doc.name, doc.unobservable)


def _written(kind: str, value: object, text: str, read) -> str:
    """``text``, which names ``value`` in a file; a ValueError if it would not read back."""
    if not text or any(ch.isspace() or ch == "#" for ch in text):
        problem = "is empty or holds whitespace or '#'"
    else:
        try:
            back = read(text)
        except ParseError:  # a number of more digits than the parser reads
            problem = f"is a number of more than {sys.get_int_max_str_digits()} digits"
        else:
            if back == value:
                return text
            problem = f"reads back as {back!r}"
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
    rows = [
        (state_display(src), label.symbol, state_display(dst))
        for label, move in a.moves.items()
        for src, targets in move.items()
        for dst in targets
    ]
    for src, sym, dst in sorted(rows):
        lines.append(f"trans {src} {sym} {dst}")
    lines.append("end")
    return "\n".join(lines) + "\n"
