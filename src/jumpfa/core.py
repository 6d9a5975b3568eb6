"""Core domain types, validation, and the textual automaton format.

Symbols are single printable ASCII characters and words are plain ``str``
values, so rule words and tape buffers can use ordinary string operations.
The records (:class:`Violation`, :class:`Rule` and :class:`Automaton` here,
and the configurations and :class:`~jumpfa.engine.Trace` of
:mod:`jumpfa.engine`) are named tuples, like the paper's tuples
M = (Q, Σ, R, s, F) and rules (p, x, q): they unpack, and they compare equal
to plain tuples with the same items. A move of a trace is the :class:`Rule`
it applies, or ``None`` for the return jump. An :class:`Automaton` is
immutable once validated and may be shared freely between threads; every
other module builds on the guarantees enforced by :func:`make_automaton`.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

EMPTY_WORD = "<eps>"

# Violation codes reported by make_automaton.
INVALID_SYMBOL = "invalid-symbol"
INVALID_STATE_NAME = "invalid-state-name"
UNKNOWN_STATE = "unknown-state"
SYMBOL_OUTSIDE_ALPHABET = "symbol-outside-alphabet"
EMPTY_RULE_WORD = "empty-rule-word"
EMPTY_ALPHABET = "empty-alphabet"
DUPLICATE_RULE_KEY = "duplicate-rule-key"
MISSING_START = "missing-start"


class Kind(enum.Enum):
    """Sweep direction of the deletion head over the input."""

    RIGHT = "grl"
    LEFT = "gll"


class JumpfaError(Exception):
    """Base class for every error raised by this package."""


class SymbolOutsideAlphabetError(JumpfaError):
    pass


class FormatError(JumpfaError):
    """Malformed automaton text; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class Violation(NamedTuple):
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ValidationError(JumpfaError):
    """One or more structural invariants failed; see :attr:`violations`."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class Rule(NamedTuple):
    """In state ``src``, delete ``word`` from the input and enter ``dst``.

    This orientation is used for both automaton kinds; the kind only decides
    from which side of the input the word is removed.
    """

    src: str
    word: str
    dst: str


class _AutomatonFields(NamedTuple):
    kind: Kind
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    start: str
    finals: tuple[str, ...]
    rules: tuple[Rule, ...]


class Automaton(_AutomatonFields):
    """A validated jumping automaton: ``(kind, alphabet, states, start,
    finals, rules)``.

    ``alphabet``, ``states``, ``finals`` and ``rules`` keep declaration
    order, which fixes canonical serialization and enumeration order.

    The search tables are derived on first use and cached on the value,
    outside the tuple; they take no part in equality, hashing or printing:

    * ``symbols`` holds the alphabet as a set, so that one set test checks
      every symbol of an input word.
    * ``rules_from`` maps each state to its rules in declaration order. Rule
      keys are unique per state, so their words are exactly the words
      readable in that state.
    * ``live`` holds the states from which some final state is reachable
      along the rules. No configuration in any other state can lead to
      acceptance, and every successor of such a configuration is again in a
      state outside ``live``.
    * ``loops`` maps each final state whose only rule loops on it to the
      rule's word; a state whose only rule loops is live only if final.
    * ``units`` maps each state that has rules, all of one symbol, to
      ``(skip, {symbol: rule})``: ``skip`` holds, in alphabet order, the
      symbols the state cannot read. Rule keys are unique per state, so
      each symbol has at most one rule.
    * ``reversal`` flips the kind and reverses every rule word, with no
      validation: the reversal of a valid automaton is valid.

    Its fields are read-only, and no other attribute can be set either.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot set {name!r} on an immutable Automaton")

    @cached_property
    def symbols(self) -> frozenset[str]:
        return frozenset(self.alphabet)

    @cached_property
    def rules_from(self) -> Mapping[str, tuple[Rule, ...]]:
        return {q: tuple(r for r in self.rules if r.src == q) for q in self.states}

    @cached_property
    def live(self) -> frozenset[str]:
        """States that reach a final state, by a backward fixpoint over the rules."""
        live = set(self.finals)
        grew = True
        while grew:
            grew = False
            for rule in self.rules:
                if rule.dst in live and rule.src not in live:
                    live.add(rule.src)
                    grew = True
        return frozenset(live)

    @cached_property
    def loops(self) -> Mapping[str, str]:
        finals = ((q, self.rules_from[q]) for q in self.finals)
        return {q: rules[0].word for q, rules in finals if len(rules) == 1 and rules[0].dst == q}

    @cached_property
    def units(self) -> Mapping[str, tuple[str, Mapping[str, Rule]]]:
        units = {}
        for q, rules in self.rules_from.items():
            if rules and all(len(r.word) == 1 for r in rules):
                table = {r.word: r for r in rules}
                units[q] = ("".join(a for a in self.alphabet if a not in table), table)
        return units

    @cached_property
    def reversal(self) -> Automaton:
        kind = Kind.LEFT if self.kind is Kind.RIGHT else Kind.RIGHT
        rules = tuple(Rule(r.src, r.word[::-1], r.dst) for r in self.rules)
        return Automaton(kind, self.alphabet, self.states, self.start, self.finals, rules)


def make_automaton(
    kind: Kind | str,
    alphabet: Sequence[str],
    states: Sequence[str],
    start: str | None,
    finals: Sequence[str] = (),
    rules: Sequence[tuple[str, str, str]] = (),
) -> Automaton:
    """Check every structural invariant and return the frozen automaton.

    All problems are collected before raising, so a single
    :class:`ValidationError` reports the complete list of violations. Symbols
    and state names must be ones the text format can hold, so that
    :func:`serialize_automaton` and :func:`parse_automaton` round-trip.
    """
    try:
        kind = Kind(kind)
    except ValueError:
        raise FormatError(
            f"kind must be one of {sorted(k.value for k in Kind)}, got {kind!r}"
        ) from None

    alphabet = tuple(dict.fromkeys(alphabet))
    states = tuple(dict.fromkeys(states))
    finals = tuple(dict.fromkeys(finals))
    known = set(states)
    symbols = set(alphabet)
    problems: list[Violation] = []

    if not alphabet:
        problems.append(Violation(EMPTY_ALPHABET, "the alphabet has no symbols"))
    for symbol in alphabet:
        if not _symbol_ok(symbol):
            problems.append(
                Violation(
                    INVALID_SYMBOL,
                    f"symbol {symbol!r} is not one printable non-blank ASCII character",
                )
            )
    for q in states:
        if q.split() != [q] or "#" in q:
            problems.append(
                Violation(INVALID_STATE_NAME, f"state {q!r} is empty or contains whitespace or '#'")
            )
    if start is None:
        problems.append(Violation(MISSING_START, "no start state declared"))
    elif start not in known:
        problems.append(Violation(UNKNOWN_STATE, f"start state {start!r} is not declared"))
    for q in finals:
        if q not in known:
            problems.append(Violation(UNKNOWN_STATE, f"final state {q!r} is not declared"))

    checked: list[Rule] = []
    seen_keys: set[tuple[str, str]] = set()
    for entry in rules:
        src, word, dst = entry
        for q in (src, dst):
            if q not in known:
                problems.append(Violation(UNKNOWN_STATE, f"rule state {q!r} is not declared"))
        if not word:
            problems.append(
                Violation(EMPTY_RULE_WORD, f"rule {src!r} -> {dst!r} must delete a nonempty word")
            )
        stray = sorted(set(word) - symbols)
        if stray:
            problems.append(
                Violation(
                    SYMBOL_OUTSIDE_ALPHABET,
                    f"rule word {word!r} uses undeclared symbol(s) {', '.join(map(repr, stray))}",
                )
            )
        if (src, word) in seen_keys:
            problems.append(
                Violation(DUPLICATE_RULE_KEY, f"state {src!r} reads the word {word!r} twice")
            )
        seen_keys.add((src, word))
        checked.append(Rule(src, word, dst))

    if problems:
        raise ValidationError(problems)
    return Automaton(kind, alphabet, states, start, finals, tuple(checked))


def check_word(aut: Automaton, word: str) -> None:
    """Raise unless every symbol of ``word`` belongs to the alphabet.

    One set test decides; the loop only names the first bad symbol."""
    if aut.symbols.issuperset(word):
        return
    for ch in word:
        if ch not in aut.alphabet:
            raise SymbolOutsideAlphabetError(
                f"symbol {ch!r} is not in the alphabet {''.join(aut.alphabet)!r}"
            )


_HEADER_KEYS = ("kind", "alphabet", "states", "start", "final")


def _symbol_ok(symbol: str) -> bool:
    return len(symbol) == 1 and symbol.isascii() and symbol.isprintable() and symbol not in " #"


def parse_automaton(text: str) -> Automaton:
    """Parse the line-based automaton format and validate the result.

    The format is::

        kind: grl | gll
        alphabet: ab            # concatenated symbols, no separators
        states: q0 q1 q2        # whitespace-separated identifiers
        start: q0
        final: q1 q2            # may be an empty list
        rule: q0 ab q1          # FROM WORD TO

    ``#`` starts a comment, blank lines are ignored, and header lines may
    appear in any order as long as they precede the first ``rule:`` line.
    """
    header: dict[str, str | tuple[str, ...]] = {}
    rules: list[tuple[str, str, str]] = []
    in_rules = False
    for lineno, source_line in enumerate(text.splitlines(), 1):
        line = source_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not sep:
            raise FormatError("expected 'key: value'", lineno)
        if key == "rule":
            in_rules = True
            fields = value.split()
            if len(fields) != 3:
                raise FormatError("rule takes exactly FROM WORD TO", lineno)
            rules.append((fields[0], fields[1], fields[2]))
            continue
        if key not in _HEADER_KEYS:
            raise FormatError(f"unknown directive {key!r}", lineno)
        if in_rules:
            raise FormatError(f"header {key!r} must come before the first rule", lineno)
        if key in header:
            raise FormatError(f"duplicate header {key!r}", lineno)
        if key == "kind":
            if value not in (k.value for k in Kind):
                raise FormatError("kind must be 'grl' or 'gll'", lineno)
        elif key == "alphabet":
            if not value:
                raise FormatError("alphabet must not be empty", lineno)
            for ch in value:
                if not _symbol_ok(ch):
                    raise FormatError(f"symbol {ch!r} is not printable non-blank ASCII", lineno)
            if len(set(value)) != len(value):
                raise FormatError("alphabet repeats a symbol", lineno)
        elif key == "states":
            value = tuple(value.split())
            if len(set(value)) != len(value):
                raise FormatError("state declared twice", lineno)
        elif key == "start":
            if len(value.split()) != 1:
                raise FormatError("start takes exactly one state", lineno)
        else:  # final
            value = tuple(value.split())
            if len(set(value)) != len(value):
                raise FormatError("final state listed twice", lineno)
        header[key] = value
    for key in ("kind", "alphabet", "states", "final"):
        if key not in header:
            raise FormatError(f"missing header {key!r}")
    return make_automaton(
        header["kind"],
        header["alphabet"],
        header["states"],
        header.get("start"),
        header["final"],
        rules,
    )


def serialize_automaton(aut: Automaton) -> str:
    """Emit the canonical text form: headers first, rules in declaration order."""
    lines = [
        f"kind: {aut.kind.value}",
        f"alphabet: {''.join(aut.alphabet)}",
        f"states: {' '.join(aut.states)}",
        f"start: {aut.start}",
        ("final: " + " ".join(aut.finals)).rstrip(),
    ]
    lines.extend(f"rule: {r.src} {r.word} {r.dst}" for r in aut.rules)
    return "\n".join(lines) + "\n"
