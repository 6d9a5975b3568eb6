"""Reversal construction, unit-rule reference simulator, and comparisons."""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    Automaton,
    JumpfaError,
    Kind,
    Rule,
    check_word,
    make_automaton,
)
from .engine import differences, member


class NotUnitRuleError(JumpfaError):
    pass


class AlphabetMismatchError(JumpfaError):
    pass


class OneWayConfig(NamedTuple):
    """Single-buffer configuration of the classic one-symbol simulator.

    ``remaining`` is the unread input rotated so that the head always sits at
    its near end; text jumped over wraps around to the far end.
    """

    state: str
    remaining: str


def reverse_automaton(aut: Automaton) -> Automaton:
    """Flip the kind and reverse every rule word.

    The result accepts exactly the mirror images of the original language and
    simulates it step for step: a move between two configurations exists in
    one machine iff the move between their mirrored configurations (buffers
    swapped and reversed) exists in the other.
    """
    flipped = Kind.LEFT if aut.kind is Kind.RIGHT else Kind.RIGHT
    rules = [Rule(r.src, r.word[::-1], r.dst) for r in aut.rules]
    return make_automaton(flipped, aut.alphabet, aut.states, aut.start, aut.finals, rules)


def is_unit_rule(aut: Automaton) -> bool:
    """True when every rule deletes a single symbol."""
    return all(len(r.word) == 1 for r in aut.rules)


def one_way_reference_trace(aut: Automaton, word: str) -> list[OneWayConfig]:
    """Run the classic single-symbol one-way jumping relation directly.

    In each step the head scans the remaining input for the nearest deletable
    symbol (rightward for right-linear automata, leftward for left-linear),
    deletes it, and rotates the skipped text to the far end. The run stops
    when the input is empty or no symbol is deletable. Every step shortens
    the input by one symbol, so no configuration repeats and the trail has at
    most ``len(word) + 1`` entries.
    """
    if not is_unit_rule(aut):
        raise NotUnitRuleError("every rule must delete a single symbol")
    check_word(aut, word)
    step = {(r.src, r.word): r.dst for r in aut.rules}
    deletable = {q: frozenset(r.word for r in aut.rules if r.src == q) for q in aut.states}

    state, rest = aut.start, word
    trail = [OneWayConfig(state, rest)]
    while rest:
        symbols = deletable[state]
        if aut.kind is Kind.RIGHT:
            pos = next((i for i, ch in enumerate(rest) if ch in symbols), None)
        else:
            pos = next((i for i in range(len(rest) - 1, -1, -1) if rest[i] in symbols), None)
        if pos is None:
            break
        state = step[(state, rest[pos])]
        rest = rest[pos + 1:] + rest[:pos]
        trail.append(OneWayConfig(state, rest))
    return trail


def one_way_reference_member(aut: Automaton, word: str) -> bool:
    """Membership under the single-symbol relation; unit-rule automata only."""
    last = one_way_reference_trace(aut, word)[-1]
    return last.remaining == "" and last.state in aut.finals


def language_difference(a: Automaton, b: Automaton, max_len: int) -> list[tuple[str, bool, bool]]:
    """All words of length <= max_len on which the two memberships differ.

    An empty result certifies equivalence up to the length bound. Words come
    out in length-lexicographic order over ``a``'s alphabet.
    """
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetMismatchError(
            f"alphabets differ: {''.join(a.alphabet)!r} vs {''.join(b.alphabet)!r}"
        )
    return differences(a.alphabet, max_len, lambda w: member(a, w)[0], lambda w: member(b, w)[0])
