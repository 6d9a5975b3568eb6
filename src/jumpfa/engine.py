"""One-step semantics, membership search, traces, and the bounded sweep.

A configuration splits the remaining input around the current state: for a
right-linear automaton the head deletes words from the right buffer and text
it jumps over piles up in the left buffer; a left-linear automaton is the
mirror image. Two move shapes exist:

* consume: delete the nearest occurrence of a rule word, provided the gap
  jumped over contains no word readable in the current state;
* return: when nothing ahead is readable, wrap the head back past the text
  jumped over so far, making it readable again.

Several rule words may be deletable at once (e.g. words ``a`` and ``aa``
ahead of the same position), so acceptance is existential over branches and
:func:`member` performs a depth-first search of the configuration graph,
stopping at the first accepting run it finds. :func:`shortest_trace` runs the
same search breadth-first, for a shortest run. Every consume strictly shrinks
the input and returns never repeat, so the graph is acyclic and the search
terminates.

One consume rule decides every deletion of a step (:func:`enabled_deletions`):
find the nearest occurrence of each rule word once; a rule fires iff its
occurrence starts before the earliest end among all of them (``grl``), or
ends after the latest start (``gll``). The return jump is enabled iff no
readable word occurs ahead. :func:`naive_consume_successors` spells out the
literal side conditions instead and serves as the specification.

The search prunes dead states, those from which no final state is reachable
along the rules (``Automaton.live`` holds the others). Dead configurations
only lead to dead ones, so dropping them changes neither verdicts nor the
traces found. The marked-tape machine in :mod:`jumpfa.lba` does not
prune: its space report describes the whole unpruned search, and it stays an
independent check of this engine for both kinds, running a left-linear
automaton as its right-linear reversal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    EMPTY_WORD,
    Automaton,
    JumpfaError,
    Kind,
    Rule,
    check_word,
    readable_words,
)

# Hard cap on search size; generously above anything a desk-scale input can
# produce, since the configuration graph is acyclic.
DEFAULT_MAX_EXPANSIONS = 1_000_000


class SearchLimitError(JumpfaError):
    """The membership search exceeded its expansion budget."""


class Configuration(NamedTuple):
    """Text already jumped over, current state, text still ahead."""

    left: str
    state: str
    right: str


@dataclass(frozen=True)
class Consume:
    """Application of ``rule`` after jumping over ``skip``."""

    rule: Rule
    skip: str


@dataclass(frozen=True)
class Return:
    """The wrap-around jump back to the far end of the remaining input."""


RETURN = Return()

Move = Consume | Return


@dataclass(frozen=True)
class Trace:
    """An accepting run: ``configs[0]`` is initial, ``moves[i]`` links
    ``configs[i]`` to ``configs[i + 1]``, and the last configuration is a
    bare final state."""

    configs: tuple[Configuration, ...]
    moves: tuple[Move, ...]


def initial_config(aut: Automaton, word: str) -> Configuration:
    """Starting configuration: the whole input ahead of the head."""
    check_word(aut, word)
    if aut.kind is Kind.RIGHT:
        return Configuration("", aut.start, word)
    return Configuration(word, aut.start, "")


def contains_factor(word: str, words: Sequence[str]) -> bool:
    """True if any of ``words`` (all nonempty) occurs as a factor of ``word``."""
    return any(w in word for w in words)


def enabled_deletions(kind: Kind, rules: Sequence[Rule], text: str) -> list[tuple[Rule, int]]:
    """The rules of one state that fire on ``text``, each with the index where
    its occurrence starts, in rule order.

    ``text`` is the buffer the head scans: the right buffer for ``grl``, the
    left one for ``gll``. A rule word can only fire at its nearest occurrence
    (leftmost for ``grl``, rightmost for ``gll``): any farther one leaves a
    nearer occurrence inside the gap or straddling its boundary. The gap before
    the nearest occurrence of a word is blocked exactly when some readable
    word's nearest occurrence lies wholly inside it. So for ``grl`` a rule
    fires iff its occurrence starts before the smallest end over all
    occurrences, and for ``gll`` iff it ends after the largest start. Words
    readable in a state are the words of its rules, so one ``find`` per rule
    decides every deletion, and the result is empty exactly when no readable
    word occurs in ``text``.
    """
    hits: list[tuple[Rule, int]] = []
    if kind is Kind.RIGHT:
        bound = len(text)
        for rule in rules:
            pos = text.find(rule.word)
            if pos >= 0:
                hits.append((rule, pos))
                end = pos + len(rule.word)
                if end < bound:
                    bound = end
        return [hit for hit in hits if hit[1] < bound]
    bound = 0
    for rule in rules:
        pos = text.rfind(rule.word)
        if pos >= 0:
            hits.append((rule, pos))
            if pos > bound:
                bound = pos
    return [hit for hit in hits if hit[1] + len(hit[0].word) > bound]


def _successors(
    kind: Kind, rules_from: Mapping[str, tuple[Rule, ...]], config: Configuration
) -> list[tuple[Move, Configuration]]:
    left, state, right = config
    rules = rules_from.get(state, ())
    out: list[tuple[Move, Configuration]] = []
    if kind is Kind.RIGHT:
        for rule, pos in enabled_deletions(kind, rules, right):
            gap = right[:pos]
            after = Configuration(left + gap, rule.dst, right[pos + len(rule.word):])
            out.append((Consume(rule, gap), after))
        if left and not out:
            out.append((RETURN, Configuration("", state, left + right)))
    else:
        # Mirror image: scan the left buffer from its right end.
        for rule, pos in enabled_deletions(kind, rules, left):
            gap = left[pos + len(rule.word):]
            after = Configuration(left[:pos], rule.dst, gap + right)
            out.append((Consume(rule, gap), after))
        if right and not out:
            out.append((RETURN, Configuration(left + right, state, "")))
    return out


def successors(aut: Automaton, config: Configuration) -> list[tuple[Move, Configuration]]:
    """Every one-step successor: deletions in rule order, then the return jump."""
    return _successors(aut.kind, aut.rules_from, config)


def naive_consume_successors(
    aut: Automaton, config: Configuration
) -> list[tuple[Move, Configuration]]:
    """Reference implementation of the deletion step, kept deliberately naive.

    Enumerates every occurrence of every rule word and filters by the literal
    side conditions: the gap must not contain any readable word, and the fired
    word must not also appear straddling the gap boundary (no nonempty gap
    suffix extends to the fired word with one of its own nonempty prefixes).
    The fast path above must agree with this on every configuration; the test
    suite compares the two exhaustively. It reads the rules and the readable
    words straight from ``aut.rules``, apart from the search tables.
    """
    words = tuple(readable_words(aut, config.state))
    rules = [rule for rule in aut.rules if rule.src == config.state]
    out: list[tuple[Move, Configuration]] = []
    if aut.kind is Kind.RIGHT:
        text = config.right
        for rule in rules:
            x = rule.word
            pos = text.find(x)
            while pos >= 0:
                gap, rest = text[:pos], text[pos + len(x):]
                straddle = any(
                    gap[-k:] + x[: len(x) - k] == x
                    for k in range(1, min(len(gap), len(x) - 1) + 1)
                )
                if not contains_factor(gap, words) and not straddle:
                    after = Configuration(config.left + gap, rule.dst, rest)
                    out.append((Consume(rule, gap), after))
                pos = text.find(x, pos + 1)
    else:
        text = config.left
        for rule in rules:
            x = rule.word
            pos = text.find(x)
            while pos >= 0:
                kept, gap = text[:pos], text[pos + len(x):]
                straddle = any(
                    x[k:] + gap[:k] == x
                    for k in range(1, min(len(gap), len(x) - 1) + 1)
                )
                if not contains_factor(gap, words) and not straddle:
                    after = Configuration(kept, rule.dst, gap + config.right)
                    out.append((Consume(rule, gap), after))
                pos = text.find(x, pos + 1)
    return out


def member(
    aut: Automaton, word: str, *, max_expansions: int = DEFAULT_MAX_EXPANSIONS
) -> tuple[bool, Trace | None]:
    """Decide membership; on acceptance also return an accepting run.

    Depth-first search over exact configurations: it always expands the
    configuration discovered last and stops at the first accepting one it
    discovers. On accepted words it usually expands far fewer configurations
    than :func:`shortest_trace`; the run it returns is reproducible but need
    not be a shortest one. On a rejected word both searches expand every live
    reachable configuration once, so ``max_expansions`` gives up on exactly
    the same rejected inputs.
    """
    return _search(aut, word, max_expansions, deque.pop)


def shortest_trace(
    aut: Automaton, word: str, *, max_expansions: int = DEFAULT_MAX_EXPANSIONS
) -> tuple[bool, Trace | None]:
    """Decide membership; on acceptance also return a shortest accepting run.

    Breadth-first search over exact configurations. Ties between equal-depth
    branches resolve in rule declaration order with the return jump last, so
    the returned trace is reproducible.
    """
    return _search(aut, word, max_expansions, deque.popleft)


def _search(
    aut: Automaton,
    word: str,
    max_expansions: int,
    take: Callable[[deque[Configuration]], Configuration],
) -> tuple[bool, Trace | None]:
    """The search behind :func:`member` and :func:`shortest_trace`; ``take``
    picks the next configuration to expand from the frontier.

    Configurations whose state is not in ``aut.live`` are never stored or
    expanded: none of them can lead to acceptance and all their successors
    are dead too, so the live configurations are discovered in the same order
    as by the unpruned search, and verdicts and traces are unchanged. Only the
    expansion count that ``max_expansions`` bounds shrinks.
    """
    start = initial_config(aut, word)
    finals, live, rules_from, kind = aut.finals, aut.live, aut.rules_from, aut.kind
    if start.state not in live:
        return False, None
    if not start.left and not start.right and start.state in finals:
        return True, Trace((start,), ())
    paths: dict[Configuration, tuple[Configuration, Move] | None] = {start: None}
    frontier: deque[Configuration] = deque((start,))
    expansions = 0
    while frontier:
        config = take(frontier)
        expansions += 1
        if expansions > max_expansions:
            raise SearchLimitError(
                f"gave up after {max_expansions} expansions on input of length {len(word)}"
            )
        for move, nxt in _successors(kind, rules_from, config):
            if nxt.state not in live or nxt in paths:
                continue
            paths[nxt] = (config, move)
            if not nxt.left and not nxt.right and nxt.state in finals:
                return True, _backtrack(paths, nxt)
            frontier.append(nxt)
    return False, None


def _backtrack(
    paths: dict[Configuration, tuple[Configuration, Move] | None], last: Configuration
) -> Trace:
    configs = [last]
    moves: list[Move] = []
    step = paths[last]
    while step is not None:
        prev, move = step
        configs.append(prev)
        moves.append(move)
        step = paths[prev]
    configs.reverse()
    moves.reverse()
    return Trace(tuple(configs), tuple(moves))


def accepts(aut: Automaton, word: str) -> bool:
    """Membership verdict only."""
    return member(aut, word)[0]


def iter_words(alphabet: Sequence[str], max_len: int) -> Iterator[str]:
    """All words of length <= max_len in length-then-lexicographic order,
    using the declaration order of ``alphabet``."""
    for length in range(max_len + 1):
        for letters in product(alphabet, repeat=length):
            yield "".join(letters)


def differences(
    alphabet: Sequence[str],
    max_len: int,
    first: Callable[[str], bool],
    second: Callable[[str], bool],
) -> list[tuple[str, bool, bool]]:
    """The bounded sweep: ``(word, first(word), second(word))`` for every word
    of length <= max_len, in :func:`iter_words` order, on which the two
    verdicts differ. ``first`` is called before ``second`` on each word."""
    out = []
    for word in iter_words(alphabet, max_len):
        verdict = first(word)
        other = second(word)
        if verdict != other:
            out.append((word, verdict, other))
    return out


def enumerate_language(aut: Automaton, max_len: int) -> list[str]:
    """All accepted words of length <= max_len, length-lexicographic."""
    diffs = differences(aut.alphabet, max_len, lambda w: member(aut, w)[0], lambda w: False)
    return [word for word, _, _ in diffs]


def format_configuration(config: Configuration) -> str:
    left = config.left or EMPTY_WORD
    right = config.right or EMPTY_WORD
    return f"{left} | {config.state} | {right}"


def format_move(move: Move) -> str:
    if isinstance(move, Return):
        return "return"
    rule = move.rule
    return f"consume({rule.src},{rule.word},{rule.dst} skip={move.skip or EMPTY_WORD})"


def format_trace(trace: Trace) -> str:
    """One configuration per line; each produced configuration carries the
    move that reached it as a suffix annotation."""
    lines = [format_configuration(trace.configs[0])]
    for move, config in zip(trace.moves, trace.configs[1:]):
        lines.append(f"{format_configuration(config)}  -- {format_move(move)}")
    return "\n".join(lines)
