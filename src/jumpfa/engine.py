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
terminates. One function runs both traced searches (:func:`_traced`): it
stores nothing until it branches, and keeps a frontier from its first
branch on. The sweeps, which read the verdict alone, decide through a
search of their own (:func:`_decider`): it links no move, before or after
it branches, and it ends a run at a final state whose only rule loops on it
by a drain (:func:`_compile_drain`), in its frontier too. A move is the
:class:`~jumpfa.core.Rule` a consume applies, ``(src, word, dst)``, since a
rule fires only at the nearest occurrence of its word, or ``None`` for the
return, which applies no rule. Configurations and traces are named tuples;
a :class:`Trace` is ``(kind, start, moves)`` and replays its configurations
from the moves.

One consume rule decides every deletion of a step (:func:`enabled_deletions`):
find the nearest occurrence of each rule word once; a rule fires iff its
occurrence starts before the earliest end among all of them (``grl``), or
ends after the latest start (``gll``). The return jump is enabled iff no
readable word occurs ahead. :func:`naive_consume_successors` spells out the
literal side conditions instead and serves as the specification. A state's
rules are fixed, so its step is compiled once per automaton, as a closure
(:func:`_compile_step`, ``Automaton.live_steps``): one ``find`` for one rule;
one strip of the symbols the state cannot read (``str.lstrip``,
``str.rstrip`` for ``gll``), none if it reads them all, and one lookup for
rules of one symbol each, as in the original one-way jumping automaton;
:func:`enabled_deletions` for any other. A step returns its kept
successors: none, one as a plain tuple, or two or more as a list of
:class:`Configuration` values, built by :func:`_deletions`.

The search prunes dead states, those from which no final state is reachable
along the rules (``Automaton.live`` holds the others): a step builds only the
successors whose state is live, though a deletion into a dead state still
blocks the return jump. The marked-tape machine in :mod:`jumpfa.lba` does not
prune, and it stays an independent check of this engine for both kinds,
running a left-linear automaton as its right-linear reversal.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from functools import cached_property
from itertools import chain, product
from math import isqrt
from typing import Callable, Container, Iterator, NamedTuple, Sequence

from .core import (
    EMPTY_WORD,
    Automaton,
    JumpfaError,
    Kind,
    Rule,
    check_word,
)

# Cap on the symbols one search stores, text plus one per configuration kept:
# 98x the most any bench input stores (203,938); no test stores over 684.
MAX_STORED_SYMBOLS = 20_000_000
# Hard cap on the input symbols of all the words one bounded sweep visits.
MAX_SWEEP_SYMBOLS = 200_000_000
# Fewest words per share for each fork the caller makes: a sweep of w words runs
# in isqrt(w // SHARE_WORDS) processes at most, so one of 4,096 words forks once.
# A fork round trip costs as much as a few thousand swept words, both verdicts.
SHARE_WORDS = 2**10
# The right-linear kind, read once: reading an Enum member costs more than
# reading a module global, and every step tests the kind.
_RIGHT = Kind.RIGHT


class SearchLimitError(JumpfaError):
    """A search stored more than :data:`MAX_STORED_SYMBOLS` input symbols, or
    a sweep would visit more than :data:`MAX_SWEEP_SYMBOLS`."""


class Configuration(NamedTuple):
    """Text already jumped over, current state, text still ahead."""

    left: str
    state: str
    right: str


# A consume is the rule it applies; the return jump applies none.
Move = Rule | None

# What a compiled step returns (see _compile_step).
_Stepped = tuple[Move, tuple[str, str, str]] | tuple[()] | list[tuple[Rule, Configuration]]

# The moves that reached a configuration, last first: ``(move, parent_path)``,
# with ``None`` at the start configuration.
_Path = tuple[Move, "_Path"] | None


class _TraceFields(NamedTuple):
    kind: Kind
    start: Configuration
    moves: tuple[Move, ...]


class Trace(_TraceFields):
    """An accepting run: ``(kind, start, moves)``. ``configs[0]`` is
    initial, ``moves[i]`` links ``configs[i]`` to ``configs[i + 1]``, and the
    last configuration is a bare final state.

    A consume move is its rule, which can fire only at the nearest occurrence
    of its word, and a return is ``None`` and wraps by ``kind``, so ``configs``
    is replayed from the moves when it is first read, and cached on the value,
    outside the tuple. The replay steps as the search does
    (:func:`_compile_step`): a consume through the one-rule shape, a return
    through a state with no rules. It raises :class:`JumpfaError` on a consume
    whose rule does not leave the current state or whose word does not occur
    ahead of the head, and on a return with no text jumped over to wrap (an
    empty left buffer for ``grl``, right one for ``gll``). A trace carries no
    automaton, so the replay cannot check that a move was enabled: that no
    nearer readable word blocked a consume, or that nothing readable lay ahead
    of a return, or that the last state is final. Like every other record, a
    trace unpacks, compares, hashes and prints as the tuple of its fields. Its
    fields are read-only, and no other attribute can be set either.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot set {name!r} on an immutable Trace")

    @cached_property
    def configs(self) -> tuple[Configuration, ...]:
        config, steps = self.start, {}  # each rule's step, and each state's return
        configs = [config]
        for index, move in enumerate(self.moves):
            left, state, right = config
            if move is None:
                if state not in steps:
                    steps[state] = _compile_step(self.kind, state, (), (), ())
                step = steps[state](left, right)
                if not step:
                    raise JumpfaError(f"move {index}, a return, has no text jumped over to wrap")
            elif move.src != state:
                raise JumpfaError(f"move {index}, {move}, does not leave state {state!r}")
            else:
                if move not in steps:
                    steps[move] = _compile_step(self.kind, state, (move,), (move.dst,), ())
                step = steps[move](left, right)
                if not step or step[0] is None:
                    raise JumpfaError(f"move {index}, {move}, finds no {move.word!r} ahead")
            config = Configuration._make(step[1])
            configs.append(config)
        return tuple(configs)


def initial_config(aut: Automaton, word: str) -> Configuration:
    """Starting configuration: the whole input ahead of the head."""
    check_word(aut, word)
    if aut.kind is Kind.RIGHT:
        return Configuration("", aut.start, word)
    return Configuration(word, aut.start, "")


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
    if kind is _RIGHT:
        bound = len(text)
        for rule in rules:
            pos = text.find(rule.word)
            if pos >= 0:
                hits.append((rule, pos))
                end = pos + len(rule.word)
                if end < bound:
                    bound = end
        # A lone occurrence sets the bound itself, so it always fires.
        if len(hits) < 2:
            return hits
        return [hit for hit in hits if hit[1] < bound]
    bound = 0
    for rule in rules:
        pos = text.rfind(rule.word)
        if pos >= 0:
            hits.append((rule, pos))
            if pos > bound:
                bound = pos
    if len(hits) < 2:
        return hits
    return [hit for hit in hits if hit[1] + len(hit[0].word) > bound]


def _compile_step(
    kind: Kind, state: str, rules: Sequence[Rule], keep: Container[str], alphabet: Sequence[str],
) -> Callable[[str, str], _Stepped]:
    """The step of ``state``, whose rules are ``rules``, toward the states in
    ``keep``, which holds ``state``: ``step(left, right)`` returns its
    successors whose state is in ``keep``. That is ``()`` if there is none,
    ``(move, (left, state, right))`` if there is one, and otherwise the list
    of ``(rule, Configuration)`` pairs, in rule order, that
    :func:`_deletions` builds. It reads the kind, the rules and ``keep``
    once, here, into one of three shapes:

    * one rule: one ``find`` of its word (``rfind`` for ``gll``);
    * rules of one symbol each: one strip of the symbols of ``alphabet`` the
      state cannot read (``str.lstrip``, ``str.rstrip`` for ``gll``) and one
      lookup, or the last shape if a symbol outside ``alphabet`` stops it; a
      state that reads every symbol skips the strip, and takes the last
      shape on an empty buffer too;
    * any other: :func:`enabled_deletions` on the buffer the head scans.
    """
    grl = kind is _RIGHT
    if len(rules) == 1:
        (rule,) = rules
        word, dst, size, kept = rule.word, rule.dst, len(rule.word), rule.dst in keep

        def one_rule_grl(left: str, right: str) -> _Stepped:
            pos = right.find(word)
            if pos < 0:
                return (None, ("", state, left + right)) if left else ()
            return (rule, (left + right[:pos], dst, right[pos + size:])) if kept else ()

        def one_rule_gll(left: str, right: str) -> _Stepped:
            pos = left.rfind(word)
            if pos < 0:
                return (None, (left + right, state, "")) if right else ()
            return (rule, (left[:pos], dst, left[pos + size:] + right)) if kept else ()

        return one_rule_grl if grl else one_rule_gll

    def general(left: str, right: str) -> _Stepped:
        hits = enabled_deletions(kind, rules, right if grl else left)
        if len(hits) > 1:
            kept = _deletions(grl, left, right, hits, keep)
            return kept if len(kept) > 1 else kept[0] if kept else ()
        if not hits:
            if grl:
                return (None, ("", state, left + right)) if left else ()
            return (None, (left + right, state, "")) if right else ()
        (rule, pos), = hits
        if rule.dst not in keep:
            return ()
        if grl:
            return rule, (left + right[:pos], rule.dst, right[pos + len(rule.word):])
        return rule, (left[:pos], rule.dst, left[pos + len(rule.word):] + right)

    if not rules or any(len(rule.word) != 1 for rule in rules):
        return general
    # A dead rule's symbol maps to (), which is false and is its step.
    table = {rule.word: rule if rule.dst in keep else () for rule in rules}
    skip = "".join(a for a in alphabet if a not in table)

    def one_symbol_grl(left: str, right: str) -> _Stepped:
        rest = right.lstrip(skip)
        rule = table.get(rest[:1])
        if rule:
            return rule, (left + right[: len(right) - len(rest)], rule.dst, rest[1:])
        if rest:  # the dead rule's (), or a symbol outside the alphabet
            return rule if rule is not None else general(left, right)
        return (None, ("", state, left + right)) if left else ()

    def one_symbol_gll(left: str, right: str) -> _Stepped:
        rest = left.rstrip(skip)
        rule = table.get(rest[-1:])
        if rule:
            return rule, (rest[:-1], rule.dst, left[len(rest):] + right)
        if rest:  # the dead rule's (), or a symbol outside the alphabet
            return rule if rule is not None else general(left, right)
        return (None, (left + right, state, "")) if right else ()

    def every_symbol_grl(left: str, right: str) -> _Stepped:
        rule = table.get(right[:1])
        if rule:
            return rule, (left, rule.dst, right[1:])
        return rule if rule is not None else general(left, right)  # none ahead, or foreign

    def every_symbol_gll(left: str, right: str) -> _Stepped:
        rule = table.get(left[-1:])
        if rule:
            return rule, (left[:-1], rule.dst, right)
        return rule if rule is not None else general(left, right)  # none ahead, or foreign

    if not skip:
        return every_symbol_grl if grl else every_symbol_gll
    return one_symbol_grl if grl else one_symbol_gll


def _deletions(
    grl: bool, left: str, right: str, hits: list[tuple[Rule, int]], keep: Container[str],
) -> list[tuple[Rule, Configuration]]:
    """The successors that the deletions ``hits``, which
    :func:`enabled_deletions` found on the buffer the head scans, make of
    ``(left, state, right)``: a ``(rule, Configuration)`` pair for each
    whose state is in ``keep``, in rule order. ``grl`` tells the kind."""
    if grl:
        return [(rule, Configuration(left + right[:pos], rule.dst, right[pos + len(rule.word):]))
                for rule, pos in hits if rule.dst in keep]
    # Mirror image: scan the left buffer from its right end.
    return [(rule, Configuration(left[:pos], rule.dst, left[pos + len(rule.word):] + right))
            for rule, pos in hits if rule.dst in keep]


def successors(aut: Automaton, config: Configuration) -> list[tuple[Move, Configuration]]:
    """Every one-step successor: deletions in rule order, then the return jump,
    enabled iff no readable word occurs ahead and there is text to wrap."""
    left, state, right = config
    grl = aut.kind is _RIGHT
    hits = enabled_deletions(aut.kind, aut.rules_from[state], right if grl else left)
    if hits:
        return _deletions(grl, left, right, hits, aut.states)
    if grl:
        return [(None, Configuration("", state, left + right))] if left else []
    return [(None, Configuration(left + right, state, ""))] if right else []


def naive_consume_successors(
    aut: Automaton, config: Configuration
) -> list[tuple[Move, Configuration]]:
    """Reference implementation of the deletion step, kept deliberately naive.

    Enumerates every occurrence of every rule word and filters by the literal
    side conditions: the gap must not contain any readable word, and the fired
    word must not also appear straddling the gap boundary (no nonempty gap
    suffix extends to the fired word with one of its own nonempty prefixes).
    The fast path above must agree with this on every configuration; the test
    suite compares the two exhaustively. It reads the rules, and so the
    readable words, straight from ``aut.rules``, apart from the search tables.
    """
    rules = [rule for rule in aut.rules if rule.src == config.state]
    words = [rule.word for rule in rules]
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
                if not any(w in gap for w in words) and not straddle:
                    after = Configuration(config.left + gap, rule.dst, rest)
                    out.append((rule, after))
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
                if not any(w in gap for w in words) and not straddle:
                    after = Configuration(kept, rule.dst, gap + config.right)
                    out.append((rule, after))
                pos = text.find(x, pos + 1)
    return out


def member(aut: Automaton, word: str) -> tuple[bool, Trace | None]:
    """Decide membership; on acceptance also return an accepting run.

    Depth-first search over exact configurations: it always expands the
    configuration discovered last and stops at the first accepting one it
    discovers. On accepted words it usually expands far fewer configurations
    than :func:`shortest_trace`; the run it returns is reproducible but need
    not be a shortest one. On a rejected word both searches store the same
    configurations, so :data:`MAX_STORED_SYMBOLS` gives up on exactly the same
    rejected inputs.
    """
    return _traced(aut, initial_config(aut, word), deque.pop)


def shortest_trace(aut: Automaton, word: str) -> tuple[bool, Trace | None]:
    """Decide membership; on acceptance also return a shortest accepting run.

    Breadth-first search over exact configurations. Ties between equal-depth
    branches resolve in rule declaration order with the return jump last, so
    the returned trace is reproducible.
    """
    return _traced(aut, initial_config(aut, word), deque.popleft)


def _traced(aut: Automaton, start: Configuration, take: Callable) -> tuple[bool, Trace | None]:
    """The search behind :func:`member` and :func:`shortest_trace`, from
    ``start``: the verdict and, on acceptance, the :class:`Trace` of the run
    that reached a bare final state. A dead start rejects before the search
    reads any table. It steps through a loop state move by move, since a
    trace lists every move, so a run ended by a drain would have to spell
    them out again.

    Configurations whose state is not in ``aut.live`` are never built, stored
    or expanded: none can lead to acceptance and all their successors are
    dead too, so the live configurations are discovered in the same order as
    by the unpruned search, and verdicts and traces are unchanged. Only the
    store that :data:`MAX_STORED_SYMBOLS` bounds shrinks.

    The graph is acyclic, so while every expansion has yielded at most one
    live successor the live configurations found form one path that cannot
    meet itself. This path phase follows that one successor, held in three
    locals, stepping each state through its compiled step alone
    (``aut.live_steps``), and links each move onto the path as ``(move,
    parent_path)``, ``None`` being the start's path. It stores nothing else.

    The frontier phase begins at the first step that returns two or more
    live successors, as a list: its visited set and a frontier of
    ``(configuration, path)`` entries that starts with them are created
    there. ``take`` (``deque.pop`` or ``deque.popleft``) picks the next
    entry, and its state's compiled step expands it, a lone plain-tuple
    successor made a :class:`Configuration`, so successors enter in the
    order a frontier from the start would give. Every configuration
    discovered from then on goes into the visited set; none found earlier
    can be reached again, being an ancestor of all that follow, so every
    live reachable configuration is still expanded exactly once. The budget
    charges only what enters the visited set, its symbols plus one each:
    before, the run is one path of at most 2n + 1 moves, since each consume
    shrinks the input and no return follows one.
    """
    left, state, right = start
    if state not in aut.live:
        return False, None
    finals, table = aut.finals, aut.live_steps
    path: _Path = None
    while True:
        if not left and not right and state in finals:
            return True, Trace(aut.kind, start, _moves(path))
        step = table[state](left, right)
        if step.__class__ is list:
            break
        if not step:
            return False, None
        move, (left, state, right) = step
        path = (move, path)
    limit = budget = MAX_STORED_SYMBOLS
    seen: set[Configuration] = set()
    frontier: deque = deque()
    while True:
        for move, nxt in step:
            if nxt in seen:
                continue
            seen.add(nxt)
            budget -= len(nxt.left) + len(nxt.right) + 1
            if budget < 0:
                raise SearchLimitError(
                    f"gave up after storing {limit} symbols on input of length "
                    f"{len(start.left) + len(start.right)}"
                )
            if not nxt.left and not nxt.right and nxt.state in finals:
                return True, Trace(aut.kind, start, _moves((move, path)))
            frontier.append((nxt, (move, path)))
        if not frontier:
            return False, None
        config, path = take(frontier)
        step = table[config.state](config.left, config.right)
        if step.__class__ is not list:
            step = [(step[0], Configuration._make(step[1]))] if step else ()


def _decider(aut: Automaton) -> Callable[[str], bool]:
    """The verdict of :func:`member` for the bounded sweeps, which read no
    path. The word must be over ``aut.alphabet`` and is not checked: every
    sweep enumerates the automaton's own alphabet.

    ``decide(word)`` runs a path phase like :func:`_traced`'s that links no
    move. A state of ``aut.loops`` steps by its drain (:func:`_compile_drain`),
    so a run that reaches one before it branches ends there. The start
    state's step (its drain, if it loops) is read once, here, and taken
    before the loop, which tests acceptance before each later step. A start
    that does not loop and whose rules read every symbol, one each (a state
    of the original one-way jumping automaton), moves by the first symbol
    alone (the last for ``gll``): ``heads`` maps it to the live rule, or to
    ``()`` if the rule leads to a dead state, which rejects; the empty word
    finds no rule and is accepted iff the start is final. So the path makes
    no expansion :func:`member` does not make, and skips the drained ones
    and such a start's.

    From the first step that returns two or more live successors on, it runs
    a frontier phase of its own, not :func:`_traced`'s: ``(left, state,
    right)`` tuples on a list taken last first, as :func:`member` takes them,
    with one visited set charged as :func:`_traced` charges its own, no move
    linked, and every configuration stepped through the same table, so a
    loop state is still decided by its drain. :func:`member` expands a loop
    state's configuration and then every configuration after it, all in
    that state, before it takes another; the drain stores none of those. So
    this search stores a subset of what :func:`member` stores at each point,
    raises :class:`SearchLimitError` only on words where :func:`member`
    raises it, and may decide words on which :func:`member` gives up.
    """
    start, finals, live = aut.start, aut.finals, aut.live
    if start not in live:
        return lambda word: False
    grl = aut.kind is _RIGHT
    drains = {q: _compile_drain(grl, q, word, aut.alphabet) for q, word in aut.loops.items()}
    table = {**aut.live_steps, **drains}
    first, rules = table[start], aut.rules_from[start]
    # Rule words are over the alphabet, one rule a word: these read one symbol each.
    heads = None
    if start not in drains and {rule.word for rule in rules} == aut.symbols:
        heads = {rule.word: rule if rule.dst in live else () for rule in rules}

    def decide(word: str) -> bool:
        if heads is not None:
            rule = heads.get(word[:1] if grl else word[-1:])
            if not rule:  # a dead rule's (), or None on the empty word
                return rule is None and start in finals
            left, state, right = ("", rule.dst, word[1:]) if grl else (word[:-1], rule.dst, "")
            if not left and not right and state in finals:
                return True
            step = table[state](left, right)
        else:
            if not word and start in finals:
                return True
            left, state, right = ("", start, word) if grl else (word, start, "")
            step = first(left, right)
        while step.__class__ is not list:
            if not step:
                return False
            _, (left, state, right) = step
            if not left and not right and state in finals:
                return True
            step = table[state](left, right)
        limit = budget = MAX_STORED_SYMBOLS
        seen: set[tuple[str, str, str]] = set()
        stack: list[tuple[str, str, str]] = []
        while True:
            for _, config in step:
                if config in seen:
                    continue
                seen.add(config)
                left, state, right = config
                budget -= len(left) + len(right) + 1
                if budget < 0:
                    raise SearchLimitError(
                        f"gave up after storing {limit} symbols on input of length {len(word)}"
                    )
                if not left and not right and state in finals:
                    return True
                stack.append(config)
            if not stack:
                return False
            left, state, right = stack.pop()
            step = table[state](left, right)
            if step.__class__ is not list:
                step = (step,) if step else ()

    return decide


def _compile_drain(
    grl: bool, state: str, word: str, alphabet: Sequence[str]
) -> Callable[[str, str], _Stepped]:
    """The step that :func:`_decider` takes in a final ``state`` whose only
    rule loops on it, deleting ``word``, ``grl`` telling the kind: a move to
    the bare final state if the run from ``(left, state, right)`` deletes all
    the text, else ``()``. It rejects if a buffer holds a symbol of
    ``alphabet`` that ``word`` lacks, since no move deletes it. Else it runs
    :func:`_drained`'s passes, as ``grl`` ones if no proper prefix of
    ``word`` is also a suffix (``ab``, ``aab``; not ``aa``, ``aba``): then
    the rewriting system ``{word → ε}`` has no critical pairs and shrinks the
    text, so it is confluent (Newman's lemma), every order of deletions ends
    in the same text, and ``str.replace`` deletes what ``str.rsplit`` does.
    """
    accept: _Stepped = (None, ("", state, ""))
    foreign = [a for a in alphabet if a not in word]
    grl = grl or not any(word[:k] == word[-k:] for k in range(1, len(word)))

    def drain(left: str, right: str) -> _Stepped:
        for symbol in foreign:
            if symbol in left or symbol in right:
                return ()
        return accept if _drained(grl, word, left, right) else ()

    if not foreign:  # the loop over foreign would run empty on every call
        return lambda left, right: accept if _drained(grl, word, left, right) else ()
    return drain


def _drained(grl: bool, word: str, left: str, right: str) -> bool:
    """Whether a final state whose only rule loops on it, deleting ``word``,
    accepts from ``(left, state, right)``. A pass deletes each occurrence
    ahead in scan order, as ``str.replace`` (``grl``) or ``str.rsplit``
    (``gll``) does; then the return wraps all the text for the next pass.
    ``grl`` is whether the automaton is right-linear."""
    text = left + right.replace(word, "") if grl else "".join(left.rsplit(word)) + right
    while word in text:
        text = text.replace(word, "") if grl else "".join(text.rsplit(word))
    return not text


def _moves(path: _Path) -> tuple[Move, ...]:
    moves: list[Move] = []
    while path is not None:
        move, path = path
        moves.append(move)
    moves.reverse()
    return tuple(moves)


def iter_words(
    alphabet: Sequence[str], max_len: int, share: int = 0, shares: int = 1
) -> Iterator[str]:
    """All words of length <= max_len in length-then-lexicographic order,
    using the declaration order of ``alphabet``. A sweep split into
    ``shares`` shares gives share ``share`` word ``j`` of each length when
    ``j % shares == share``, still in that order.

    A word of length k is one concatenation ``head + tail``: the tails, its
    last ``k - k // 2`` letters, are listed once per length, and head ``h``
    (in order) takes every ``shares``-th of them from the offset that makes
    word ``j = h * len(tails) + t`` fall to share ``j % shares``. Each word
    comes from a C ``map`` through ``chain``, not joined from a tuple of
    letters nor yielded by a Python frame: one concatenation a word costs
    less than ``"".join`` over ``product``."""
    return chain.from_iterable(
        map(head.__add__, tails[(share - index * len(tails)) % shares::shares])
        for length in range(max_len + 1)
        for tails in [list(map("".join, product(alphabet, repeat=length - length // 2)))]
        for index, head in enumerate(map("".join, product(alphabet, repeat=length // 2)))
    )


def differences(
    alphabet: Sequence[str],
    max_len: int,
    first: Callable[[str], bool],
    second: Callable[[str], bool],
) -> list[tuple[str, bool, bool]]:
    """The bounded sweep: ``(word, first(word), second(word))`` for every word
    of length <= max_len, in :func:`iter_words` order, on which the two
    verdicts differ. ``first`` is called before ``second`` on each word.
    The package's sweeps pass an automaton's verdicts as :func:`_decider`,
    which decides a word with no word check and builds no trace.

    Raises :class:`SearchLimitError` before calling either when those words
    hold more than :data:`MAX_SWEEP_SYMBOLS` symbols in all. Otherwise it
    raises what a sweep deciding the words one by one would raise: the
    exception of the earliest word on which ``first`` or ``second`` raises.

    A sweep of ``4 * SHARE_WORDS`` words or more is split over ``min(usable
    CPUs, isqrt(words // SHARE_WORDS))`` processes (see
    :func:`_sweep_processes`), this one and children made by ``os.fork``
    (see :mod:`jumpfa._forked`), unless ``os.fork`` is missing or
    a second thread is alive, and stays here if a pipe or a fork fails. So
    ``first`` and ``second`` must be pure functions of the word that return a
    bool: whatever else a child changes is lost. If a share fails, this
    process decides the whole sweep again from the first word, so the
    failure is raised here.
    """
    cap, size = MAX_SWEEP_SYMBOLS, len(alphabet)
    # The words of length k hold k·|Σ|^k symbols; sum them one length at a time
    # only until the sum passes the cap: within 20,000 lengths if |Σ| >= 1.
    symbols = length = 0
    words = 1
    while symbols <= cap and length < max_len:
        length += 1
        words += size**length
        symbols += length * size**length
    if symbols > cap:
        raise SearchLimitError(
            f"gave up: {symbols} symbols up to length {length} exceed the sweep cap of {cap}"
        )
    processes = _sweep_processes(words)
    if processes > 1:
        from ._forked import forked_sweep  # compiled only once a sweep forks

        out = forked_sweep(alphabet, max_len, first, second, processes)
        if out is not None:
            return out
    return _differing(iter_words(alphabet, max_len), first, second)


def _differing(
    words: Iterator[str], first: Callable[[str], bool], second: Callable[[str], bool]
) -> list[tuple[str, bool, bool]]:
    """``(word, first(word), second(word))`` for each of ``words``, in order,
    on which the two verdicts differ: the loop of every sweep and share."""
    out = []
    for word in words:
        verdict = first(word)
        other = second(word)
        if verdict != other:
            out.append((word, verdict, other))
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sweep_processes(words: int) -> int:
    """How many processes decide a sweep of ``words`` words: the usable CPUs,
    but no more than ``p`` with ``p * p * SHARE_WORDS <= words``. The caller
    forks its children one after another, so the more it forks, the more
    words each share must hold to pay for the forks before it: with ``p``
    processes each share holds at least ``SHARE_WORDS`` words per fork. On 2
    CPUs every sweep of 4,096 words or more forks; the 265,720 words of
    length <= 11 over three letters take 16 processes at most. The CPUs are
    the usable ones, not the idle ones, so that whether a sweep forks does
    not depend on what else runs, though a forked sweep runs slower than one
    process while another process holds the second of 2 CPUs. A forked
    child of a process with a second thread can deadlock, and ``threading``
    is read from ``sys.modules`` so that the check imports nothing."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    return max(1, min(_usable_cpus(), isqrt(words // SHARE_WORDS)))


def enumerate_language(aut: Automaton, max_len: int) -> list[str]:
    """All accepted words of length <= max_len, length-lexicographic."""
    diffs = differences(aut.alphabet, max_len, _decider(aut), lambda w: False)
    return [word for word, _, _ in diffs]


def format_configuration(config: Configuration) -> str:
    left = config.left or EMPTY_WORD
    right = config.right or EMPTY_WORD
    return f"{left} | {config.state} | {right}"


def format_trace(trace: Trace) -> str:
    """One configuration per line; each produced configuration carries the
    move that reached it as a suffix annotation. A consume's skip is the text
    its jump added to the buffer behind the head: the left one for ``grl``,
    the right one for ``gll``."""
    configs = trace.configs
    lines = [format_configuration(configs[0])]
    for move, before, after in zip(trace.moves, configs, configs[1:]):
        if move is None:
            note = "return"
        else:
            if trace.kind is Kind.RIGHT:
                skip = after.left[len(before.left):]
            else:
                skip = after.right[: len(after.right) - len(before.right)]
            note = f"consume({move.src},{move.word},{move.dst} skip={skip or EMPTY_WORD})"
        lines.append(f"{format_configuration(after)}  -- {note}")
    return "\n".join(lines)
