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
terminates. The search keeps no frontier and stores nothing until it
branches: while each expansion yields at most one live successor the run
cannot meet itself, so on a machine with one rule per state it follows that
successor and keeps only the moves it has made. Run for the verdict only, as
the sweeps run it, such a run ends at once in a final state whose only rule
loops on it (``Automaton.loops``): each pass there deletes every occurrence
ahead, as one ``str.replace`` does (``str.rsplit`` for ``gll``). A
:class:`Trace` holds its start configuration and its moves, and replays its
configurations from the moves, through the search's own step, when they are
first read. A move is the
:class:`~jumpfa.core.Rule` a consume applies, ``(src, word, dst)``, since a
rule fires only at the nearest occurrence of its word, or ``None`` for the
return, which applies no rule. Configurations and traces are named tuples,
and a :class:`Trace` is ``(kind, start, moves)``.

One consume rule decides every deletion of a step (:func:`enabled_deletions`):
find the nearest occurrence of each rule word once; a rule fires iff its
occurrence starts before the earliest end among all of them (``grl``), or
ends after the latest start (``gll``). The return jump is enabled iff no
readable word occurs ahead. :func:`naive_consume_successors` spells out the
literal side conditions instead and serves as the specification. A state
whose rules each read one symbol (``Automaton.units``), as every state of
the original one-way jumping automaton does, has at most one enabled
deletion: the rule of the nearest symbol it can read. Every search step and
:func:`successors` find it with one strip of the symbols the state cannot
read (``str.lstrip``, ``str.rstrip`` for ``gll``) and one lookup; only a
:class:`Trace`'s replay, which steps through one-rule tables, keeps the
general rule.

The search prunes dead states, those from which no final state is reachable
along the rules (``Automaton.live`` holds the others). One step builds only
the successors whose state is live; a deletion into a dead state is still
found, since it blocks the return jump like any other. Dead configurations
only lead to dead ones, so never building them changes neither verdicts nor
the traces found. The marked-tape machine in :mod:`jumpfa.lba` does not
prune: its space report describes the whole unpruned search, and it stays an
independent check of this engine for both kinds, running a left-linear
automaton as its right-linear reversal.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from functools import cached_property
from itertools import islice, product
from math import isqrt
from typing import Callable, Container, Iterator, Mapping, NamedTuple, Sequence

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
# A fork round trip costs about 2 ms on a 2-CPU Linux VM: 950-1,600 swept words
# at the 1.4-2.0 us a word, both verdicts, of the bench's forked sweeps.
SHARE_WORDS = 2**10
# The right-linear kind, read once: on Python 3.11 reading an Enum member
# costs about ten times a module global, and every step tests the kind.
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
    of its word, and a return is ``None`` and wraps by ``kind``, so
    ``configs`` is replayed from the moves when it is first read, and cached
    on the value, outside the tuple. The replay takes each move through the
    search's own step, :func:`_successors`: a consume as the only rule of its
    state, a return with no rule at all. It raises :class:`JumpfaError` on a
    consume whose rule does not leave the current state or whose word does
    not occur ahead of the head, and on a return with no text jumped over to
    wrap (an empty left buffer for ``grl``, right one for ``gll``). A trace
    carries no automaton, so the replay cannot check that a move was enabled:
    that no nearer readable word blocked a consume, or that nothing readable
    lay ahead of a return, or that the last state is final. Like every other
    record, a trace unpacks, compares, hashes and prints as the tuple of its
    fields. Its fields are read-only, and no other attribute can be set
    either.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot set {name!r} on an immutable Trace")

    @cached_property
    def configs(self) -> tuple[Configuration, ...]:
        config = self.start
        configs = [config]
        for index, move in enumerate(self.moves):
            state = config[1]  # the start may be a plain tuple
            if move is None:
                steps = _successors(self.kind, {}, config, (), {})
                if not steps:
                    raise JumpfaError(f"move {index}, a return, has no text jumped over to wrap")
            elif move.src != state:
                raise JumpfaError(f"move {index}, {move}, does not leave state {state!r}")
            else:
                steps = _successors(self.kind, {move.src: (move,)}, config, (move.dst,), {})
                if not steps or steps[0][0] is None:
                    raise JumpfaError(f"move {index}, {move}, finds no {move.word!r} ahead")
            config = steps[0][1]
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


def _successors(
    kind: Kind,
    rules_from: Mapping[str, tuple[Rule, ...]],
    config: Configuration,
    keep: Container[str],
    units: Mapping[str, tuple[str, Mapping[str, Rule]]],
) -> list[tuple[Move, Configuration]]:
    """The successors of ``config`` whose state is in ``keep``, which holds
    ``config.state``: a consume is built only when its rule enters ``keep``.
    The return jump is offered only when no deletion is enabled at all, kept
    or not.

    A state in ``units`` (``Automaton.units``, or empty for the general rule
    alone) reads single symbols only, so its one enabled deletion is the rule
    of the nearest symbol it can read: one strip of the symbols it cannot
    read finds it, and one lookup gives the rule. Nothing left after the
    strip means nothing readable ahead. A symbol outside the alphabet stops
    the strip and goes to the general rule."""
    left, state, right = config
    rules = rules_from.get(state, ())
    out: list[tuple[Move, Configuration]] = []
    if kind is _RIGHT:
        if state in units:
            skip, table = units[state]
            rest = right.lstrip(skip)
            rule = table.get(rest[:1])
            if rule is not None:
                if rule.dst not in keep:
                    return out
                jumped = right[: len(right) - len(rest)]
                return [(rule, Configuration(left + jumped, rule.dst, rest[1:]))]
            if not rest:
                return [(None, Configuration("", state, left + right))] if left else out
        hits = enabled_deletions(kind, rules, right)
        for rule, pos in hits:
            if rule.dst in keep:
                after = Configuration(left + right[:pos], rule.dst, right[pos + len(rule.word):])
                out.append((rule, after))
        if left and not hits:
            out.append((None, Configuration("", state, left + right)))
    else:
        # Mirror image: scan the left buffer from its right end.
        if state in units:
            skip, table = units[state]
            rest = left.rstrip(skip)
            rule = table.get(rest[-1:])
            if rule is not None:
                if rule.dst not in keep:
                    return out
                return [(rule, Configuration(rest[:-1], rule.dst, left[len(rest):] + right))]
            if not rest:
                return [(None, Configuration(left + right, state, ""))] if right else out
        hits = enabled_deletions(kind, rules, left)
        for rule, pos in hits:
            if rule.dst in keep:
                after = Configuration(left[:pos], rule.dst, left[pos + len(rule.word):] + right)
                out.append((rule, after))
        if right and not hits:
            out.append((None, Configuration(left + right, state, "")))
    return out


def successors(aut: Automaton, config: Configuration) -> list[tuple[Move, Configuration]]:
    """Every one-step successor: deletions in rule order, then the return jump."""
    return _successors(aut.kind, aut.rules_from, config, aut.states, aut.units)


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
    return _search(aut, initial_config(aut, word), deque.pop, True)


def shortest_trace(aut: Automaton, word: str) -> tuple[bool, Trace | None]:
    """Decide membership; on acceptance also return a shortest accepting run.

    Breadth-first search over exact configurations. Ties between equal-depth
    branches resolve in rule declaration order with the return jump last, so
    the returned trace is reproducible.
    """
    return _search(aut, initial_config(aut, word), deque.popleft, True)


def _decider(aut: Automaton) -> Callable[[str], bool]:
    """The verdict of :func:`member` for the bounded sweeps, which record no
    moves and build no :class:`Trace`. The word must be over ``aut.alphabet``
    and is not checked: every sweep enumerates the automaton's own alphabet.
    A run that reaches a loop state before it branches ends by whole passes.
    """
    start = aut.start
    if aut.kind is Kind.RIGHT:
        return lambda word: _search(aut, ("", start, word), deque.pop, False)[0]
    return lambda word: _search(aut, (word, start, ""), deque.pop, False)[0]


def _search(
    aut: Automaton,
    start: tuple[str, str, str],
    take: Callable[[deque], object],
    record: bool,
) -> tuple[bool, Trace | None]:
    """The search behind :func:`member`, :func:`shortest_trace` and the
    sweeps' :func:`_decider`, from ``start``; ``take`` picks the next
    configuration to expand from the frontier. With ``record`` false the
    search decides only: a frontier entry is a bare configuration, and
    acceptance returns ``(True, None)``.

    Configurations whose state is not in ``aut.live`` are never built, stored
    or expanded: each step asks :func:`_successors` for the live successors
    only. None of the others can lead to acceptance and all their successors
    are dead too, so the live configurations are discovered in the same order
    as by the unpruned search, and verdicts and traces are unchanged. Only the
    store that :data:`MAX_STORED_SYMBOLS` bounds shrinks.

    The search keeps no frontier and stores nothing until it branches. The
    graph is acyclic, so while every expansion has yielded at most one live
    successor the live configurations found form one path that cannot meet
    itself, and dead ones are never stored: the search follows that one
    successor, with the same accept check, and with ``record`` links each
    move onto the path. At the first expansion that yields two or more live
    successors it creates the visited set and the frontier, which starts with
    that expansion's successors, and goes on as a frontier search; the order
    of expansion is the one a frontier from the start would give. Every
    configuration discovered from then on goes into the visited set; none
    found earlier can be reached again, being an ancestor of all that follow.
    So every live reachable configuration is still expanded exactly once.
    With ``record`` each frontier entry carries the moves that reached it as
    a linked path, ``(move, parent_path)``, so no configuration is kept once
    expanded. The budget charges only what enters the visited set, its
    symbols plus one each: before it exists the run is one path of at most
    2n + 1 moves, since each consume shrinks the input and no return follows
    one. With ``record`` false that path ends at once in a state of
    ``aut.loops``, whose verdict :func:`_drained` reads off the text; it
    stores nothing, so no :class:`SearchLimitError` changes. Every step
    passes ``aut.units`` to :func:`_successors`, which returns the same
    successors in fewer operations.
    """
    finals, live, rules_from, kind = aut.finals, aut.live, aut.rules_from, aut.kind
    loops = () if record else aut.loops
    left, state, right = start
    if state not in live:
        return False, None
    if not left and not right and state in finals:
        return True, Trace(kind, start, ()) if record else None
    if state in loops:
        return _drained(kind, loops[state], left, right), None
    units = aut.units
    path: _Path = None
    steps = _successors(kind, rules_from, start, live, units)
    while len(steps) == 1:
        (move, config), = steps
        if record:
            path = (move, path)
        if not config.left and not config.right and config.state in finals:
            return True, Trace(kind, start, _moves(path)) if record else None
        if loops and config.state in loops:
            return _drained(kind, loops[config.state], config.left, config.right), None
        steps = _successors(kind, rules_from, config, live, units)
    if not steps:
        return False, None
    limit = budget = MAX_STORED_SYMBOLS
    seen: set[Configuration] = set()
    frontier: deque = deque()
    while True:
        for move, nxt in steps:
            if nxt in seen:
                continue
            seen.add(nxt)
            budget -= len(nxt.left) + len(nxt.right) + 1
            if budget < 0:
                raise SearchLimitError(
                    f"gave up after storing {limit} symbols"
                    f" on input of length {len(left) + len(right)}"
                )
            if not nxt.left and not nxt.right and nxt.state in finals:
                return True, Trace(kind, start, _moves((move, path))) if record else None
            frontier.append((nxt, (move, path)) if record else nxt)
        if not frontier:
            return False, None
        if record:
            config, path = take(frontier)
        else:
            config = take(frontier)
        steps = _successors(kind, rules_from, config, live, units)


def _drained(kind: Kind, word: str, left: str, right: str) -> bool:
    """Whether a final state whose only rule loops on it, deleting ``word``,
    accepts from ``(left, state, right)``. A pass deletes each occurrence
    ahead in scan order, as ``str.replace`` (``grl``) or ``str.rsplit``
    (``gll``) does; then the return wraps all the text for the next pass."""
    grl = kind is _RIGHT
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
    ``j % shares == share``, still in that order."""
    for length in range(max_len + 1):
        yield from map("".join, islice(product(alphabet, repeat=length), share, None, shares))


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
    which decides a word with no word check, no recorded moves and no trace.

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
    length <= 11 over three letters take 16 processes at most. A forked
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
