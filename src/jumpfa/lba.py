"""Marked-tape linear-bounded realization of the engine, for both kinds.

The machine itself is right-linear. A left-linear automaton runs as its
reversal (``Automaton.reversal``, built once per automaton) on the reversed
word: reversal mirrors both the language and the step relation.

The machine works on the input word between two end markers and never
allocates beyond it. A deletion is performed in two stages: each cell of the
consumed word is first overwritten with the mark symbol :data:`MARK`, which
no input symbol can be, and the marked cells are physically removed (the
surviving cells shift left, markers pulled in) only when the head would run
past the right marker or when nothing ahead of the head is readable. The
second case also realizes the engine's wrap-around move: after compaction the
head stands on the first surviving cell. Compaction is one ``str.replace``
(one join, before the run branches).

Some cell is marked exactly when the head is not leftmost: a step that does
not compact parks the head just past the word it marked, and the start and
every compaction leave the head leftmost with nothing marked. A stuck tape
with nothing marked therefore halts. Every move marks cells or removes marked
ones, so the graph of tapes has no cycle.

Nondeterministic rule choice is resolved by breadth-first search over machine
configurations. As in the engine's search, there is no queue and nothing is
stored until the run branches: a run that has not branched is one path, which
cannot meet itself in an acyclic graph, so the machine follows each lone
successor with only its depth and compaction count. Nor does it build its
tape on that path, since nothing reads the marks before the next compaction:
it keeps the unmarked cells from the head on, and the cells left of the head
as pieces, text and ``MARK`` runs in turn. A step that marks appends two
pieces and keeps the cells past the word; a compaction joins the text pieces,
the one copy of the whole tape. The first macro-step with two or more
successors builds its :class:`TapeConfig`, and there the visited set and the
queue are created; the set cuts branches that meet again (rules ``a`` and
``aa`` mark the same cells).

Gap checking uses every word readable in the current state, through the
engine's consume rule (:func:`jumpfa.engine.enabled_deletions`); checking only
the word being fired would admit runs the engine forbids and break the
equivalence the bounded cross-check verifies. Unlike the engine's search, the
machine does not prune dead states: its space report covers every branch, and
its verdicts stay an independent check of the pruned search.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, NamedTuple

from . import engine
from .core import Automaton, Kind, Rule, check_word
from .engine import _RIGHT, SearchLimitError, enabled_deletions, member  # noqa: F401 (the bench tracer wraps member)

MARK = "#"  # a consumed cell awaiting compaction; never an input symbol


class TapeConfig(NamedTuple):
    """Machine configuration: tape between the end markers plus control.

    Marked cells lie left of ``head``; ``head`` is 0 iff none is marked."""

    state: str
    cells: str
    head: int


class SpaceReport(NamedTuple):
    """Measured resource use of a run.

    ``max_cells_used`` counts tape cells including both end markers;
    ``compactions`` and ``steps`` are worst-case counts along any single
    explored branch.
    """

    max_cells_used: int
    compactions: int
    steps: int


def _machine_successors(
    rules_from: Mapping[str, tuple[Rule, ...]], config: TapeConfig
) -> list[TapeConfig]:
    """Macro-steps from ``config``; a successor compacted iff its head is 0."""
    state, cells, head = config
    out: list[TapeConfig] = []
    for rule, pos in enabled_deletions(_RIGHT, rules_from[state], cells[head:]):
        lo, hi = head + pos, head + pos + len(rule.word)
        if hi < len(cells):
            # Unread cells remain: mark the word, park the head just past it.
            out.append(TapeConfig(rule.dst, cells[:lo] + MARK * (hi - lo) + cells[hi:], hi))
        else:
            # The word touches the right marker: remove it and every marked
            # cell, and restart the head at the left end of what survives.
            out.append(TapeConfig(rule.dst, cells[:lo].replace(MARK, ""), 0))
    if not out and head:
        out.append(TapeConfig(state, cells.replace(MARK, ""), 0))
    return out


def lba_run(aut: Automaton, word: str) -> tuple[bool, SpaceReport]:
    """Decide membership on the marked tape and report resource use.

    A left-linear automaton runs as its right-linear reversal on the reversed
    word, which has the same verdict and the same report. Each tape the search
    stores charges its cells plus one to :data:`jumpfa.engine.MAX_STORED_SYMBOLS`.
    """
    check_word(aut, word)
    if aut.kind is Kind.LEFT:
        aut, word = aut.reversal, word[::-1]
    rules_from, finals = aut.rules_from, aut.finals

    max_cells = len(word) + 2  # the initial tape is the high-water mark; it only shrinks
    limit = budget = engine.MAX_STORED_SYMBOLS
    # The tape is "".join(behind) + rest, with the head at the start of rest.
    state, rest, behind = aut.start, word, []
    depth = compactions = 0
    while True:
        if not rest and not behind and state in finals:
            return True, SpaceReport(max_cells, compactions, depth)
        moves = enabled_deletions(_RIGHT, rules_from[state], rest)
        if len(moves) > 1:
            break
        if not moves and not behind:
            return False, SpaceReport(max_cells, compactions, depth)
        depth += 1
        if moves:
            ((rule, pos),) = moves
            state, hi = rule.dst, pos + len(rule.word)
            if hi < len(rest):
                behind += rest[:pos], MARK * (hi - pos)
                rest = rest[hi:]
                continue
            rest = rest[:pos]
        # Compaction: the text pieces joined, the one copy of the whole tape.
        rest, behind = "".join(behind[::2]) + rest, []
        compactions += 1
    left = "".join(behind)
    steps = _machine_successors(rules_from, TapeConfig(state, left + rest, len(left)))
    worst_steps, worst_compactions = depth, compactions
    visited: set[TapeConfig] = set()
    queue: deque[tuple[TapeConfig, int, int]] = deque()
    while True:
        for nxt in steps:
            if nxt in visited:
                continue
            visited.add(nxt)
            budget -= len(nxt.cells) + 1
            if budget < 0:
                raise SearchLimitError(
                    f"gave up after storing {limit} symbols on input of length {len(word)}"
                )
            nxt_depth = depth + 1
            nxt_compactions = compactions + (not nxt.head)
            worst_steps = max(worst_steps, nxt_depth)
            worst_compactions = max(worst_compactions, nxt_compactions)
            if not nxt.cells and nxt.state in finals:
                return True, SpaceReport(max_cells, worst_compactions, worst_steps)
            queue.append((nxt, nxt_depth, nxt_compactions))
        if not queue:
            return False, SpaceReport(max_cells, worst_compactions, worst_steps)
        config, depth, compactions = queue.popleft()
        steps = _machine_successors(rules_from, config)
