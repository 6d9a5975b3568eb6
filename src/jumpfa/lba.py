"""Marked-tape linear-bounded realization of the engine, for both kinds.

The machine itself is right-linear. A left-linear automaton runs as its
reversal (:func:`jumpfa.transforms.reverse_automaton`) on the reversed word:
reversal mirrors both the language and the step relation.

The machine works on the input word between two end markers and never
allocates beyond it. A deletion is performed in two stages: the cells of the
consumed word are first marked in place, and marked cells are physically
removed (the surviving cells shift left, markers pulled in) only when the
head would run past the right marker or when nothing ahead of the head is
readable. The second case also realizes the engine's wrap-around move: after
compaction the head stands on the first surviving cell. Compaction copies
each surviving stretch of cells with one slice, so its Python work follows
the number of marked runs, not the tape length; each run was marked by one
macro-step, so that work is amortized into the steps.

Nondeterministic rule choice is resolved by breadth-first search over machine
configurations. The visited set cuts both kinds of repeat: branches that meet
again (rules ``a`` and ``aa`` mark the same cells), and the idle compaction of
a stuck machine (nothing marked, head leftmost, or an empty tape).

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
from .engine import (
    SearchLimitError,
    differences,
    enabled_deletions,
    member,
)
from .transforms import reverse_automaton


class TapeConfig(NamedTuple):
    """Machine configuration: tape between the end markers plus control."""

    state: str
    cells: str
    marks: int  # bitmask over cells; bit i set = cells[i] marked for removal
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


def _compact(cells: str, marks: int) -> str:
    """``cells`` with its marked cells removed, one slice per kept stretch."""
    # bits[i] == "1" iff cells[i] is marked; the trailing "0" ends the last run
    bits = format(marks, "b")[::-1] + "0"
    kept, keep = [], 0
    while (cut := bits.find("1", keep)) >= 0:
        kept.append(cells[keep:cut])
        keep = bits.find("0", cut)
    kept.append(cells[keep:])
    return "".join(kept)


def _machine_successors(
    rules_from: Mapping[str, tuple[Rule, ...]], config: TapeConfig
) -> list[tuple[bool, TapeConfig]]:
    """Macro-steps from ``config`` as (compacted, successor) pairs."""
    state, cells, marks, head = config
    ahead = cells[head:]  # cells at or right of the head are never marked
    out: list[tuple[bool, TapeConfig]] = []
    for rule, pos in enabled_deletions(Kind.RIGHT, rules_from.get(state, ()), ahead):
        lo, hi = head + pos, head + pos + len(rule.word)
        marked = marks | ((1 << (hi - lo)) - 1) << lo
        if hi < len(cells):
            # Unread cells remain: park the head just past the marked word.
            out.append((False, TapeConfig(rule.dst, cells, marked, hi)))
        else:
            # The marked word touches the right marker: remove marked cells
            # and restart the head at the left end of what survives.
            out.append((True, TapeConfig(rule.dst, _compact(cells, marked), 0, 0)))
    if out:
        return out
    return [(True, TapeConfig(state, _compact(cells, marks), 0, 0))]


def lba_run(aut: Automaton, word: str) -> tuple[bool, SpaceReport]:
    """Decide membership on the marked tape and report resource use.

    A left-linear automaton runs as its right-linear reversal on the reversed
    word, which has the same verdict and the same report. The search shares the
    engine's budget, :data:`jumpfa.engine.MAX_EXPANSIONS` machine steps.
    """
    check_word(aut, word)
    if aut.kind is Kind.LEFT:
        aut, word = reverse_automaton(aut), word[::-1]
    rules_from, finals = aut.rules_from, aut.finals

    start = TapeConfig(aut.start, word, 0, 0)
    max_cells = len(word) + 2  # the initial tape is the high-water mark; it only shrinks
    if not start.cells and start.state in finals:
        return True, SpaceReport(max_cells, 0, 0)

    limit = engine.MAX_EXPANSIONS
    worst_steps = worst_compactions = 0
    visited = {start}
    queue: deque[tuple[TapeConfig, int, int]] = deque(((start, 0, 0),))
    expansions = 0
    while queue:
        config, depth, compactions = queue.popleft()
        expansions += 1
        if expansions > limit:
            raise SearchLimitError(
                f"gave up after {limit} machine steps on input of length {len(word)}"
            )
        for compacted, nxt in _machine_successors(rules_from, config):
            if nxt in visited:
                continue
            visited.add(nxt)
            nxt_depth = depth + 1
            nxt_compactions = compactions + compacted
            worst_steps = max(worst_steps, nxt_depth)
            worst_compactions = max(worst_compactions, nxt_compactions)
            if not nxt.cells and nxt.state in finals:
                return True, SpaceReport(max_cells, worst_compactions, worst_steps)
            queue.append((nxt, nxt_depth, nxt_compactions))
    return False, SpaceReport(max_cells, worst_compactions, worst_steps)


def lba_equivalence(aut: Automaton, max_len: int) -> list[str]:
    """Words of length <= max_len where the machine and the engine disagree.

    Empty certifies bounded equivalence of the two implementations.
    """
    diffs = differences(
        aut.alphabet, max_len, lambda w: lba_run(aut, w)[0], lambda w: member(aut, w)[0]
    )
    return [word for word, _, _ in diffs]
