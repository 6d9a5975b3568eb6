"""Shared test utilities: random automata, graph walks, mirror mappings."""

from __future__ import annotations

import random
import tracemalloc
from collections import deque
from functools import lru_cache
from itertools import islice, product

from hypothesis import strategies as st

from jumpfa import engine
from jumpfa.core import Automaton, Kind, Rule, check_word, make_automaton
from jumpfa.engine import (
    Configuration,
    SearchLimitError,
    differences,
    initial_config,
    member,
    successors,
)
from jumpfa.lba import SpaceReport, TapeConfig, _machine_successors, lba_run
from jumpfa.oracles import CORPUS_CLAIMS, load_bundled


def corpus() -> dict[str, Automaton]:
    """Every bundled automaton, keyed by name."""
    return {name: load_bundled(name) for name in CORPUS_CLAIMS}


def is_accepting(aut: Automaton, config: Configuration) -> bool:
    """True when the input is fully consumed in a final state."""
    return not config.left and not config.right and config.state in aut.finals


def accepts(aut: Automaton, word: str) -> bool:
    """Membership verdict only."""
    return member(aut, word)[0]


def lba_equivalence(aut: Automaton, max_len: int) -> list[str]:
    """Words of length <= max_len where the marked-tape machine and the
    engine disagree. Empty certifies bounded equivalence of the two."""
    diffs = differences(
        aut.alphabet, max_len, lambda w: lba_run(aut, w)[0], lambda w: member(aut, w)[0]
    )
    return [word for word, _, _ in diffs]


def lba_run_by_macro_steps(aut: Automaton, word: str) -> tuple[bool, SpaceReport]:
    """The reference for ``lba.lba_run``: the same search, but each
    macro-step, the lone successors before the first branch included, builds
    its whole tape by ``lba._machine_successors``."""
    check_word(aut, word)
    if aut.kind is Kind.LEFT:
        aut, word = aut.reversal, word[::-1]
    rules_from, finals = aut.rules_from, aut.finals

    start = TapeConfig(aut.start, word, 0)
    max_cells = len(word) + 2
    if not start.cells and start.state in finals:
        return True, SpaceReport(max_cells, 0, 0)

    limit = budget = engine.MAX_STORED_SYMBOLS
    depth = compactions = 0
    steps = _machine_successors(rules_from, start)
    while len(steps) == 1:
        (config,) = steps
        depth += 1
        compactions += not config.head
        if not config.cells and config.state in finals:
            return True, SpaceReport(max_cells, compactions, depth)
        steps = _machine_successors(rules_from, config)
    if not steps:
        return False, SpaceReport(max_cells, compactions, depth)
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


def sweep_words(alphabet: str, max_len: int, share: int = 0, shares: int = 1):
    """The reference for ``engine.iter_words``: each word joined from its own
    ``product`` tuple, so share ``share`` of ``shares`` takes word ``j`` of
    each length when ``j % shares == share``."""
    for length in range(max_len + 1):
        yield from map("".join, islice(product(alphabet, repeat=length), share, None, shares))


def all_words(alphabet: str, lo: int, hi: int) -> list[str]:
    return ["".join(p) for n in range(lo, hi + 1) for p in product(alphabet, repeat=n)]


def random_automaton(
    rnd: random.Random,
    kind: Kind | None = None,
    alphabet: str = "ab",
    max_states: int = 4,
    max_rules: int = 6,
    max_word_len: int = 3,
) -> Automaton:
    kind = kind or rnd.choice((Kind.RIGHT, Kind.LEFT))
    states = [f"q{i}" for i in range(rnd.randint(1, max_states))]
    keys = [(src, w) for src in states for w in all_words(alphabet, 1, max_word_len)]
    chosen = rnd.sample(keys, rnd.randint(0, min(max_rules, len(keys))))
    rules = [(src, word, rnd.choice(states)) for src, word in chosen]
    finals = [q for q in states if rnd.random() < 0.5]
    return make_automaton(kind, alphabet, states, rnd.choice(states), finals, rules)


def unit_automata():
    """Every unit-rule automaton over ``ab`` with states q0 (the start) and
    q1 and a nonempty final set, of both kinds: each state reads each letter
    into q0, into q1 or not at all (486 machines). Unlike the small-scope
    machines, which have at most two rules, a state that a jump leads to may
    read both letters, so a verdict depends on where the skipped text goes."""
    keys = [(q, x) for q in ("q0", "q1") for x in "ab"]
    for kind in ("grl", "gll"):
        for finals in (["q0"], ["q1"], ["q0", "q1"]):
            for targets in product((None, "q0", "q1"), repeat=len(keys)):
                rules = [(q, x, dst) for (q, x), dst in zip(keys, targets) if dst]
                yield make_automaton(kind, "ab", ["q0", "q1"], "q0", finals, rules)


@st.composite
def automata(draw):
    kind = draw(st.sampled_from((Kind.RIGHT, Kind.LEFT)))
    states, state, keys = _shape(draw(st.integers(1, 4)))
    rules = [(src, word, draw(state)) for src, word in draw(keys)]
    finals = draw(st.lists(state, unique=True, max_size=len(states)))
    return make_automaton(kind, "ab", states, draw(state), finals, rules)


@lru_cache(maxsize=None)
def _shape(n):
    """q0..q(n-1), and strategies for one of them and for up to six distinct
    rule keys (a state, a word of 1-3 letters over ab), built once per n:
    building them on each draw made a draw about 1.4x as slow."""
    states = [f"q{i}" for i in range(n)]
    keys = [(q, w) for q in states for w in all_words("ab", 1, 3)]
    return states, st.sampled_from(states), st.lists(st.sampled_from(keys), max_size=6, unique=True)


@st.composite
def reconverging_runs(draw):
    """A machine and a word it rejects on which a live configuration is reached
    by two routes. The start state is final and loops on ``x`` and ``xx``, so
    deleting ``x`` twice and ``xx`` once meet; the word begins (``grl``) or
    ends (``gll``) with ``xx``, where both fire, and holds a ``c`` that no rule
    reads, so it is rejected."""
    base = draw(automata())
    x = draw(st.text(alphabet="ab", min_size=1, max_size=2))
    loops = (x, x + x)
    rules = [r for r in base.rules if not (r.src == base.start and r.word in loops)]
    rules += [(base.start, w, base.start) for w in loops]
    aut = make_automaton(
        base.kind, "abc", base.states, base.start, (*base.finals, base.start), rules
    )
    rest = draw(st.text(alphabet="ab", max_size=5))
    cut = draw(st.integers(0, len(rest)))
    rest = rest[:cut] + "c" + rest[cut:]
    return aut, (x + x + rest if aut.kind is Kind.RIGHT else rest + x + x)


def walk_configs(aut: Automaton, word: str, seen: set | None = None) -> set[Configuration]:
    """Every configuration reachable from ``word``, skipping ones in ``seen``."""
    seen = set() if seen is None else seen
    frontier = [initial_config(aut, word)]
    fresh = set()
    while frontier:
        config = frontier.pop()
        if config in seen:
            continue
        seen.add(config)
        fresh.add(config)
        frontier.extend(nxt for _, nxt in successors(aut, config))
    return fresh


def walk_edges(aut: Automaton, word: str):
    """Every (config, move, successor) edge reachable from ``word``."""
    seen = set()
    frontier = [initial_config(aut, word)]
    edges = []
    while frontier:
        config = frontier.pop()
        if config in seen:
            continue
        seen.add(config)
        for move, nxt in successors(aut, config):
            edges.append((config, move, nxt))
            frontier.append(nxt)
    return edges


def walk_tape_edges(aut: Automaton, word: str):
    """Every (config, compacted, successor) edge of the marked-tape machine
    reachable from ``word``."""
    seen = set()
    frontier = [TapeConfig(aut.start, word, 0)]
    edges = []
    while frontier:
        config = frontier.pop()
        if config in seen:
            continue
        seen.add(config)
        for nxt in _machine_successors(aut.rules_from, config):
            edges.append((config, not nxt.head, nxt))
            frontier.append(nxt)
    return edges


def peak_bytes(call):
    """The result of ``call()`` and the peak of memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def consume_steps(aut: Automaton, config: Configuration):
    """The deletions among ``successors(aut, config)``, in rule order."""
    return [step for step in successors(aut, config) if isinstance(step[0], Rule)]


def return_step(aut: Automaton, config: Configuration):
    """The return move among ``successors(aut, config)``, or None."""
    return next((step for step in successors(aut, config) if step[0] is None), None)


def mirror_config(config: Configuration) -> Configuration:
    return Configuration(config.right[::-1], config.state, config.left[::-1])


def mirror_step(step):
    move, config = step
    if isinstance(move, Rule):
        move = Rule(move.src, move.word[::-1], move.dst)
    return move, mirror_config(config)
