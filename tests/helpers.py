"""Shared test utilities: random automata, graph walks, mirror mappings."""

from __future__ import annotations

import random
from itertools import product

from hypothesis import strategies as st

from jumpfa.core import Automaton, Kind, Rule, make_automaton
from jumpfa.engine import Configuration, Consume, Return, initial_config, successors
from jumpfa.lba import TapeConfig, _machine_successors
from jumpfa.oracles import CORPUS_CLAIMS, load_bundled


def corpus() -> dict[str, Automaton]:
    """Every bundled automaton, keyed by name."""
    return {name: load_bundled(name) for name in CORPUS_CLAIMS}


def is_accepting(aut: Automaton, config: Configuration) -> bool:
    """True when the input is fully consumed in a final state."""
    return not config.left and not config.right and config.state in aut.finals


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


@st.composite
def automata(draw, kinds=(Kind.RIGHT, Kind.LEFT), alphabet="ab", max_states=4, max_word_len=3):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, max_states))
    states = [f"q{i}" for i in range(n)]
    keys = st.tuples(
        st.sampled_from(states),
        st.text(alphabet=alphabet, min_size=1, max_size=max_word_len),
    )
    chosen = draw(st.lists(keys, max_size=6, unique=True))
    rules = [(src, word, draw(st.sampled_from(states))) for src, word in chosen]
    finals = draw(st.lists(st.sampled_from(states), unique=True, max_size=n))
    return make_automaton(kind, alphabet, states, draw(st.sampled_from(states)), finals, rules)


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
    frontier = [TapeConfig(aut.start, word, 0, 0)]
    edges = []
    while frontier:
        config = frontier.pop()
        if config in seen:
            continue
        seen.add(config)
        for compacted, nxt in _machine_successors(aut.rules_from, config):
            edges.append((config, compacted, nxt))
            frontier.append(nxt)
    return edges


def consume_steps(aut: Automaton, config: Configuration):
    """The deletions among ``successors(aut, config)``, in rule order."""
    return [step for step in successors(aut, config) if isinstance(step[0], Consume)]


def return_step(aut: Automaton, config: Configuration):
    """The return move among ``successors(aut, config)``, or None."""
    return next((step for step in successors(aut, config) if isinstance(step[0], Return)), None)


def mirror_config(config: Configuration) -> Configuration:
    return Configuration(config.right[::-1], config.state, config.left[::-1])


def mirror_step(step):
    move, config = step
    if isinstance(move, Return):
        return move, mirror_config(config)
    rule = move.rule
    mirrored = Consume(Rule(rule.src, rule.word[::-1], rule.dst), move.skip[::-1])
    return mirrored, mirror_config(config)
