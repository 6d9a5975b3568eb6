"""Brute-force ground-truth predicates and the bundled automaton corpus.

Every bundled machine carries the name of the predicate it is claimed to
accept; the test suite certifies each claim by exhaustive enumeration up to a
length bound. The predicates are deliberately direct (counters and string
scans) so they stay independent of the engine they are used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .core import Automaton, JumpfaError, SymbolOutsideAlphabetError, parse_automaton
from .engine import differences, member
from .transforms import AlphabetMismatchError


class UnknownOracleError(JumpfaError):
    pass


@dataclass(frozen=True)
class NamedPredicate:
    name: str
    alphabet: tuple[str, ...]
    fn: Callable[[str], bool]


def _balanced(word: str) -> bool:
    # a opens, b closes: prefix sums never dip below zero and end at zero.
    depth = 0
    for ch in word:
        depth += 1 if ch == "a" else -1
        if depth < 0:
            return False
    return depth == 0


def _starts_a_then_even(word: str) -> bool:
    rest = word[1:]
    return word[:1] == "a" and rest.count("a") == rest.count("b")


def _balanced_then_c(word: str) -> bool:
    return word.endswith("c") and "c" not in word[:-1] and _balanced(word[:-1])


def _c_then_balanced(word: str) -> bool:
    return word.startswith("c") and "c" not in word[1:] and _balanced(word[1:])


def _equal_counts_or_no_b(word: str) -> bool:
    return word.count("a") == word.count("b") or "b" not in word


def _two_b_shape(word: str, need_empty: str) -> bool:
    # Words with exactly two b's: a^x b a^y b a^z. The middle run y may be
    # anything nonempty; when it is empty the run named by need_empty must
    # also be empty (head or tail, depending on the sweep direction).
    if word.count("b") != 2:
        return False
    head, mid, tail = word.split("b")
    return bool(mid) or (head if need_empty == "head" else tail) == ""


def _a_loop_bb_right(word: str) -> bool:
    return _two_b_shape(word, "tail")


def _a_loop_bb_left(word: str) -> bool:
    return _two_b_shape(word, "head")


def _one_a_then_b(word: str) -> bool:
    # b^m a b b^n, i.e. exactly one a with at least one b after it.
    return word.count("a") == 1 and not word.endswith("a")


def _a_power_b_power(word: str) -> bool:
    half = len(word) // 2
    return word == "a" * half + "b" * half


def _no_b_before_a(word: str) -> bool:
    return "ba" not in word


ORACLES: dict[str, NamedPredicate] = {
    p.name: p
    for p in (
        NamedPredicate("example1", ("a", "b"), _starts_a_then_even),
        NamedPredicate("dyck", ("a", "b"), _balanced),
        NamedPredicate("dyck_c", ("a", "b", "c"), _balanced_then_c),
        NamedPredicate("c_dyck", ("a", "b", "c"), _c_then_balanced),
        NamedPredicate("eq_or_nob", ("a", "b"), _equal_counts_or_no_b),
        NamedPredicate("exrl_grl", ("a", "b"), _a_loop_bb_right),
        NamedPredicate("exrl_gll", ("a", "b"), _a_loop_bb_left),
        NamedPredicate("bm_ab_bn", ("a", "b"), _one_a_then_b),
        NamedPredicate("anbn", ("a", "b"), _a_power_b_power),
        NamedPredicate("astar_bstar", ("a", "b"), _no_b_before_a),
        NamedPredicate("c_singleton", ("c",), lambda w: w == "c"),
    )
}

# Bundled automaton name -> name of the predicate it is claimed to accept.
CORPUS_CLAIMS: dict[str, str] = {
    "example1-rowj": "example1",
    "exrl-grl": "exrl_grl",
    "exrl-gll": "exrl_gll",
    "bmabbn-grl": "bm_ab_bn",
    "bmabbn-gll": "bm_ab_bn",
    "nonrowj-grl": "eq_or_nob",
    "dyck-gll": "dyck",
    "dyck-grl": "dyck",
    "dc-gll": "dyck_c",
    "cdyck-grl": "c_dyck",
    "c-singleton": "c_singleton",
    "astarbstar-dfa": "astar_bstar",
}


def _predicate(name: str) -> NamedPredicate:
    try:
        return ORACLES[name]
    except KeyError:
        raise UnknownOracleError(
            f"unknown oracle {name!r}; known: {', '.join(sorted(ORACLES))}"
        ) from None


def oracle_eval(name: str, word: str) -> bool:
    """Evaluate a registered predicate; the word must fit its alphabet."""
    predicate = _predicate(name)
    for ch in word:
        if ch not in predicate.alphabet:
            raise SymbolOutsideAlphabetError(
                f"symbol {ch!r} is not in the alphabet of oracle {name!r}"
            )
    return predicate.fn(word)


def load_bundled(name: str) -> Automaton:
    """Load one bundled automaton by name (without the .jfa suffix)."""
    if name not in CORPUS_CLAIMS:
        raise UnknownOracleError(
            f"no bundled automaton named {name!r}; known: {', '.join(CORPUS_CLAIMS)}"
        )
    text = resources.files(__package__).joinpath(f"corpus/{name}.jfa").read_text("utf-8")
    return parse_automaton(text)


def oracle_difference(aut: Automaton, name: str, max_len: int) -> list[tuple[str, bool, bool]]:
    """Words of length <= max_len where the automaton and the predicate differ."""
    predicate = _predicate(name)
    if set(aut.alphabet) != set(predicate.alphabet):
        raise AlphabetMismatchError(
            f"automaton alphabet {''.join(aut.alphabet)!r} does not match "
            f"oracle alphabet {''.join(predicate.alphabet)!r}"
        )
    return differences(aut.alphabet, max_len, lambda w: member(aut, w)[0], predicate.fn)
