"""End-to-end acceptance suite.

Each test pins one release criterion: an exhaustive check against an
independent brute-force oracle at a fixed enumeration bound. Every test
prints a one-line PASS/FAIL verdict; run with ``pytest -v -s`` to watch
them stream.
"""

import math
import random
from contextlib import contextmanager

import helpers
from jumpfa.core import Kind, Rule
from jumpfa.engine import (
    Configuration,
    Trace,
    enumerate_language,
    iter_words,
    member,
    naive_consume_successors,
    successors,
)
from jumpfa.lba import lba_run
from jumpfa.oracles import load_bundled, oracle_eval
from jumpfa.transforms import one_way_reference_member, reverse_automaton


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2}: FAIL  {title}")
        raise
    print(f"criterion {number:>2}: PASS  {title}")


def oracle_language(name, alphabet, max_len):
    return [w for w in iter_words(alphabet, max_len) if oracle_eval(name, w)]


def assert_enumeration_matches(automaton_name, oracle_name, max_len):
    aut = load_bundled(automaton_name)
    got = enumerate_language(aut, max_len)
    expected = oracle_language(oracle_name, aut.alphabet, max_len)
    assert got == expected, (automaton_name, oracle_name, max_len)
    return got


def test_criterion_01_unit_rule_machine_language_and_reference_agreement():
    with criterion(1, "a(equal a/b) machine: enumeration to 10 + reference simulator agreement"):
        assert_enumeration_matches("example1-rowj", "example1", 10)
        aut = load_bundled("example1-rowj")
        words = list(iter_words("ab", 10))
        assert len(words) == 2**11 - 1
        for w in words:
            assert one_way_reference_member(aut, w) == helpers.accepts(aut, w), w


def test_criterion_02_a_loop_bb_machine_both_kinds():
    with criterion(2, "a-loop/bb machine: right and left enumerations to 9"):
        assert_enumeration_matches("exrl-grl", "exrl_grl", 9)
        assert_enumeration_matches("exrl-gll", "exrl_gll", 9)


def test_criterion_03_one_a_machine_both_kinds_and_trace_shape():
    with criterion(3, "b^m a b b^n machine: enumerations to 9 + canonical trace shape"):
        assert_enumeration_matches("bmabbn-grl", "bm_ab_bn", 9)
        assert_enumeration_matches("bmabbn-gll", "bm_ab_bn", 9)
        aut = load_bundled("bmabbn-grl")
        rule_ab, rule_b = aut.rules
        for m, n in [(2, 3), (1, 1), (3, 0), (0, 2)]:
            word = "b" * m + "ab" + "b" * n
            accepted, trace = member(aut, word)
            assert accepted, word
            expected = [rule_ab] + [rule_b] * n
            if m:
                expected += [None] + [rule_b] * m
            assert list(trace.moves) == expected, word
            # the first deletion jumps the leading b's
            assert trace.configs[1] == Configuration("b" * m, "q1", "b" * n), word


def test_criterion_04_branching_machine_language():
    with criterion(4, "equal-counts-or-no-b machine: enumeration to 8 with branching"):
        assert_enumeration_matches("nonrowj-grl", "eq_or_nob", 8)


def test_criterion_05_both_balanced_word_machines():
    with criterion(5, "balanced-word machines, both kinds: enumeration to 12"):
        got_gll = assert_enumeration_matches("dyck-gll", "dyck", 12)
        got_grl = assert_enumeration_matches("dyck-grl", "dyck", 12)
        # independent arithmetic cross-check of the oracle itself
        catalan_total = sum(math.comb(2 * n, n) // (n + 1) for n in range(7))
        assert len(got_gll) == len(got_grl) == catalan_total == 197


def test_criterion_06_balanced_plus_c_machines():
    with criterion(6, "balanced+c machines: enumeration to 11, both orientations"):
        assert_enumeration_matches("dc-gll", "dyck_c", 11)
        assert_enumeration_matches("cdyck-grl", "c_dyck", 11)


def test_criterion_07_reversal_duality_and_bisimulation():
    with criterion(7, "reversal duality on the whole corpus to 8 + step bisimulation"):
        for name, aut in helpers.corpus().items():
            rev = reverse_automaton(aut)
            seen = set()
            for w in iter_words(aut.alphabet, 8):
                assert helpers.accepts(aut, w) == helpers.accepts(rev, w[::-1]), (name, w)
                helpers.walk_configs(aut, w, seen)
            for config in seen:
                mapped = [helpers.mirror_step(s) for s in successors(aut, config)]
                mirrored = successors(rev, helpers.mirror_config(config))
                assert mapped == mirrored, (name, config)


def test_criterion_08_literal_clause_oracle_for_the_consume_step():
    title = "fast consume step == literal-clause oracle, 100 random machines of each kind"
    with criterion(8, title):
        for kind in (Kind.RIGHT, Kind.LEFT):
            rnd = random.Random(0x5EED)
            for _ in range(100):
                aut = helpers.random_automaton(rnd, kind=kind)
                seen = set()
                for w in iter_words("ab", 8):
                    helpers.walk_configs(aut, w, seen)
                for config in seen:
                    fast = helpers.consume_steps(aut, config)
                    assert fast == naive_consume_successors(aut, config), (aut, config)


def test_criterion_09_marked_tape_machine_equivalence_and_space_bound():
    with criterion(9, "marked-tape machine == engine (corpus to 8, 50 random to 7) + space bound"):
        rnd = random.Random(0xBEEF)
        randoms = [helpers.random_automaton(rnd) for _ in range(50)]
        jobs = [(aut, 8) for aut in helpers.corpus().values()] + [(aut, 7) for aut in randoms]
        for aut, bound in jobs:
            for w in iter_words(aut.alphabet, bound):
                verdict, report = lba_run(aut, w)
                assert report.max_cells_used <= len(w) + 2, (aut, w)
                assert verdict == helpers.accepts(aut, w), (aut, w)


def test_criterion_10_structural_invariants_and_search_guard():
    title = "mutual exclusion + progress + replay on 10,000 edges; search within the budget"
    with criterion(10, title):
        rnd = random.Random(0xACE)
        checked = 0
        while checked < 10_000:
            aut = helpers.random_automaton(rnd)
            for _ in range(8):
                word = "".join(rnd.choice("ab") for _ in range(rnd.randint(0, 8)))
                # MAX_STORED_SYMBOLS holds, and a trace comes exactly with acceptance
                accepted, trace = member(aut, word)
                assert accepted == (trace is not None), (aut, word)
                for config, move, nxt in helpers.walk_edges(aut, word):
                    ret = helpers.return_step(aut, config)
                    consumes = helpers.consume_steps(aut, config)
                    assert not (ret is not None and consumes), config
                    if isinstance(move, Rule):
                        assert len(config.left + config.right) - len(nxt.left + nxt.right) == len(
                            move.word
                        )
                    else:
                        assert sorted(nxt.left + nxt.right) == sorted(config.left + config.right)
                        assert "" in (nxt.left, nxt.right)
                        assert helpers.return_step(aut, nxt) is None  # returns never chain
                    # a configuration and a move fix the next configuration
                    assert Trace(aut.kind, config, (move,)).configs[1] == nxt, (config, move)
                    checked += 1
                if checked >= 10_000:
                    break


def test_criterion_11_oracle_intersection_identity():
    with criterion(11, "balanced AND sorted == equal powers, all words to 12"):
        for w in iter_words("ab", 12):
            both = oracle_eval("dyck", w) and oracle_eval("astar_bstar", w)
            assert both == oracle_eval("anbn", w), w
