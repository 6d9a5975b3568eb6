"""One-step semantics, membership search, and enumeration."""

import os
import random
import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from itertools import chain, combinations, product, zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from jumpfa import engine, lba
from jumpfa.core import JumpfaError, Kind, Rule, SymbolOutsideAlphabetError, make_automaton
from jumpfa.engine import (
    Configuration,
    SearchLimitError,
    Trace,
    enumerate_language,
    initial_config,
    iter_words,
    member,
    naive_consume_successors,
    shortest_trace,
    successors,
)
from jumpfa.lba import SpaceReport, lba_run
from jumpfa.oracles import CORPUS_CLAIMS, load_bundled, oracle_difference, oracle_eval
from jumpfa.transforms import (
    is_unit_rule,
    language_difference,
    one_way_reference_member,
    reverse_automaton,
)


class TestConfigurations:
    def test_initial_right(self):
        aut = load_bundled("example1-rowj")
        assert initial_config(aut, "abbaa") == Configuration("", "q0", "abbaa")

    def test_initial_left(self):
        aut = load_bundled("dyck-gll")
        assert initial_config(aut, "aabb") == Configuration("aabb", "q0", "")

    def test_initial_empty(self):
        aut = load_bundled("dyck-grl")
        assert initial_config(aut, "") == Configuration("", "q0", "")

    def test_initial_rejects_foreign_symbols(self):
        with pytest.raises(SymbolOutsideAlphabetError):
            initial_config(load_bundled("dyck-grl"), "abc")

    def test_foreign_symbol_error_names_the_first_one(self):
        with pytest.raises(SymbolOutsideAlphabetError) as err:
            initial_config(load_bundled("dyck-grl"), "abyxb")
        assert str(err.value) == "symbol 'y' is not in the alphabet 'ab'"


class TestConsume:
    def test_dyck_skips_unreadable_prefix(self):
        aut = load_bundled("dyck-grl")
        rule = aut.rules[0]
        steps = helpers.consume_steps(aut, Configuration("", "q0", "aabb"))
        assert steps == [(rule, Configuration("a", "q0", "b"))]

    def test_two_rules_can_fire_at_the_same_spot(self):
        aut = load_bundled("nonrowj-grl")
        steps = helpers.consume_steps(aut, Configuration("", "q0", "aab"))
        assert [c for _, c in steps] == [
            Configuration("", "q1", "ab"),
            Configuration("", "q4", "b"),
        ]

    def test_only_leftmost_occurrence_fires(self):
        aut = make_automaton("grl", "ab", ["p", "q"], "p", ["q"], [("p", "aa", "q")])
        assert [c for _, c in helpers.consume_steps(aut, Configuration("", "p", "baa"))] == [
            Configuration("b", "q", "")
        ]
        # in "aaa" the occurrence at index 1 straddles the one at index 0
        assert [c for _, c in helpers.consume_steps(aut, Configuration("", "p", "aaa"))] == [
            Configuration("", "q", "a")
        ]

    def test_gap_blocked_by_other_readable_word(self):
        aut = load_bundled("exrl-grl")
        # rule bb cannot jump the gap "a" because a is readable in q0
        steps = helpers.consume_steps(aut, Configuration("", "q0", "abb"))
        assert [(m.word, c) for m, c in steps] == [("a", Configuration("", "q0", "bb"))]

    def test_left_kind_scans_from_the_right_end(self):
        aut = load_bundled("dyck-gll")
        rule = aut.rules[0]
        steps = helpers.consume_steps(aut, Configuration("aabb", "q0", ""))
        assert steps == [(rule, Configuration("a", "q0", "b"))]


class TestReturn:
    def test_wraps_when_nothing_ahead_is_readable(self):
        aut = load_bundled("exrl-grl")
        move, after = helpers.return_step(aut, Configuration("bb", "q0", ""))
        assert move is None
        assert after == Configuration("", "q0", "bb")

    def test_requires_nonempty_jumped_text(self):
        aut = load_bundled("exrl-grl")
        assert helpers.return_step(aut, Configuration("", "q0", "b")) is None

    def test_stuck_configuration_rejects_branch(self):
        aut = load_bundled("dyck-grl")
        config = Configuration("", "q0", "ba")
        assert helpers.return_step(aut, config) is None
        assert successors(aut, config) == []
        assert not member(aut, "abba")[0]

    def test_left_kind_mirror(self):
        aut = load_bundled("dyck-gll")
        move, after = helpers.return_step(aut, Configuration("a", "q0", "b"))
        assert after == Configuration("ab", "q0", "")


class TestSuccessors:
    def test_return_is_sole_successor_when_present(self):
        aut = load_bundled("exrl-grl")
        steps = successors(aut, Configuration("bb", "q0", ""))
        assert steps == [(None, Configuration("", "q0", "bb"))]

    def test_accepting_configuration_has_no_successors(self):
        aut = load_bundled("dyck-grl")
        assert successors(aut, Configuration("", "q0", "")) == []

    def test_single_consume_with_skip(self):
        aut = load_bundled("bmabbn-grl")
        steps = successors(aut, Configuration("", "q0", "babb"))
        assert [c for _, c in steps] == [Configuration("b", "q1", "b")]

    @settings(max_examples=200, deadline=None)
    @given(helpers.automata(), st.text(alphabet="ab", max_size=7))
    def test_live_step_keeps_the_live_successors(self, aut, word):
        for config in helpers.walk_configs(aut, word):
            if config.state in aut.live:
                kept = [s for s in successors(aut, config) if s[1].state in aut.live]
                for units in ({}, aut.units):
                    step = engine._successors(aut.kind, aut.rules_from, config, aut.live, units)
                    assert step == kept, (config, units)

    def test_unit_step_equals_the_general_rule(self):
        # Every state p reading a nonempty subset of abc, one symbol per rule,
        # each rule entering the kept q or the dropped d; every buffer up to
        # length 3, and up to length 2 with a foreign z, on either side. Only
        # the rule of the nearest readable symbol can fire, so the other
        # rules' destinations do not matter: two complementary destination
        # patterns per subset send each rule once into q and once into d.
        plain = list(iter_words("abc", 3))
        foreign = [w[:i] + "z" + w[i:] for w in iter_words("abc", 1) for i in range(len(w) + 1)]
        buffers = plain + foreign
        configs = [Configuration(left, "p", right) for left in buffers for right in buffers]
        step, keep = engine._successors, {"p", "q"}
        for kind in Kind:
            for size in (1, 2, 3):
                for letters, dsts in product(combinations("abc", size), ("qdq", "dqd")):
                    rules = [("p", x, dst) for x, dst in zip(letters, dsts)]
                    aut = make_automaton(kind, "abc", ["p", "q", "d"], "p", ["q"], rules)
                    units, rules_from = aut.units, aut.rules_from
                    assert set(units) == {"p"}
                    fast = [step(kind, rules_from, c, keep, units) for c in configs]
                    general = [step(kind, rules_from, c, keep, {}) for c in configs]
                    if fast != general:
                        c, got, want = next(t for t in zip(configs, fast, general) if t[1] != t[2])
                        pytest.fail(f"{kind.value} {rules} at {c}: {got} != {want}")

    def test_unit_table_holds_the_states_with_one_symbol_rules_only(self):
        tables = {name: set(aut.units) for name, aut in helpers.corpus().items()}
        assert tables["cdyck-grl"] == tables["dc-gll"] == {"q0"}
        assert tables["example1-rowj"] == {"q0", "q2", "q3"}
        assert tables["nonrowj-grl"] == {"q1", "q2", "q3", "q4"}
        for name in ("exrl-grl", "exrl-gll", "dyck-grl", "dyck-gll"):
            assert tables[name] == set(), name
        # The rules of bench/machines/onestate-q0final.jfa.
        onestate = make_automaton(
            "gll", "ab", ["q0"], "q0", ["q0"],
            [("q0", w, "q0") for w in ("abb", "aaa", "ba", "aab", "bb", "ab")],
        )
        assert onestate.units == {}
        skip, table = load_bundled("example1-rowj").units["q2"]
        assert (skip, table) == ("b", {"a": Rule("q2", "a", "q3")})
        assert load_bundled("cdyck-grl").units["q0"][0] == ""

    def test_no_step_reads_a_kind_member(self, monkeypatch):
        # A step compares the kind with a module global bound at import: an
        # Enum member read costs about ten times as much on Python 3.11.
        class Unread:
            def __getattr__(self, name):
                raise AssertionError(f"a step read Kind.{name}")

        grl = load_bundled("nonrowj-grl")  # branches on a and aa, and returns
        gll = reverse_automaton(grl)
        configs = [
            (aut, config, config.right if aut is grl else config.left)
            for aut, word in ((grl, "aabbab"), (gll, "babbaa"))
            for config in sorted(helpers.walk_configs(aut, word))
        ]
        tapes = [tape for tape, _, _ in helpers.walk_tape_edges(grl, "aabbab")]
        # The one-symbol step runs in q1-q4, the general one in q0.
        assert {config.state for _, config, _ in configs} == {"q0", *grl.units}

        def steps():
            out = []
            for aut, config, text in configs:
                rules = aut.rules_from.get(config.state, ())
                step = engine._successors(aut.kind, aut.rules_from, config, aut.live, aut.units)
                out.append(step)
                out.append(engine.enabled_deletions(aut.kind, rules, text))
            for tape in tapes:
                out.append(lba._machine_successors(grl.rules_from, tape))
            return out

        expected = steps()
        assert any(len(step) > 1 for step in expected)
        monkeypatch.setattr(engine, "Kind", Unread())
        monkeypatch.setattr(lba, "Kind", Unread())
        assert steps() == expected


def assert_traces_replay(search):
    aut = load_bundled("nonrowj-grl")
    for word in ["abab", "ba", "aaa", "abba"]:
        accepted, trace = search(aut, word)
        if not accepted:
            assert trace is None
            continue
        assert_replays(aut, word, trace)


def assert_replays(aut, word, trace):
    """``trace`` starts on ``word``, follows ``successors`` and ends accepting."""
    assert trace.configs[0] == initial_config(aut, word)
    assert helpers.is_accepting(aut, trace.configs[-1])
    assert len(trace.configs) == len(trace.moves) + 1
    for i, move in enumerate(trace.moves):
        assert (move, trace.configs[i + 1]) in successors(aut, trace.configs[i])


def assert_stores_ten_symbols_rejecting_aab(monkeypatch, search):
    """Both searches store the same configurations on a rejected word, so they
    give up on it under the same budgets."""
    aut = load_bundled("nonrowj-grl")
    monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", 9)
    message = "^gave up after storing 9 symbols on input of length 3$"
    with pytest.raises(SearchLimitError, match=message):
        search(aut, "aab")
    monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", 10)
    assert search(aut, "aab") == (False, None)


def assert_empty_input_accepted_iff_start_final(search):
    accepting_start = make_automaton("grl", "ab", ["q0"], "q0", ["q0"])
    accepted, trace = search(accepting_start, "")
    assert accepted and trace.moves == ()
    assert successors(accepting_start, initial_config(accepting_start, "")) == []
    rejecting_start = make_automaton("gll", "ab", ["q0", "q1"], "q0", ["q1"])
    assert not search(rejecting_start, "")[0]


class TestMember:
    def test_unit_rule_machine_accepts_worked_word(self):
        assert member(load_bundled("example1-rowj"), "abbaa")[0]

    def test_branching_machine(self):
        aut = load_bundled("nonrowj-grl")
        assert not member(aut, "aab")[0]
        assert member(aut, "aa")[0]
        assert member(aut, "")[0]

    def test_left_kind_machine(self):
        aut = load_bundled("dc-gll")
        assert member(aut, "abc")[0]
        assert not member(aut, "ab")[0]
        assert not member(aut, "cab")[0]

    def test_trace_replays_as_valid_run(self):
        assert_traces_replay(member)

    def test_shortest_trace_replays_as_valid_run(self):
        assert_traces_replay(shortest_trace)

    def test_trace_is_deterministic(self):
        aut = load_bundled("exrl-grl")
        assert shortest_trace(aut, "bab") == shortest_trace(aut, "bab")

    def test_trace_repr_is_its_fields(self):
        _, trace = shortest_trace(load_bundled("exrl-grl"), "bb")
        assert repr(trace) == (
            "Trace(kind=<Kind.RIGHT: 'grl'>, "
            "start=Configuration(left='', state='q0', right='bb'), "
            "moves=(Rule(src='q0', word='bb', dst='q1'),))"
        )

    @pytest.mark.parametrize("trace", [
        Trace(Kind.RIGHT, Configuration("", "q0", "b"), (Rule("q0", "a", "q1"),)),
        Trace(Kind.LEFT, Configuration("ab", "q0", ""), (Rule("q0", "c", "q1"),)),
        # Text jumped over: the step offers the return, which is not the move.
        Trace(Kind.RIGHT, Configuration("a", "q0", "b"), (Rule("q0", "c", "q1"),)),
        Trace(Kind.LEFT, Configuration("b", "q0", "a"), (Rule("q0", "c", "q1"),)),
    ])
    def test_replay_refuses_a_move_whose_word_is_not_ahead(self, trace):
        rule = trace.moves[0]
        with pytest.raises(JumpfaError, match=f"^move 0, {re.escape(repr(rule))}, finds no"):
            trace.configs

    @pytest.mark.parametrize("trace, message", [
        (Trace(Kind.RIGHT, Configuration("", "q0", "a"), (Rule("q9", "a", "q1"),)),
         "move 0, Rule(src='q9', word='a', dst='q1'), does not leave state 'q0'"),
        (Trace(Kind.RIGHT, ("", "q0", "a"), (Rule("q9", "a", "q1"),)),  # a plain tuple start
         "move 0, Rule(src='q9', word='a', dst='q1'), does not leave state 'q0'"),
        (Trace(Kind.LEFT, Configuration("ab", "q0", ""), (Rule("q0", "b", "q1"), Rule("q0", "a", "q1"))),
         "move 1, Rule(src='q0', word='a', dst='q1'), does not leave state 'q1'"),
        (Trace(Kind.RIGHT, Configuration("", "q0", ""), (None,)),
         "move 0, a return, has no text jumped over to wrap"),
        (Trace(Kind.LEFT, Configuration("ab", "q0", ""), (None,)),
         "move 0, a return, has no text jumped over to wrap"),
    ])
    def test_replay_refuses_a_move_from_another_state_or_a_return_with_nothing_to_wrap(
        self, trace, message
    ):
        with pytest.raises(JumpfaError, match=f"^{re.escape(message)}$"):
            trace.configs

    def test_canonical_trace_for_a_loop_bb_machine(self):
        # a^l b a^m b a^n: delete the a's front to back (jumping each b),
        # wrap around, then delete the assembled bb.
        aut = load_bundled("exrl-grl")
        rule_a, rule_bb = aut.rules
        _, trace = shortest_trace(aut, "abaaba")
        assert list(trace.moves) == [rule_a, rule_a, rule_a, rule_a, None, rule_bb]
        # the left buffer grows by each skipped b
        assert [c.left for c in trace.configs] == ["", "", "b", "b", "bb", "", ""]

    def test_empty_input_accepted_iff_start_final(self):
        assert_empty_input_accepted_iff_start_final(member)

    def test_shortest_trace_empty_input_accepted_iff_start_final(self):
        assert_empty_input_accepted_iff_start_final(shortest_trace)

    def test_search_limit_guard(self, monkeypatch):
        assert_stores_ten_symbols_rejecting_aab(monkeypatch, member)

    def test_shortest_trace_search_limit_guard(self, monkeypatch):
        assert_stores_ten_symbols_rejecting_aab(monkeypatch, shortest_trace)

    def test_word_over_alphabet_required(self):
        with pytest.raises(SymbolOutsideAlphabetError):
            member(load_bundled("dyck-grl"), "xyz")


class TestEnumerate:
    def test_balanced_words_to_length_four(self):
        assert enumerate_language(load_bundled("dyck-grl"), 4) == ["", "ab", "aabb", "abab"]

    def test_a_loop_bb_machine_to_length_three(self):
        assert enumerate_language(load_bundled("exrl-grl"), 3) == ["bb", "abb", "bab"]

    def test_no_finals_means_empty_language(self):
        aut = make_automaton("grl", "ab", ["q0"], "q0", [], [("q0", "a", "q0")])
        assert enumerate_language(aut, 4) == []

    def test_sweep_of_exactly_the_cap_runs(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_SWEEP_SYMBOLS", 10)  # words of length <= 2 over ab
        dyck = load_bundled("dyck-grl")
        assert enumerate_language(dyck, 2) == ["", "ab"]
        with pytest.raises(SearchLimitError, match="^gave up: 34 symbols up to length 3 "):
            enumerate_language(dyck, 3)

    def test_oversized_sweep_decides_no_word(self):
        calls = []
        with pytest.raises(SearchLimitError, match="^gave up: 369098754 symbols up to length 23 "):
            engine.differences("ab", 100_000, calls.append, calls.append)
        with pytest.raises(
            SearchLimitError, match="^gave up: 200010000 symbols up to length 20000 "
        ):
            engine.differences("c", 10**9, calls.append, calls.append)
        assert calls == []

    @pytest.mark.parametrize("alphabet, longest", [("ab", 22), ("abc", 14), ("abcd", 11)])
    def test_admitted_lengths_by_alphabet_size(self, alphabet, longest):
        class Admitted(Exception):
            pass

        def first(word):
            raise Admitted  # the sweep passed the cap and decides its first word

        with pytest.raises(Admitted):
            engine.differences(alphabet, longest, first, first)
        with pytest.raises(SearchLimitError, match=f" up to length {longest + 1} "):
            engine.differences(alphabet, longest + 1, first, first)

    def test_word_order_is_length_then_lex(self):
        assert list(iter_words("ab", 2)) == ["", "a", "b", "aa", "ab", "ba", "bb"]
        assert list(iter_words("ba", 1)) == ["", "b", "a"]

    @pytest.mark.parametrize("alphabet", ["ab", "abc"])
    def test_shares_deal_the_sweep_round_robin_within_each_length(self, alphabet):
        for max_len in range(7):
            whole = list(iter_words(alphabet, max_len))
            position = {word: index for index, word in enumerate(whole)}
            for shares in range(1, 5):
                dealt = [list(iter_words(alphabet, max_len, i, shares)) for i in range(shares)]
                assert len(set(chain(*dealt))) == sum(map(len, dealt))
                for words in dealt:
                    assert [position[w] for w in words] == sorted(position[w] for w in words)
                merged = []
                for length in range(max_len + 1):
                    rows = [[w for w in words if len(w) == length] for words in dealt]
                    merged += [w for deal in zip_longest(*rows) for w in deal if w is not None]
                assert merged == whole, (max_len, shares)


def sequential_differences(alphabet, max_len, first, second):
    """The bounded sweep as its docstring states it, one word after another."""
    verdicts = ((w, first(w), second(w)) for w in iter_words(alphabet, max_len))
    return [(w, x, y) for w, x, y in verdicts if x != y]


@contextmanager
def forked_sweeps(processes=3):
    """Split every sweep of two words or more over ``processes`` processes,
    whatever this host has; yields the pids of the children forked. On leaving,
    no child may be left, reaped or not."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SHARE_WORDS", 1)
        mp.setattr(engine, "_usable_cpus", lambda: processes)
        fork, pids = os.fork, []

        def counted_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        mp.setattr(os, "fork", counted_fork)
        yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _refuse_fork():
    raise AssertionError("this sweep should not fork")


# Lengths giving each alphabet size a sweep of a few hundred words.
SWEEP_LENGTH = {1: 9, 2: 7, 3: 5}


class TestForkedSweep:
    @pytest.mark.parametrize("name", sorted(CORPUS_CLAIMS))
    def test_corpus_sweeps_equal_the_sequential_sweep(self, name):
        aut = load_bundled(name)
        rev = reverse_automaton(aut)
        n = SWEEP_LENGTH[len(aut.alphabet)]

        def accepted(w):
            return helpers.accepts(aut, w)

        def claimed(w):
            return oracle_eval(CORPUS_CLAIMS[name], w)

        with forked_sweeps() as pids:
            assert enumerate_language(aut, n) == [
                w for w, _, _ in sequential_differences(aut.alphabet, n, accepted, lambda w: False)
            ]
            assert oracle_difference(aut, CORPUS_CLAIMS[name], n) == (
                sequential_differences(aut.alphabet, n, accepted, claimed)
            )
            assert language_difference(aut, rev, n) == sequential_differences(
                aut.alphabet, n, accepted, lambda w: helpers.accepts(rev, w)
            )
        assert len(pids) == 6

    @settings(max_examples=40, deadline=None)
    @given(helpers.automata(), helpers.automata(), st.integers(2, 4))
    def test_random_sweeps_equal_the_sequential_sweep(self, a, b, processes):
        def first(w):
            return helpers.accepts(a, w)

        def second(w):
            return helpers.accepts(b, w)

        with forked_sweeps(processes) as pids:
            assert enumerate_language(a, 6) == [
                w for w, _, _ in sequential_differences("ab", 6, first, lambda w: False)
            ]
            assert language_difference(a, b, 6) == sequential_differences("ab", 6, first, second)
        assert len(pids) == 2 * (processes - 1)

    def test_the_earliest_search_limit_wins(self, monkeypatch):
        # Budget 6 on nonrowj-grl: "aab" (word 1 of length 3, a child's) is the
        # first word to give up, this process's first is "aaaa".
        monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", 6)
        aut = load_bundled("nonrowj-grl")
        with pytest.raises(SearchLimitError) as sequential:
            sequential_differences("ab", 7, lambda w: helpers.accepts(aut, w), lambda w: False)
        assert str(sequential.value).endswith(" on input of length 3")
        with forked_sweeps() as pids:
            with pytest.raises(SearchLimitError) as forked:
                enumerate_language(aut, 7)
        assert pids and str(forked.value) == str(sequential.value)

    @pytest.mark.parametrize("refused, raised", [
        # Word j of a length is share j % 3's; share 0 is this process's.
        ({"ba", "abb"}, "ba"),  # share 2, then share 0
        ({"b", "aa"}, "b"),  # share 1, then share 0
        ({"aa", "ab", "bab"}, "aa"),  # share 0, then shares 1 and 2
        ({"abab"}, "abab"),  # share 2 only
    ])
    def test_the_earliest_failing_word_raises_here(self, refused, raised):
        class Refused(Exception):  # a local class: no pickle could carry it
            pass

        def first(word):
            if word in refused:
                raise Refused(word)
            return word.count("a") == word.count("b")

        with forked_sweeps() as pids:
            with pytest.raises(Refused) as failure:
                engine.differences("ab", 6, first, lambda w: True)
        assert pids and failure.value.args == (raised,)

    @pytest.mark.parametrize("status", [3, 0])
    def test_a_child_that_dies_leaves_its_share_to_this_process(self, status):
        caller = os.getpid()

        def first(word):
            if os.getpid() != caller:
                os._exit(status)  # a child that ends before it reports
            return "b" in word

        with forked_sweeps() as pids:
            assert engine.differences("ab", 5, first, lambda w: False) == (
                sequential_differences("ab", 5, first, lambda w: False)
            )
        assert len(pids) == 2

    @pytest.mark.parametrize("call", ["fork", "pipe"])
    def test_a_fork_that_fails_leaves_the_sweep_to_this_process(self, monkeypatch, call):
        def fail():
            raise OSError(24, "Too many open files")

        monkeypatch.setattr(engine, "SHARE_WORDS", 1)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(os, call, fail)
        assert enumerate_language(load_bundled("dyck-grl"), 6) == [
            "", "ab", "aabb", "abab", "aaabbb", "aababb", "aabbab", "abaabb", "ababab"
        ]

    def test_a_share_that_fails_here_ends_the_children_at_once(self):
        caller = os.getpid()

        def first(word):
            if os.getpid() != caller and len(word) == 1:
                time.sleep(20)  # each child's first word: "a" or "b"
            if word == "":
                raise ValueError(word)  # this process's first word
            return False

        start = time.monotonic()
        with forked_sweeps() as pids:
            with pytest.raises(ValueError):
                engine.differences("ab", 5, first, lambda w: False)
        assert len(pids) == 2 and time.monotonic() - start < 5

    @pytest.mark.parametrize(
        "cpus, words, processes",
        [
            (2, 4_095, 1),
            (2, 4_096, 2),
            (2, 8_191, 2),
            (64, 29_524, 5),
            (64, 265_720, 16),
            (64, 7_174_453, 64),
        ],
    )
    def test_processes_grow_with_the_square_root_of_the_words(
        self, monkeypatch, cpus, words, processes
    ):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", _refuse_fork)
        assert engine._sweep_processes(words) == processes

    def test_without_affinity_every_cpu_is_usable(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert engine._usable_cpus() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("case", ["no fork", "one CPU", "a second thread", "too few words"])
    def test_the_sweep_stays_here(self, monkeypatch, case):
        aut = load_bundled("dyck-gll")
        expected = enumerate_language(aut, 8)
        monkeypatch.setattr(engine, "SHARE_WORDS", 1)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1 if case == "one CPU" else 2)
        if case == "too few words":
            monkeypatch.setattr(engine, "SHARE_WORDS", 2**9)  # 511 words, 2 shares need 2,048
        if case == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", _refuse_fork)
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        if case == "a second thread":
            worker.start()
        try:
            assert enumerate_language(aut, 8) == expected
        finally:
            release.set()
            if worker.is_alive():
                worker.join()


def _configurations(draw_words):
    return st.tuples(draw_words, st.sampled_from(["q0", "q1", "q2", "q3"]), draw_words)


class TestNaiveAgreement:
    """The fast successor computation must equal the literal-clause one."""

    @settings(max_examples=300, deadline=None)
    @given(helpers.automata(), st.text(alphabet="ab", max_size=8))
    def test_fast_equals_naive_on_reachable_configs(self, aut, word):
        for config in helpers.walk_configs(aut, word):
            assert helpers.consume_steps(aut, config) == naive_consume_successors(aut, config)

    @settings(max_examples=300, deadline=None)
    @given(helpers.automata(), _configurations(st.text(alphabet="ab", max_size=6)))
    def test_fast_equals_naive_on_arbitrary_configs(self, aut, parts):
        left, state, right = parts
        if state not in aut.states:
            return
        config = Configuration(left, state, right)
        assert helpers.consume_steps(aut, config) == naive_consume_successors(aut, config)


def naive_member(aut, word):
    """Memoized reachability over the naive successor relation: a second,
    independent route to the membership verdict. The return is taken by its
    literal condition: text was jumped over, and no word readable in the
    state occurs ahead."""
    grl = aut.kind is Kind.RIGHT
    seen = set()
    stack = [initial_config(aut, word)]
    while stack:
        config = stack.pop()
        if config in seen:
            continue
        seen.add(config)
        if helpers.is_accepting(aut, config):
            return True
        stack.extend(nxt for _, nxt in naive_consume_successors(aut, config))
        jumped, state, ahead = config if grl else config[::-1]
        if jumped and not any(r.word in ahead for r in aut.rules if r.src == state):
            text = config.left + config.right
            stack.append(Configuration("", state, text) if grl else Configuration(text, state, ""))
    return False


class TestDualRouteMembership:
    @settings(max_examples=250, deadline=None)
    @given(helpers.automata(), st.text(alphabet="ab", max_size=7))
    def test_member_agrees_with_naive_search(self, aut, word):
        assert member(aut, word)[0] == naive_member(aut, word)


def small_scope_automata():
    """Every automaton over ``ab`` with states q0 (the start) and q1, at most
    two rules of words of length <= 2 and a nonempty final set, of both kinds."""
    words = [w for w in iter_words("ab", 2) if w]
    rules = [(src, w, dst) for src in ("q0", "q1") for w in words for dst in ("q0", "q1")]
    # A state has at most one rule per word.
    pairs = [pair for pair in combinations(rules, 2) if pair[0][:2] != pair[1][:2]]
    for kind in ("grl", "gll"):
        for finals in (["q0"], ["q1"], ["q0", "q1"]):
            for chosen in chain([()], ((rule,) for rule in rules), pairs):
                yield make_automaton(kind, "ab", ["q0", "q1"], "q0", finals, chosen)


class TestSmallScope:
    """Every small machine on every short word, in place of random draws: a
    shape that random machines rarely take cannot slip through."""

    def test_every_search_decides_as_the_naive_search(self):
        machines = list(small_scope_automata())
        assert len(machines) == 1734
        words = list(iter_words("ab", 5))
        assert len(words) == 63
        unit_rule = 0
        for aut in machines:
            decide = engine._decider(aut)
            unit = is_unit_rule(aut)
            unit_rule += unit
            for word in words:
                expected = naive_member(aut, word)
                verdicts = (
                    member(aut, word)[0],
                    shortest_trace(aut, word)[0],
                    decide(word),
                    lba_run(aut, word)[0],
                    one_way_reference_member(aut, word) if unit else expected,
                )
                assert verdicts == (expected,) * 5, (aut.kind, aut.finals, aut.rules, word)
        assert unit_rule == 198

    def test_the_cached_reversal_is_the_validated_one(self):
        for aut in small_scope_automata():
            assert aut.reversal == reverse_automaton(aut)
            assert aut.reversal is aut.reversal


def loop_automata():
    """Every ``grl`` machine over ``ab`` whose run ends in a final state with
    one rule, a loop on a word of length 1-3: the lone state q0 loops, or the
    start q0 enters q1 by one rule of a word of length <= 2 and q1 loops.
    Their reversals are the ``gll`` machines of the same shapes."""
    loops = [w for w in iter_words("ab", 3) if w]
    entries = [w for w in iter_words("ab", 2) if w]
    for x in loops:
        yield make_automaton("grl", "ab", ["q0"], "q0", ["q0"], [("q0", x, "q0")])
        for y in entries:
            rules = [("q0", y, "q1"), ("q1", x, "q1")]
            yield make_automaton("grl", "ab", ["q0", "q1"], "q0", ["q1"], rules)


class TestLoopStates:
    """The verdict path decides a run that reaches a loop state by deleting
    whole passes at once; ``gll`` passes delete from the right, which differs
    from ``str.replace`` on self-overlapping words (``aba`` on ``aababa``)."""

    def test_every_loop_decides_as_the_naive_search(self):
        machines = list(loop_automata())
        assert len(machines) == 14 * 7
        words = list(iter_words("ab", 7))
        assert len(words) == 255
        for aut in machines:
            mirror = aut.reversal
            assert list(aut.loops.values()) == [aut.rules[-1].word]
            assert list(mirror.loops.values()) == [mirror.rules[-1].word]
            grl, gll = engine._decider(aut), engine._decider(mirror)
            for word in words:
                # The mirror decides the reversed word alike (reversal
                # duality), so one naive search checks both kinds.
                expected = naive_member(aut, word)
                back = word[::-1]
                verdicts = (grl(word), member(aut, word)[0], gll(back), member(mirror, back)[0])
                assert verdicts == (expected,) * 4, (aut.rules, word)


class TestInvariants:
    @settings(max_examples=250, deadline=None)
    @given(helpers.automata(), st.text(alphabet="ab", max_size=7))
    def test_mutual_exclusion_and_progress(self, aut, word):
        for config, move, nxt in helpers.walk_edges(aut, word):
            if move is None:
                assert helpers.consume_steps(aut, config) == []
                # one buffer empties, the symbols survive as a block
                assert nxt.left + nxt.right in (config.left + config.right, config.right + config.left)
                assert "" in (nxt.left, nxt.right)
                # returns never chain
                assert helpers.return_step(aut, nxt) is None
            else:
                assert helpers.return_step(aut, config) is None
                shrink = len(config.left + config.right) - len(nxt.left + nxt.right)
                assert shrink == len(move.word)

    @settings(max_examples=150, deadline=None)
    @given(helpers.automata(kinds=(helpers.Kind.RIGHT, helpers.Kind.LEFT), max_word_len=1),
           st.text(alphabet="ab", max_size=7))
    def test_unit_rule_machines_never_branch(self, aut, word):
        for config in helpers.walk_configs(aut, word):
            assert len(helpers.consume_steps(aut, config)) <= 1


def unpruned_member(aut, word):
    """Breadth-first search over the public successor relation, storing and
    expanding every configuration, dead states included. On acceptance it
    returns the configurations and the moves of the run it found, read back
    from its own table of predecessors."""
    start = initial_config(aut, word)
    if helpers.is_accepting(aut, start):
        return True, (start,), ()
    paths = {start: None}
    queue = deque((start,))
    while queue:
        config = queue.popleft()
        for move, nxt in successors(aut, config):
            if nxt in paths:
                continue
            paths[nxt] = (config, move)
            if helpers.is_accepting(aut, nxt):
                configs, moves = [nxt], []
                while paths[configs[-1]] is not None:
                    prev, step = paths[configs[-1]]
                    configs.append(prev)
                    moves.append(step)
                return True, tuple(reversed(configs)), tuple(reversed(moves))
            queue.append(nxt)
    return False, None, None


# On ``cab`` the head deletes ``a`` into q1 with ``c`` behind and ``b`` ahead.
# There only the deletion of ``b`` into the dead state d is enabled, and it
# blocks the return that would go on to accept through qf.
DEAD_DELETION_BLOCKS_RETURN = make_automaton(
    "grl", "abc", ["q0", "q1", "qf", "d"], "q0", ["qf"],
    [("q0", "a", "q1"), ("q1", "b", "d"), ("q1", "c", "qf"), ("qf", "b", "qf")],
)


class TestDeadStatePruning:
    @settings(max_examples=400, deadline=None)
    @given(helpers.automata(), st.text(alphabet="ab", max_size=9))
    @example(DEAD_DELETION_BLOCKS_RETURN, "cab")
    def test_member_equals_unpruned_search(self, aut, word):
        accepted, trace = shortest_trace(aut, word)
        run = (trace.configs, trace.moves) if trace else (None, None)
        assert (accepted, *run) == unpruned_member(aut, word)
        assert member(aut, word)[0] == accepted

    def test_a_dead_deletion_blocks_the_return(self):
        aut = DEAD_DELETION_BLOCKS_RETURN
        assert member(aut, "cab") == shortest_trace(aut, "cab") == (False, None)
        assert not lba_run(aut, "cab")[0]

    def test_machine_without_finals_rejects_without_searching(self, monkeypatch):
        # One-state gll machine whose unpruned search grows exponentially:
        # thousands of configurations already at length 32.
        aut = make_automaton(
            "gll", "ab", ["q0"], "q0", [],
            [("q0", w, "q0") for w in ("abb", "aaa", "ba", "aab", "bb", "ab")],
        )
        rnd = random.Random(64)
        word = "".join(rnd.choice("ab") for _ in range(64))
        monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", 0)
        assert member(aut, word) == (False, None)


def successor_log(search, aut, word):
    """The verdict of ``search(aut, word)`` and the configurations it
    expanded, as calls of the engine's successor step in call order: each
    call's state, and whether the search had branched before it, that is,
    whether an earlier call yielded two or more successors."""
    log = []
    branched = False
    step = engine._successors

    def logged(kind, rules_from, config, keep, units):
        nonlocal branched
        log.append((config[1], branched))
        steps = step(kind, rules_from, config, keep, units)
        branched = branched or len(steps) > 1
        return steps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_successors", logged)
        accepted, _ = search(aut, word)
    return accepted, log


def successor_calls(search, aut, word):
    """The verdict of ``search(aut, word)`` and how many configurations it
    expanded, counted as calls of the engine's successor step."""
    accepted, log = successor_log(search, aut, word)
    return accepted, len(log)


def assert_expands_each_live_configuration_once(aut, word):
    """On a rejected word both searches expand every live reachable
    configuration exactly once, however long they go without branching."""
    live = {c for c in helpers.walk_configs(aut, word) if c.state in aut.live}
    for search in (member, shortest_trace):
        assert successor_calls(search, aut, word) == (False, len(live))


def verdict_search(aut, word):
    """The sweeps' verdict path, shaped like the result of ``member``."""
    return engine._decider(aut)(word), None


def assert_depth_first_agrees(aut, word):
    accepted, trace = member(aut, word)
    shortest_accepted, shortest = shortest_trace(aut, word)
    assert accepted == shortest_accepted
    # The verdict path decides alike and expands the configurations member
    # expands, save one kind: it decides a run that reaches a loop state
    # before the search branches at once, so it never expands a loop state
    # there. After a branch both expand alike, since the frontier search is
    # the same. With no loop state the two lists are equal.
    verdict, expanded = successor_log(verdict_search, aut, word)
    _, member_expanded = successor_log(member, aut, word)
    assert verdict == accepted
    assert not any(state in aut.loops and not branched for state, branched in expanded)
    assert expanded == [
        (state, branched)
        for state, branched in member_expanded
        if branched or state not in aut.loops
    ]
    if accepted:
        assert_replays(aut, word, trace)
        assert len(trace.moves) >= len(shortest.moves)
    else:
        assert trace is None
        assert_expands_each_live_configuration_once(aut, word)


class TestDepthFirstMember:
    """``member`` searches depth-first; ``shortest_trace`` is the breadth-first
    reference it must agree with, and the sweeps' verdict path must agree
    with ``member``."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(helpers.automata(), st.text(alphabet="ab", max_size=9))
        | helpers.reconverging_runs()
    )
    def test_agrees_with_shortest_trace(self, run):
        assert_depth_first_agrees(*run)

    def test_agrees_with_shortest_trace_on_the_corpus(self):
        for aut in helpers.corpus().values():
            max_len = 6 if len(aut.alphabet) <= 2 else 5
            for word in iter_words(aut.alphabet, max_len):
                assert_depth_first_agrees(aut, word)

    def test_accepts_within_a_budget_the_breadth_first_search_exceeds(self, monkeypatch):
        aut = make_automaton(
            "gll", "ab", ["q0"], "q0", ["q0"],
            [("q0", w, "q0") for w in ("abb", "aaa", "ba", "aab", "bb", "ab")],
        )
        rnd = random.Random(40)
        word = "".join(rnd.choice("ab") for _ in range(40))
        # member stores 960 symbols before it accepts.
        monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", 2000)
        accepted, trace = member(aut, word)
        assert accepted
        assert_replays(aut, word, trace)
        with pytest.raises(SearchLimitError):
            shortest_trace(aut, word)


def balanced_word(rnd, pairs):
    """A random word of ``pairs`` a's and as many b's in which no prefix has
    more b's than a's."""
    out, depth, opens = [], 0, pairs
    while opens or depth:
        if opens and (not depth or rnd.random() < 0.5):
            out.append("a")
            opens, depth = opens - 1, depth + 1
        else:
            out.append("b")
            depth -= 1
    return "".join(out)


class TestSearchStorage:
    """The search stores no configuration until it branches, keeps only the
    moves of each run it follows, and replays a trace's configurations."""

    def test_branches_that_reconverge_after_a_single_successor_stretch(self):
        # p and r each have one successor; q deletes "a" or "aa", so its
        # runs meet again, also on the branch point's own successors.
        aut = make_automaton(
            "grl", "ab", ["p", "r", "q"], "p", ["q"],
            [("p", "b", "r"), ("r", "b", "q"), ("q", "a", "q"), ("q", "aa", "q")],
        )
        for word in ("bbaaaab", "bbaaaaaaab", "bbb"):
            assert_expands_each_live_configuration_once(aut, word)
        assert successor_calls(member, aut, "bbaaaaaaab") == (False, 10)

    def test_member_memory_follows_the_moves_on_long_balanced_words(self):
        # Linear in the input: a move that stored its skipped text would keep
        # about n²/8 symbols on a^k b^k, over 600 bytes per symbol at n = 4000.
        words = [
            "a" * 2000 + "b" * 2000,
            "a" * 4000 + "b" * 4000,
            balanced_word(random.Random(4000), 2000),
        ]
        for name in ("dyck-grl", "dyck-gll"):
            aut = load_bundled(name)
            for word in words:
                (accepted, trace), peak = helpers.peak_bytes(lambda: member(aut, word))
                assert accepted
                assert peak < 200 * len(word), (name, len(word), peak)
                assert len(repr(trace)) < 64 * len(word), (name, len(word))
                assert len(trace.configs) == len(trace.moves) + 1
                assert_replays(aut, word, trace)

    def test_an_unbranched_run_stores_nothing(self, monkeypatch):
        # No budget can stop a search before it branches: it stores nothing.
        monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", 0)
        word = "a" * 2000 + "b" * 2000
        for name in ("dyck-grl", "dyck-gll"):
            aut = load_bundled(name)
            assert member(aut, word)[0]
            assert shortest_trace(aut, word)[0]
            assert lba_run(aut, word) == (True, SpaceReport(4002, 2000, 3999))


    def test_a_search_that_never_branches_builds_no_frontier(self, monkeypatch):
        class NoFrontier(deque):
            def __init__(self, *args):
                raise AssertionError("a search that never branched built a frontier")

        monkeypatch.setattr(engine, "deque", NoFrontier)
        monkeypatch.setattr(lba, "deque", NoFrontier)
        accepted, rejected = "a" * 300 + "b" * 300, "a" * 300 + "b" * 299 + "a"
        for name in ("dyck-grl", "dyck-gll"):
            aut = load_bundled(name)
            decide = engine._decider(aut)
            for search in (member, shortest_trace):
                assert search(aut, accepted)[0]
                assert search(aut, rejected) == (False, None)
            assert decide(accepted) and not decide(rejected)
            assert lba_run(aut, accepted) == (True, SpaceReport(602, 300, 599))
            assert lba_run(aut, rejected)[0] is False


class TestVerdictPath:
    """The sweeps decide each word by the one search, recording nothing;
    ``assert_depth_first_agrees`` checks its verdicts against ``member``."""

    def test_search_limit_guard(self, monkeypatch):
        assert_stores_ten_symbols_rejecting_aab(monkeypatch, verdict_search)

    def test_sweeps_check_no_word_and_build_no_trace(self, monkeypatch):
        dyck, exrl, exrl_left = (load_bundled(n) for n in ("dyck-grl", "exrl-grl", "exrl-gll"))
        expected = (
            [w for w in iter_words("ab", 8) if oracle_eval("dyck", w)],
            sequential_differences(
                "ab", 6, lambda w: member(exrl, w)[0], lambda w: oracle_eval("exrl_gll", w)
            ),
            sequential_differences(
                "ab", 6, lambda w: member(exrl, w)[0], lambda w: member(exrl_left, w)[0]
            ),
        )
        assert expected[1] and expected[2]

        def refuse(*args):
            raise AssertionError("a sweep checked a word or built a trace")

        monkeypatch.setattr(engine, "check_word", refuse)
        monkeypatch.setattr(engine, "Trace", refuse)
        monkeypatch.setattr(os, "fork", _refuse_fork)  # 511 and 127 words: too few to fork
        assert enumerate_language(dyck, 8) == expected[0]
        assert oracle_difference(exrl, "exrl_gll", 6) == expected[1]
        assert language_difference(exrl, exrl_left, 6) == expected[2]
