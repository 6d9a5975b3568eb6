"""One-step semantics, membership search, and enumeration."""

import os
import random
import re
import threading
import time
from collections import deque
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from jumpfa import engine
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
from jumpfa.transforms import language_difference, reverse_automaton


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
                step = engine._successors(aut.kind, aut.rules_from, config, aut.live)
                assert step == kept, config


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
    ])
    def test_replay_refuses_a_move_whose_word_is_not_ahead(self, trace):
        rule = trace.moves[0]
        with pytest.raises(JumpfaError, match=f"^move 0, {re.escape(repr(rule))}, finds no"):
            trace.configs

    @pytest.mark.parametrize("trace, message", [
        (Trace(Kind.RIGHT, Configuration("", "q0", "a"), (Rule("q9", "a", "q1"),)),
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
            monkeypatch.setattr(engine, "SHARE_WORDS", 2**9)  # 511 words, 2 shares need 1,024
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
    independent route to the membership verdict."""
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
        ret = helpers.return_step(aut, config)
        if ret is not None:
            stack.append(ret[1])
    return False


class TestDualRouteMembership:
    @settings(max_examples=250, deadline=None)
    @given(helpers.automata(), st.text(alphabet="ab", max_size=7))
    def test_member_agrees_with_naive_search(self, aut, word):
        assert member(aut, word)[0] == naive_member(aut, word)


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


def successor_calls(search, aut, word):
    """The verdict of ``search(aut, word)`` and how many configurations it
    expanded, counted as calls of the engine's successor step."""
    calls = 0
    step = engine._successors

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_successors", counted)
        accepted, _ = search(aut, word)
    return accepted, calls


def assert_expands_each_live_configuration_once(aut, word):
    """On a rejected word both searches expand every live reachable
    configuration exactly once, however long they go without branching."""
    live = {c for c in helpers.walk_configs(aut, word) if c.state in aut.live}
    for search in (member, shortest_trace):
        assert successor_calls(search, aut, word) == (False, len(live))


def assert_depth_first_agrees(aut, word):
    accepted, trace = member(aut, word)
    shortest_accepted, shortest = shortest_trace(aut, word)
    assert accepted == shortest_accepted
    if accepted:
        assert_replays(aut, word, trace)
        assert len(trace.moves) >= len(shortest.moves)
    else:
        assert trace is None
        assert_expands_each_live_configuration_once(aut, word)


class TestDepthFirstMember:
    """``member`` searches depth-first; ``shortest_trace`` is the breadth-first
    reference it must agree with."""

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
