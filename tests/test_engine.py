"""One-step semantics, membership search, and enumeration."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from jumpfa import engine
from jumpfa.core import SymbolOutsideAlphabetError, make_automaton
from jumpfa.engine import (
    Configuration,
    Consume,
    RETURN,
    Return,
    SearchLimitError,
    Trace,
    contains_factor,
    enumerate_language,
    initial_config,
    iter_words,
    member,
    naive_consume_successors,
    shortest_trace,
    successors,
)
from jumpfa.oracles import load_bundled


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


class TestPrimitives:
    def test_contains_factor(self):
        assert contains_factor("bb", ["a", "bb"])
        assert not contains_factor("b", ["a", "bb"])
        assert not contains_factor("", ["a", "bb"])


class TestConsume:
    def test_dyck_skips_unreadable_prefix(self):
        aut = load_bundled("dyck-grl")
        rule = aut.rules[0]
        steps = helpers.consume_steps(aut, Configuration("", "q0", "aabb"))
        assert steps == [(Consume(rule, "a"), Configuration("a", "q0", "b"))]

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
        assert [(m.rule.word, c) for m, c in steps] == [("a", Configuration("", "q0", "bb"))]

    def test_left_kind_scans_from_the_right_end(self):
        aut = load_bundled("dyck-gll")
        rule = aut.rules[0]
        steps = helpers.consume_steps(aut, Configuration("aabb", "q0", ""))
        assert steps == [(Consume(rule, "b"), Configuration("a", "q0", "b"))]


class TestReturn:
    def test_wraps_when_nothing_ahead_is_readable(self):
        aut = load_bundled("exrl-grl")
        move, after = helpers.return_step(aut, Configuration("bb", "q0", ""))
        assert move == RETURN
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
        assert steps == [(RETURN, Configuration("", "q0", "bb"))]

    def test_accepting_configuration_has_no_successors(self):
        aut = load_bundled("dyck-grl")
        assert successors(aut, Configuration("", "q0", "")) == []

    def test_single_consume_with_skip(self):
        aut = load_bundled("bmabbn-grl")
        steps = successors(aut, Configuration("", "q0", "babb"))
        assert [c for _, c in steps] == [Configuration("b", "q1", "b")]


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

    def test_canonical_trace_for_a_loop_bb_machine(self):
        # a^l b a^m b a^n: delete the a's front to back (jumping each b),
        # wrap around, then delete the assembled bb.
        aut = load_bundled("exrl-grl")
        rule_a, rule_bb = aut.rules
        _, trace = shortest_trace(aut, "abaaba")
        assert list(trace.moves) == [
            Consume(rule_a, ""),
            Consume(rule_a, "b"),
            Consume(rule_a, ""),
            Consume(rule_a, "b"),
            RETURN,
            Consume(rule_bb, ""),
        ]

    def test_empty_input_accepted_iff_start_final(self):
        assert_empty_input_accepted_iff_start_final(member)

    def test_shortest_trace_empty_input_accepted_iff_start_final(self):
        assert_empty_input_accepted_iff_start_final(shortest_trace)

    def test_search_limit_guard(self):
        with pytest.raises(SearchLimitError):
            member(load_bundled("dyck-grl"), "aaabbb", max_expansions=2)

    def test_shortest_trace_search_limit_guard(self):
        with pytest.raises(SearchLimitError):
            shortest_trace(load_bundled("dyck-grl"), "aaabbb", max_expansions=2)

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

    def test_word_order_is_length_then_lex(self):
        assert list(iter_words("ab", 2)) == ["", "a", "b", "aa", "ab", "ba", "bb"]
        assert list(iter_words("ba", 1)) == ["", "b", "a"]


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
            if isinstance(move, Return):
                assert helpers.consume_steps(aut, config) == []
                # one buffer empties, the symbols survive as a block
                assert nxt.left + nxt.right in (config.left + config.right, config.right + config.left)
                assert "" in (nxt.left, nxt.right)
                # returns never chain
                assert helpers.return_step(aut, nxt) is None
            else:
                assert helpers.return_step(aut, config) is None
                shrink = len(config.left + config.right) - len(nxt.left + nxt.right)
                assert shrink == len(move.rule.word)

    @settings(max_examples=150, deadline=None)
    @given(helpers.automata(kinds=(helpers.Kind.RIGHT, helpers.Kind.LEFT), max_word_len=1),
           st.text(alphabet="ab", max_size=7))
    def test_unit_rule_machines_never_branch(self, aut, word):
        for config in helpers.walk_configs(aut, word):
            assert len(helpers.consume_steps(aut, config)) <= 1


def unpruned_member(aut, word):
    """Breadth-first search over the public successor relation, storing and
    expanding every configuration, dead states included."""
    start = initial_config(aut, word)
    if helpers.is_accepting(aut, start):
        return True, Trace((start,), ())
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
                return True, Trace(tuple(reversed(configs)), tuple(reversed(moves)))
            queue.append(nxt)
    return False, None


class TestDeadStatePruning:
    @settings(max_examples=400, deadline=None)
    @given(helpers.automata(), st.text(alphabet="ab", max_size=9))
    def test_member_equals_unpruned_search(self, aut, word):
        assert shortest_trace(aut, word) == unpruned_member(aut, word)

    def test_machine_without_finals_rejects_without_searching(self):
        # One-state gll machine whose unpruned search grows exponentially:
        # thousands of configurations already at length 32.
        aut = make_automaton(
            "gll", "ab", ["q0"], "q0", [],
            [("q0", w, "q0") for w in ("abb", "aaa", "ba", "aab", "bb", "ab")],
        )
        rnd = random.Random(64)
        word = "".join(rnd.choice("ab") for _ in range(64))
        assert member(aut, word, max_expansions=1) == (False, None)


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


def assert_depth_first_agrees(aut, word):
    accepted, trace = member(aut, word)
    shortest_accepted, shortest = shortest_trace(aut, word)
    assert accepted == shortest_accepted
    if accepted:
        assert_replays(aut, word, trace)
        assert len(trace.moves) >= len(shortest.moves)
    else:
        assert trace is None
        # both orders exhaust the same live configurations
        assert successor_calls(member, aut, word) == successor_calls(shortest_trace, aut, word)


class TestDepthFirstMember:
    """``member`` searches depth-first; ``shortest_trace`` is the breadth-first
    reference it must agree with."""

    @settings(max_examples=300, deadline=None)
    @given(helpers.automata(), st.text(alphabet="ab", max_size=9))
    def test_agrees_with_shortest_trace(self, aut, word):
        assert_depth_first_agrees(aut, word)

    def test_agrees_with_shortest_trace_on_the_corpus(self):
        for aut in helpers.corpus().values():
            max_len = 6 if len(aut.alphabet) <= 2 else 5
            for word in iter_words(aut.alphabet, max_len):
                assert_depth_first_agrees(aut, word)

    def test_accepts_within_a_budget_the_breadth_first_search_exceeds(self):
        aut = make_automaton(
            "gll", "ab", ["q0"], "q0", ["q0"],
            [("q0", w, "q0") for w in ("abb", "aaa", "ba", "aab", "bb", "ab")],
        )
        rnd = random.Random(40)
        word = "".join(rnd.choice("ab") for _ in range(40))
        accepted, trace = member(aut, word, max_expansions=100)
        assert accepted
        assert_replays(aut, word, trace)
        with pytest.raises(SearchLimitError):
            shortest_trace(aut, word, max_expansions=100)
