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
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from jumpfa import engine, lba
from jumpfa.core import (
    Automaton, JumpfaError, Kind, Rule, SymbolOutsideAlphabetError, make_automaton,
)
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


def stepped_successors(stepped, kept):
    """What a compiled step returned, as ``(move, Configuration)`` pairs,
    given that ``kept`` successors are kept: a list of two or more, or else
    a tuple holding the lone successor or nothing."""
    if kept > 1:
        assert stepped.__class__ is list and all(type(s[1]) is Configuration for s in stepped)
        return stepped
    assert stepped.__class__ is tuple
    return [(stepped[0], Configuration._make(stepped[1]))] if stepped else []


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

    def test_successors_keeps_the_dead_successors(self):
        # cdyck-grl's q0 deletes a or b into the dead q2, which has no rules:
        # successors() builds the successors in every state, the searches
        # step the live states toward the live ones.
        aut = load_bundled("cdyck-grl")
        into_dead = Configuration("", "q0", "bca")
        assert successors(aut, into_dead) == [(Rule("q0", "b", "q2"), ("", "q2", "ca"))]
        assert aut.live_steps["q0"](into_dead.left, into_dead.right) == ()
        assert successors(aut, Configuration("c", "q2", "a")) == [(None, ("", "q2", "ca"))]
        assert "q2" not in aut.live_steps

    # Beyond the enumeration: up to four states, six rules, rule words of length 3.
    @settings(max_examples=200, deadline=None)
    @given(helpers.automata(), st.text(alphabet="ab", max_size=7))
    def test_live_step_keeps_the_live_successors(self, aut, word):
        for config in helpers.walk_configs(aut, word):
            if config.state in aut.live:
                kept = [s for s in successors(aut, config) if s[1].state in aut.live]
                stepped = aut.live_steps[config.state](config.left, config.right)
                assert stepped_successors(stepped, len(kept)) == kept, config

    def test_unit_step_equals_the_general_rule(self):
        # State p with rules entering the kept q or the dropped d, in two
        # complementary destination patterns, so each rule once enters q and
        # once d, and with every rule entering q, so that two deletions can
        # both be kept: every nonempty subset of abc, one symbol per rule, over
        # every buffer up to length 3; and every one or two words of length
        # <= 2 over ab (a/aa, ab/ba, ab/b, ...), over every buffer up to
        # length 4. Each also with a foreign z put anywhere in a word up to
        # length 1 (abc) or 2 (ab), on either side. So every shape of
        # compiled step runs, for both kinds: one rule, rules of one symbol
        # each (the foreign z stopping their strip), rules of every symbol
        # of abc (nothing to strip), and any other. successors() gives the
        # deletions the literal side conditions allow, or else the return;
        # the step returns the kept ones among them as a list of
        # Configurations exactly when there are two or more, and otherwise
        # the lone kept successor as a plain tuple, or (). The naive
        # deletions, which depend only on the scanned buffer, are found once per
        # buffer and checked by a direct call where the other has <= 1 letter.
        symbols = [c for size in (1, 2, 3) for c in combinations("abc", size)]
        short = [c for size in (1, 2) for c in combinations(list(iter_words("ab", 2))[1:], size)]
        families = []
        for letters, length, zlength, sets in (("abc", 3, 1, symbols), ("ab", 4, 2, short)):
            zs = [w[:i] + "z" + w[i:] for w in iter_words(letters, zlength)
                  for i in range(len(w) + 1)]
            buffers = list(iter_words(letters, length)) + zs
            configs = [Configuration(left, "p", right) for left in buffers for right in buffers]
            families.append((letters, configs, sets))
        keep, shapes, branched = {"p", "q"}, set(), 0
        for kind in Kind:
            for letters, configs, sets in families:
                for words, dsts in product(sets, ("qdq", "dqd", "qqq")):
                    rules = [("p", x, dst) for x, dst in zip(words, dsts)]
                    aut = make_automaton(kind, letters, ["p", "q", "d"], "p", ["q"], rules)
                    step = engine._compile_step(kind, "p", aut.rules_from["p"], keep, letters)
                    shapes.add(step.__name__)
                    scanned = {}
                    for c in configs:
                        grl, wrapped = kind is Kind.RIGHT, c.left + c.right
                        text, other = (c.right, c.left) if grl else (c.left, c.right)
                        if text not in scanned:
                            alone = ("", "p", text) if grl else (text, "p", "")
                            scanned[text] = naive_consume_successors(aut, Configuration(*alone))
                        naive = [(rule, Configuration(other + a.left, a.state, a.right) if grl
                                  else Configuration(a.left, a.state, a.right + other))
                                 for rule, a in scanned[text]]
                        if len(other) <= 1:
                            assert naive == naive_consume_successors(aut, c), (kind, rules, c)
                        full = naive
                        if not naive and (c.left if grl else c.right):
                            after = ("", "p", wrapped) if grl else (wrapped, "p", "")
                            full = [(None, Configuration._make(after))]
                        want = [s for s in full if s[1].state in keep]
                        stepped = step(c.left, c.right)
                        ok = successors(aut, c) == full
                        if not ok or stepped_successors(stepped, len(want)) != want:
                            pytest.fail(f"{kind.value} {rules} at {c}: {stepped}, want {want}")
                        branched += stepped.__class__ is list
        assert shapes == {
            "general", "one_rule_grl", "one_rule_gll", "one_symbol_grl", "one_symbol_gll",
            "every_symbol_grl", "every_symbol_gll",
        }
        assert branched > 0

    def test_each_state_compiles_to_the_shape_its_rules_take(self):
        shapes = {
            name: {q: step.__name__ for q, step in aut.live_steps.items()}
            for name, aut in helpers.corpus().items()
        }
        assert shapes["cdyck-grl"] == {"q0": "every_symbol_grl", "q1": "one_rule_grl"}
        assert shapes["dc-gll"] == {"q0": "every_symbol_gll", "q1": "one_rule_gll"}
        assert shapes["example1-rowj"] == {
            "q0": "every_symbol_grl", "q2": "one_rule_grl", "q3": "one_rule_grl"
        }
        # Over abc, example1-rowj's q0 skips the c it cannot read.
        rowj = load_bundled("example1-rowj")
        skipping = make_automaton("grl", "abc", rowj.states, "q0", rowj.finals, rowj.rules)
        assert skipping.live_steps["q0"].__name__ == "one_symbol_grl"
        assert shapes["nonrowj-grl"] == {
            "q0": "general", **{q: "one_rule_grl" for q in ("q1", "q2", "q3", "q4")}
        }
        assert shapes["dyck-gll"] == {"q0": "one_rule_gll"}
        # The searches step the live states.
        for aut in helpers.corpus().values():
            assert set(aut.live_steps) == aut.live
        # The rules of bench/machines/onestate-q0final.jfa.
        onestate = make_automaton(
            "gll", "ab", ["q0"], "q0", ["q0"],
            [("q0", w, "q0") for w in ("abb", "aaa", "ba", "aab", "bb", "ab")],
        )
        assert onestate.live_steps["q0"].__name__ == "general"

    def test_no_step_reads_a_kind_member(self, monkeypatch):
        # A step compares the kind with a module global bound at import, which
        # costs less to read than an Enum member.
        class Unread:
            def __getattr__(self, name):
                raise AssertionError(f"a step read Kind.{name}")

        grl = load_bundled("nonrowj-grl")  # branches on a and aa, and returns
        rowj = load_bundled("example1-rowj")  # q0 reads a or b, every symbol
        # Its rules over abc: q0 skips c.
        rowjc = make_automaton("grl", "abc", rowj.states, "q0", rowj.finals, rowj.rules)
        pairs = ((grl, "aabbab"), (reverse_automaton(grl), "babbaa"),
                 (rowj, "abbaa"), (reverse_automaton(rowj), "aabba"),
                 (rowjc, "cabbca"), (reverse_automaton(rowjc), "acbbac"))
        configs = [
            (aut, config, config.right if aut.kind is Kind.RIGHT else config.left)
            for aut, word in pairs
            for config in sorted(helpers.walk_configs(aut, word))
        ]
        tapes = [tape for tape, _, _ in helpers.walk_tape_edges(grl, "aabbab")]
        # Every shape of compiled step runs, for both kinds.
        assert {aut.live_steps[config.state].__name__ for aut, config, _ in configs} == {
            "general", "one_rule_grl", "one_rule_gll", "one_symbol_grl", "one_symbol_gll",
            "every_symbol_grl", "every_symbol_gll",
        }
        # Each traced search runs from every configuration, stepping every
        # state before it branches through its compiled step alone, and each
        # verdict path, bound before Kind is patched as binding reads the
        # kind, decides every short word with its drains.
        searches = [(aut, take) for aut, _ in pairs for take in (deque.pop, deque.popleft)]
        deciders = [(engine._decider(aut), list(iter_words(aut.alphabet, 6))) for aut, _ in pairs]

        def steps():
            out = []
            for aut, config, text in configs:
                rules = aut.rules_from[config.state]
                out.append(aut.live_steps[config.state](config.left, config.right))
                out.append(successors(aut, config))
                out.append(engine.enabled_deletions(aut.kind, rules, text))
            for tape in tapes:
                out.append(lba._machine_successors(grl.rules_from, tape))
            for aut, take in searches:
                out.extend(
                    engine._traced(aut, config, take) for owner, config, _ in configs if owner is aut
                )
            for decide, words in deciders:
                out.extend(map(decide, words))
            return out

        expected = steps()
        stepped = [aut.live_steps[c.state](c.left, c.right) for aut, c, _ in configs]
        assert any(step.__class__ is list for step in stepped)
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

    # The tails of length k - k // 2 number 1 (c), 2-16 (ab), 3-81 (abc) and
    # 4-256 (abcd): some shares divide them, some do not.
    @pytest.mark.parametrize(
        "alphabet, max_len",
        [("c", 14), ("ab", 8), ("ba", 8), ("abc", 8), ("cab", 8), ("abcd", 7)],
    )
    def test_every_share_equals_the_reference_enumeration(self, alphabet, max_len):
        for shares in range(1, 18):
            for share in range(shares):
                got = list(iter_words(alphabet, max_len, share, shares))
                assert got == list(helpers.sweep_words(alphabet, max_len, share, shares)), (
                    share, shares,
                )

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
    """The bounded sweep as its docstring states it, one word after another,
    over the reference enumeration, so a dealing bug in ``iter_words`` shows
    on one side only."""
    verdicts = ((w, first(w), second(w)) for w in helpers.sweep_words(alphabet, max_len))
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

    # Beyond the enumeration: forked sweeps of machines of up to four states.
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


@st.composite
def _with_a_configuration(draw, words=st.text(alphabet="ab", max_size=6)):
    aut = draw(helpers.automata())
    return aut, Configuration(draw(words), draw(st.sampled_from(aut.states)), draw(words))


class TestNaiveAgreement:
    """The fast successor computation must equal the literal-clause one."""

    # Beyond the enumeration: up to four states, six rules, rule words of length 3.
    @settings(max_examples=300, deadline=None)
    @given(helpers.automata(), st.text(alphabet="ab", max_size=8))
    def test_fast_equals_naive_on_reachable_configs(self, aut, word):
        for config in helpers.walk_configs(aut, word):
            assert helpers.consume_steps(aut, config) == naive_consume_successors(aut, config)

    # Beyond the enumeration: configurations that no run from a word need reach.
    @settings(max_examples=300, deadline=None)
    @given(_with_a_configuration())
    def test_fast_equals_naive_on_arbitrary_configs(self, run):
        aut, config = run
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
    def test_member_agrees_with_naive_search(self):
        # Beyond the enumeration: 100 seeded machines of up to four states,
        # six rules and rule words of length 3, on all words of length <= 6.
        rnd = random.Random(0xD0A1)
        words = list(iter_words("ab", 6))
        for _ in range(100):
            aut = helpers.random_automaton(rnd)
            for word in words:
                assert member(aut, word)[0] == naive_member(aut, word), (aut, word)


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
    shape that random machines rarely take cannot slip through. It is the one
    place that checks the verdict relations over a space of machines; the
    unit-rule properties are checked on every two-state unit-rule machine
    (``helpers.unit_automata``), a superset of its 198."""

    def test_every_search_decides_as_the_naive_search(self):
        machines = list(small_scope_automata())
        assert len(machines) == 1734
        words = list(iter_words("ab", 5))
        assert len(words) == 63
        unit_rule = traced = 0
        for aut in machines:
            decide = engine._decider(aut)
            unit = is_unit_rule(aut)
            unit_rule += unit
            for word in words:
                expected = naive_member(aut, word)
                accepted, trace = member(aut, word)
                shortest_accepted, shortest = shortest_trace(aut, word)
                lba_accepted, report = lba_run(aut, word)
                assert (lba_accepted, report) == helpers.lba_run_by_macro_steps(aut, word)
                verdicts = (
                    accepted,
                    shortest_accepted,
                    decide(word),
                    lba_accepted,
                    one_way_reference_member(aut, word) if unit else expected,
                )
                where = (aut.kind, aut.finals, aut.rules, word)
                assert verdicts == (expected,) * 5, where
                run = (shortest.configs, shortest.moves) if shortest else (None, None)
                assert (accepted, *run) == unpruned_member(aut, word), where
                if accepted:  # the unpruned search's run replays: so does shortest
                    traced += 1
                    assert_replays(aut, word, trace)
                    assert len(shortest.moves) <= len(trace.moves)
        assert unit_rule == 198
        assert traced == 5852

    def test_the_cached_reversal_is_the_validated_one(self):
        for aut in small_scope_automata():
            flipped = Kind.LEFT if aut.kind is Kind.RIGHT else Kind.RIGHT
            rules = [(r.src, r.word[::-1], r.dst) for r in aut.rules]
            assert aut.reversal == make_automaton(
                flipped, aut.alphabet, aut.states, aut.start, aut.finals, rules
            )
            assert aut.reversal is aut.reversal is reverse_automaton(aut)


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


def assert_drains_as_the_passes(words, texts):
    """The compiled drain of every loop word in ``words`` gives
    ``_drained``'s verdict on every text in ``texts``, split at 0 and at the
    middle, for both kinds, over the alphabet ``abc``."""
    for grl in (True, False):
        for word in words:
            drain = engine._compile_drain(grl, "q", word, "abc")
            for text in texts:
                for cut in {0, len(text) // 2}:
                    left, right = text[:cut], text[cut:]
                    accepted = engine._drained(grl, word, left, right)
                    assert drain(left, right) == ((None, ("", "q", "")) if accepted else ()), (
                        grl, word, left, right,
                    )


class TestLoopStates:
    """The verdict path decides a run that reaches a loop state at once, by
    the state's drain: a text that holds a symbol the loop word lacks
    rejects; else it runs whole passes, where ``gll`` passes delete from the
    right, which differs from ``str.replace`` on self-overlapping words
    (``aba`` on ``aababa``), but not on a word with no border, which every
    order of deletions drains alike, so both kinds take ``str.replace``."""

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

    def test_every_drain_decides_as_the_passes(self):
        # Texts over abc, so that symbols the loop word lacks occur.
        texts = list(iter_words("abc", 8))
        assert len(texts) == 9841
        assert_drains_as_the_passes([w for w in iter_words("ab", 3) if w], texts)
        # The case that makes gll passes delete from the right: a drain that
        # took aba for a word with no border would empty it.
        assert engine._compile_drain(False, "q", "aba", "ab")("aababa", "") == ()
        # Every later pass deletes from the right too: q0 deletes bb and leaves
        # aababa ahead of the gll head, which the run cuts down to aab. The
        # passes are this test's reference, so the naive search checks them.
        aut = make_automaton(
            "gll", "ab", ["q0", "q1"], "q0", ["q1"], [("q0", "bb", "q1"), ("q1", "aba", "q1")]
        )
        assert engine._decider(aut)("bbaababa") is naive_member(aut, "bbaababa") is False

    def test_a_foreign_symbol_rejects_before_any_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a pass ran on a text that no move can empty")

        monkeypatch.setattr(engine, "_drained", refuse)
        for grl in (True, False):
            drain = engine._compile_drain(grl, "q", "aba", "abc")
            for left, right in (("abca", "ba"), ("ab", "abac"), ("c", ""), ("", "c")):
                assert drain(left, right) == ()


class TestInvariants:
    # Beyond the enumeration: up to four states, six rules, rule words of length 3.
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

    def test_unit_rule_machines_never_branch(self):
        # Every two-state unit-rule machine, a superset of the enumeration's.
        words = list(iter_words("ab", 5))
        for aut in helpers.unit_automata():
            for word in words:
                for config in helpers.walk_configs(aut, word):
                    assert len(helpers.consume_steps(aut, config)) <= 1, (aut.rules, config)


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


class TestDeadStatePruning:
    def test_member_equals_unpruned_search(self):
        # Beyond the enumeration: the corpus machines, with up to three
        # letters, more states and dead ones, on all words of length <= 7.
        for name, aut in helpers.corpus().items():
            for word in iter_words(aut.alphabet, 7):
                accepted, trace = shortest_trace(aut, word)
                run = (trace.configs, trace.moves) if trace else (None, None)
                assert (accepted, *run) == unpruned_member(aut, word), (name, word)
                assert member(aut, word)[0] == accepted, (name, word)

    def test_a_dead_deletion_blocks_the_return(self):
        # On ``cab`` the head deletes ``a`` into q1 with ``c`` behind and ``b``
        # ahead. There only the deletion of ``b`` into the dead state d is
        # enabled, and it blocks the return that would go on to accept via qf.
        aut = make_automaton(
            "grl", "abc", ["q0", "q1", "qf", "d"], "q0", ["qf"],
            [("q0", "a", "q1"), ("q1", "b", "d"), ("q1", "c", "qf"), ("qf", "b", "qf")],
        )
        assert member(aut, "cab") == shortest_trace(aut, "cab") == (False, None)
        assert unpruned_member(aut, "cab") == (False, None, None)
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

    def test_dead_start_rejects_without_building_the_search_tables(self):
        # The rules of bench/machines/onestate-nofinal.jfa: no final state.
        for search in (member, shortest_trace):
            aut = make_automaton(
                "gll", "ab", ["q0"], "q0", [],
                [("q0", w, "q0") for w in ("abb", "aaa", "ba", "aab", "bb", "ab")],
            )
            assert search(aut, "abba") == (False, None)
            assert "rules_from" not in aut.__dict__ and "live_steps" not in aut.__dict__
            with pytest.raises(SymbolOutsideAlphabetError):
                search(aut, "abc")


def successor_log(search, aut, word):
    """The verdict of ``search(aut, word)`` and the configurations it
    expanded, in call order: each expansion's state, and whether the search
    had branched before it, that is, whether an earlier expansion yielded two
    or more successors. An expansion is a call of a compiled step: the search
    steps each configuration it expands once, through its state's step, which
    returns a list exactly when it yields two or more successors. The search
    runs on a copy of ``aut``, so that its steps are compiled afresh, each
    wrapped to log its calls."""
    log = []
    branched = False
    compile_step = engine._compile_step

    def logged_compile(kind, state, rules, keep, alphabet):
        step = compile_step(kind, state, rules, keep, alphabet)

        def logged_step(left, right):
            nonlocal branched
            log.append((state, branched))
            stepped = step(left, right)
            branched = branched or stepped.__class__ is list
            return stepped

        return logged_step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_compile_step", logged_compile)
        accepted, _ = search(Automaton._make(aut), word)
    return accepted, log


def successor_calls(search, aut, word):
    """The verdict of ``search(aut, word)`` and how many configurations it
    expanded, counted as :func:`successor_log` logs them."""
    accepted, log = successor_log(search, aut, word)
    return accepted, len(log)


def assert_expands_each_live_configuration_once(aut, word, member_calls=None):
    """On a rejected word both searches expand every live reachable
    configuration exactly once, however long they go without branching.
    ``member_calls`` is what :func:`successor_calls` gives for ``member``, if
    the caller has logged that search already."""
    live = {c for c in helpers.walk_configs(aut, word) if c.state in aut.live}
    assert (member_calls or successor_calls(member, aut, word)) == (False, len(live))
    assert successor_calls(shortest_trace, aut, word) == (False, len(live))


def verdict_search(aut, word):
    """The sweeps' verdict path, shaped like the result of ``member``."""
    return engine._decider(aut)(word), None


def reads_every_symbol_at_the_start(aut):
    """Whether the verdict path takes the start's move by one lookup: the
    start is live, no loop state, and its rules read every symbol, one each."""
    words = [rule.word for rule in aut.rules_from[aut.start]]
    return (
        aut.start in aut.live and aut.start not in aut.loops
        and all(len(w) == 1 for w in words) and set(words) >= set(aut.alphabet)
    )


def assert_depth_first_agrees(aut, word):
    accepted, trace = member(aut, word)
    shortest_accepted, shortest = shortest_trace(aut, word)
    assert accepted == shortest_accepted
    # The verdict path decides alike and expands the configurations member
    # expands, save two kinds. A start that reads every symbol moves by one
    # lookup of the first symbol (the last for gll), not by its step, so
    # member's first expansion, the start's, is not made; member makes none
    # only on the empty word at a final start. And it decides a loop state's
    # configuration by its drain, before the search branches and after, so
    # it expands no configuration in a loop state. Member expands such a
    # configuration and all the configurations after it, in the same state,
    # before it takes another, so the two lists are otherwise equal.
    verdict, expanded = successor_log(verdict_search, aut, word)
    member_logged, member_expanded = successor_log(member, aut, word)
    assert verdict == member_logged == accepted
    after_start = member_expanded
    if reads_every_symbol_at_the_start(aut):
        at_start = [] if not word and aut.start in aut.finals else [(aut.start, False)]
        assert member_expanded[:1] == at_start
        after_start = member_expanded[1:]
    assert expanded == [(state, branched) for state, branched in after_start if state not in aut.loops]
    if accepted:
        assert_replays(aut, word, trace)
        assert len(trace.moves) >= len(shortest.moves)
    else:
        assert trace is None
        assert_expands_each_live_configuration_once(aut, word, (member_logged, len(member_expanded)))


class TestDepthFirstMember:
    """``member`` searches depth-first; ``shortest_trace`` is the breadth-first
    reference it must agree with, and the sweeps' verdict path must agree
    with ``member``."""

    # Beyond the enumeration: expansion counts, on up to four states and six rules.
    @settings(max_examples=300, deadline=None)
    @given(helpers.reconverging_runs())
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
        # runs meet again, also on the branch point's own successors. The
        # sweeps' verdict path expands each of them once too.
        aut = make_automaton(
            "grl", "ab", ["p", "r", "q"], "p", ["q"],
            [("p", "b", "r"), ("r", "b", "q"), ("q", "a", "q"), ("q", "aa", "q")],
        )
        for word in ("bbaaaab", "bbaaaaaaab", "bbb"):
            assert_depth_first_agrees(aut, word)
        assert successor_calls(member, aut, "bbaaaaaaab") == (False, 10)
        assert successor_calls(verdict_search, aut, "bbaaaaaaab") == (False, 10)

    def test_the_give_up_message_names_the_whole_input(self, monkeypatch):
        # q0 deletes the b in one one-rule step, then q1 branches on a and
        # aa: the search gives up at a branch whose configuration holds 3
        # symbols, on an input of 4.
        aut = make_automaton(
            "grl", "ab", ["q0", "q1"], "q0", ["q1"],
            [("q0", "b", "q1"), ("q1", "a", "q1"), ("q1", "aa", "q1")],
        )
        assert aut.live_steps["q0"].__name__ == "one_rule_grl"
        monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", 0)
        message = "^gave up after storing 0 symbols on input of length 4$"
        for search in (member, shortest_trace, verdict_search):
            with pytest.raises(SearchLimitError, match=message):
                search(aut, "baab")

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
    """The sweeps decide each word by a search of their own that reads the
    verdict only; ``assert_depth_first_agrees`` checks it against
    ``member``."""

    def test_one_live_deletion_of_two_goes_on_alone(self):
        # q0 deletes a into q1 or aa into the dead state d: only the first is
        # kept, so the run goes on without a frontier, and q1's drain ends it.
        aut = make_automaton(
            "grl", "ab", ["q0", "q1", "d"], "q0", ["q1"],
            [("q0", "a", "q1"), ("q0", "aa", "d"), ("q1", "ab", "q1")],
        )
        for word in iter_words("ab", 6):
            assert_depth_first_agrees(aut, word)

    def test_search_limit_guard(self, monkeypatch):
        assert_stores_ten_symbols_rejecting_aab(monkeypatch, verdict_search)

    def test_decides_a_word_member_gives_up_on(self, monkeypatch):
        # nonrowj-grl branches on aaaa at q0 into ("", q1, "aaa") and
        # ("", q4, "aa"), 7 symbols stored, and takes the q4 one first. Member
        # deletes one a there and stores ("", q4, "a"), 2 more, past a budget
        # of 8; q4's drain deletes both and stores only ("", q4, ""), 1 more.
        aut = load_bundled("nonrowj-grl")
        decide = engine._decider(aut)
        message = "^gave up after storing {} symbols on input of length 4$"
        monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", 8)
        with pytest.raises(SearchLimitError, match=message.format(8)):
            member(aut, "aaaa")
        assert decide("aaaa") is True
        monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", 7)
        with pytest.raises(SearchLimitError, match=message.format(7)):
            decide("aaaa")

    def test_gives_up_only_where_member_gives_up(self, monkeypatch):
        # The verdict path stores a subset of what member stores, so under
        # every budget it gives up only where member gives up, and otherwise
        # decides as member does, also on some words member gives up on.
        def outcome(search, word):
            try:
                return search(word)
            except SearchLimitError:
                return "gave up"

        checks = member_alone = 0
        default = engine.MAX_STORED_SYMBOLS
        for aut in helpers.corpus().values():
            decide = engine._decider(aut)
            for word in iter_words(aut.alphabet, 6 if len(aut.alphabet) <= 2 else 5):
                monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", default)
                accepted = member(aut, word)[0]
                for budget in range(21):
                    monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", budget)
                    expected = outcome(lambda w: member(aut, w)[0], word)
                    verdict = outcome(decide, word)
                    assert expected in (accepted, "gave up")
                    assert verdict in (expected, accepted), (aut.rules, word, budget)
                    checks += 1
                    member_alone += verdict != expected
        assert (checks, member_alone) == (39438, 38)

    def test_a_start_that_reads_every_symbol_moves_by_one_lookup(self):
        # q0 reads a, b and c, one rule each: the first symbol (the last for
        # gll) picks the move, and a or b leads into the dead state q2, so
        # the word rejects with no step called; c leads into q1, a loop state
        # on ab, whose drain decides the rest with no step called either.
        dc, cdyck = load_bundled("dc-gll"), load_bundled("cdyck-grl")
        assert reads_every_symbol_at_the_start(dc) and reads_every_symbol_at_the_start(cdyck)
        assert successor_log(verdict_search, dc, "abca") == (False, [])
        assert successor_log(verdict_search, cdyck, "abc") == (False, [])
        assert successor_log(verdict_search, dc, "abc") == (True, [])
        assert successor_log(verdict_search, cdyck, "cab") == (True, [])
        # The empty word makes no step either: it is accepted iff q0 is final.
        assert successor_log(verdict_search, dc, "") == (False, [])
        assert successor_log(verdict_search, load_bundled("astarbstar-dfa"), "") == (True, [])

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
