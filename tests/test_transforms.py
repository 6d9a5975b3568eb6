"""Reversal construction, one-symbol reference simulator, comparisons."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from jumpfa.core import Kind, make_automaton
from jumpfa.engine import enumerate_language, iter_words
from jumpfa.oracles import load_bundled, oracle_eval
from jumpfa.transforms import (
    AlphabetMismatchError,
    NotUnitRuleError,
    OneWayConfig,
    is_unit_rule,
    language_difference,
    one_way_reference_member,
    one_way_reference_trace,
    reverse_automaton,
)


class TestReverse:
    def test_flips_kind_and_reverses_words(self):
        rev = reverse_automaton(load_bundled("dyck-gll"))
        assert rev.kind is Kind.RIGHT
        assert [r.word for r in rev.rules] == ["ba"]

    def test_involution(self):
        for name, aut in helpers.corpus().items():
            assert reverse_automaton(reverse_automaton(aut)) == aut, name

    def test_reversed_dyck_accepts_mirrored_words(self):
        rev = reverse_automaton(load_bundled("dyck-gll"))
        expected = sorted(
            (w[::-1] for w in iter_words("ab", 10) if oracle_eval("dyck", w)),
            key=lambda w: (len(w), w),
        )
        assert enumerate_language(rev, 10) == expected

    def test_reversed_a_loop_bb_machine(self):
        rev = reverse_automaton(load_bundled("exrl-grl"))
        assert rev.kind is Kind.LEFT
        expected = sorted(
            (w[::-1] for w in iter_words("ab", 6) if oracle_eval("exrl_grl", w)),
            key=lambda w: (len(w), w),
        )
        assert enumerate_language(rev, 6) == expected

    def test_output_is_validated(self):
        for aut in helpers.corpus().values():
            rev = reverse_automaton(aut)
            assert make_automaton(
                rev.kind, rev.alphabet, rev.states, rev.start, rev.finals, rev.rules
            ) == rev

    # Beyond the enumeration: reversal, on up to four states and six rules.
    @settings(max_examples=120, deadline=None)
    @given(helpers.automata(), st.text(alphabet="ab", max_size=6))
    def test_acceptance_symmetry_property(self, aut, word):
        assert helpers.accepts(aut, word) == helpers.accepts(reverse_automaton(aut), word[::-1])


class TestUnitRule:
    def test_examples(self):
        assert is_unit_rule(load_bundled("example1-rowj"))
        assert not is_unit_rule(load_bundled("dyck-grl"))

    def test_vacuous_on_empty_rule_set(self):
        assert is_unit_rule(make_automaton("grl", "a", ["q0"], "q0"))


class TestOneWayReference:
    def test_worked_derivation(self):
        trail = one_way_reference_trace(load_bundled("example1-rowj"), "abbaa")
        assert trail == [
            OneWayConfig("q0", "abbaa"),
            OneWayConfig("q2", "bbaa"),
            OneWayConfig("q3", "abb"),
            OneWayConfig("q2", "ba"),
            OneWayConfig("q3", "b"),
            OneWayConfig("q2", ""),
        ]
        assert one_way_reference_member(load_bundled("example1-rowj"), "abbaa")

    def test_words_starting_with_b_are_trapped(self):
        assert not one_way_reference_member(load_bundled("example1-rowj"), "babaa")

    def test_requires_unit_rules(self):
        with pytest.raises(NotUnitRuleError):
            one_way_reference_member(load_bundled("dyck-grl"), "ab")

    @pytest.mark.parametrize("name", ["example1-rowj", "astarbstar-dfa", "c-singleton"])
    def test_agrees_with_engine_on_right_unit_machines(self, name):
        aut = load_bundled(name)
        for w in iter_words(aut.alphabet, 10):
            assert one_way_reference_member(aut, w) == helpers.accepts(aut, w), (name, w)

    def test_agrees_with_engine_on_left_unit_machine(self):
        aut = reverse_automaton(load_bundled("example1-rowj"))
        assert aut.kind is Kind.LEFT
        for w in iter_words(aut.alphabet, 10):
            assert one_way_reference_member(aut, w) == helpers.accepts(aut, w), w

    def test_agrees_with_engine_on_every_two_state_unit_machine(self):
        # A state that reads both letters after a jump makes the verdict
        # depend on the rotation: deleting without rotating the skipped text
        # changes it (on aabb with q0 -b-> q1, q1 -a,b-> q0, q0 final).
        machines = list(helpers.unit_automata())
        assert len(machines) == 486
        words = list(iter_words("ab", 5))
        for aut in machines:
            for word in words:
                where = (aut.kind, aut.finals, aut.rules, word)
                expected = helpers.accepts(aut, word)
                assert one_way_reference_member(aut, word) == expected, where
                # one symbol a step, which bounds the trail by len(word) + 1
                lengths = [len(c.remaining) for c in one_way_reference_trace(aut, word)]
                assert lengths == list(range(len(word), len(word) - len(lengths), -1)), where


class TestLanguageDifference:
    def test_double_reversal_is_equivalent(self):
        aut = load_bundled("nonrowj-grl")
        assert language_difference(aut, reverse_automaton(reverse_automaton(aut)), 8) == []

    def test_both_dyck_machines_agree(self):
        assert language_difference(load_bundled("dyck-gll"), load_bundled("dyck-grl"), 8) == []

    def test_dyck_vs_astar_bstar(self):
        diffs = language_difference(load_bundled("dyck-grl"), load_bundled("astarbstar-dfa"), 4)
        assert ("abab", True, False) in diffs
        assert ("aab", False, True) in diffs
        assert ("b", False, True) in diffs

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            language_difference(load_bundled("dyck-grl"), load_bundled("dc-gll"), 3)
