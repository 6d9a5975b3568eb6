"""Marked-tape machine: verdicts, space accounting, engine correspondence."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings

import helpers
from jumpfa import engine, lba
from jumpfa.core import Kind, make_automaton
from jumpfa.engine import (
    Configuration,
    SearchLimitError,
    enabled_deletions,
    iter_words,
    member,
    successors,
)
from jumpfa.lba import SpaceReport, TapeConfig, _compact, lba_equivalence, lba_run
from jumpfa.oracles import load_bundled

RIGHT_CORPUS = [name for name, aut in helpers.corpus().items() if aut.kind is Kind.RIGHT]


def projection(config: TapeConfig) -> Configuration:
    kept_left = helpers.compact_per_cell(config.cells[: config.head], config.marks)
    return Configuration(kept_left, config.state, config.cells[config.head:])


class TestRuns:
    def test_balanced_word_uses_whole_tape(self):
        accepted, report = lba_run(load_bundled("dyck-grl"), "aabb")
        assert accepted
        assert report.max_cells_used == 6

    def test_a_loop_bb_machine(self):
        assert lba_run(load_bundled("exrl-grl"), "bb")[0]

    def test_empty_word_accepted_iff_start_final(self):
        accepted, report = lba_run(load_bundled("dyck-grl"), "")
        assert accepted and report.compactions == 0
        accepted, report = lba_run(load_bundled("bmabbn-grl"), "")
        assert not accepted and report.compactions == 0

    def test_left_linear_machine_runs_as_its_reversal(self, monkeypatch):
        left = load_bundled("dyck-gll")
        assert lba_run(left, "aabb") == lba_run(load_bundled("dyck-grl"), "aabb")
        monkeypatch.setattr(engine, "MAX_EXPANSIONS", 1)
        with pytest.raises(SearchLimitError):
            lba_run(left, "aabb")

    def test_stuck_machine_terminates(self):
        accepted, report = lba_run(load_bundled("dyck-grl"), "ba")
        assert not accepted
        assert report.steps == 0  # idle compaction is a fixed point, branch is cut

    def test_each_reachable_configuration_is_expanded_once(self, monkeypatch):
        """On ``aab``, rules ``a`` and ``aa`` reach ``('q', 'aab', 0b11, 2)`` by
        two routes, and ``b`` empties the tape in the non-final state ``p``,
        whose idle compaction returns its own configuration."""
        aut = make_automaton(
            "grl", "ab", ["q", "p"], "q", ["q"],
            [("q", "a", "q"), ("q", "aa", "q"), ("q", "b", "p")],
        )
        words = ["aab", "aaab", "ab", "b", "ba", "abab"]
        reachable = {
            word: {parent for parent, _, _ in helpers.walk_tape_edges(aut, word)}
            for word in words
        }
        assert {TapeConfig("q", "aab", 0b11, 2), TapeConfig("p", "", 0, 0)} <= reachable["aab"]
        machine_successors = lba._machine_successors
        expanded = Counter()

        def counting(rules_from, config):
            expanded[config] += 1
            return machine_successors(rules_from, config)

        monkeypatch.setattr(lba, "_machine_successors", counting)
        for word in words:
            expanded.clear()
            assert not lba_run(aut, word)[0]
            assert expanded == Counter(reachable[word]), word

    def test_long_balanced_word_report(self):
        """Values measured with the per-cell compaction; 2000 compactions."""
        word = "a" * 2000 + "b" * 2000
        assert lba_run(load_bundled("dyck-grl"), word) == (True, SpaceReport(4002, 2000, 3999))


class TestTapeInvariants:
    def test_compaction_keeps_unmarked_cells_in_order(self):
        assert _compact("abcd", 0b0110) == "ad"
        assert _compact("abcd", 0) == "abcd"
        assert _compact("ab", 0b11) == ""

    @settings(max_examples=300, deadline=None)
    @given(helpers.marked_tapes())
    @example(("", 0))
    @example(("abc", 0))
    @example(("abc", 0b111))
    @example(("abc", 0b100))
    @example(("abc", 0b001))
    @example(("abcdefgh", 0b10101010))
    @example(("ab" * 500, int("01" * 500, 2)))
    def test_compaction_equals_per_cell_reference(self, tape):
        cells, marks = tape
        assert marks < 1 << len(cells)
        assert _compact(cells, marks) == helpers.compact_per_cell(cells, marks)

    @pytest.mark.parametrize("name", RIGHT_CORPUS)
    def test_cells_from_head_onward_are_unmarked(self, name):
        aut = load_bundled(name)
        for word in iter_words(aut.alphabet, 5):
            for parent, _, child in helpers.walk_tape_edges(aut, word):
                for config in (parent, child):
                    assert config.marks >> config.head == 0, (word, config)

    @pytest.mark.parametrize("name", RIGHT_CORPUS)
    def test_space_bound(self, name):
        aut = load_bundled(name)
        for word in iter_words(aut.alphabet, 5):
            _, report = lba_run(aut, word)
            assert report.max_cells_used <= len(word) + 2
            for _, _, child in helpers.walk_tape_edges(aut, word):
                assert len(child.cells) <= len(word)

    @pytest.mark.parametrize("name", RIGHT_CORPUS)
    def test_machine_steps_project_onto_engine_steps(self, name):
        """Each macro-step is one engine move, fused with the forced
        wrap-around when the consumed word touched the right marker."""
        aut = load_bundled(name)
        for word in iter_words(aut.alphabet, 4):
            for parent, compacted, child in helpers.walk_tape_edges(aut, word):
                before, after = projection(parent), projection(child)
                if after == before:
                    continue  # mark bookkeeping only, e.g. idle compaction shapes
                one_step = [nxt for _, nxt in successors(aut, before)]
                if after in one_step:
                    continue
                fused = [
                    far
                    for _, mid in successors(aut, before)
                    for _, far in successors(aut, mid)
                ]
                assert compacted and after in fused, (word, before, after)


class TestEquivalence:
    def test_bounded_equivalence_smoke(self):
        assert lba_equivalence(load_bundled("bmabbn-grl"), 6) == []
        assert lba_equivalence(load_bundled("nonrowj-grl"), 6) == []

    def test_random_machines_smoke(self):
        rnd = random.Random(20240817)
        for _ in range(10):
            aut = helpers.random_automaton(rnd, kind=Kind.RIGHT)
            assert lba_equivalence(aut, 5) == []

    def test_corrupted_machine_diverges_from_engine(self, monkeypatch):
        # A machine that cannot compact when stuck loses every run that needs
        # a wrap-around.
        machine_successors = lba._machine_successors

        def never_compact_when_stuck(rules_from, config):
            ahead = config.cells[config.head:]
            if not enabled_deletions(Kind.RIGHT, rules_from.get(config.state, ()), ahead):
                return []
            return machine_successors(rules_from, config)

        monkeypatch.setattr(lba, "_machine_successors", never_compact_when_stuck)
        aut = load_bundled("dyck-grl")
        broken = [w for w in iter_words(aut.alphabet, 6) if lba_run(aut, w)[0] != member(aut, w)[0]]
        assert "aabb" in broken
