"""Marked-tape machine: verdicts, space accounting, engine correspondence."""

import random
from collections import Counter

import pytest

import helpers
from jumpfa import engine, lba
from jumpfa.core import INVALID_SYMBOL, Kind, ValidationError, make_automaton
from jumpfa.engine import (
    Configuration,
    SearchLimitError,
    enabled_deletions,
    iter_words,
    member,
    successors,
)
from jumpfa.lba import MARK, SpaceReport, TapeConfig, lba_run
from jumpfa.oracles import load_bundled
from jumpfa.transforms import reverse_automaton

RIGHT_CORPUS = [name for name, aut in helpers.corpus().items() if aut.kind is Kind.RIGHT]


def projection(config: TapeConfig) -> Configuration:
    kept_left = config.cells[: config.head].replace(MARK, "")
    return Configuration(kept_left, config.state, config.cells[config.head:])


def unbranched_prefix(aut, word) -> set[TapeConfig]:
    """The tapes of the run on ``word`` before its first with two or more
    successors, from the edges of ``helpers.walk_tape_edges``."""
    children = {}
    for parent, _, child in helpers.walk_tape_edges(aut, word):
        children.setdefault(parent, []).append(child)
    tape, prefix = TapeConfig(aut.start, word, 0), set()
    while len(children.get(tape, ())) < 2:
        prefix.add(tape)
        if tape not in children:
            break
        (tape,) = children[tape]
    return prefix


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
        # The reversed run of nonrowj-grl on aab stores 13 symbols and rejects.
        left = reverse_automaton(load_bundled("nonrowj-grl"))
        monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", 12)
        with pytest.raises(SearchLimitError, match="^gave up after storing 12 symbols"):
            lba_run(left, "baa")
        monkeypatch.setattr(engine, "MAX_STORED_SYMBOLS", 13)
        assert lba_run(left, "baa") == (False, SpaceReport(5, 2, 3))

    def test_stuck_machine_terminates(self):
        accepted, report = lba_run(load_bundled("dyck-grl"), "ba")
        assert not accepted
        assert report.steps == 0  # stuck with nothing marked: the tape halts

    def test_each_reachable_configuration_is_expanded_once(self, monkeypatch):
        """Past its first branch, the run expands each tape it reaches once. On
        ``aab``, rules ``a`` and ``aa`` reach ``('q', '##b', 2)`` by two routes,
        and ``b`` empties the tape in the non-final state ``p``, where the run
        halts. The tapes before the first branch are stepped without
        ``_machine_successors``: none on ``aab``, which branches at once, all
        of them on ``ab``, which never branches, and two on ``baaab``, which
        marks ``b`` and then its first ``a`` before it branches."""
        aut = make_automaton(
            "grl", "ab", ["q", "p"], "q", ["q"],
            [("q", "a", "q"), ("q", "aa", "q"), ("q", "b", "p"), ("p", "a", "q")],
        )
        words = ["aab", "aaab", "ab", "b", "baab", "abab", "baaab"]
        unexpanded = {word: unbranched_prefix(aut, word) for word in words}
        reachable = {
            word: {TapeConfig(aut.start, word, 0)}
            | {child for _, _, child in helpers.walk_tape_edges(aut, word)}
            for word in words
        }
        assert {TapeConfig("q", "##b", 2), TapeConfig("p", "", 0)} <= reachable["aab"]
        assert unexpanded["aab"] == set()
        assert unexpanded["ab"] == reachable["ab"]
        assert unexpanded["baaab"] == {TapeConfig("q", "baaab", 0), TapeConfig("p", "#aaab", 1)}
        machine_successors = lba._machine_successors
        expanded = Counter()

        def counting(rules_from, config):
            expanded[config] += 1
            return machine_successors(rules_from, config)

        monkeypatch.setattr(lba, "_machine_successors", counting)
        for word in words:
            expanded.clear()
            assert not lba_run(aut, word)[0]
            assert expanded == Counter(reachable[word] - unexpanded[word]), word

    def test_long_balanced_word_report(self):
        """The reports were measured with a per-cell compaction, independent of
        this one. The run never branches, so it stores no tape: its peak stays
        within twice that of the engine's search on the same word."""
        aut = load_bundled("dyck-grl")
        word = "a" * 2000 + "b" * 2000
        assert lba_run(aut, word) == (True, SpaceReport(4002, 2000, 3999))
        word = "a" * 4000 + "b" * 4000
        result, peak = helpers.peak_bytes(lambda: lba_run(aut, word))
        assert result == (True, SpaceReport(8002, 4000, 7999))
        (accepted, _), member_peak = helpers.peak_bytes(lambda: member(aut, word))
        assert accepted
        assert peak <= 2 * member_peak, (peak, member_peak)

    def test_stuck_unmarked_tape_has_no_move(self):
        rules_from = load_bundled("dyck-grl").rules_from
        assert lba._machine_successors(rules_from, TapeConfig("q0", "ba", 0)) == []


class TestTapeInvariants:
    def test_mark_is_no_input_symbol(self):
        with pytest.raises(ValidationError) as err:
            make_automaton("grl", "a" + MARK, ["q"], "q", ["q"], [("q", "a", "q")])
        assert {v.code for v in err.value.violations} == {INVALID_SYMBOL}

    @pytest.mark.parametrize("name", RIGHT_CORPUS)
    def test_cells_from_head_onward_are_unmarked(self, name):
        aut = load_bundled(name)
        for word in iter_words(aut.alphabet, 5):
            for parent, _, child in helpers.walk_tape_edges(aut, word):
                for config in (parent, child):
                    assert MARK not in config.cells[config.head:], (word, config)
                    assert (MARK in config.cells) == (config.head > 0), (word, config)

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
                    continue  # compaction of a tape marked all the way to the head
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
        assert helpers.lba_equivalence(load_bundled("bmabbn-grl"), 6) == []
        assert helpers.lba_equivalence(load_bundled("nonrowj-grl"), 6) == []

    def test_runs_as_the_per_macro_step_reference(self):
        for name, aut in helpers.corpus().items():
            for word in iter_words(aut.alphabet, 7):
                expected = helpers.lba_run_by_macro_steps(aut, word)
                assert lba_run(aut, word) == expected, (name, word)
        k = 2000
        for name in ("dyck-grl", "dyck-gll"):
            aut = load_bundled(name)
            for word in ("a" * k + "b" * k, "ab" * k, "a" * k + "b" * (k - 1) + "a"):
                assert lba_run(aut, word) == helpers.lba_run_by_macro_steps(aut, word), name

    def test_random_machines_smoke(self):
        rnd = random.Random(20240817)
        for _ in range(10):
            aut = helpers.random_automaton(rnd, kind=Kind.RIGHT)
            assert helpers.lba_equivalence(aut, 5) == []

    def test_corrupted_machine_diverges_from_engine(self, monkeypatch):
        # A machine that refuses to compact a stuck tape with marked cells
        # loses every run that needs a wrap-around past its first branch:
        # nonrowj-grl branches on its first a, by rules a and aa, and aabbab
        # needs no wrap-around.
        aut = load_bundled("nonrowj-grl")
        words = ["aabb", "aaabbb", "aabbab"]
        assert [lba_run(aut, w) for w in words] == [
            (True, SpaceReport(6, 2, 5)),
            (True, SpaceReport(8, 3, 8)),
            (True, SpaceReport(8, 2, 6)),
        ]
        machine_successors = lba._machine_successors

        def never_compact_when_stuck(rules_from, config):
            ahead = config.cells[config.head:]
            if not enabled_deletions(Kind.RIGHT, rules_from[config.state], ahead):
                return []
            return machine_successors(rules_from, config)

        monkeypatch.setattr(lba, "_machine_successors", never_compact_when_stuck)
        assert [lba_run(aut, w) for w in words] == [
            (False, SpaceReport(6, 0, 2)),
            (False, SpaceReport(8, 0, 2)),
            (True, SpaceReport(8, 2, 6)),
        ]
