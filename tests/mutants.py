"""Mutation check: each mutant is one exact edit of a file of the package,
and at least one of its killer tests must fail on it.

Every entry is ``(file, old text, new text, killer test ids)``, with a name
for the report. The runner copies ``src/`` into a temporary directory,
replaces the old text, which must occur exactly once in the file, and runs
the killers against the copy with ``pytest -x -q --hypothesis-profile=ci``.
A mutant is killed when pytest reports a failing test. It survives when the
killers pass, and it is stale when its old text does not occur exactly once;
a killer id that pytest cannot run, or killers still running after
``TIMEOUT_S`` seconds, is an error. The runner exits 1 unless every mutant
is killed. Each killer draws nothing at random: no Hypothesis strategy and
no ``random``, so a kill does not depend on the draws.

Standard library only; the killers need ``pytest`` and ``hypothesis``. Run
it from any directory::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ENGINE, LBA = "tests/test_engine.py", "tests/test_lba.py"
SMALL_SCOPE = f"{ENGINE}::TestSmallScope::test_every_search_decides_as_the_naive_search"
CORPUS_EXPANSIONS = f"{ENGINE}::TestDepthFirstMember::test_agrees_with_shortest_trace_on_the_corpus"
LOOKUP = f"{ENGINE}::TestVerdictPath::test_a_start_that_reads_every_symbol_moves_by_one_lookup"
MACRO_STEPS = f"{LBA}::TestEquivalence::test_runs_as_the_per_macro_step_reference"
UNIT_STEP = f"{ENGINE}::TestSuccessors::test_unit_step_equals_the_general_rule"
REPLAY = f"{ENGINE}::TestMember::test_trace_replays_as_valid_run"
CRITERION_02 = "tests/test_acceptance.py::test_criterion_02_a_loop_bb_machine_both_kinds"
LEFT_TRACE = "tests/test_cli.py::TestTrace::test_left_linear_trace"
LEFT_REVERSAL = f"{LBA}::TestRuns::test_left_linear_machine_runs_as_its_reversal"
UNIT_MACHINES = "tests/test_transforms.py::TestOneWayReference::test_agrees_with_engine_on_every_two_state_unit_machine"
# A mutant that makes its killers hang is reported, not waited for. The slowest
# kill takes under 3 s on a 2-vCPU VM, and a hang must be named well inside
# the 5 minutes CI gives the whole run.
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    file: str  # under src/jumpfa
    old: str
    new: str
    killers: tuple[str, ...]


MUTANTS = [
    # The consume rule (engine.enabled_deletions) and the naive step it is checked against.
    Mutant(
        "enabled_deletions drops the grl filter pass", "engine.py",
        "        if len(hits) < 2:\n"
        "            return hits\n"
        "        return [hit for hit in hits if hit[1] < bound]\n",
        "        return hits\n",
        (f"{ENGINE}::TestConsume::test_gap_blocked_by_other_readable_word", CRITERION_02),
    ),
    Mutant(
        "enabled_deletions drops the gll filter pass", "engine.py",
        "    return [hit for hit in hits if hit[1] + len(hit[0].word) > bound]\n",
        "    return hits\n",
        ("tests/test_transforms.py::TestReverse::test_reversed_a_loop_bb_machine", CRITERION_02),
    ),
    Mutant(
        "enabled_deletions keeps a gll hit that ends at the bound", "engine.py",
        "hit[1] + len(hit[0].word) > bound]",
        "hit[1] + len(hit[0].word) >= bound]",
        ("tests/test_transforms.py::TestReverse::test_reversed_a_loop_bb_machine", CRITERION_02),
    ),
    Mutant(
        "enabled_deletions reads Kind.RIGHT", "engine.py",
        "    hits: list[tuple[Rule, int]] = []\n"
        "    if kind is _RIGHT:\n",
        "    hits: list[tuple[Rule, int]] = []\n"
        "    if kind is Kind.RIGHT:\n",
        (f"{ENGINE}::TestSuccessors::test_no_step_reads_a_kind_member",),
    ),
    Mutant(
        "naive_consume_successors checks the grl gap against one word", "engine.py",
        "                if not any(w in gap for w in words) and not straddle:\n"
        "                    after = Configuration(config.left + gap, rule.dst, rest)\n",
        "                if not any(w in gap for w in words[:1]) and not straddle:\n"
        "                    after = Configuration(config.left + gap, rule.dst, rest)\n",
        (UNIT_STEP, SMALL_SCOPE),
    ),
    # The shapes of a compiled step (engine._compile_step).
    Mutant(
        "general branches only on three or more deletions", "engine.py",
        "        if len(hits) > 1:\n"
        "            kept = _deletions(",
        "        if len(hits) > 2:\n"
        "            kept = _deletions(",
        (f"{ENGINE}::TestMember::test_branching_machine",
         "tests/test_acceptance.py::test_criterion_04_branching_machine_language"),
    ),
    Mutant(
        "general deletes a lone grl rule word one symbol wide", "engine.py",
        "return rule, (left + right[:pos], rule.dst, right[pos + len(rule.word):])",
        "return rule, (left + right[:pos], rule.dst, right[pos + 1:])",
        (f"{ENGINE}::TestMember::test_canonical_trace_for_a_loop_bb_machine", CRITERION_02),
    ),
    Mutant(
        "general offers the return when its one deletion is not kept", "engine.py",
        "        if not hits:\n"
        "            if grl:\n",
        "        if not hits or hits[0][0].dst not in keep:\n"
        "            if grl:\n",
        (UNIT_STEP, SMALL_SCOPE),
    ),
    # Wrapped to the wrong side, the text wraps again on every step: each search
    # on a word that reaches such a return runs forever, so one killer only.
    Mutant(
        "general wraps the grl return to the wrong side", "engine.py",
        "            if grl:\n"
        "                return (None, (\"\", state, left + right)) if left else ()\n",
        "            if grl:\n"
        "                return (None, (left + right, state, \"\")) if left else ()\n",
        (UNIT_STEP,),
    ),
    Mutant(
        "one_rule_grl offers the return when its deletion is not kept", "engine.py",
        "            pos = right.find(word)\n"
        "            if pos < 0:\n",
        "            pos = right.find(word)\n"
        "            if pos < 0 or not kept:\n",
        (UNIT_STEP,),
    ),
    Mutant(
        "one_symbol_grl rejects a foreign symbol", "engine.py",
        "            return rule if rule is not None else general(left, right)\n"
        "        return (None, (\"\", state, left + right)) if left else ()\n",
        "            return rule if rule is not None else ()\n"
        "        return (None, (\"\", state, left + right)) if left else ()\n",
        (UNIT_STEP,),
    ),
    Mutant(
        "_deletions lists grl branches in reverse rule order", "engine.py",
        "                for rule, pos in hits if rule.dst in keep]\n"
        "    # Mirror",
        "                for rule, pos in hits[::-1] if rule.dst in keep]\n"
        "    # Mirror",
        (f"{ENGINE}::TestConsume::test_two_rules_can_fire_at_the_same_spot",
         "tests/test_acceptance.py::test_criterion_07_reversal_duality_and_bisimulation"),
    ),
    # More of the step shapes: a dead rule's (), a foreign symbol, and keep.
    Mutant(
        "one_symbol_grl offers the return at a dead rule", "engine.py",
        "            return rule, (left + right[: len(right) - len(rest)], rule.dst, rest[1:])\n"
        "        if rest:",
        "            return rule, (left + right[: len(right) - len(rest)], rule.dst, rest[1:])\n"
        "        if rest and rule is None:",
        (UNIT_STEP,),
    ),
    Mutant(
        "one_symbol_gll offers the return at a dead rule", "engine.py",
        "            return rule, (rest[:-1], rule.dst, left[len(rest):] + right)\n"
        "        if rest:",
        "            return rule, (rest[:-1], rule.dst, left[len(rest):] + right)\n"
        "        if rest and rule is None:",
        (UNIT_STEP,),
    ),
    Mutant(
        "one_symbol_grl reads a foreign symbol as nothing readable", "engine.py",
        "            return rule, (left + right[: len(right) - len(rest)], rule.dst, rest[1:])\n"
        "        if rest:",
        "            return rule, (left + right[: len(right) - len(rest)], rule.dst, rest[1:])\n"
        "        if rest and rule is not None:",
        (UNIT_STEP,),
    ),
    Mutant(
        "one_symbol_gll reads a foreign symbol as nothing readable", "engine.py",
        "            return rule, (rest[:-1], rule.dst, left[len(rest):] + right)\n"
        "        if rest:",
        "            return rule, (rest[:-1], rule.dst, left[len(rest):] + right)\n"
        "        if rest and rule is not None:",
        (UNIT_STEP,),
    ),
    Mutant(
        "one_symbol_gll deletes two symbols", "engine.py",
        "return rule, (rest[:-1], rule.dst, left[len(rest):] + right)",
        "return rule, (rest[:-2], rule.dst, left[len(rest):] + right)",
        (UNIT_STEP,),
    ),
    Mutant(
        "the one-rule shape ignores keep", "engine.py",
        "rule.word, rule.dst, len(rule.word), rule.dst in keep",
        "rule.word, rule.dst, len(rule.word), True",
        (UNIT_STEP,),
    ),
    # The replay and printing of a trace (engine.Trace.configs, format_trace).
    Mutant(
        "Trace.configs drops the state check", "engine.py",
        "            elif move.src != state:\n"
        "                raise JumpfaError(f\"move {index}, {move}, does not leave state {state!r}\")\n"
        "            else:\n",
        "            else:\n",
        (f"{ENGINE}::TestMember::"
         "test_replay_refuses_a_move_from_another_state_or_a_return_with_nothing_to_wrap",),
    ),
    Mutant(
        "Trace.configs takes a return for a consume", "engine.py",
        "if not step or step[0] is None:",
        "if not step:",
        (f"{ENGINE}::TestMember::test_replay_refuses_a_move_whose_word_is_not_ahead",),
    ),
    Mutant(
        "format_trace notes a consume as the return", "engine.py",
        "        if move is None:\n"
        "            note = \"return\"",
        "        if move is not None:\n"
        "            note = \"return\"",
        ("tests/test_cli.py::TestTrace::test_trace_annotations", LEFT_TRACE),
    ),
    Mutant(
        "format_trace reads the gll skip at the wrong end", "engine.py",
        "skip = after.right[: len(after.right) - len(before.right)]",
        "skip = after.right[len(before.right):]",
        (LEFT_TRACE,),
    ),
    # The drain of a loop state (engine._compile_drain, _drained).
    Mutant(
        "the drain takes aba as unbordered", "engine.py",
        "word[:k] == word[-k:] for k in range(1, len(word))",
        "word[:k] == word[-k:] for k in range(2, len(word))",
        (f"{ENGINE}::TestLoopStates::test_every_loop_decides_as_the_naive_search",),
    ),
    Mutant(
        "the drain takes every word as unbordered", "engine.py",
        "    grl = grl or not any(word[:k] == word[-k:] for k in range(1, len(word)))\n",
        "    grl = True\n",
        (f"{ENGINE}::TestLoopStates::test_every_loop_decides_as_the_naive_search",),
    ),
    Mutant(
        "the drain checks the left buffer alone for a foreign symbol", "engine.py",
        "if symbol in left or symbol in right:",
        "if symbol in left:",
        (f"{ENGINE}::TestLoopStates::test_a_foreign_symbol_rejects_before_any_pass",),
    ),
    Mutant(
        "the drain checks the right buffer alone for a foreign symbol", "engine.py",
        "if symbol in left or symbol in right:",
        "if symbol in right:",
        (f"{ENGINE}::TestLoopStates::test_a_foreign_symbol_rejects_before_any_pass",),
    ),
    Mutant(
        "the drain checks no foreign symbol", "engine.py",
        "    foreign = [a for a in alphabet if a not in word]\n",
        "    foreign = []\n",
        (f"{ENGINE}::TestLoopStates::test_a_foreign_symbol_rejects_before_any_pass",),
    ),
    Mutant(
        "the drain always rejects", "engine.py",
        "    accept: _Stepped = (None, (\"\", state, \"\"))\n",
        "    accept: _Stepped = ()\n",
        (f"{ENGINE}::TestLoopStates::test_every_loop_decides_as_the_naive_search",),
    ),
    Mutant(
        "_drained deletes by str.replace for gll", "engine.py",
        "        text = text.replace(word, \"\") if grl else \"\".join(text.rsplit(word))\n",
        "        text = text.replace(word, \"\")\n",
        (f"{ENGINE}::TestLoopStates::test_every_drain_decides_as_the_passes",),
    ),
    # The sweeps' verdict path (engine._decider).
    Mutant(
        "the verdict path steps loop states through live_steps", "engine.py",
        "table = {**aut.live_steps, **drains}",
        "table = {**drains, **aut.live_steps}",
        (CORPUS_EXPANSIONS,),
    ),
    Mutant(
        "the verdict path binds the start's step from live_steps", "engine.py",
        "first, rules = table[start], aut.rules_from[start]",
        "first, rules = aut.live_steps[start], aut.rules_from[start]",
        (CORPUS_EXPANSIONS,),
    ),
    Mutant(
        "the verdict path never accepts the empty word", "engine.py",
        "            if not word and start in finals:\n"
        "                return True\n",
        "",
        (SMALL_SCOPE, CORPUS_EXPANSIONS),
    ),
    # A run that ends in a drain then steps on forever; these killers fail first.
    Mutant(
        "the verdict path never accepts after a step", "engine.py",
        "            _, (left, state, right) = step\n"
        "            if not left and not right and state in finals:\n"
        "                return True\n",
        "            _, (left, state, right) = step\n",
        ("tests/test_oracles.py::TestCorpus::test_claims_hold[example1-rowj]",
         "tests/test_oracles.py::TestCorpus::test_claims_hold[astarbstar-dfa]"),
    ),
    Mutant(
        "the verdict frontier names the branch's length in its message", "engine.py",
        "symbols on input of length {len(word)}",
        "symbols on input of length {len(left) + len(right)}",
        (f"{ENGINE}::TestSearchStorage::test_the_give_up_message_names_the_whole_input",),
    ),
    # The sweep's words (engine.iter_words).
    Mutant(
        "iter_words deals the tails from the share's own offset", "engine.py",
        "tails[(share - index * len(tails)) % shares::shares]",
        "tails[share::shares]",
        (f"{ENGINE}::TestEnumerate::test_every_share_equals_the_reference_enumeration",
         f"{ENGINE}::TestEnumerate::test_shares_deal_the_sweep_round_robin_within_each_length"),
    ),
    Mutant(
        "iter_words deals the tails by head index", "engine.py",
        "tails[(share - index * len(tails)) % shares::shares]",
        "tails[(share - index) % shares::shares]",
        (f"{ENGINE}::TestEnumerate::test_every_share_equals_the_reference_enumeration",
         f"{ENGINE}::TestEnumerate::test_shares_deal_the_sweep_round_robin_within_each_length"),
    ),
    # The sweeps' verdict frontier (engine._decider).
    Mutant(
        "verdict frontier steps through live_steps", "engine.py",
        "            step = table[state](left, right)\n"
        "            if step.__class__ is not list:\n",
        "            step = aut.live_steps[state](left, right)\n"
        "            if step.__class__ is not list:\n",
        (f"{ENGINE}::TestVerdictPath::test_decides_a_word_member_gives_up_on", CORPUS_EXPANSIONS),
    ),
    Mutant(
        "verdict frontier drops the visited-set test", "engine.py",
        "                if config in seen:\n"
        "                    continue\n",
        "",
        (f"{ENGINE}::TestSearchStorage::"
         "test_branches_that_reconverge_after_a_single_successor_stretch",),
    ),
    Mutant(
        "verdict frontier takes entries first in, first out", "engine.py",
        "left, state, right = stack.pop()",
        "left, state, right = stack.pop(0)",
        (CORPUS_EXPANSIONS,),
    ),
    Mutant(
        "verdict frontier stops charging the budget", "engine.py",
        "budget -= len(left) + len(right) + 1",
        "budget -= 0",
        (f"{ENGINE}::TestVerdictPath::test_search_limit_guard",
         f"{ENGINE}::TestVerdictPath::test_decides_a_word_member_gives_up_on"),
    ),
    # The start's lookup in engine._decider.
    Mutant(
        "gll looks up the first symbol", "engine.py",
        "heads.get(word[:1] if grl else word[-1:])",
        "heads.get(word[:1])",
        (LOOKUP, SMALL_SCOPE),
    ),
    Mutant(
        "a dead rule's lookup accepts", "engine.py",
        "return rule is None and start in finals",
        "return rule == () or start in finals",
        (LOOKUP,),
    ),
    Mutant(
        "a dead rule's lookup goes on by the start's step", "engine.py",
        "            if not rule:  # a dead rule's (), or None on the empty word\n"
        "                return rule is None and start in finals\n"
        "            left, state, right = (\"\", rule.dst, word[1:]) if grl else (word[:-1], rule.dst, \"\")\n"
        "            if not left and not right and state in finals:\n"
        "                return True\n"
        "            step = table[state](left, right)\n",
        "            if rule is None:\n"
        "                return start in finals\n"
        "            if not rule:\n"
        "                step = first(*((\"\", word) if grl else (word, \"\")))\n"
        "            else:\n"
        "                left, state, right = (\"\", rule.dst, word[1:]) if grl else (word[:-1], rule.dst, \"\")\n"
        "                if not left and not right and state in finals:\n"
        "                    return True\n"
        "                step = table[state](left, right)\n",
        (LOOKUP, CORPUS_EXPANSIONS),
    ),
    Mutant(
        "the empty word always rejects at a lookup start", "engine.py",
        "return rule is None and start in finals",
        "return False",
        (LOOKUP,),
    ),
    Mutant(
        "the empty word always accepts at a lookup start", "engine.py",
        "return rule is None and start in finals",
        "return rule is None",
        (LOOKUP,),
    ),
    Mutant(
        "a start that reads some symbols takes the lookup", "engine.py",
        "{rule.word for rule in rules} == aut.symbols",
        "{rule.word for rule in rules} <= aut.symbols",
        (SMALL_SCOPE, f"{ENGINE}::TestLoopStates::test_every_loop_decides_as_the_naive_search"),
    ),
    Mutant(
        "no acceptance test after the lookup", "engine.py",
        "            left, state, right = (\"\", rule.dst, word[1:]) if grl else (word[:-1], rule.dst, \"\")\n"
        "            if not left and not right and state in finals:\n"
        "                return True\n",
        "            left, state, right = (\"\", rule.dst, word[1:]) if grl else (word[:-1], rule.dst, \"\")\n",
        (SMALL_SCOPE, "tests/test_oracles.py::TestCorpus::test_claims_hold[example1-rowj]"),
    ),
    # The step protocol (engine._compile_step, _deletions, successors, _traced).
    Mutant(
        "general returns a one-element list", "engine.py",
        "return kept if len(kept) > 1 else kept[0] if kept else ()",
        "return kept if kept else ()",
        (UNIT_STEP,),
    ),
    Mutant(
        "_deletions drops the keep filter", "engine.py",
        "right[pos + len(rule.word):]))\n"
        "                for rule, pos in hits if rule.dst in keep]\n",
        "right[pos + len(rule.word):]))\n"
        "                for rule, pos in hits]\n",
        (f"{ENGINE}::TestVerdictPath::test_one_live_deletion_of_two_goes_on_alone",
         UNIT_STEP),
    ),
    Mutant(
        "successors omits the return", "engine.py",
        "    if grl:\n"
        "        return [(None, Configuration(\"\", state, left + right))] if left else []\n"
        "    return [(None, Configuration(left + right, state, \"\"))] if right else []\n",
        "    return []\n",
        (f"{ENGINE}::TestSuccessors::test_return_is_sole_successor_when_present",
         f"{ENGINE}::TestReturn::test_wraps_when_nothing_ahead_is_readable"),
    ),
    Mutant(
        "the traced frontier drops a lone successor", "engine.py",
        "step = [(step[0], Configuration._make(step[1]))] if step else ()",
        "step = ()",
        ("tests/test_acceptance.py::test_criterion_04_branching_machine_language",
         f"{ENGINE}::TestMember::test_search_limit_guard"),
    ),
    # The traced search (engine._traced) and its two callers.
    Mutant(
        "traced frontier drops the visited-set test", "engine.py",
        "            if nxt in seen:\n"
        "                continue\n",
        "",
        (f"{ENGINE}::TestSearchStorage::"
         "test_branches_that_reconverge_after_a_single_successor_stretch",),
    ),
    Mutant(
        "traced frontier stops charging the budget", "engine.py",
        "budget -= len(nxt.left) + len(nxt.right) + 1",
        "budget -= 0",
        (f"{ENGINE}::TestMember::test_search_limit_guard",),
    ),
    Mutant(
        "traced frontier names the branch's length in its message", "engine.py",
        "{len(start.left) + len(start.right)}",
        "{len(nxt.left) + len(nxt.right)}",
        (f"{ENGINE}::TestSearchStorage::test_the_give_up_message_names_the_whole_input",),
    ),
    Mutant(
        "traced path phase links no move", "engine.py",
        "        path = (move, path)\n",
        "",
        (REPLAY,),
    ),
    Mutant(
        "traced frontier drops the accepting move", "engine.py",
        "_moves((move, path))",
        "_moves(path)",
        (REPLAY,),
    ),
    Mutant(
        "traced search runs from a dead start", "engine.py",
        "    if state not in aut.live:\n"
        "        return False, None\n",
        "",
        (f"{ENGINE}::TestMember::test_empty_input_accepted_iff_start_final",
         f"{ENGINE}::TestDeadStatePruning::test_dead_start_rejects_without_building_the_search_tables"),
    ),
    Mutant(
        "shortest_trace searches depth-first", "engine.py",
        "return _traced(aut, initial_config(aut, word), deque.popleft)",
        "return _traced(aut, initial_config(aut, word), deque.pop)",
        (SMALL_SCOPE,),
    ),
    # The marked-tape machine's run up to its first branch (lba.lba_run).
    Mutant(
        "a stuck tape is never compacted", "lba.py",
        "        if not moves and not behind:\n",
        "        if not moves:\n",
        (f"{LBA}::TestRuns::test_balanced_word_uses_whole_tape", MACRO_STEPS),
    ),
    Mutant(
        "a right-marker compaction drops the text before the word", "lba.py",
        "            rest = rest[:pos]\n",
        "            rest = \"\"\n",
        (MACRO_STEPS,),
    ),
    Mutant(
        "one mark too few per consumed word", "lba.py",
        "MARK * (hi - pos)",
        "MARK * (hi - pos - 1)",
        (f"{LBA}::TestRuns::test_each_reachable_configuration_is_expanded_once",),
    ),
    # The marked-tape machine's macro-steps and frontier (lba._machine_successors, lba_run).
    # The reference walks loop forever on an idle compaction, so one killer only.
    Mutant(
        "lba compacts a tape with nothing marked", "lba.py",
        "    if not out and head:\n",
        "    if not out:\n",
        (f"{LBA}::TestRuns::test_stuck_unmarked_tape_has_no_move",),
    ),
    Mutant(
        "lba_run never consults its visited set", "lba.py",
        "            if nxt in visited:\n"
        "                continue\n",
        "",
        (f"{LBA}::TestRuns::test_each_reachable_configuration_is_expanded_once",),
    ),
    Mutant(
        "lba marks with an input symbol", "lba.py",
        "MARK = \"#\"",
        "MARK = \"a\"",
        (f"{LBA}::TestTapeInvariants::test_mark_is_no_input_symbol", LEFT_REVERSAL),
    ),
    Mutant(
        "lba_run follows only the first of two successors", "lba.py",
        "        for nxt in steps:\n",
        "        for nxt in steps[:1]:\n",
        (LEFT_REVERSAL, MACRO_STEPS),
    ),
    # The single-symbol reference run (transforms.one_way_reference_trace).
    Mutant(
        "one_way_reference_trace deletes without rotating", "transforms.py",
        "rest = rest[pos + 1:] + rest[:pos]",
        "rest = rest[:pos] + rest[pos + 1:]",
        ("tests/test_transforms.py::TestOneWayReference::test_worked_derivation", UNIT_MACHINES),
    ),
    Mutant(
        "one_way_reference_trace scans gll from the left", "transforms.py",
        "pos = next((i for i in range(len(rest) - 1, -1, -1) if rest[i] in symbols), None)",
        "pos = next((i for i, ch in enumerate(rest) if ch in symbols), None)",
        ("tests/test_transforms.py::TestOneWayReference::test_agrees_with_engine_on_left_unit_machine",
         UNIT_MACHINES),
    ),
    # The command line (cli.run_cli) and the forked sweep (_forked.forked_sweep).
    Mutant(
        "run_cli keeps an empty word list", "cli.py",
        "    if getattr(args, \"word\", None) == []:\n"
        "        args.word = \"--\"\n",
        "",
        ("tests/test_cli.py::TestMember::test_the_word_double_dash_after_double_dash",
         "tests/test_cli.py::TestMember::test_the_word_double_dash_outside_the_alphabet_is_an_error"),
    ),
    Mutant(
        "forked_sweep opens its pipes outside the fallback", "_forked.py",
        "    try:\n"
        "        for share in range(1, processes):\n"
        "            read, write = os.pipe()\n",
        "    opened = [os.pipe() for _ in range(1, processes)]\n"
        "    try:\n"
        "        for share, (read, write) in zip(range(1, processes), opened):\n",
        (f"{ENGINE}::TestForkedSweep::test_a_fork_that_fails_leaves_the_sweep_to_this_process",),
    ),
    Mutant(
        "forked_sweep reads a missing report as no differences", "_forked.py",
        "rows += marshal.loads(b\"\".join(iter(lambda: os.read(read, 1 << 16), b\"\")))",
        "rows += marshal.loads(b\"\".join(iter(lambda: os.read(read, 1 << 16), b\"\")) or marshal.dumps([]))",
        (f"{ENGINE}::TestForkedSweep::test_a_child_that_dies_leaves_its_share_to_this_process",
         f"{ENGINE}::TestForkedSweep::test_the_earliest_failing_word_raises_here"),
    ),
]


def run(mutant: Mutant) -> str:
    """``killed``, ``survived``, ``stale``, or an error that says what went wrong."""
    text = (ROOT / "src" / "jumpfa" / mutant.file).read_text("utf-8")
    if text.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "jumpfa" / mutant.file).write_text(text.replace(mutant.old, mutant.new), "utf-8")
        # pyproject.toml puts the checkout's src first on sys.path: point it at the copy.
        argv = [
            sys.executable, "-m", "pytest", "-x", "-q", "--hypothesis-profile=ci",
            "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *mutant.killers,
        ]
        env = {**os.environ, "PYTHONPATH": str(src)}
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"error (killers still running after {TIMEOUT_S} s)"
    code = done.returncode
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit code {code})")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    began, failed = time.perf_counter(), 0
    for mutant in chosen:
        took = time.perf_counter()
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{outcome:<9} {time.perf_counter() - took:5.1f} s  {mutant.file}: {mutant.name}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed in {time.perf_counter() - began:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
