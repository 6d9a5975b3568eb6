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
# A mutant that makes its killers hang is reported, not waited for.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # under src/jumpfa
    old: str
    new: str
    killers: tuple[str, ...]


MUTANTS = [
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
    # The step protocol (engine._compile_step, _deletions, successors, _frontier).
    Mutant(
        "general returns a one-element list", "engine.py",
        "return kept if len(kept) > 1 else kept[0] if kept else ()",
        "return kept if kept else ()",
        (f"{ENGINE}::TestSuccessors::test_unit_step_equals_the_general_rule",),
    ),
    Mutant(
        "_deletions drops the keep filter", "engine.py",
        "right[pos + len(rule.word):]))\n"
        "                for rule, pos in hits if rule.dst in keep]\n",
        "right[pos + len(rule.word):]))\n"
        "                for rule, pos in hits]\n",
        (f"{ENGINE}::TestVerdictPath::test_one_live_deletion_of_two_goes_on_alone",
         f"{ENGINE}::TestSuccessors::test_unit_step_equals_the_general_rule"),
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
        "steps = [(steps[0], Configuration._make(steps[1]))] if steps else ()",
        "steps = ()",
        ("tests/test_acceptance.py::test_criterion_04_branching_machine_language",
         f"{ENGINE}::TestMember::test_search_limit_guard"),
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
