"""The benchmark's own tests, at a tiny size.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import timing  # noqa: E402
import workloads as wl  # noqa: E402

jumpfa = wl.import_jumpfa()
import jumpfa.cli  # noqa: E402,F401

RIGHT = wl.member("dyck-grl", "aabb", True)
WRONG = wl.member("dyck-grl", "abab", False)  # abab is balanced: the expectation is wrong


def tiny_runner(cmds: list[wl.Command]) -> run.Runner:
    w = wl.Workload("tiny", "test", (wl.CORPUS / "dyck-grl.jfa",), 50, lambda rng: list(cmds))
    return run.Runner(jumpfa, w, random.Random(0))


def test_one_wrong_expected_verdict_raises_error_rate_above_zero():
    good = tiny_runner([RIGHT, RIGHT])
    good.timed(0, trace=False)
    assert good.failures == [] and good.attempted == 2 * good.rounds

    bad = tiny_runner([RIGHT, WRONG])
    bad.timed(0, trace=False)
    metrics, _ = run.end_to_end(bad, (0.02, 0.02))
    out = run.result(run.load_spec(), False, metrics, not bad.failures, bad.attempted, len(bad.failures))
    assert out["failed"] / out["attempted"] == 0.5
    assert not out["correct"]
    assert all(why.startswith("exit code 0, expected 1") for _, why in bad.failures)


def test_a_metric_missing_from_the_output_fails_the_run():
    r = tiny_runner([RIGHT])
    r.timed(0, trace=False)
    metrics, _ = run.end_to_end(r, (0.02, 0.02))
    spec = run.load_spec()
    assert run.result(spec, False, metrics, True, r.attempted, 0)["correct"]
    del metrics["cmd_tail_ms"]
    with pytest.raises(SystemExit, match="missing \\['cmd_tail_ms'\\]"):
        run.result(spec, False, metrics, True, r.attempted, 0)


def test_traced_run_reports_every_per_layer_metric():
    r = tiny_runner([RIGHT, wl.lba("dyck-grl", "aabb", True)])
    r.timed(0, trace=True)
    metrics, detail = run.per_layer(r, run.step_costs(r))
    out = run.result(run.load_spec(), True, metrics, True, r.attempted, 0)
    assert out["metrics"]["engine.member_calls"]["value"] == 1
    assert out["metrics"]["lba.steps"]["value"] > 0
    assert detail["traced_rounds"] == 1


def test_check_catches_space_bound_and_search_limit():
    cmd = wl.lba("dyck-grl", "ab", True)
    assert wl.check(cmd, 0, "accept\ncells=4 compactions=1 steps=1\n", "") is None
    assert "bound 4" in wl.check(cmd, 0, "accept\ncells=5 compactions=1 steps=1\n", "")
    err = "error: gave up after 10 expansions on input of length 4\n"
    assert wl.check(RIGHT, 2, "", err).startswith("search limit")


def test_listed_differences_are_checked_line_by_line():
    cmd = next(c for c in wl.sweep_commands() if c.argv[1:4] == ("exrl-grl", "--oracle", "exrl_gll"))
    assert "abb left=accept right=reject\n" in cmd.stdout and "bba left=reject right=accept\n" in cmd.stdout
    rec, failure, out = run.run_command(jumpfa.cli.run_cli, cmd, run.timing.SpeedSampler())
    assert failure is None and out == cmd.stdout
    dropped = "".join(out.splitlines(keepends=True)[1:])
    assert wl.check(cmd, 1, dropped, "").startswith("wrong output")
    assert wl.check(cmd, 0, wl._no_diff(9), "").startswith("exit code 0")


def test_committed_machines_match_the_generator():
    assert wl.NOFINAL.read_text("utf-8") == wl.onestate_machine(final=False)
    assert wl.Q0FINAL.read_text("utf-8") == wl.onestate_machine(final=True)


def test_verdict_table_agrees_with_the_mirrored_engine_on_a_sample():
    aut = jumpfa.parse_automaton(wl.Q0FINAL.read_text("utf-8"))
    mirror = jumpfa.reverse_automaton(aut)
    table = wl.load_verdicts()
    assert len(table) == wl.POOL_WORDS
    for w in sorted(table, key=len)[:4]:
        assert jumpfa.member(mirror, w[::-1])[0] == table[w]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert timing.tail_pct(40) == 75 and timing.beyond(40, 75) == 10
    assert timing.tail_pct(200) == 95
    assert run.min_rounds(26, 80) == 2 and run.min_rounds(27, 95) == 8
