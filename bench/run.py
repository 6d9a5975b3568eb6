"""Benchmark of the jumpfa command line, end to end and per layer.

    python3 bench/run.py --workload {sweep,long,branching} --seed N --seconds S --trace {0,1}

The benchmark drives ``jumpfa.cli.run_cli`` in-process, stdout and stderr
captured in memory, as a closed loop with one client: one process, one
thread, and each command starts only after the previous one returned. A run
repeats the workload's round of commands until ``--seconds`` have passed and
at least enough rounds ran for the tail percentile to have ten samples beyond
it. Every command's output is checked against an answer the engine did not
compute (see ``workloads.py``); checking happens outside the timed intervals.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every round
twice, untraced and traced in alternating order, records spans around calls
into each layer (see ``tracer.py``), reports the per-layer metrics and the
tracing overhead, and writes the spans to ``bench/out/``.

All timings are scaled to the reference speed of a kernel of the benchmark's
own (see ``timing.py``); the unscaled values are in the ``detail`` line
printed before the result. The last line of output is the result: one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import timing
import workloads as wl
from tracer import ROOT_SPAN, Tracer

SETUP_REPS = 32  # fresh processes timed per run, after one warm-up
SETUP_BATCH = 8  # of them before the first round and after each round
MAX_TIMED_S = 110  # no round starts later than this, so a run ends within 180 s
PEAK_INPUTS = 32  # member inputs re-run under tracemalloc in a traced run

SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import jumpfa
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as f:
        jumpfa.parse_automaton(f.read())
print(time.perf_counter() - t0)
"""


@dataclass
class Record:
    round: int
    traced: bool
    argv: tuple[str, ...]
    words: int
    raw_s: float  # wall time less the speed sampler's own
    scale: float  # reference kernel time / kernel time during and around the command

    @property
    def scaled_s(self) -> float:
        return self.raw_s * self.scale


class SetupTimer:
    """Set-up time of fresh processes: import jumpfa, parse the workload's machines.

    The machine's speed changes from one stretch of a few seconds to the next,
    so the processes are timed in batches of ``SETUP_BATCH``, one before the
    first round and one after each round, and the median is taken over all
    ``SETUP_REPS``. Each time is scaled by the speed the sampler saw in this
    process while the child ran. The children run with string hashing fixed,
    like this process, and without the user's site directory.
    """

    def __init__(self, w: wl.Workload, sampler: timing.SpeedSampler):
        self.argv = [sys.executable, "-s", "-c", SETUP_CHILD, str(wl.SRC), *map(str, w.machines)]
        self.env = {**os.environ, "PYTHONHASHSEED": "0"}
        self.sampler = sampler
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._child()  # the first process writes the bytecode caches
        self.batch()

    def _child(self) -> tuple[float, float, float]:
        t0 = time.perf_counter()
        out = subprocess.run(self.argv, capture_output=True, text=True, timeout=60, check=True, env=self.env)
        return float(out.stdout), t0, time.perf_counter()

    def batch(self) -> None:
        for _ in range(min(SETUP_BATCH, SETUP_REPS - len(self.raw))):
            took, t0, t1 = self._child()
            self.raw.append(took)
            self.scaled.append(took * self.sampler.scale(t0, t1))

    def medians(self) -> tuple[float, float]:
        """The scaled and the measured median, after timing any processes still due."""
        while len(self.raw) < SETUP_REPS:
            self.batch()
        return statistics.median(self.scaled), statistics.median(self.raw)


def run_command(run_cli, cmd: wl.Command, sampler: timing.SpeedSampler) -> tuple[Record, str | None, str]:
    """Run one command; return its timing, why it failed (or None), and stdout."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = run_cli(list(cmd.argv))
        except Exception:
            failure = "traceback: " + traceback.format_exc(limit=-3)
        t1 = time.perf_counter()
    if failure is None:
        failure = wl.check(cmd, code, out.getvalue(), err.getvalue())
    rec = Record(-1, False, cmd.argv, cmd.words, t1 - t0 - sampler.spent(t0, t1), sampler.scale(t0, t1))
    return rec, failure, out.getvalue()


def tally(counts: Counter, cmd: wl.Command, out: str) -> None:
    """Count the verdicts the program printed, so a wrong answer shows in the totals."""
    first = out.split("\n", 1)[0]
    if first in ("accept", "reject"):
        counts[first] += 1
    elif cmd.argv[0] == "enumerate":
        counts["listed"] += out.count("\n")
    elif first.startswith("no differences"):
        counts["no_differences"] += 1
    elif cmd.argv[0] == "compare":
        counts["differences"] += out.count("\n")


def min_rounds(per_round: int, pct: int) -> int:
    rounds = 1
    while timing.beyond(rounds * per_round, pct) < 10:
        rounds += 1
    return rounds


class Runner:
    def __init__(self, jumpfa, w: wl.Workload, rng: random.Random):
        self.jumpfa = jumpfa
        self.w = w
        self.rng = rng
        self.records: list[Record] = []
        if w.copies_text:
            self.sampler = timing.SpeedSampler(timing.copy_kernel, timing.REF_COPY_KERNEL_S)
        else:
            self.sampler = timing.SpeedSampler()
        self.failures: list[tuple[tuple[str, ...], str]] = []
        self.counts: Counter = Counter()
        self.attempted = 0
        self.tracer: Tracer | None = None
        self.rounds = 0

    def _pass(self, cmds: list[wl.Command], traced: bool) -> None:
        run_cli = self.jumpfa.cli.run_cli
        if traced:
            self.tracer.install(self.jumpfa)
            run_cli = self.tracer.wrap(ROOT_SPAN, run_cli)
        try:
            for cmd in cmds:
                if traced:
                    self.tracer.cmd_id = len(self.records)
                rec, failure, out = run_command(run_cli, cmd, self.sampler)
                rec.round, rec.traced = self.rounds, traced
                self.records.append(rec)
                self._account(cmd, failure, out, count=not traced)
        finally:
            if traced:
                self.tracer.uninstall()

    def _account(self, cmd: wl.Command, failure: str | None, out: str, count: bool) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append((cmd.argv, failure))
        if count:
            tally(self.counts, cmd, out)

    def timed(self, seconds: float, trace: bool, after_round=lambda: None) -> None:
        cmds = self.w.make_round(self.rng)
        least = 1 if trace else min_rounds(len(cmds), self.w.tail_pct)
        if trace:
            self.tracer = Tracer()
        start = time.perf_counter()
        while self.rounds < least or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > MAX_TIMED_S:
                break
            if self.rounds:
                cmds = self.w.make_round(self.rng)
            order = [False] if not trace else [self.rounds % 2 == 1, self.rounds % 2 == 0]
            for traced in order:
                self._pass(cmds, traced)
            self.rounds += 1
            paused = time.perf_counter()
            after_round()
            start += time.perf_counter() - paused  # not part of the timed phase


def latencies(recs: list[Record], value) -> tuple[list[float], dict]:
    """Sorted command latencies, each the median over repeats of its command.

    A round may repeat a command (every ``sweep`` round is the same list), and
    a percentile can fall between two commands; taking the median over the
    repeats first keeps one slow repeat from moving it. Repeats are thus not
    independent samples: on ``sweep`` a percentile is the median of one fixed
    command. Also returns each distinct command's median.
    """
    by_argv = defaultdict(list)
    for x in recs:
        by_argv[x.argv].append(value(x))
    typical = {argv: statistics.median(v) for argv, v in by_argv.items()}
    return sorted(typical[x.argv] for x in recs), typical


def end_to_end(r: Runner, setup: tuple[float, float]) -> tuple[dict, dict]:
    recs = [x for x in r.records if not x.traced]
    scaled, typical = latencies(recs, lambda x: x.scaled_s)
    raw, _ = latencies(recs, lambda x: x.raw_s)
    words = sum(x.words for x in recs)
    pct = r.w.tail_pct
    tail = timing.nearest_rank(scaled, pct)
    metrics = {
        "setup_s": (setup[0], "s"),
        "words_per_s": (words / sum(x.scaled_s for x in recs), "1/s"),
        "cmd_p50_ms": (timing.nearest_rank(scaled, 50) * 1e3, "ms"),
        "cmd_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "unscaled": {
            "setup_s": setup[1],
            "words_per_s": words / sum(x.raw_s for x in recs),
            "cmd_p50_ms": timing.nearest_rank(raw, 50) * 1e3,
            "cmd_tail_ms": timing.nearest_rank(raw, pct) * 1e3,
        },
        "speed_factor_median": statistics.median(x.scale for x in recs),
        "cmd_samples": len(recs),
        "cmd_tail_pct": pct,
        "samples_beyond_tail": timing.beyond(len(recs), pct),
        "distinct_commands": len(typical),
        "distinct_commands_beyond_tail": sum(v > tail for v in typical.values()),
        "words": words,
        "timed_s": sum(x.scaled_s for x in recs),
        "setup_processes": SETUP_REPS,
    }
    return metrics, detail


def _tail(values: list[float]) -> tuple[float, int]:
    values = sorted(values)
    if not values:
        return 0.0, 0
    pct = timing.tail_pct(len(values))
    return timing.nearest_rank(values, pct), pct


def _median(values) -> float:
    values = sorted(values)
    return timing.nearest_rank(values, 50) if values else 0.0


def step_costs(r: Runner) -> list[float]:
    """Seconds of one ``successors`` call, per returned trace of the run.

    Timed after the rounds, on the configurations of the longest accepted
    input of each traced command; the best of three passes.
    """
    costs = []
    for aut, _, trace in r.tracer.longest_trace.values():
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for config in trace.configs:
                r.jumpfa.engine.successors(aut, config)
            t1 = time.perf_counter()
            best = min(best, (t1 - t0 - r.sampler.spent(t0, t1)) * r.sampler.scale(t0, t1))
        costs.append(best / len(trace.configs))
    return costs


def per_layer(r: Runner, step_s: list[float]) -> tuple[dict, dict]:
    """Layer metrics of a traced run; call with the speed sampler stopped."""
    t = r.tracer
    jumpfa = r.jumpfa
    scale = {i: x.scale for i, x in enumerate(r.records) if x.traced}
    traced_rounds = len({x.round for x in r.records if x.traced})
    first = {i for i, x in enumerate(r.records) if x.traced and x.round == 0}
    dur, own = t.self_times(scale, r.sampler.spent)
    spans = defaultdict(list)
    for i, nid in enumerate(t.name):
        spans[t.names[nid]].append(i)
    cmd = t.cmd

    def total(name, values):
        return sum(values[i] for i in spans[name])

    def in_first(name):
        return sum(1 for i in spans[name] if cmd[i] in first)

    cli_total = total(ROOT_SPAN, dur)
    member_dur = [dur[i] for i in spans["engine.member"]]
    lba_dur = [dur[i] for i in spans["lba.lba_run"]]
    oracle_id = t.name_ids.get("oracles.oracle_difference", -1)
    oracle_words = sum(
        1 for i in spans["engine.member"]
        if cmd[i] in first and t.parent[i] >= 0 and t.name[t.parent[i]] == oracle_id
    )
    member_tail, member_pct = _tail(member_dur)
    lba_tail, lba_pct = _tail(lba_dur)
    reports = t.lba_reports

    # Peak Python heap of single member calls on the longest inputs seen.
    inputs = sorted(t.longest_input.values(), key=lambda p: -len(p[1]))[:PEAK_INPUTS]
    peak = 0
    tracemalloc.start()
    try:
        for aut, word in inputs:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            jumpfa.engine.member(aut, word)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()

    pairs = defaultdict(lambda: [0.0, 0.0])
    for x in r.records:
        pairs[x.round][x.traced] += x.scaled_s
    plain = sum(p[False] for p in pairs.values())
    traced = sum(p[True] for p in pairs.values())

    metrics = {
        "core.parse_us": (_median(dur[i] for i in spans["core.parse_automaton"]) * 1e6, "us"),
        "core.parse_calls": (in_first("core.parse_automaton"), "count"),
        "cli.self_ms": (_median(own[i] for i in spans[ROOT_SPAN]) * 1e3, "ms"),
        "engine.member_calls": (in_first("engine.member"), "count"),
        "engine.member_us_p50": (_median(member_dur) * 1e6, "us"),
        "engine.member_us_tail": (member_tail * 1e6, "us"),
        "engine.member_share": (100 * sum(member_dur) / cli_total, "%"),
        "engine.step_us": (_median(step_s) * 1e6, "us"),
        "engine.member_peak_kb": (peak / 1024, "kB"),
        "engine.trace_moves": (sum(v for c, v in t.trace_moves.items() if c in first), "count"),
        "engine.limit_errors": (sum(v for c, v in t.limit_errors.items() if c in first), "count"),
        "oracles.difference_ms": (total("oracles.oracle_difference", own) / traced_rounds * 1e3, "ms"),
        "oracles.words": (oracle_words, "count"),
        "transforms.difference_ms": (
            total("transforms.language_difference", own) / traced_rounds * 1e3, "ms"),
        "lba.run_ms_p50": (_median(lba_dur) * 1e3, "ms"),
        "lba.run_ms_tail": (lba_tail * 1e3, "ms"),
        "lba.share": (100 * sum(lba_dur) / cli_total, "%"),
        "lba.steps": (sum(rep.steps for c, rep, _ in reports if c in first), "count"),
        "lba.compactions": (sum(rep.compactions for c, rep, _ in reports if c in first), "count"),
        "lba.max_cells_ratio": (max((rep.max_cells_used / (n + 2) for _, rep, n in reports), default=0.0), "ratio"),
        "trace.overhead_pct": (100 * (traced / plain - 1), "%"),
    }
    detail = {
        "traced_rounds": traced_rounds,
        "spans": len(t.start),
        "member_samples": len(member_dur),
        "member_tail_pct": member_pct,
        "lba_samples": len(lba_dur),
        "lba_tail_pct": lba_pct,
        "step_traces": len(step_s),
        "peak_inputs": len(inputs),
        "untraced_s": plain,
        "traced_s": traced,
    }
    return metrics, detail


def load_spec() -> dict:
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text("utf-8"))


def result(spec: dict, trace: bool, metrics: dict, correct: bool, attempted: int, failed: int) -> dict:
    """The result object; refuses metrics that differ from the declared ones."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: missing {missing}, "
                         f"unexpected {extra}, units {got} vs {declared}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def fix_hash_seed() -> None:
    """Re-execute this process with string hashing fixed.

    Randomized string hashes give every process its own dict and set layout,
    which moves the searches' speed by several percent from run to run.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the jumpfa command line.")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    jumpfa = wl.import_jumpfa()
    import jumpfa.cli  # noqa: F401  (the package does not import its CLI)

    w = wl.workload(args.workload)
    runner = Runner(jumpfa, w, random.Random(args.seed))
    with runner.sampler:
        if args.trace:
            runner.timed(args.seconds, True)
            step_s = step_costs(runner)
        else:
            setup = SetupTimer(w, runner.sampler)
            runner.timed(args.seconds, False, setup.batch)
            setup_s = setup.medians()

    if args.trace:
        metrics, detail = per_layer(runner, step_s)
        spans = wl.BENCH_DIR / "out" / f"spans-{w.name}-seed{args.seed}.bin"
        runner.tracer.write(spans)
        detail["spans_file"] = str(spans.relative_to(wl.ROOT))
    else:
        metrics, detail = end_to_end(runner, setup_s)
    failed = len(runner.failures)
    detail.update(
        workload=w.name,
        seed=args.seed,
        sizes=w.sizes,
        rounds=runner.rounds,
        verdicts=dict(runner.counts),
        error_rate=failed / runner.attempted,
        failures=[f"{' '.join(a)[:120]}: {why}" for a, why in runner.failures[:5]],
        python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    out = result(spec, bool(args.trace), metrics, failed == 0, runner.attempted, failed)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {detail['error_rate']:.6g} ({failed}/{runner.attempted} commands)")
    print(json.dumps({"detail": detail}))
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    fix_hash_seed()
    sys.exit(main())
