"""Seeded inputs and independently computed expected answers.

Each workload is a list of CLI commands (a round) drawn from a seeded
``random.Random``; the benchmark repeats rounds until its time is up. Every
command carries the exact output and exit code it must produce. Those answers
come from this file's own predicates, from a construction argument, or from
a committed verdict table, never from the engine under test.
"""

from __future__ import annotations

import itertools
import json
import re
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = SRC / "jumpfa" / "corpus"
MACHINES = BENCH_DIR / "machines"
NOFINAL = MACHINES / "onestate-nofinal.jfa"
Q0FINAL = MACHINES / "onestate-q0final.jfa"
VERDICT_TABLE = BENCH_DIR / "data" / "q0final-verdicts.json"


def import_jumpfa():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "jumpfa" / "__init__.py").is_file():
        raise SystemExit(f"error: no jumpfa sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jumpfa

    if SRC.resolve() not in Path(jumpfa.__file__).resolve().parents:
        raise SystemExit(f"error: imported jumpfa from {jumpfa.__file__}, not {SRC}")
    return jumpfa


# --- predicates, written apart from jumpfa.oracles ------------------------


def dyck(w: str) -> bool:
    depth = 0
    for ch in w:
        depth += 1 if ch == "a" else -1
        if depth < 0:
            return False
    return depth == 0


PREDICATES: dict[str, Callable[[str], bool]] = {
    "example1": lambda w: w[:1] == "a" and w.count("a") - 1 == w.count("b"),
    "exrl_grl": lambda w: re.fullmatch(r"a*ba+ba*|a*bb", w) is not None,
    "exrl_gll": lambda w: re.fullmatch(r"a*ba+ba*|bba*", w) is not None,
    "bm_ab_bn": lambda w: re.fullmatch(r"b*ab+", w) is not None,
    "eq_or_nob": lambda w: w.count("a") == w.count("b") or "b" not in w,
    "dyck": dyck,
    "dyck_c": lambda w: re.fullmatch(r"[ab]*c", w) is not None and dyck(w[:-1]),
    "c_dyck": lambda w: re.fullmatch(r"c[ab]*", w) is not None and dyck(w[1:]),
    "c_singleton": lambda w: w == "c",
    "astar_bstar": lambda w: re.fullmatch(r"a*b*", w) is not None,
}

# --- commands -------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the answer it must give."""

    argv: tuple[str, ...]
    words: int  # input words the command decides
    stdout: str  # exact expected output; for ``lba`` only its verdict line
    code: int
    space_limit: int | None = None  # ``lba``: tape cells allowed, len(w) + 2


def check(cmd: Command, code: int, out: str, err: str) -> str | None:
    """Why the command's result is wrong, or None when it is right."""
    if "gave up after" in err:
        return "search limit: " + err.strip()
    if code != cmd.code:
        return f"exit code {code}, expected {cmd.code}: {err.strip()[:200]}"
    if cmd.space_limit is None:
        return None if out == cmd.stdout else f"wrong output {out[:80]!r}"
    verdict, _, report = out.partition("\n")
    if verdict + "\n" != cmd.stdout:
        return f"wrong verdict {verdict!r}"
    m = re.fullmatch(r"cells=(\d+) compactions=\d+ steps=\d+\n", report)
    if m is None:
        return f"malformed space report {report!r}"
    if int(m.group(1)) > cmd.space_limit:
        return f"used {m.group(1)} cells, bound {cmd.space_limit}"
    return None


def words_up_to(alphabet: str, n: int):
    """Length-then-lexicographic words, like the CLI's enumeration order."""
    for k in range(n + 1):
        for letters in itertools.product(alphabet, repeat=k):
            yield "".join(letters)


def member(machine: str, word: str, accepted: bool) -> Command:
    verdict = "accept" if accepted else "reject"
    return Command(("member", machine, word), 1, verdict + "\n", 0 if accepted else 1)


def lba(machine: str, word: str, accepted: bool) -> Command:
    verdict = "accept" if accepted else "reject"
    return Command(("lba", machine, word), 1, verdict + "\n", 0 if accepted else 1, len(word) + 2)


# --- workload: sweep ------------------------------------------------------

# (bundled machine, claimed predicate, alphabet, length bound). The bounds
# are those of the package's acceptance criteria; the two machines no
# enumeration criterion names use the whole-corpus bound 8.
SWEEP = (
    ("example1-rowj", "example1", "ab", 10),
    ("exrl-grl", "exrl_grl", "ab", 9),
    ("exrl-gll", "exrl_gll", "ab", 9),
    ("bmabbn-grl", "bm_ab_bn", "ab", 9),
    ("bmabbn-gll", "bm_ab_bn", "ab", 9),
    ("nonrowj-grl", "eq_or_nob", "ab", 8),
    ("dyck-gll", "dyck", "ab", 12),
    ("dyck-grl", "dyck", "ab", 12),
    ("dc-gll", "dyck_c", "abc", 11),
    ("cdyck-grl", "c_dyck", "abc", 11),
    ("c-singleton", "c_singleton", "c", 8),
    ("astarbstar-dfa", "astar_bstar", "ab", 8),
)


def _count(alphabet: str, n: int) -> int:
    return sum(len(alphabet) ** k for k in range(n + 1))


def _no_diff(n: int) -> str:
    return f"no differences up to length {n}\n"


# (bundled machine, its claimed predicate, a rival predicate over the same
# alphabet, length bound): ``compare MACHINE --oracle RIVAL`` must list exactly
# the words on which the two predicates differ. These commands go through
# ``oracle_difference`` word by word, like the no-difference sweeps above, so a
# change that skips words or drops a real difference fails them. c-singleton
# has no rival: no other predicate is over the alphabet ``c``.
RIVALS = (
    ("example1-rowj", "example1", "eq_or_nob", 8),
    ("exrl-grl", "exrl_grl", "exrl_gll", 9),
    ("exrl-gll", "exrl_gll", "exrl_grl", 9),
    ("bmabbn-grl", "bm_ab_bn", "astar_bstar", 9),
    ("bmabbn-gll", "bm_ab_bn", "astar_bstar", 9),
    ("nonrowj-grl", "eq_or_nob", "dyck", 8),
    ("dyck-gll", "dyck", "eq_or_nob", 8),
    ("dyck-grl", "dyck", "eq_or_nob", 8),
    ("dc-gll", "dyck_c", "c_dyck", 6),
    ("cdyck-grl", "c_dyck", "dyck_c", 6),
    ("astarbstar-dfa", "astar_bstar", "bm_ab_bn", 8),
)


def listed_differences(alphabet: str, n: int, left: str, right: str) -> str:
    """The exact output of ``compare``: one line per word where the predicates differ."""
    lines = []
    for w in words_up_to(alphabet, n):
        x, y = PREDICATES[left](w), PREDICATES[right](w)
        if x != y:
            lines.append(f"{w or '<eps>'} left={'accept' if x else 'reject'} right={'accept' if y else 'reject'}")
    assert lines, f"{left} and {right} agree up to length {n}"
    return "\n".join(lines) + "\n"


def sweep_commands() -> list[Command]:
    cmds = [
        Command(("compare", name, "--oracle", oracle, "--max-len", str(n)), _count(alph, n), _no_diff(n), 0)
        for name, oracle, alph, n in SWEEP
    ]
    listed = [w or "<eps>" for w in words_up_to("abc", 9) if PREDICATES["dyck_c"](w)]
    cmds.append(Command(("enumerate", "dc-gll", "--max-len", "9"), _count("abc", 9), "\n".join(listed) + "\n", 0))
    cmds.append(Command(("compare", "dyck-gll", "dyck-grl", "--max-len", "12"), _count("ab", 12), _no_diff(12), 0))
    alphabets = {name: alph for name, _, alph, _ in SWEEP}
    for name, claim, rival, n in RIVALS:
        alph = alphabets[name]
        out = listed_differences(alph, n, claim, rival)
        cmds.append(Command(("compare", name, "--oracle", rival, "--max-len", str(n)), _count(alph, n), out, 1))
    out = listed_differences("ab", 9, "exrl_grl", "exrl_gll")
    cmds.append(Command(("compare", "exrl-grl", "exrl-gll", "--max-len", "9"), _count("ab", 9), out, 1))
    return cmds


def sweep_round(rng: random.Random, cmds: list[Command]) -> list[Command]:
    order = list(cmds)
    rng.shuffle(order)
    return order


# --- workload: long -------------------------------------------------------

LONG_SIZES = (1000, 2000, 4000)


def random_dyck(rng: random.Random, n: int) -> str:
    """A random balanced word of even length ``n``."""
    opens = closes = n // 2
    depth = 0
    out = []
    while opens or closes:
        if opens and (depth == 0 or rng.random() * (opens + closes) < opens):
            out.append("a")
            opens -= 1
            depth += 1
        else:
            out.append("b")
            closes -= 1
            depth -= 1
    return "".join(out)


def near_miss(rng: random.Random, n: int) -> str:
    """A random balanced word with one symbol flipped, so it is rejected."""
    w = random_dyck(rng, n)
    i = rng.randrange(n)
    return w[:i] + ("b" if w[i] == "a" else "a") + w[i + 1:]


def long_round(rng: random.Random) -> list[Command]:
    cmds = []
    for n in LONG_SIZES:
        for w in (random_dyck(rng, n), "a" * (n // 2) + "b" * (n // 2), near_miss(rng, n)):
            ok = dyck(w)
            cmds += [member("dyck-grl", w, ok), member("dyck-gll", w, ok), lba("dyck-grl", w, ok)]
    rng.shuffle(cmds)
    return cmds


# --- workload: branching --------------------------------------------------

RULE_WORDS = ("abb", "aaa", "ba", "aab", "bb", "ab")
POOL_WORDS = 60  # seeded words of length 32-48 in the q0-final verdict table
NONROWJ_WORDS = 20  # per round, next to the pool on both one-state machines


def onestate_machine(final: bool) -> str:
    if final:
        head = "# One state q0, final; every rule loops on q0. Acceptance needs the whole\n"
        head += "# input deleted, so the search explores until it finds such a run.\n"
    else:
        head = "# One state q0, no final state: the language is empty, yet the search\n"
        head += "# explores every configuration before it rejects.\n"
    lines = ["kind: gll", "alphabet: ab", "states: q0", "start: q0", "final: q0" if final else "final:"]
    lines += [f"rule: q0 {w} q0" for w in RULE_WORDS]
    return head + "\n".join(lines) + "\n"


def load_verdicts() -> dict[str, bool]:
    return {w: v for w, v, _ in json.loads(VERDICT_TABLE.read_text("utf-8"))["verdicts"]}


def branching_round(rng: random.Random, table: dict[str, bool]) -> list[Command]:
    """The whole word pool on both one-state machines, plus seeded nonrowj words.

    Every round holds the same pool, so the run-to-run spread of the latency
    percentiles reflects the program, not which heavy words a seed drew; the
    seed decides the order and the nonrowj-grl words.
    """
    cmds = []
    for w, accepted in table.items():
        cmds.append(member(str(NOFINAL), w, False))  # empty language
        cmds.append(member(str(Q0FINAL), w, accepted))
    for _ in range(NONROWJ_WORDS):
        half = rng.randint(160, 240)
        equal = rng.random() < 0.5
        letters = list("ab" * half if equal else "a" * (half + 1) + "b" * (half - 1))
        rng.shuffle(letters)
        w = "".join(letters)
        cmds.append(member("nonrowj-grl", w, PREDICATES["eq_or_nob"](w)))
    rng.shuffle(cmds)
    return cmds


# --- registry -------------------------------------------------------------


@dataclass
class Workload:
    name: str
    sizes: str
    machines: tuple[Path, ...]  # parsed by the set-up measurement
    tail_pct: int  # fixed, so every run reports the same percentile
    make_round: Callable[[random.Random], list[Command]]
    copies_text: bool = False  # scale by ``timing.copy_kernel``, not ``timing.kernel``


def workload(name: str) -> Workload:
    if name == "sweep":
        cmds = sweep_commands()
        return Workload(
            name,
            f"{len(cmds)} commands, {sum(c.words for c in cmds)} words of length <= 12 per round",
            tuple(CORPUS / f"{m}.jfa" for m, *_ in SWEEP),
            80,  # the 21st of 26 commands, clear of its neighbours' latencies
            lambda rng: sweep_round(rng, cmds),
        )
    if name == "long":
        return Workload(
            name,
            "27 commands per round: member x2 and lba on 3 shapes at n = 1000, 2000, 4000",
            (CORPUS / "dyck-grl.jfa", CORPUS / "dyck-gll.jfa"),
            95,
            long_round,
            copies_text=True,
        )
    if name == "branching":
        table = load_verdicts()
        return Workload(
            name,
            f"{2 * len(table) + NONROWJ_WORDS} member commands per round: the {len(table)}-word "
            f"pool (lengths 32-48) on both one-state machines, {NONROWJ_WORDS} words of "
            "length 320-480 on nonrowj-grl",
            (NOFINAL, Q0FINAL, CORPUS / "nonrowj-grl.jfa"),
            95,
            lambda rng: branching_round(rng, table),
        )
    raise SystemExit(f"error: unknown workload {name!r}")


WORKLOADS = ("sweep", "long", "branching")
