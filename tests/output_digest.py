"""The CLI's output over a fixed command set, pinned by committed digests.

Each command runs in-process through :func:`jumpfa.cli.run_cli`, and the
sha256 of ``repr((argv, exit code, stdout, stderr))`` over every command in
turn must equal :data:`DIGEST`. On a mismatch, the subcommands whose own
digests (:data:`SUBCOMMAND_DIGESTS`) moved name where the output changed.
An intended output change updates both values, and ``CHANGES.md`` says why.

The set is ``member``, ``trace`` and ``lba`` on every corpus word up to length
5 (4 over any other alphabet than two letters), ``enumerate`` and ``compare
--oracle`` at ``--max-len 7`` on each machine, ``compare`` of every ordered
corpus pair at ``--max-len 5``, six single commands, among them three that
fail, and ``lba`` on 2,000-letter words of both ``dyck`` machines. No command
prints an argparse message, whose text varies across Python versions.

A second digest, :data:`RESULTS_DIGEST`, pins what no command prints: the
depth-first moves of ``member``. It is the sha256 of ``repr((label, word,
member(aut, word), shortest_trace(aut, word)))`` over :func:`search_cases`:
the corpus words that ``member`` and ``trace`` run on above, 20 seeded words
of length 12-16 on ``nonrowj-grl``, and 20 seeded words of length 12-20 on
the one-state ``gll`` machine of ``bench/machines/onestate-q0final.jfa``.

The module imports only the standard library and ``jumpfa``. Run as a script,
``python tests/output_digest.py``, it checks whichever ``jumpfa`` the
interpreter imports, an installed wheel included, and exits 1 on a mismatch.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

from jumpfa.cli import run_cli
from jumpfa.core import EMPTY_WORD, Automaton, make_automaton
from jumpfa.engine import iter_words, member, shortest_trace
from jumpfa.oracles import CORPUS_CLAIMS, load_bundled

DIGEST = "d4ce48649ad1b873303799db9479db0064c70791d8076bf779f78c9ee877dbbc"
SUBCOMMAND_DIGESTS = {
    "member": "08621485add23b51d0b8d5b0415107a258f7f058ba7c4cc4d1eaa9a419f0116d",
    "trace": "3d62066ec86ee2dc4b6770f0c40ebb82952e1cdf099c5f28e7b773fa784c507b",
    "lba": "8dfa8516eea08a2da972684fe6e1c0aa18789e67102e6d3eb93cd36887e14c1e",
    "enumerate": "6e862e5b4e6c7d88505231bbfc67613fef2278475136a7dbb65a673494c1d342",
    "compare": "39e92a6337b1d9b625e4088f185c67419f666bcf366feab868bab4b1550ba2f3",
    "validate": "0e5ff7c26328013a425e3fe507cdaef7030c100766e652be88df9bd1cb5e9d35",
    "reverse": "0757c3c1cb48f249435a55b823149f6b0c618fb4b3d52ba089c0439bd5e95c16",
    "examples": "40fd4d1261fa8be6cf59b91894e856fbfbbf697d360193c318076c3fd00c983e",
}
RESULTS_DIGEST = "e917b968d36ec099640a8420f3570fb32795c8f84e7e823e23da733ba237da8b"

K = 1000
LONG_WORDS = ("a" * K + "b" * K, "ab" * K, "a" * K + "b" * (K - 1) + "a")
# The rule words of bench/machines/onestate-q0final.jfa, all looping on q0.
ONESTATE_WORDS = ("abb", "aaa", "ba", "aab", "bb", "ab")


def corpus_words() -> dict[str, list[str]]:
    """Every word up to length 5 (4 over any other alphabet than two letters)
    of each corpus machine, in :func:`iter_words` order."""
    words = {}
    for name in CORPUS_CLAIMS:
        alphabet = load_bundled(name).alphabet
        words[name] = list(iter_words(alphabet, 5 if len(alphabet) == 2 else 4))
    return words


def commands() -> list[list[str]]:
    names, words = list(CORPUS_CLAIMS), corpus_words()
    out = [
        [cmd, name, word or EMPTY_WORD]
        for cmd in ("member", "trace", "lba")
        for name in names
        for word in words[name]
    ]
    for name in names:
        out.append(["enumerate", name, "--max-len", "7"])
        out.append(["compare", name, "--oracle", CORPUS_CLAIMS[name], "--max-len", "7"])
    out += [["compare", a, b, "--max-len", "5"] for a in names for b in names]
    out += [
        ["trace", "nope", "a"],
        ["member", "dyck-grl", "abc"],
        ["validate", "dyck-grl"],
        ["reverse", "dc-gll"],
        ["examples"],
        ["member", "dyck-grl", "--", "--"],
    ]
    out += [["lba", name, word] for name in ("dyck-grl", "dyck-gll") for word in LONG_WORDS]
    return out


def search_cases() -> list[tuple[str, Automaton, str]]:
    """``(label, automaton, word)`` for each search the results digest pins.
    The ``nonrowj-grl`` words hold as many a's as b's, or two more, shuffled."""
    cases = [
        (name, load_bundled(name), word) for name, words in corpus_words().items() for word in words
    ]
    rng = random.Random(37)
    nonrowj = load_bundled("nonrowj-grl")
    for _ in range(20):
        half = rng.randint(6, 8)
        letters = list("ab" * half if rng.random() < 0.5 else "a" * (half + 1) + "b" * (half - 1))
        rng.shuffle(letters)
        cases.append(("nonrowj-grl", nonrowj, "".join(letters)))
    rules = [("q0", w, "q0") for w in ONESTATE_WORDS]
    onestate = make_automaton("gll", "ab", ["q0"], "q0", ["q0"], rules)
    for _ in range(20):
        word = "".join(rng.choice("ab") for _ in range(rng.randint(12, 20)))
        cases.append(("onestate-q0final", onestate, word))
    return cases


def search_results() -> str:
    """The sha256 of ``repr((label, word, member, shortest_trace))`` over
    :func:`search_cases`, each search's result in place of its name."""
    whole = hashlib.sha256()
    for label, aut, word in search_cases():
        whole.update(repr((label, word, member(aut, word), shortest_trace(aut, word))).encode())
    return whole.hexdigest()


def run(argv: list[str]) -> tuple[list[str], int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(list(argv))
    return argv, code, out.getvalue(), err.getvalue()


def digests(records) -> tuple[str, dict[str, str]]:
    """The digest of all ``records``, and that of each subcommand's own."""
    whole, parts = hashlib.sha256(), {}
    for record in records:
        data = repr(record).encode()
        whole.update(data)
        parts.setdefault(record[0][0], hashlib.sha256()).update(data)
    return whole.hexdigest(), {cmd: h.hexdigest() for cmd, h in parts.items()}


def moved(parts: dict[str, str]) -> list[str]:
    """The subcommands whose digest differs from the committed one."""
    return sorted(
        cmd for cmd in parts.keys() | SUBCOMMAND_DIGESTS.keys()
        if parts.get(cmd) != SUBCOMMAND_DIGESTS.get(cmd)
    )


def main() -> int:
    whole, parts = digests(map(run, commands()))
    results = search_results()
    print(whole)
    print(results)
    code = 0
    if whole != DIGEST:
        changed = ", ".join(moved(parts)) or "none"
        print(f"output changed; subcommands that moved: {changed}", file=sys.stderr)
        code = 1
    if results != RESULTS_DIGEST:
        print("member or shortest_trace results changed", file=sys.stderr)
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
