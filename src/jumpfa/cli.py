"""Command-line front end.

Exit codes: 0 accept (or success), 1 reject (or differences found), 2 error.
All output is deterministic for fixed inputs. The empty word is written
``<eps>`` on the command line and in printed output.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .core import EMPTY_WORD, Automaton, JumpfaError, parse_automaton, serialize_automaton
from .engine import enumerate_language, format_trace, member, shortest_trace
from .lba import lba_run
from .oracles import CORPUS_CLAIMS, ORACLES, load_bundled, oracle_difference, oracle_eval
from .transforms import language_difference, reverse_automaton


def _load_automaton(ref: str) -> Automaton:
    """Read an automaton from a file path, falling back to bundled names."""
    path = Path(ref)
    if path.exists():
        try:
            # A leading byte-order mark is dropped after decoding, so the byte
            # offset in the error below still counts from the start of the file.
            text = path.read_text("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise JumpfaError(f"{ref}: not UTF-8 text (byte {exc.start})") from None
        return parse_automaton(text)
    name = ref[:-4] if ref.endswith(".jfa") else ref
    if name in CORPUS_CLAIMS:
        return load_bundled(name)
    raise JumpfaError(f"no such file or bundled automaton: {ref}")


def _max_len(arg: str) -> int:
    try:
        value = int(arg)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {arg!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _word(arg: str) -> str:
    return "" if arg == EMPTY_WORD else arg


def _verdict(accepted: bool) -> int:
    print("accept" if accepted else "reject")
    return 0 if accepted else 1


def _cmd_validate(args) -> int:
    _load_automaton(args.file)
    print("ok")
    return 0


def _cmd_member(args) -> int:
    accepted, _ = member(_load_automaton(args.file), args.word)
    return _verdict(accepted)


def _cmd_trace(args) -> int:
    accepted, trace = shortest_trace(_load_automaton(args.file), args.word)
    if not accepted:
        return _verdict(False)
    print(format_trace(trace))
    return 0


def _cmd_enumerate(args) -> int:
    for word in enumerate_language(_load_automaton(args.file), args.max_len):
        print(word or EMPTY_WORD)
    return 0


def _cmd_reverse(args) -> int:
    print(serialize_automaton(reverse_automaton(_load_automaton(args.file))), end="")
    return 0


def _cmd_lba(args) -> int:
    accepted, report = lba_run(_load_automaton(args.file), args.word)
    code = _verdict(accepted)
    print(f"cells={report.max_cells_used} compactions={report.compactions} steps={report.steps}")
    return code


def _cmd_compare(args) -> int:
    first = _load_automaton(args.file)
    if (args.other is None) == (args.oracle is None):
        print("error: compare needs either a second file or --oracle NAME", file=sys.stderr)
        return 2
    if args.oracle is not None:
        diffs = oracle_difference(first, args.oracle, args.max_len)
    else:
        diffs = language_difference(first, _load_automaton(args.other), args.max_len)
    for word, in_first, in_second in diffs:
        print(
            f"{word or EMPTY_WORD} "
            f"left={'accept' if in_first else 'reject'} "
            f"right={'accept' if in_second else 'reject'}"
        )
    if not diffs:
        print(f"no differences up to length {args.max_len}")
        return 0
    return 1


def _cmd_oracle(args) -> int:
    return _verdict(oracle_eval(args.name, args.word))


def _cmd_examples(args) -> int:
    for name in CORPUS_CLAIMS:
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpfa",
        description="Membership, traces, enumeration, reversal, and marked-tape runs "
        "for generalized one-way jumping finite automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positionals = {
        "file": {},
        "name": {"choices": sorted(ORACLES)},
        "word": {
            "type": _word,
            "help": f"input word; {EMPTY_WORD} for the empty word; "
            "put -- before a word that starts with -",
        },
    }

    def command(name, handler, help, *args):
        p = sub.add_parser(name, help=help)
        for arg in args:
            p.add_argument(arg, **positionals[arg])
        p.set_defaults(handler=handler)
        return p

    command("validate", _cmd_validate, "parse and validate an automaton file", "file")
    command("member", _cmd_member, "decide whether a word is accepted", "file", "word")
    command("trace", _cmd_trace, "print a shortest accepting run", "file", "word")
    p = command("enumerate", _cmd_enumerate, "list accepted words up to a length bound", "file")
    p.add_argument("--max-len", type=_max_len, required=True)
    command("reverse", _cmd_reverse, "print the kind-flipped, word-reversed automaton", "file")
    command("lba", _cmd_lba, "run the marked-tape machine on a word", "file", "word")
    p = command(
        "compare", _cmd_compare, "diff two automata, or an automaton against an oracle", "file"
    )
    p.add_argument("other", nargs="?")
    p.add_argument("--oracle", choices=sorted(ORACLES))
    p.add_argument("--max-len", type=_max_len, required=True)
    command("oracle", _cmd_oracle, "evaluate a ground-truth predicate on a word", "name", "word")
    command("examples", _cmd_examples, "list the bundled automata")

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built on first use and kept for the process:
    building the parser takes far longer than parsing one command line."""
    return build_parser()


def run_cli(argv: list[str]) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Some argparse versions (3.13.0 among them) also strip the word "--"
    # written after "--", and hand the command an empty list instead.
    if getattr(args, "word", None) == []:
        args.word = "--"
    try:
        return args.handler(args)
    except (JumpfaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
