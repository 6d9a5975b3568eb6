"""The package's public surface: the names it exports, what importing it
loads, its immutable records, and the README tour."""

import inspect
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import jumpfa
from jumpfa import engine
from jumpfa.cli import run_cli
from jumpfa.core import Kind, Violation
from jumpfa.engine import Configuration, Trace
from jumpfa.lba import SpaceReport

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text("utf-8")
# Standard modules the package does not need and that are slow to import:
# ``dataclasses`` alone pulls in ``inspect``, ``ast`` and ``dis``. A split sweep
# forks and reports in plain text, and reads the thread count only when
# ``threading`` is already loaded, so it needs none of the last four.
HEAVY_MODULES = {
    "dataclasses", "inspect", "ast", "dis", "importlib.resources",
    "pickle", "threading", "multiprocessing", "concurrent.futures",
}

EXPORTS = {
    "Automaton",
    "Kind",
    "JumpfaError",
    "make_automaton",
    "parse_automaton",
    "member",
    "shortest_trace",
    "Trace",
    "format_trace",
    "enumerate_language",
    "SearchLimitError",
    "lba_run",
    "SpaceReport",
    "load_bundled",
    "oracle_eval",
    "reverse_automaton",
}


def test_exports_exactly_the_documented_names():
    exported = {
        name
        for name, value in vars(jumpfa).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == EXPORTS
    assert [name for name in sorted(EXPORTS) if f"`{name}`" not in README] == []


def test_searches_take_an_automaton_and_a_word_only():
    for search in (jumpfa.member, jumpfa.shortest_trace, jumpfa.lba_run):
        assert list(inspect.signature(search).parameters) == ["aut", "word"]
    assert (engine.MAX_STORED_SYMBOLS, engine.MAX_SWEEP_SYMBOLS) == (2 * 10**7, 2 * 10**8)
    assert engine.SHARE_WORDS == 2**14
    assert not hasattr(engine, "MAX_EXPANSIONS")


def test_import_loads_no_heavy_standard_module():
    # -S: without site, nothing it preloads can hide a module the import adds.
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import jumpfa; print(*sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    ).stdout
    added = set(out.split())
    assert "jumpfa.core" in added
    assert sorted(added & HEAVY_MODULES) == []


def _shortest(name: str, word: str) -> tuple[jumpfa.Automaton, Trace]:
    aut = jumpfa.load_bundled(name)
    accepted, trace = jumpfa.shortest_trace(aut, word)
    assert accepted
    return aut, trace


def test_records_refuse_assignment():
    aut, trace = _shortest("exrl-grl", "bab")
    consume = trace.moves[0]
    aut.live  # a cached table, once computed, is no more writable than a field
    for record, name in [
        (Violation("code", "message"), "code"),
        (aut.rules[0], "word"),
        (consume, "dst"),
        (SpaceReport(3, 1, 1), "steps"),
        (aut, "kind"),
        (aut, "rules"),
        (aut, "live"),
        (trace, "kind"),
        (trace, "moves"),
        (trace, "configs"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del trace.start


def test_records_are_tuples_and_return_is_one_value():
    aut, trace = _shortest("exrl-grl", "bb")
    move = trace.moves[0]  # a consume move is the rule it applies
    src, word, dst = move
    assert move == (src, word, dst) == ("q0", "bb", "q1") and move in aut.rules
    _, wrapped = _shortest("exrl-grl", "abab")  # the return applies no rule
    assert [m for m in wrapped.moves if m not in aut.rules] == [None]


def test_traces_unpack_compare_and_hash_as_their_fields():
    _, trace = _shortest("exrl-grl", "abab")
    assert None in trace.moves
    kind, start, moves = trace
    assert trace == (trace.kind, trace.start, trace.moves) == (kind, start, moves)
    twin = Trace(Kind.RIGHT, trace.start, tuple(list(trace.moves)))
    assert twin == trace and hash(twin) == hash(trace)
    # The cached replay lives outside the tuple: reading it changes nothing.
    assert twin.configs == trace.configs
    assert twin == trace == (kind, start, moves)
    assert hash(twin) == hash(trace) == hash((kind, start, moves))
    assert Trace(Kind.RIGHT, trace.start, trace.moves[:-1]) != trace
    empty = Configuration("", "q0", "")
    assert Trace(Kind.RIGHT, empty, ()) != Trace(Kind.LEFT, empty, ())


def test_readme_library_tour_runs(capsys):
    tour = README.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(code, {})
    assert capsys.readouterr().out.startswith("<eps> | q0 | aabb\n")


def test_readme_console_examples_print_what_they_show(capsys):
    console = re.search(r"```console\n(.*?)```", README, re.DOTALL).group(1)
    examples = re.findall(r"^\$ jumpfa (.*)\n((?:(?!\$ ).*\n)*)", console, re.MULTILINE)
    assert len(examples) == 4
    for command, shown in examples:
        run_cli(command.split())
        assert capsys.readouterr().out == shown, command
