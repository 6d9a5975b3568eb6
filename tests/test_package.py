"""The package's public surface: the names it exports, and the README tour."""

import inspect
import re
from pathlib import Path
from types import ModuleType

import jumpfa
from jumpfa import engine
from jumpfa.cli import run_cli

README = (Path(__file__).parents[1] / "README.md").read_text("utf-8")

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
    assert (engine.MAX_EXPANSIONS, engine.MAX_SWEEP_SYMBOLS) == (10**6, 2 * 10**8)


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
