"""Command-line behavior: verdict exit codes, deterministic output."""

import io
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from jumpfa import cli
from jumpfa.cli import run_cli
from jumpfa.core import make_automaton, serialize_automaton
from jumpfa.oracles import CORPUS_CLAIMS, ORACLES


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMember:
    def test_accept(self, capsys):
        code, out, _ = run(capsys, "member", "dyck-grl.jfa", "aabb")
        assert (code, out) == (0, "accept\n")

    def test_reject(self, capsys):
        code, out, _ = run(capsys, "member", "dyck-grl.jfa", "abba")
        assert (code, out) == (1, "reject\n")

    def test_empty_word_token(self, capsys):
        code, out, _ = run(capsys, "member", "dyck-grl.jfa", "<eps>")
        assert (code, out) == (0, "accept\n")

    def test_word_starting_with_dash_after_double_dash(self, capsys, tmp_path):
        dash = tmp_path / "dash.jfa"
        dash.write_text("kind: grl\nalphabet: -a\nstates: p q\nstart: p\nfinal: q\nrule: p -a q\n")
        assert run(capsys, "member", str(dash), "--", "-a") == (0, "accept\n", "")
        _, out, _ = run(capsys, "member", "--help")
        assert "put -- before a word that starts with -" in " ".join(out.split())

    def test_the_word_double_dash_after_double_dash(self, capsys, tmp_path):
        # Some argparse versions strip this second "--" as well.
        dash = tmp_path / "dash.jfa"
        dash.write_text("kind: grl\nalphabet: -a\nstates: p q\nstart: p\nfinal: q\nrule: p -- q\n")
        assert run(capsys, "member", str(dash), "--", "--") == (0, "accept\n", "")
        assert run(capsys, "member", str(dash), "--", "-") == (1, "reject\n", "")
        assert run(capsys, "trace", str(dash), "--", "--") == (
            0, "<eps> | p | --\n<eps> | q | <eps>  -- consume(p,--,q skip=<eps>)\n", ""
        )

    @pytest.mark.parametrize("argv", [
        ("member", "dyck-grl", "--", "--"),
        ("trace", "bmabbn-grl", "--", "--"),
        ("lba", "dyck-grl", "--", "--"),
        ("oracle", "dyck", "--", "--"),
    ])
    def test_the_word_double_dash_outside_the_alphabet_is_an_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: symbol '-' is not in")


class TestTrace:
    def test_trace_ends_in_bare_final_state(self, capsys):
        code, out, _ = run(capsys, "trace", "exrl-grl.jfa", "bab")
        assert code == 0
        assert out.splitlines()[0] == "<eps> | q0 | bab"
        assert out.splitlines()[-1].startswith("<eps> | q1 | <eps>")

    def test_trace_annotations(self, capsys):
        _, out, _ = run(capsys, "trace", "exrl-grl.jfa", "bab")
        assert out.splitlines()[1] == "b | q0 | b  -- consume(q0,a,q0 skip=b)"
        assert out.splitlines()[2] == "<eps> | q0 | bb  -- return"

    def test_empty_word_token(self, capsys):
        assert run(capsys, "trace", "dyck-grl.jfa", "<eps>") == (0, "<eps> | q0 | <eps>\n", "")

    def test_rejected_word(self, capsys):
        code, out, _ = run(capsys, "trace", "dyck-grl.jfa", "ba")
        assert (code, out) == (1, "reject\n")

    def test_right_linear_trace(self, capsys):
        # ab occurs twice ahead: the run deletes the nearer one
        assert run(capsys, "trace", "dyck-grl.jfa", "aabbab") == (
            0,
            "<eps> | q0 | aabbab\n"
            "a | q0 | bab  -- consume(q0,ab,q0 skip=a)\n"
            "ab | q0 | <eps>  -- consume(q0,ab,q0 skip=b)\n"
            "<eps> | q0 | ab  -- return\n"
            "<eps> | q0 | <eps>  -- consume(q0,ab,q0 skip=<eps>)\n",
            "",
        )

    def test_left_linear_trace(self, capsys):
        assert run(capsys, "trace", "dc-gll.jfa", "abaabbc") == (
            0,
            "abaabbc | q0 | <eps>\n"
            "abaabb | q1 | <eps>  -- consume(q0,c,q1 skip=<eps>)\n"
            "aba | q1 | b  -- consume(q1,ab,q1 skip=b)\n"
            "<eps> | q1 | ab  -- consume(q1,ab,q1 skip=a)\n"
            "ab | q1 | <eps>  -- return\n"
            "<eps> | q1 | <eps>  -- consume(q1,ab,q1 skip=<eps>)\n",
            "",
        )


class TestEnumerate:
    def test_length_lex_with_eps(self, capsys):
        code, out, _ = run(capsys, "enumerate", "dyck-grl.jfa", "--max-len", "4")
        assert code == 0
        assert out == "<eps>\nab\naabb\nabab\n"

    def test_byte_identical_across_runs(self, capsys):
        first = run(capsys, "enumerate", "nonrowj-grl.jfa", "--max-len", "5")
        second = run(capsys, "enumerate", "nonrowj-grl.jfa", "--max-len", "5")
        assert first == second


class TestReverse:
    def test_serialized_reversal(self, capsys):
        code, out, _ = run(capsys, "reverse", "dyck-gll.jfa")
        assert code == 0
        assert out == (
            "kind: grl\nalphabet: ab\nstates: q0\nstart: q0\nfinal: q0\nrule: q0 ba q0\n"
        )


class TestLba:
    def test_accept_with_space_report(self, capsys):
        code, out, _ = run(capsys, "lba", "dyck-grl.jfa", "aabb")
        assert code == 0
        assert out == "accept\ncells=6 compactions=2 steps=3\n"

    def test_reject(self, capsys):
        code, out, _ = run(capsys, "lba", "dyck-grl.jfa", "ba")
        assert (code, out) == (1, "reject\ncells=4 compactions=0 steps=0\n")

    def test_branching_runs(self, capsys):
        code, out, _ = run(capsys, "lba", "nonrowj-grl.jfa", "aabbab")
        assert (code, out) == (0, "accept\ncells=8 compactions=2 steps=6\n")
        code, out, _ = run(capsys, "lba", "nonrowj-grl.jfa", "aab")
        assert (code, out) == (1, "reject\ncells=5 compactions=2 steps=3\n")

    def test_empty_word_token(self, capsys):
        code, out, _ = run(capsys, "lba", "dyck-grl.jfa", "<eps>")
        assert (code, out) == (0, "accept\ncells=2 compactions=0 steps=0\n")

    def test_left_linear_machine(self, capsys):
        code, out, _ = run(capsys, "lba", "dyck-gll.jfa", "ab")
        assert (code, out) == (0, "accept\ncells=4 compactions=1 steps=1\n")


class TestCompare:
    def test_oracle_equivalence(self, capsys):
        code, out, _ = run(capsys, "compare", "dyck-gll.jfa", "--oracle", "dyck", "--max-len", "6")
        assert (code, out) == (0, "no differences up to length 6\n")

    def test_two_files_with_differences(self, capsys):
        code, out, _ = run(capsys, "compare", "dyck-grl.jfa", "astarbstar-dfa.jfa", "--max-len", "3")
        assert code == 1
        lines = out.splitlines()
        assert "b left=reject right=accept" in lines
        assert "a left=reject right=accept" in lines

    def test_needs_exactly_one_comparand(self, capsys):
        code, _, err = run(capsys, "compare", "dyck-grl.jfa", "--max-len", "3")
        assert code == 2 and "compare needs" in err


class TestOracleCommand:
    def test_verdicts(self, capsys):
        assert run(capsys, "oracle", "dyck", "ab")[0] == 0
        assert run(capsys, "oracle", "dyck", "ba")[0] == 1
        assert run(capsys, "oracle", "dyck", "<eps>")[0] == 0

    def test_unknown_oracle_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle", "nope", "a")
        assert code == 2


class TestExamplesAndValidate:
    def test_examples_lists_corpus(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        assert out.splitlines() == list(CORPUS_CLAIMS)

    def test_validate_bundled(self, capsys):
        assert run(capsys, "validate", "example1-rowj.jfa") == (0, "ok\n", "")

    def test_validate_file_on_disk(self, capsys, tmp_path):
        good = tmp_path / "tiny.jfa"
        good.write_text("kind: grl\nalphabet: a\nstates: q0\nstart: q0\nfinal: q0\n")
        assert run(capsys, "validate", str(good))[0] == 0

    def test_validate_file_with_byte_order_mark(self, capsys, tmp_path):
        marked = tmp_path / "bom.jfa"
        marked.write_bytes(b"\xef\xbb\xbfkind: grl\nalphabet: a\nstates: q\nstart: q\nfinal: q\n")
        assert run(capsys, "validate", str(marked)) == (0, "ok\n", "")
        # the offset of a bad byte still counts the mark
        marked.write_bytes(b"\xef\xbb\xbfkind: grl\n\xff\n")
        code, _, err = run(capsys, "validate", str(marked))
        assert code == 2 and err.endswith("not UTF-8 text (byte 13)\n")

    def test_validate_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jfa"
        bad.write_text("kind: grl\nalphabet: a\nstates: q0\nstart: q9\nfinal:\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "unknown-state" in err

    def test_missing_file_and_name(self, capsys):
        code, _, err = run(capsys, "member", "no-such-thing.jfa", "a")
        assert code == 2
        assert "no such file or bundled automaton" in err

    def test_usage_error_exit_code(self, capsys):
        assert run(capsys, "enumerate", "dyck-grl.jfa")[0] == 2  # --max-len missing

    def test_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "bad.jfa"
        bad.write_bytes(b"kind: grl\nalphabet: \xff\n")
        code, out, err = run(capsys, "member", str(bad), "a")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "not UTF-8" in err
        assert len(err.splitlines()) == 1

    def test_negative_max_len_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "compare", "dyck-grl", "--oracle", "dyck", "--max-len", "-3")
        assert (code, out) == (2, "")
        assert "must not be negative" in err
        code, out, err = run(capsys, "enumerate", "dyck-grl", "--max-len", "-1")
        assert (code, out) == (2, "")
        assert "must not be negative" in err

    def test_non_integer_max_len_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "dyck-grl", "--max-len", "x")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "jumpfa enumerate: error: argument --max-len: invalid int value: 'x'"
        )


class TestSweepCap:
    def test_oversized_sweeps_fail_at_once(self, capsys):
        for argv in (
            ["enumerate", "dyck-grl", "--max-len", "100000"],
            ["compare", "dyck-grl", "--oracle", "dyck", "--max-len", "40"],
            ["compare", "dyck-grl", "dyck-gll", "--max-len", "40"],
        ):
            started = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - started < 1
            assert (code, out) == (2, "")
            assert err == (
                "error: gave up: 369098754 symbols up to length 23 "
                "exceed the sweep cap of 200000000\n"
            )

    def test_oversized_unary_sweeps_fail_at_once(self, capsys):
        for argv in (
            ["enumerate", "c-singleton", "--max-len", "100000"],
            ["compare", "c-singleton", "--oracle", "c_singleton", "--max-len", "100000"],
        ):
            started = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - started < 1
            assert (code, out) == (2, "")
            assert err == (
                "error: gave up: 200010000 symbols up to length 20000 "
                "exceed the sweep cap of 200000000\n"
            )


class TestSearchBudget:
    def test_branching_trace_gives_up_fast_and_small(self, capsys, tmp_path):
        # One final state looping on six words: on a random 4000-letter word
        # the breadth-first search meets exponentially many configurations.
        aut = make_automaton(
            "gll", "ab", ["q0"], "q0", ["q0"],
            [("q0", w, "q0") for w in ("abb", "aaa", "ba", "aab", "bb", "ab")],
        )
        machine = tmp_path / "onestate.jfa"
        machine.write_text(serialize_automaton(aut))
        rnd = random.Random(1)
        word = "".join(rnd.choice("ab") for _ in range(4000))
        started = time.perf_counter()
        code, peak = helpers.peak_bytes(lambda: run_cli(["trace", str(machine), word]))
        assert time.perf_counter() - started < 3
        assert peak < 64 * 2**20, peak
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: gave up after storing 20000000 symbols on input of length 4000\n"
        )
        assert run(capsys, "member", str(machine), word) == (0, "accept\n", "")


class TestSharedParser:
    ARGVS = [
        ["member", "dyck-grl.jfa", "aabb"],
        ["enumerate", "dyck-grl.jfa"],  # usage error: --max-len missing
        ["compare", "dyck-grl.jfa", "astarbstar-dfa.jfa", "--max-len", "3"],
        ["compare", "dyck-grl.jfa", "--oracle", "dyck", "--max-len", "3"],
        ["trace", "exrl-grl.jfa", "bab"],
        ["oracle", "nope", "a"],  # usage error: unknown oracle
        [],  # usage error: no subcommand
        ["-h"],
        ["compare", "-h"],
        ["member", "dyck-grl.jfa", "abba"],
    ]

    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        # A command must not see anything an earlier command left in the parser.
        shared = [run(capsys, *argv) for argv in self.ARGVS * 2]
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = [run(capsys, *argv) for argv in self.ARGVS * 2]
        assert shared == fresh
        codes = [code for code, _, _ in shared[: len(self.ARGVS)]]
        assert codes == [0, 2, 1, 0, 0, 2, 2, 0, 0, 1]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_goes_away_ends_the_script_quietly(unbuffered):
    # The read end closes before the script writes its first line, so the
    # first write fails: at exit when stdout is buffered, at once when not.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["enumerate", "dyck-grl", "--max-len", "13"]
    script = "from jumpfa.cli import main; main()"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, b"")


CORPUS = Path(cli.__file__).parent / "corpus"
# What a mutation inserts as a line or splices into one: line breaks that
# str.splitlines() honours, a byte-order mark, a NUL, a byte that is not
# UTF-8 (written through surrogateescape), comment and key separators, the
# empty-word token, and fragments of real directives.
SPLICES = (
    "\x00", "\ufeff", "\x85", "\r", "\udcff", "#", ":", "<eps>", "é", " ", "\t",
    "q0", "ab", "rule:", "rule: q0 a q0", "kind: gll", "final:", "alphabet: abc",
)


@st.composite
def mutated_machines(draw):
    """A corpus file with a few lines deleted, inserted or spliced."""
    name = draw(st.sampled_from(list(CORPUS_CLAIMS)))
    lines = (CORPUS / f"{name}.jfa").read_text("utf-8").splitlines()
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("delete", "insert", "splice")))
        at = draw(st.integers(0, len(lines)))
        if op == "delete" and at < len(lines):
            del lines[at]
        elif op == "insert" or at == len(lines):
            lines.insert(at, draw(st.sampled_from(SPLICES + tuple(lines))))
        else:
            line = lines[at]
            cut = draw(st.integers(0, len(line)))
            lines[at] = line[:cut] + draw(st.sampled_from(SPLICES)) + line[cut:]
    return "\n".join(lines) + draw(st.sampled_from(("\n", "")))


# "--" after "--" is drawn on its own: some argparse versions hand it over as [].
WORDS = st.one_of(
    st.sampled_from(("<eps>", "--")),
    st.lists(st.sampled_from(("a", "b", "c", "-", "#", "<eps>", "é", " ")), max_size=6).map(
        "".join
    ),
)


@pytest.fixture(scope="module")
def machine_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


class TestBadInput:
    """Whatever a machine file or a word holds, a command ends at once with
    exit code 0, 1 or 2, and exit 2 carries one diagnostic line or
    argparse's usage block, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(
        mutated_machines(),
        mutated_machines(),
        WORDS,
        st.booleans(),
        st.integers(0, 3),
        st.sampled_from((None, *sorted(ORACLES))),
    )
    def test_every_file_command_ends_in_a_verdict_or_one_diagnostic(
        self, machine_dir, text, other_text, word, dashes, max_len, oracle
    ):
        machine, other = machine_dir / "machine.jfa", machine_dir / "other.jfa"
        machine.write_text(text, "utf-8", "surrogateescape")
        other.write_text(other_text, "utf-8", "surrogateescape")
        file, n = str(machine), str(max_len)
        word_args = ["--", word] if dashes else [word]
        comparand = [str(other)] if oracle is None else ["--oracle", oracle]
        for argv in (
            ["validate", file],
            ["member", file, *word_args],
            ["trace", file, *word_args],
            ["lba", file, *word_args],
            ["enumerate", file, "--max-len", n],
            ["reverse", file],
            ["compare", file, *comparand, "--max-len", n],
        ):
            out, err = io.StringIO(), io.StringIO()
            started = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = run_cli(argv)
            except (Exception, SystemExit) as exc:
                raise AssertionError(f"{exc!r} escaped run_cli{argv}") from exc
            assert time.perf_counter() - started < 2, argv
            assert code in (0, 1, 2), (argv, code)
            if code == 2:
                lines = err.getvalue().splitlines()
                usage = (
                    len(lines) > 1
                    and lines[0].startswith("usage: jumpfa ")
                    and lines[-1].startswith(f"jumpfa {argv[0]}: error: ")
                )
                one_line = len(lines) == 1 and lines[0].startswith("error: ")
                assert usage or one_line, (argv, err.getvalue())
