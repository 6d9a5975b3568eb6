"""Command-line behavior: verdict exit codes, deterministic output."""

from jumpfa import cli
from jumpfa.cli import run_cli
from jumpfa.oracles import CORPUS_CLAIMS


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
        assert code == 1
        assert out.startswith("reject\ncells=4")

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
