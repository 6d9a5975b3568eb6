"""Validation, the search tables, and the automaton file format."""

import pytest
from hypothesis import strategies as st
from hypothesis import given, settings

import helpers
from jumpfa.core import (
    DUPLICATE_RULE_KEY,
    EMPTY_ALPHABET,
    EMPTY_RULE_WORD,
    INVALID_STATE_NAME,
    INVALID_SYMBOL,
    MISSING_START,
    SYMBOL_OUTSIDE_ALPHABET,
    UNKNOWN_STATE,
    FormatError,
    Kind,
    Rule,
    ValidationError,
    make_automaton,
    parse_automaton,
    serialize_automaton,
)
from jumpfa.oracles import load_bundled

EXAMPLE1_RULES = [("q0", "b", "q1"), ("q0", "a", "q2"), ("q2", "a", "q3"), ("q3", "b", "q2")]


def example1():
    return make_automaton("grl", "ab", ["q0", "q1", "q2", "q3"], "q0", ["q2"], EXAMPLE1_RULES)


def codes(err: ValidationError) -> set[str]:
    return {v.code for v in err.violations}


class TestValidate:
    def test_accepts_four_state_unit_rule_machine(self):
        aut = example1()
        assert aut.kind is Kind.RIGHT
        assert aut.states == ("q0", "q1", "q2", "q3")
        assert len(aut.rules) == 4

    def test_duplicate_rule_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            make_automaton(
                "grl", "ab", ["q0", "q1", "q2"], "q0", [],
                [("q0", "ab", "q1"), ("q0", "ab", "q2")],
            )
        assert codes(err.value) == {DUPLICATE_RULE_KEY}

    def test_rule_word_outside_alphabet(self):
        with pytest.raises(ValidationError) as err:
            make_automaton("grl", "ab", ["q0", "q1"], "q0", [], [("q0", "ad", "q1")])
        assert codes(err.value) == {SYMBOL_OUTSIDE_ALPHABET}

    def test_empty_rule_word(self):
        with pytest.raises(ValidationError) as err:
            make_automaton("grl", "ab", ["q0"], "q0", [], [("q0", "", "q0")])
        assert codes(err.value) == {EMPTY_RULE_WORD}

    def test_unknown_states_everywhere(self):
        with pytest.raises(ValidationError) as err:
            make_automaton("grl", "ab", ["q0"], "qX", ["qY"], [("q0", "a", "qZ")])
        assert codes(err.value) == {UNKNOWN_STATE}
        assert len(err.value.violations) == 3

    def test_missing_start(self):
        with pytest.raises(ValidationError) as err:
            make_automaton("grl", "ab", ("q0",), None)
        assert codes(err.value) == {MISSING_START}

    def test_violations_collected_not_short_circuited(self):
        with pytest.raises(ValidationError) as err:
            make_automaton(
                "grl", "ab", ("q0",), None, rules=(("q0", "", "q0"), ("q0", "xy", "q0"))
            )
        assert codes(err.value) == {MISSING_START, EMPTY_RULE_WORD, SYMBOL_OUTSIDE_ALPHABET}

    def test_blank_symbol_and_state_name_rejected(self):
        with pytest.raises(ValidationError) as err:
            make_automaton("grl", "a b", ["q 0"], "q 0", ["q 0"], [("q 0", "a", "q 0")])
        assert codes(err.value) == {INVALID_SYMBOL, INVALID_STATE_NAME}

    @pytest.mark.parametrize("name", ["", "q\t0", "q#0"])
    def test_state_name_the_format_cannot_hold(self, name):
        with pytest.raises(ValidationError) as err:
            make_automaton("grl", "a", [name], name, [name], [(name, "a", name)])
        assert codes(err.value) == {INVALID_STATE_NAME}

    def test_multi_character_symbol_rejected(self):
        with pytest.raises(ValidationError) as err:
            make_automaton("grl", ["ab", "c"], ["q0"], "q0", ["q0"], [("q0", "c", "q0")])
        assert codes(err.value) == {INVALID_SYMBOL}
        assert "'ab'" in str(err.value)

    def test_empty_alphabet_rejected(self):
        # the text format cannot hold an empty alphabet line
        with pytest.raises(ValidationError) as err:
            make_automaton("grl", "", ["q"], "q", ["q"])
        assert codes(err.value) == {EMPTY_ALPHABET}

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError) as err:
            make_automaton("xyz", "a", ["q0"], "q0")
        assert str(err.value) == "kind must be one of ['gll', 'grl'], got 'xyz'"

    def test_empty_finals_allowed(self):
        aut = make_automaton("grl", "ab", ["q0"], "q0")
        assert aut.finals == ()


class TestParse:
    def test_bundled_dyck_file(self):
        aut = load_bundled("dyck-grl")
        assert aut.states == ("q0",)
        assert aut.rules == (Rule("q0", "ab", "q0"),)
        assert aut.start in aut.finals

    def test_headers_any_order_comments_blanks(self):
        text = """
        # comment line
        final: q1
        start: q0
        states: q0 q1   # trailing comment
        alphabet: ab

        kind: grl
        rule: q0 ab q1
        """
        aut = parse_automaton(text)
        assert aut.rules == (Rule("q0", "ab", "q1"),)

    def test_empty_rule_section(self):
        aut = parse_automaton("kind: grl\nalphabet: a\nstates: q0\nstart: q0\nfinal: q0\n")
        assert aut.rules == ()

    def test_empty_final_list(self):
        aut = parse_automaton("kind: grl\nalphabet: a\nstates: q0\nstart: q0\nfinal:\n")
        assert aut.finals == ()

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("kind grl", "key: value"),
            ("kind: grl\nalphabet: ab\nstates: q0\nstart: q0\nfinal:\nrule: q0 ab", "FROM WORD TO"),
            ("speed: fast", "unknown directive"),
            ("kind: grl\nalphabet: a\nstates: q0\nstart: q0\nfinal:\nrule: q0 a q0\nstart: q0", "before the first rule"),
            ("kind: grl\nkind: gll", "duplicate header"),
            ("kind: sideways", "kind must be"),
            ("kind: grl\nalphabet:", "alphabet must not be empty"),
            ("kind: grl\nalphabet: aa", "repeats a symbol"),
            ("kind: grl\nalphabet: ab\nstates: q0 q0", "declared twice"),
            ("kind: grl\nalphabet: ab\nstates: q0\nstart: q0 q1", "exactly one state"),
            ("kind: grl\nalphabet: a\x01", "line 2: symbol '\\x01' is not printable non-blank ASCII"),
            ("kind: grl\nalphabet: a\nstates: q0\nstart: q0\nfinal: q0 q0", "line 5: final state listed twice"),
        ],
    )
    def test_format_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(FormatError) as err:
            parse_automaton(text)
        assert fragment in str(err.value)
        assert err.value.line is not None

    def test_missing_header_reported(self):
        with pytest.raises(FormatError) as err:
            parse_automaton("alphabet: ab\nstates: q0\nstart: q0\nfinal:\n")
        assert "missing header 'kind'" in str(err.value)

    def test_missing_start_is_a_validation_error(self):
        with pytest.raises(ValidationError) as err:
            parse_automaton("kind: grl\nalphabet: a\nstates: q0\nfinal: q0\n")
        assert codes(err.value) == {MISSING_START}


class TestSerialize:
    def test_round_trip_is_identity_on_corpus(self):
        for name, aut in helpers.corpus().items():
            assert parse_automaton(serialize_automaton(aut)) == aut, name

    def test_canonicalization_is_byte_idempotent(self):
        for name in helpers.corpus():
            import importlib.resources as res

            text = res.files("jumpfa").joinpath(f"corpus/{name}.jfa").read_text("utf-8")
            once = serialize_automaton(parse_automaton(text))
            twice = serialize_automaton(parse_automaton(once))
            assert once == twice, name

    def test_empty_finals_serialize_without_trailing_space(self):
        aut = make_automaton("gll", "ab", ["q0"], "q0")
        assert "final:\n" in serialize_automaton(aut)

    def test_search_tables_ignored_by_equality_hash_and_text(self):
        aut = load_bundled("nonrowj-grl")
        again = parse_automaton(serialize_automaton(aut))
        assert again is not aut
        assert again == aut and hash(again) == hash(aut)
        assert "rules_from" not in repr(aut) and "live" not in repr(aut)
        assert serialize_automaton(again) == serialize_automaton(aut)

    def test_live_states_reach_a_final_state(self):
        aut = make_automaton(
            "grl", "ab", ["q0", "q1", "q2", "q3"], "q0", ["q2"],
            [("q0", "a", "q1"), ("q1", "b", "q2"), ("q0", "b", "q3"), ("q3", "a", "q3")],
        )
        assert aut.live == {"q0", "q1", "q2"}
        assert make_automaton("gll", "ab", ["q0"], "q0", [], [("q0", "a", "q0")]).live == set()

    # Beyond the enumeration: the file format, which it never parses.
    @settings(max_examples=120)
    @given(helpers.automata())
    def test_round_trip_property(self, aut):
        assert parse_automaton(serialize_automaton(aut)) == aut

    # Beyond the enumeration: arbitrary symbol and state names.
    @settings(max_examples=200)
    @given(
        st.lists(st.text(max_size=2), min_size=0, max_size=3),
        st.lists(st.text(max_size=3), min_size=1, max_size=3),
    )
    def test_every_accepted_name_round_trips(self, alphabet, states):
        rules = [(states[0], alphabet[0], states[-1])] if alphabet else []
        try:
            aut = make_automaton("grl", alphabet, states, states[0], states[-1:], rules)
        except ValidationError:
            return
        assert parse_automaton(serialize_automaton(aut)) == aut


class TestParserFuzz:
    # Beyond the enumeration: arbitrary file text.
    @settings(max_examples=300)
    @given(st.text(alphabet="kindalphbetsrufoq019: #\n", max_size=200))
    def test_arbitrary_text_fails_cleanly_or_parses(self, text):
        try:
            parse_automaton(text)
        except (FormatError, ValidationError):
            pass


class TestMutations:
    """Corrupting a valid file must hit exactly the advertised error taxonomy."""

    BASE = "kind: grl\nalphabet: ab\nstates: q0 q1\nstart: q0\nfinal: q1\nrule: q0 ab q1\n"

    @pytest.mark.parametrize(
        "mutation, expected",
        [
            (lambda t: t + "rule: q0 ab q0\n", DUPLICATE_RULE_KEY),
            (lambda t: t.replace("rule: q0 ab q1", "rule: q9 ab q1"), UNKNOWN_STATE),
            (lambda t: t.replace("rule: q0 ab q1", "rule: q0 abz q1"), SYMBOL_OUTSIDE_ALPHABET),
            (lambda t: t.replace("start: q0\n", ""), MISSING_START),
            (lambda t: t.replace("final: q1", "final: q1 q7"), UNKNOWN_STATE),
        ],
    )
    def test_mutated_file_rejected_with_code(self, mutation, expected):
        with pytest.raises(ValidationError) as err:
            parse_automaton(mutation(self.BASE))
        assert expected in codes(err.value)
