"""Ground-truth predicates and the bundled corpus."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumpfa.core import Rule, SymbolOutsideAlphabetError, make_automaton
from jumpfa.engine import iter_words
from jumpfa.oracles import (
    CORPUS_CLAIMS,
    ORACLES,
    UnknownOracleError,
    load_bundled,
    oracle_difference,
    oracle_eval,
)
from jumpfa.transforms import AlphabetMismatchError

import helpers


class TestPredicates:
    def test_spot_checks(self):
        assert oracle_eval("example1", "abbaa")
        assert not oracle_eval("example1", "babaa")
        assert not oracle_eval("dyck", "abba")
        assert oracle_eval("dyck", "")
        assert oracle_eval("dyck_c", "aabbc")
        assert oracle_eval("dyck_c", "c")
        assert not oracle_eval("dyck_c", "ca")
        assert oracle_eval("c_dyck", "cab")
        assert not oracle_eval("c_dyck", "abc")
        assert oracle_eval("eq_or_nob", "aaa")
        assert oracle_eval("bm_ab_bn", "bbabbb")
        assert not oracle_eval("bm_ab_bn", "ba")
        assert oracle_eval("anbn", "aabb")
        assert oracle_eval("astar_bstar", "aab")
        assert oracle_eval("c_singleton", "c")
        assert not oracle_eval("c_singleton", "cc")

    def test_unknown_oracle(self):
        with pytest.raises(UnknownOracleError):
            oracle_eval("nope", "a")

    def test_word_must_fit_the_alphabet(self):
        with pytest.raises(SymbolOutsideAlphabetError):
            oracle_eval("dyck", "abc")

    def test_intersection_identity(self):
        # balanced and sorted at once = equal powers of a and b
        for w in iter_words("ab", 8):
            both = oracle_eval("dyck", w) and oracle_eval("astar_bstar", w)
            assert both == oracle_eval("anbn", w), w

    # Beyond the enumeration: two oracles, on words of up to 10 letters over abc.
    @given(st.text(alphabet="abc", max_size=10))
    def test_appended_c_decompositions(self, w):
        assert oracle_eval("dyck_c", w) == (
            w.endswith("c") and set(w[:-1]) <= {"a", "b"} and oracle_eval("dyck", w[:-1])
        )
        assert oracle_eval("c_dyck", w) == (
            w.startswith("c") and set(w[1:]) <= {"a", "b"} and oracle_eval("dyck", w[1:])
        )


class TestCorpus:
    def test_every_entry_loads_and_validates(self):
        corpus = helpers.corpus()
        assert set(corpus) == set(CORPUS_CLAIMS)
        for name, aut in corpus.items():
            fields = (aut.kind, aut.alphabet, aut.states, aut.start, aut.finals, aut.rules)
            assert make_automaton(*fields) == aut, name

    def test_unknown_bundled_name(self):
        with pytest.raises(UnknownOracleError) as err:
            load_bundled("nope")
        assert str(err.value) == (
            "no bundled automaton named 'nope'; known: example1-rowj, exrl-grl, "
            "exrl-gll, bmabbn-grl, bmabbn-gll, nonrowj-grl, dyck-gll, dyck-grl, "
            "dc-gll, cdyck-grl, c-singleton, astarbstar-dfa"
        )

    def test_every_claim_names_a_registered_oracle(self):
        assert set(CORPUS_CLAIMS.values()) <= set(ORACLES)

    def test_dyck_machine_shape(self):
        aut = load_bundled("dyck-gll")
        assert len(aut.states) == 1 and len(aut.rules) == 1
        assert aut.start in aut.finals

    def test_branching_machine_finals(self):
        assert set(load_bundled("nonrowj-grl").finals) == {"q0", "q1", "q2", "q4"}

    def test_complete_dfa_never_jumps(self):
        aut = load_bundled("astarbstar-dfa")
        for word in iter_words(aut.alphabet, 6):
            for config, move, nxt in helpers.walk_edges(aut, word):
                assert isinstance(move, Rule) and nxt.left == config.left, (word, move)

    # Deeper bounds for the two entries the acceptance suite does not pin;
    # the rest get their full-depth certification there.
    DEPTHS = {"c-singleton": 8, "astarbstar-dfa": 8}

    @pytest.mark.parametrize("name", sorted(CORPUS_CLAIMS))
    def test_claims_hold(self, name):
        depth = self.DEPTHS.get(name, 5)
        assert oracle_difference(load_bundled(name), CORPUS_CLAIMS[name], depth) == []


class TestOracleDifference:
    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            oracle_difference(load_bundled("dyck-grl"), "dyck_c", 4)

    def test_unknown_name(self):
        with pytest.raises(UnknownOracleError, match="known: ") as raised:
            oracle_difference(load_bundled("dyck-grl"), "nope", 4)
        assert all(name in str(raised.value) for name in ORACLES)

    def test_reports_divergent_words(self):
        diffs = oracle_difference(load_bundled("dyck-grl"), "astar_bstar", 4)
        assert ("abab", True, False) in diffs
        assert ("b", False, True) in diffs
