"""Toolkit for generalized linear one-way jumping finite automata.

These machines delete whole words from the input, may jump over text that
contains nothing readable, and wrap the head around when stuck. The package
provides the executable one-step semantics, membership with traces, bounded
language enumeration, the kind-flipping reversal construction, a classic
single-symbol reference simulator, a marked-tape linear-bounded realization,
and brute-force language oracles with a corpus of worked example machines.
"""

from .core import (
    EMPTY_WORD,
    Automaton,
    FormatError,
    JumpfaError,
    Kind,
    Rule,
    SymbolOutsideAlphabetError,
    UnknownStateError,
    ValidationError,
    Violation,
    check_word,
    make_automaton,
    parse_automaton,
    readable_words,
    serialize_automaton,
)
from .engine import (
    Configuration,
    Consume,
    Move,
    RETURN,
    Return,
    SearchLimitError,
    Trace,
    accepts,
    contains_factor,
    enumerate_language,
    format_trace,
    initial_config,
    iter_words,
    member,
    naive_consume_successors,
    shortest_trace,
    successors,
)
from .lba import SpaceReport, TapeConfig, lba_equivalence, lba_run
from .oracles import (
    CORPUS_CLAIMS,
    ORACLES,
    NamedPredicate,
    UnknownOracleError,
    load_bundled,
    oracle_difference,
    oracle_eval,
)
from .transforms import (
    AlphabetMismatchError,
    NotUnitRuleError,
    OneWayConfig,
    is_unit_rule,
    language_difference,
    one_way_reference_member,
    one_way_reference_trace,
    reverse_automaton,
)

__version__ = "0.1.0"
