"""Toolkit for generalized linear one-way jumping finite automata.

These machines delete whole words from the input, may jump over text that
contains nothing readable, and wrap the head around when stuck. The package
provides the executable one-step semantics, membership with traces, bounded
language enumeration, the kind-flipping reversal construction, a classic
single-symbol reference simulator, a marked-tape linear-bounded realization,
and brute-force language oracles with a corpus of worked example machines.
The package exports the names the README documents; the rest are imported
from their submodules.
"""

from .core import (
    Automaton,
    JumpfaError,
    Kind,
    make_automaton,
    parse_automaton,
)
from .engine import (
    SearchLimitError,
    Trace,
    enumerate_language,
    format_trace,
    member,
    shortest_trace,
)
from .lba import (
    SpaceReport,
    lba_run,
)
from .oracles import (
    load_bundled,
    oracle_eval,
)
from .transforms import reverse_automaton

__version__ = "0.1.0"
