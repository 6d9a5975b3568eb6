"""Exact work counts of the sweeps' verdict path: Python instructions per
swept word.

For each machine and length bound in :data:`SWEEPS`, it counts the bytecode
instructions (``sys.monitoring`` ``INSTRUCTION`` events) that
``engine._differing(words, _decider(aut), const)`` executes over the words of
``iter_words(alphabet, max_len)``, and prints the count divided by the words
swept. The automaton is freshly parsed from the corpus, and the words are
listed and the decider built before the count starts, so the count covers
deciding alone, from a cold decider: no word decided yet, no cache filled.
A count does not vary with the machine's load or speed, so it can settle a
change too small for wall time to show. It counts Python instructions alone:
work done in C, such as ``str.find``, is not seen.

Standard library only, on Python 3.12 or later; it imports the ``jumpfa``
of this checkout. Run it from any directory::

    python tests/work_counts.py            # one count per machine
    python tests/work_counts.py --check    # count twice, exit 1 unless equal
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jumpfa.engine import _decider, _differing, iter_words  # noqa: E402
from jumpfa.oracles import load_bundled  # noqa: E402

# Each machine with the length bound its row of the table takes.
SWEEPS = (
    ("example1-rowj", 8),
    ("exrl-grl", 8),
    ("nonrowj-grl", 8),
    ("dyck-grl", 10),
    ("dc-gll", 7),
    ("cdyck-grl", 7),
    ("astarbstar-dfa", 8),
    ("bmabbn-gll", 8),
    ("c-singleton", 8),
)


def instructions(name: str, max_len: int) -> tuple[int, int]:
    """The instructions that one cold sweep of ``name`` up to ``max_len``
    executes, and the words it sweeps."""
    monitoring = sys.monitoring
    tool, events = monitoring.PROFILER_ID, monitoring.events.INSTRUCTION
    aut = load_bundled(name)
    words, decide = list(iter_words(aut.alphabet, max_len)), _decider(aut)
    count = 0

    def counted(code: object, offset: int) -> None:
        nonlocal count
        count += 1

    monitoring.use_tool_id(tool, "work_counts")
    try:
        monitoring.register_callback(tool, events, counted)
        monitoring.set_events(tool, events)
        _differing(iter(words), decide, _never)
    finally:
        monitoring.set_events(tool, monitoring.events.NO_EVENTS)
        monitoring.register_callback(tool, events, None)
        monitoring.free_tool_id(tool)
    return count, len(words)


def _never(word: str) -> bool:
    return False


def counts() -> dict[str, tuple[int, int]]:
    return {f"{name}, {max_len}": instructions(name, max_len) for name, max_len in SWEEPS}


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("work_counts needs Python 3.12 or later (sys.monitoring)", file=sys.stderr)
        return 2
    if argv not in ([], ["--check"]):
        print("usage: work_counts.py [--check]", file=sys.stderr)
        return 2
    first = counts()
    print(f"{'machine, max-len':<20} {'words':>6} {'instructions':>12} {'per word':>9}")
    for label, (count, words) in first.items():
        print(f"{label:<20} {words:>6} {count:>12} {count / words:>9.1f}")
    if argv:
        second = counts()
        moved = [label for label in first if first[label] != second[label]]
        if moved:
            print(f"counts moved between two runs: {', '.join(moved)}", file=sys.stderr)
            return 1
        print("two runs counted the same")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
