"""Spans around calls into each layer of the package, from outside it.

The tracer replaces each layer's public functions at the names their callers
bind (``jumpfa.cli.member``, ``jumpfa.oracles.member``, ``jumpfa.cli.lba_run``
and so on) with wrappers that record a span: name, start, end, parent span and
command id. Spans live in flat arrays in memory and are written out once, at
the end. ``uninstall`` puts every original function back.
"""

from __future__ import annotations

import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter

# (module the caller lives in, name it binds, span name = layer.function)
TARGETS = (
    ("cli", "parse_automaton", "core.parse_automaton"),
    ("cli", "load_bundled", "oracles.load_bundled"),
    ("cli", "member", "engine.member"),
    ("cli", "enumerate_language", "engine.enumerate_language"),
    ("cli", "lba_run", "lba.lba_run"),
    ("cli", "oracle_difference", "oracles.oracle_difference"),
    ("cli", "language_difference", "transforms.language_difference"),
    ("cli", "reverse_automaton", "transforms.reverse_automaton"),
    ("oracles", "parse_automaton", "core.parse_automaton"),
    ("oracles", "member", "engine.member"),
    ("transforms", "member", "engine.member"),
    ("engine", "member", "engine.member"),
    ("lba", "member", "engine.member"),
)
ROOT_SPAN = "cli.run_cli"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self.stack: list[int] = []
        self.cmd_id = -1
        self._saved: list[tuple[object, str, object]] = []
        # Per-call results the layer metrics need, keyed by command id.
        self.trace_moves: dict[int, int] = {}
        self.limit_errors: dict[int, int] = {}
        self.lba_reports: list[tuple[int, object, int]] = []  # (cmd, SpaceReport, len(w))
        # Per command: the longest member input, and the trace of the longest
        # accepted one, for the memory and step measurements after the run.
        self.longest_input: dict[int, tuple] = {}
        self.longest_trace: dict[int, tuple] = {}

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        nid = self._id(name)
        names, starts, ends, parents, cmds, stack = (
            self.name, self.start, self.end, self.parent, self.cmd, self.stack,
        )

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cmds.append(self.cmd_id)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = perf_counter()
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                stack.pop()
            ends[idx] = perf_counter()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _member_result(self, args, result) -> None:
        aut, word = args[0], args[1]
        cmd = self.cmd_id
        if len(word) >= len(self.longest_input.get(cmd, (None, ""))[1]):
            self.longest_input[cmd] = (aut, word)
        accepted, trace = result
        if accepted:
            self.trace_moves[cmd] = self.trace_moves.get(cmd, 0) + len(trace.moves)
            if len(word) >= len(self.longest_trace.get(cmd, (None, ""))[1]):
                self.longest_trace[cmd] = (aut, word, trace)

    def _member_error(self, exc) -> None:
        if type(exc).__name__ == "SearchLimitError":
            self.limit_errors[self.cmd_id] = self.limit_errors.get(self.cmd_id, 0) + 1

    def _lba_result(self, args, result) -> None:
        self.lba_reports.append((self.cmd_id, result[1], len(args[1])))

    def install(self, jumpfa) -> None:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(f"{jumpfa.__name__}.{module_name}")
            fn = getattr(module, attr)
            hooks = {}
            if span == "engine.member":
                hooks = {"on_result": self._member_result, "on_error": self._member_error}
            elif span == "lba.lba_run":
                hooks = {"on_result": self._lba_result}
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(span, fn, **hooks))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """Spans as one JSON header line followed by the raw column arrays."""
        columns = [("name", self.name), ("start", self.start), ("end", self.end),
                   ("parent", self.parent), ("cmd", self.cmd)]
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [[col, arr.typecode, arr.itemsize] for col, arr in columns],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(f)

    def self_times(self, scale: dict[int, float], spent) -> tuple[list[float], list[float]]:
        """Each span's scaled duration, and its duration minus its children's.

        ``scale`` maps a command id to its speed scale; ``spent(t0, t1)`` is
        the time the speed sampler took inside an interval, taken out first.
        """
        dur = [
            (e - s - spent(s, e)) * scale.get(c, 1.0)
            for s, e, c in zip(self.start, self.end, self.cmd)
        ]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own
