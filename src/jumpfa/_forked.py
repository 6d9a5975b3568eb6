"""The forked half of the bounded sweep, :func:`jumpfa.engine.differences`.

A sweep split over ``n`` processes gives share ``i`` word ``j`` of each
length when ``j % n == i``, so cheap and dear words spread evenly over the
shares. The calling process decides share 0 and forks a child for each other
share. A child reports on a pipe, as plain text, the places of its differing
words with both verdicts, and the place of its first failing word if any,
then leaves by ``os._exit``; a word's place is its index in
:func:`jumpfa.engine.iter_words` order. The rows are merged by place. The
sweep resumes in the calling process from the earliest place a share failed
on, or from the start if a child left no full report.

This module is imported only when a sweep forks, so ``import jumpfa`` does
not compile it.
"""

from __future__ import annotations

import os
from itertools import islice, product
from typing import Callable, NoReturn, Sequence

# A differing word of a share: its place, the word and both verdicts.
_Row = tuple[int, str, bool, bool]


def _decide_share(
    alphabet: Sequence[str],
    max_len: int,
    first: Callable[[str], bool],
    second: Callable[[str], bool],
    share: int,
    shares: int,
    rows: list[_Row],
    catch: type[BaseException],
) -> int | None:
    """Decide word ``j`` of each length for ``j % shares == share``, adding a
    row for each differing word. Returns the place of the first word on which
    ``first`` or ``second`` raised a ``catch``, where the share stopped, or
    ``None`` when it decided every word."""
    offset = place = 0
    try:
        for length in range(max_len + 1):
            place = offset + share
            for letters in islice(product(alphabet, repeat=length), share, None, shares):
                word = "".join(letters)
                verdict = first(word)
                other = second(word)
                if verdict != other:
                    rows.append((place, word, verdict, other))
                place += shares
            offset += len(alphabet) ** length
    except catch:
        return place
    return None


def forked_sweep(
    alphabet: Sequence[str],
    max_len: int,
    first: Callable[[str], bool],
    second: Callable[[str], bool],
    processes: int,
) -> tuple[list[tuple[str, bool, bool]], int | None]:
    """Decide share 0 here and the others in forked children. Returns the
    differing words below the place the sweep must resume from, and that
    place: ``None`` when every share finished, ``0`` when a fork failed."""
    pids: list[int] = []
    pipes: list[int] = []
    try:
        for share in range(1, processes):
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
            except OSError:
                os.close(write)
                return [], 0
            if pid == 0:
                _child(write, alphabet, max_len, first, second, share, processes)
            pids.append(pid)
            os.close(write)
        rows: list[_Row] = []
        stops = [_decide_share(alphabet, max_len, first, second, 0, processes, rows, Exception)]
        for read in pipes:
            chunks = iter(lambda: os.read(read, 1 << 16), b"")
            stops.append(_read_report(b"".join(chunks).decode(), alphabet, rows))
        while pids:
            os.waitpid(pids.pop(), 0)
    finally:
        for read in pipes:
            os.close(read)
        for pid in pids:  # left only when this process raised: end them
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    failed = [place for place in stops if place is not None]
    resume = min(failed) if failed else None
    rows.sort()
    return [row[1:] for row in rows if resume is None or row[0] < resume], resume


def _child(
    write: int,
    alphabet: Sequence[str],
    max_len: int,
    first: Callable[[str], bool],
    second: Callable[[str], bool],
    share: int,
    shares: int,
) -> NoReturn:
    """Decide one share in a forked child, write its report to ``write`` and
    exit, whatever happens, without unwinding the caller's stack: one line
    ``PLACE FIRST SECOND`` per differing word, verdicts as 0 or 1, then
    ``end``, or ``fail PLACE`` if the share stopped at a failing word."""
    try:
        rows: list[_Row] = []
        failed = _decide_share(alphabet, max_len, first, second, share, shares, rows, BaseException)
        report = [f"{place} {verdict:d} {other:d}\n" for place, _, verdict, other in rows]
        report.append("end\n" if failed is None else f"fail {failed}\n")
        with open(write, "w", encoding="utf-8") as pipe:
            pipe.writelines(report)
    finally:
        os._exit(0)


def _read_report(report: str, alphabet: Sequence[str], rows: list[_Row]) -> int | None:
    """Add a child's rows to ``rows`` and return the place its share stopped
    at, as :func:`_decide_share` does. A report cut short before its last line
    (a child that died) stops at place 0, so this process decides every word."""
    lines = report.split("\n")
    last = lines[-2] if len(lines) > 1 else ""
    if last != "end" and not last.startswith("fail "):
        return 0
    for line in lines[:-2]:
        place, verdict, other = line.split()
        rows.append((int(place), _word_at(alphabet, int(place)), verdict == "1", other == "1"))
    return None if last == "end" else int(last[5:])


def _word_at(alphabet: Sequence[str], place: int) -> str:
    """The word at ``place`` in the sweep's length-then-lexicographic order."""
    size, length = len(alphabet), 0
    while place >= size**length:
        place -= size**length
        length += 1
    letters = []
    for _ in range(length):
        place, digit = divmod(place, size)
        letters.append(alphabet[digit])
    return "".join(reversed(letters))
