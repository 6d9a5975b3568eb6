"""The forked half of the bounded sweep, :func:`jumpfa.engine.differences`.

A sweep split over ``n`` processes gives share ``i`` word ``j`` of each
length when ``j % n == i``, so cheap and dear words spread evenly over the
shares: :func:`jumpfa.engine.iter_words` enumerates share ``i`` of ``n``, as
it enumerates the whole sweep in one process. The calling process decides
share 0 and forks a child for each other share. A child writes its differing
words with both verdicts to a pipe as one ``marshal`` value, then leaves by
``os._exit``. The rows of all shares are merged into sweep order. If a pipe
or a fork fails, the caller's share raises, or a child's report is missing
or cut short, the sweep returns ``None`` and the caller decides the whole
sweep again in one process.

This module is imported only when a sweep forks, so ``import jumpfa`` does
not compile it.
"""

from __future__ import annotations

import marshal
import os
from typing import Callable, NoReturn, Sequence

from .engine import _differing, iter_words


def forked_sweep(
    alphabet: Sequence[str],
    max_len: int,
    first: Callable[[str], bool],
    second: Callable[[str], bool],
    processes: int,
) -> list[tuple[str, bool, bool]] | None:
    """Decide share 0 here and the others in forked children. Returns the
    differing words in sweep order, or ``None`` when a share did not finish."""
    pids: list[int] = []
    pipes: list[int] = []
    try:
        for share in range(1, processes):
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(write, alphabet, max_len, first, second, share, processes)
                pids.append(pid)
            finally:  # reached only in the caller
                os.close(write)
        rows = _differing(iter_words(alphabet, max_len, 0, processes), first, second)
        for read in pipes:
            rows += marshal.loads(b"".join(iter(lambda: os.read(read, 1 << 16), b"")))
        while pids:
            os.waitpid(pids.pop(), 0)
        # Each letter becomes its index; a letter of two characters or more
        # makes maketrans raise, which leaves the sweep to one process.
        order = str.maketrans(dict(zip(alphabet, map(chr, range(len(alphabet))))))
        rows.sort(key=lambda row: (len(row[0]), row[0].translate(order)))
        return rows
    except Exception:
        return None
    finally:
        for read in pipes:
            os.close(read)
        for pid in pids:  # left only when a share did not finish: end them
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _child(
    write: int,
    alphabet: Sequence[str],
    max_len: int,
    first: Callable[[str], bool],
    second: Callable[[str], bool],
    share: int,
    shares: int,
) -> NoReturn:
    """Decide one share in a forked child, write its rows to ``write`` as one
    ``marshal`` value and exit, whatever happens, without unwinding the
    caller's stack. A share that raises writes nothing."""
    try:
        rows = _differing(iter_words(alphabet, max_len, share, shares), first, second)
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps(rows))
    finally:
        os._exit(0)
