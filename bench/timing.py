"""Speed sampling and percentile helpers shared by the benchmark scripts.

The speed of the same Python code on a shared virtual machine drifts by up to
1.8x between processes started minutes apart, and by similar amounts within a
process from one second to the next. Every timing the benchmark reports is
therefore scaled to a reference speed. While a run measures, a ``SIGALRM``
handler times a fixed pure-Python kernel of the benchmark's own every
``INTERVAL_S`` of wall time. A command's time, less the time the handler took
inside it, is multiplied by the kernel's reference time over the median kernel
time of the samples taken during and around it. The kernel is the benchmark's
code, so a change to the package cannot move it; what remains is the package's
speed relative to the kernel, in seconds of the reference machine. Unscaled
values are reported next to the scaled ones.

There are two kernels, because the machine's slow periods do not slow all
code alike. ``kernel``, a small configuration search, follows the speed of
searches over short words. In some periods, code that allocates and copies
strings of thousands of letters runs about a third slower while ``kernel``
keeps its speed; ``copy_kernel``, which does that, slowed with it where
measured.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from collections import deque
from time import perf_counter
from typing import NamedTuple

# Median kernel times on the 2-core Intel Xeon virtual machine the baseline
# was recorded on (CPython 3.11), round figures within its drift.
REF_KERNEL_S = 0.0003
REF_COPY_KERNEL_S = 0.0005
INTERVAL_S = 0.01
LEAST_SAMPLES = 9  # kernel samples behind one command's speed estimate

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50, 75, 90, 95, 99)


class _Config(NamedTuple):
    left: str
    state: str
    right: str


def _successors(config: _Config, words: tuple[str, ...]) -> list[_Config]:
    out = []
    for w in words:
        p = config.right.find(w)
        if p >= 0:
            out.append(_Config(config.left + config.right[:p], config.state, config.right[p + len(w):]))
    if config.left and not out:
        out.append(_Config("", config.state, config.left + config.right))
    return out


def kernel() -> int:
    """A breadth-first search over string configurations, like the package's."""
    start = _Config("", "q", "abbaababbbaababab" * 3)
    parents = {start: None}
    queue = deque([start])
    n = 0
    while queue and n < 40:
        config = queue.popleft()
        n += 1
        for nxt in _successors(config, ("ab", "ba", "abb", "bb")):
            if nxt not in parents:
                parents[nxt] = config
                queue.append(nxt)
    return n


_TEXT = "abbaababbbaababab" * 235  # 3995 letters


def copy_kernel() -> int:
    """Rotations of a long text kept in a dict: allocating and copying kilobytes."""
    seen = {}
    text = _TEXT
    for i in range(300):
        text = text[7:] + text[:7]
        seen[text] = i
    return len(seen)


class SpeedSampler:
    """Times a kernel every ``INTERVAL_S`` while the ``with`` block runs."""

    def __init__(self, probe=kernel, ref_s: float = REF_KERNEL_S) -> None:
        self.probe = probe
        self.ref_s = ref_s
        self.at: list[float] = []  # when each sample started
        self.took: list[float] = []  # how long each sample took
        self.cum = [0.0]  # cum[i]: time spent in the first i samples
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.probe()
        took = perf_counter() - t0
        self.at.append(t0)
        self.took.append(took)
        self.cum.append(self.cum[-1] + took)

    def __enter__(self) -> SpeedSampler:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def spent(self, t0: float, t1: float) -> float:
        """Time the sampler itself took between ``t0`` and ``t1``."""
        return self.cum[bisect_left(self.at, t1)] - self.cum[bisect_left(self.at, t0)]

    def scale(self, t0: float, t1: float) -> float:
        """The reference time over the median kernel time during and around [t0, t1]."""
        if not self.took:
            return 1.0
        i, j = bisect_left(self.at, t0), bisect_left(self.at, t1)
        if j - i < LEAST_SAMPLES:
            i = max(0, (i + j) // 2 - LEAST_SAMPLES // 2)
            j = min(len(self.took), i + LEAST_SAMPLES)
            i = max(0, j - LEAST_SAMPLES)
        return self.ref_s / statistics.median(self.took[i:j])


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    """The ``pct``-th percentile by the nearest-rank rule (a real sample)."""
    rank = -(-pct * len(sorted_values) // 100)  # ceil without float rounding
    return sorted_values[max(rank, 1) - 1]


def beyond(n: int, pct: int) -> int:
    """Samples strictly beyond the nearest-rank ``pct``-th percentile of ``n``."""
    return n - -(-pct * n // 100)


def tail_pct(n: int) -> int:
    """The highest ladder percentile with at least ten of ``n`` samples beyond it."""
    fitting = [p for p in TAIL_LADDER if beyond(n, p) >= 10]
    return fitting[-1] if fitting else 100
