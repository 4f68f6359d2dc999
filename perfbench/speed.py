"""The processor speed a round ran at, sampled inside the round's process.

On the shared host the bounds were set on, each vCPU switches between a
fast and a slow speed, in spells of several seconds to a minute, and the
two vCPUs do so independently: a fixed pure-Python loop took 6.5 ms in a
fast spell and 10.5 ms in a slow one.  Process CPU time slows down with it,
so it is no steadier than wall time.  A round's raw wall time therefore
says as much about the spells it met as about the program.

So the benchmark times a fixed chunk of pure-Python work every ``PERIOD_S``
of wall time while a round runs (``Sampler``, on ``SIGALRM``), and once
more, ``SETUP_CHUNKS`` times in a row, right after set-up (``burst``).
``speed(samples)`` is the mean of ``REFERENCE_S / duration`` over the
samples: about 1 in a fast spell of that host, about 0.6 in a slow one.
Since the samples are spread evenly over wall time, raw time times speed
is the time the same work takes at the reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
SETUP_CHUNKS = 20
# one chunk in a fast spell of the 2-vCPU host the bounds were set on
REFERENCE_S = 0.85e-3


def chunk() -> float:
    table, total = {}, 0.0
    for i in range(8000):
        table[i & 255] = total
        total += i * 0.5
    return total


def timed_chunk() -> float:
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


def burst(n: int = SETUP_CHUNKS) -> list:
    return [timed_chunk() for _ in range(n)]


def speed(samples) -> float:
    return statistics.mean(REFERENCE_S / s for s in samples)


class Sampler:
    """Times one chunk every PERIOD_S of wall time between start() and stop().

    ``spent`` is the time the chunks took, which the caller takes off the
    round's wall time.  The chunks touch nothing of the program's.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        try:
            elapsed = timed_chunk()
        except RecursionError:
            # the alarm came while the program was at the recursion limit
            return
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
