"""Time operations at a fixed reference speed of the machine.

The benchmark's machine (2 vCPUs of a shared host) changes speed by itself:
both vCPUs slow down and speed up together by up to ~30%, in phases of
seconds to minutes, and CPU time slows as much as wall time.  Runs of the
same code at different times therefore differ by more than any bound a
regression check can use.

``SpeedProbe`` samples the speed by timing a fixed reference task that does
not use mlechar: before and after each measured operation, between the
child processes of one (``sample``), and, for work in this process, every
``PERIOD_S`` from an interval timer that interrupts the main thread
(``timer``).  An operation's *reference time* is its wall time multiplied
by the mean of ``reference_s / sample`` over the samples taken during it:
the time it would have taken at the speed at which the task takes
``reference_s``.  It depends on the program's work, not on the machine's
phase; the wall time is recorded beside it.

Work in this process is scaled by ``compute``, a mix of interpreted and
numpy work; work in child processes by ``spawn``, the start of a bare
interpreter, which follows process start-up more closely (per CLI command,
the spread across a 100 s run fell from 0.22 to 0.08 with ``spawn`` and to
0.17 with ``compute``).  Samples are not taken while a child process works:
they would share the machine's two vCPUs with it and read slow.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import subprocess
import sys
import time

import numpy

PERIOD_S = 0.25

_GRID = numpy.linspace(-3.0, 3.0, 1024)


def compute():
    """Wall seconds of a fixed mix of interpreted and numpy work."""
    start = time.perf_counter()
    total = 0.0
    for i in range(20000):
        total += (i % 7) * 0.5
    for _ in range(30):
        total += float(numpy.exp(-0.5 * _GRID * _GRID).sum())
    return time.perf_counter() - start


def spawn():
    """Wall seconds of starting and ending a bare interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


# (task, its seconds on the reference machine at its usual speed)
IN_PROCESS = (compute, 0.0024)
CHILD = (spawn, 0.012)


class SpeedProbe:
    """Collects speed samples; ``measure(fn)`` gives wall and reference seconds."""

    def __init__(self, reference, reference_s):
        self.reference, self.reference_s = reference, reference_s
        self.samples = []

    def sample(self):
        """Time the reference task a few times, between pieces of work."""
        self.samples += [self.reference() for _ in range(3)]

    def _on_timer(self, signum, frame):
        self.samples.append(self.reference())

    @contextlib.contextmanager
    def timer(self):
        """Sample every ``PERIOD_S`` while the block runs in this process."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, fn):
        """``(wall_s, reference_s)`` of the work ``fn()`` does.

        ``fn`` returns the wall seconds of the work it timed, which leaves out
        its own checks and the samples taken between its child processes.
        Timer samples, ~1% of the time, stay in the wall time.
        """
        first = len(self.samples)
        self.sample()
        wall = fn()
        self.sample()
        scale = statistics.fmean(self.reference_s / s for s in self.samples[first:])
        return wall, wall * scale
