"""CPU speed probe: a fixed pure-Python loop whose time tracks the CPU's speed.

On a shared VM the CPU speed drifts by tens of percent within a tenth of a
second and by up to a factor of two between minutes, and CPU time tracks
wall time, so the drift is in the speed and not in scheduling.  A probe
taken just before and just after a 0.3 s call hardly tracks the speed
during it, so ``Sampler`` probes *during* the timed code: a real-time timer
interrupts it every ``INTERVAL_S`` and the signal handler runs a short probe.
A timed interval is then converted to the time it would take at the speed at
which the loop takes ``NOMINAL_MS`` per ``ITERATIONS``: the interval minus
the probes inside it, times the mean of nominal over measured probe time.
The loop exercises the same interpreter paths as the package (dict lookups,
integer arithmetic, string building) and must never change: its time is the
unit the reported times are scaled by.

It imports only ``time`` and the built-in ``_signal`` (already loaded at
interpreter start, unlike ``signal``, which pulls in ``enum``), so that
probing inside a fresh interpreter does not preload modules that
``sceneplan`` imports.
"""

import _signal
import time

ITERATIONS = 6000
NOMINAL_MS = 2.3
SAMPLE_ITERATIONS = 600
INTERVAL_S = 0.005


def probe_ms(iterations: int) -> float:
    """Milliseconds the loop takes now, scaled to ``ITERATIONS``."""
    counts: dict[int, int] = {}
    start = time.perf_counter()
    for i in range(iterations):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
        str(i)
    return (time.perf_counter() - start) * 1000.0 * ITERATIONS / iterations


class Sampler:
    """Probes the CPU speed every ``INTERVAL_S`` while it runs.

    ``samples`` holds the probe times in ms, scaled to ``ITERATIONS``;
    ``starts`` and ``spent`` when the handler began (``perf_counter``) and
    the seconds it took for each.  A timed interval covers the samples
    appended while it ran.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.starts: list[float] = []
        self.spent: list[float] = []
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        ms = probe_ms(SAMPLE_ITERATIONS)
        self.starts.append(start)
        self.spent.append(time.perf_counter() - start)
        self.samples.append(ms)

    def start(self) -> None:
        self._probe()  # so that an interval shorter than the timer has a sample before it
        self._previous = _signal.signal(_signal.SIGALRM, self._probe)
        _signal.setitimer(_signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        _signal.setitimer(_signal.ITIMER_REAL, 0, 0)
        _signal.signal(_signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def nominal_ms(self, first: int, last: int, seconds: float) -> float:
        """Milliseconds at nominal speed of ``seconds`` timed between ``mark()``s ``first`` and ``last``.

        An interval without a sample of its own takes the one before it.
        """
        inside = self.samples[first:last]
        net = seconds - sum(self.spent[first:last])
        if not inside:
            inside = self.samples[first - 1:first]
        return net * 1000.0 * sum(NOMINAL_MS / ms for ms in inside) / len(inside)
