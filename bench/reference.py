"""A probe of the host's current speed, run on a timer during a run.

On a shared host, other tenants' load slows this process by 20-70% in
stretches of a second to minutes, in CPU time as much as in wall time.
``Probe`` interrupts the run every ``EVERY_S`` seconds (SIGALRM, in the
main thread; no thread is started) and times a small fixed computation.
``run.py`` subtracts the probe's own time from each task span and
scales the span by ``NOMINAL_S`` over the probe's mean time around it,
so that a time metric reads about the same whether the host was busy or
idle during the run.

The computation is pure standard-library Python of the kind ``subalg``
runs: a product of two sparse polynomials held as dicts from exponent
tuples to ``Fraction``.  Its time moved with the time of `qn_ladder`'s
rungs with a log-log slope of about 1 (0.92 and 0.98 over 29 samples
each), where a tight loop on small integers moved too much (slope 1.4).
It uses no ``subalg`` code, so a change to the program does not change
the yardstick.

    python3 bench/reference.py      # prints ten probe times in ms
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# The probe's time at the host speed the normalised metrics are given
# in: a normalised time is the time the work would take on a host where
# one probe takes this long.
NOMINAL_S = 0.002
# Seconds between two probes during a run.
EVERY_S = 0.05

_P = {(i, j, k): Fraction(i + 1, j + k + 1) for i in range(3) for j in range(3) for k in range(3)}
_Q = {(i, j, k): Fraction(j - i, k + 2) for i in range(3) for j in range(3) for k in range(2)}


def probe() -> Fraction:
    """One run of the probe computation; returns a fixed checksum."""
    out: dict = {}
    for a, x in _P.items():
        for b, y in _Q.items():
            m = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            out[m] = out.get(m, 0) + x * y
    return sum(out.values())


CHECKSUM = probe()


def timed() -> float:
    """The duration of one probe, checked against its checksum."""
    t0 = perf_counter()
    value = probe()
    duration = perf_counter() - t0
    if value != CHECKSUM:
        raise RuntimeError(f"probe gave {value}, expected {CHECKSUM}")
    return duration


def speed(count: int = 25) -> float:
    """Mean time of ``count`` probes run back to back."""
    return fmean(timed() for _ in range(count))


class Probe:
    """Run the probe every ``EVERY_S`` seconds while the context is open.

    ``starts`` and ``durations`` hold every probe run, in order.  A probe
    runs inside whatever code the main thread is executing, so a span
    timed with ``perf_counter`` contains every probe that started in it,
    whole.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.wrong = 0

    def _run(self, signum, frame) -> None:
        t0 = perf_counter()
        value = probe()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)
        self.wrong += value != CHECKSUM

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.wrong and exc[0] is None:
            raise RuntimeError(f"{self.wrong} probe runs gave a wrong checksum")

    def _between(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))

    def normalised(self, t0: float, t1: float, window: float) -> float:
        """The span's own time, without probes, at nominal host speed.

        The scale is ``NOMINAL_S`` over the mean probe time from
        ``window`` seconds before the span to ``window`` after it, or
        over every probe run when none lies that close.
        """
        own = t1 - t0 - sum(self.durations[self._between(t0, t1)])
        near = self.durations[self._between(t0 - window, t1 + window)] or self.durations
        return own * NOMINAL_S / fmean(near)


if __name__ == "__main__":
    print(" ".join(f"{timed() * 1000:.3f}" for _ in range(10)))
