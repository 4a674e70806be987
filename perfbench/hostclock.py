"""Host-speed clock: wall time rescaled to a fixed CPU speed.

On a shared VM the speed a process gets changes by up to a factor of two
from one second to the next (another tenant's load on the same core), and a
whole run can fall in a slow or a fast stretch, so raw wall times of the
same code spread by more than any useful bound.  The slowdown hits every
piece of pure-Python code nearly alike, so it can be measured and divided
out.

While a ``HostClock`` runs, a timer signal every ``INTERVAL_S`` seconds of
wall time runs ``reference()``, a fixed product of two bivariate
polynomials with Fraction coefficients that shares no code with germglue,
and records how long it took.  The host's speed at that moment is
``REF_S / length``.  ``scaled(t0, t1)`` is the program's own time between
two ``time.perf_counter()`` readings (the reference calls taken out) times
the mean sampled speed inside that stretch: the seconds the stretch would
take on a host where ``reference()`` takes ``REF_S``.  A faster program
spends less wall time at the same speed, so the scaled time moves with the
program's work and not with the host.  The reference costs about 2 % of
the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.03
# reference() at the host speed that scaled seconds are expressed in
REF_S = 0.0005
# speed samples used for a stretch too short to contain this many
MIN_SAMPLES = 3

_P = {(i, j): Fraction(2 * i + 1, 3 * j + 7) for i in range(4) for j in range(4 - i)}
_Q = {(i, j): Fraction(5 - i, 2 * j + 9) for i in range(4) for j in range(4 - i)}


def reference() -> dict:
    out: dict = {}
    for (a0, a1), x in _P.items():
        for (b0, b1), y in _Q.items():
            key = (a0 + b0, a1 + b1)
            out[key] = out.get(key, 0) + x * y
    return out


class HostClock:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.lengths: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        self.lengths.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-host seconds of the program's work from t0 to t1."""
        inside = [k for k, s in enumerate(self.starts) if t0 <= s < t1]
        own = (t1 - t0) - sum(self.lengths[k] for k in inside)
        used = inside
        if len(used) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            used = sorted(range(len(self.starts)),
                          key=lambda k: abs(self.starts[k] - mid))[:MIN_SAMPLES]
        if not used:
            raise RuntimeError("the host clock took no speed sample")
        return own * statistics.fmean(REF_S / self.lengths[k] for k in used)

    def speed(self) -> float:
        """Mean sampled speed over the clock's life (1 = the reference host)."""
        return statistics.fmean(REF_S / length for length in self.lengths)
