"""Host-speed sampling, so that timings do not follow a shared host's load.

On a shared VM the same pass of the same code ran up to 1.8x slower in
some minutes than in others, with no steal time: the cores themselves
were slower (frequency or contention from other tenants).  `HostSpeed`
measures that speed while the program runs.  An interval timer fires
every PERIOD_S and its handler times `kernel`, a fixed piece of pure-Python
work of the same kind as qtrees' (integer list convolution, dict lookups
with tuple keys and big-integer products).  The kernel allocates no
tracked objects, so it does not move the program's garbage collections.

Time spent in the handler is subtracted from whatever the program was
timing, and times are rescaled to the speed at which the kernel takes
NOMINAL_S:

    normalised = raw * NOMINAL_S / mean(kernel samples in the interval)

The mean of samples spread evenly in time estimates the mean slowdown
over the interval, which is what scales the time spent in it.  Each item
and the set-up are scaled by the samples taken while they ran.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

PERIOD_S = 0.02
NOMINAL_S = 0.0006
MIN_SAMPLES = 8

_A = list(range(3, 35))
_B = list(range(5, 37))
_OUT = [0] * (len(_A) + len(_B) - 1)
_TABLE = {(i, i * 7 % 11, i % 5): i for i in range(64)}
_KEYS = list(_TABLE)
_ROUNDS = 4
# Products of ~200-digit integers, as in the large q-polynomials.
_BIG = [3 ** (400 + k) for k in range(40)]


def kernel() -> int:
    """About NOMINAL_S of work on an unloaded host: half interpreter
    loops over small integers and a dict, half big-integer products.
    With the second half the kernel followed the host's slowdown of
    state-large60 and presimplicial-reduce7 more closely than with the
    first alone.  Its data are a few KiB, so the caches the program
    leaves cold cost it little."""
    out = _OUT
    b = _B
    nb = len(b)
    table = _TABLE
    total = 0
    for _ in range(_ROUNDS):
        for k in range(len(out)):
            out[k] = 0
        for i in range(len(_A)):
            x = _A[i]
            for j in range(nb):
                out[i + j] += x * b[j]
        for _ in range(4):
            for key in _KEYS:
                total += table[key]
    big = _BIG
    for i in range(len(big)):
        x = big[i]
        for j in range(0, len(big), 4):
            total += x * big[j]
    return (total + out[-1]) & 0xFFFF


class HostSpeed:
    """Samples the kernel's time on an interval timer (SIGALRM)."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.spent = 0.0  # seconds inside the handler's timed kernel runs
        self.at: list[float] = []  # perf_counter at each sample's start
        self.samples: list[float] = []  # each sample's kernel time
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.spent += took
        self.at.append(start)
        self.samples.append(took)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Factor taking raw seconds spent between perf_counter readings
        start and end to seconds at nominal speed: from the samples taken
        in that interval, widened to the MIN_SAMPLES nearest when fewer.
        The host's speed changed within seconds, so a pass-wide factor
        would leave an item's time to depend on when it ran."""
        n = len(self.samples)
        if not n:
            raise RuntimeError("no host-speed samples were taken")
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo > 0 and (hi == n or start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S * (hi - lo) / math.fsum(self.samples[lo:hi])
