"""Reference-speed timing.

The machines this benchmark runs on change speed by tens of percent, per
CPU and within a second.  So each verdict is timed while a SIGALRM timer
interrupts it every SAMPLE_PERIOD_S to run a short, fixed pure-Python
reference loop; one more loop runs just before and one just after.  The
verdict's raw time is its wall time less the time spent in those loops,
and its scaled time is ``raw * NOMINAL_LOOP_S / mean loop time``: the time
the verdict would have taken had the CPU it ran on run at the nominal speed.
"""

import signal
import time
from dataclasses import dataclass

# The reference loop's time on an unloaded x86-64 core under CPython 3.11
# (measured when the benchmark was written).  Scaled seconds are seconds at
# that speed.
NOMINAL_LOOP_S = 0.00050
SAMPLE_PERIOD_S = 0.010


def reference_loop() -> int:
    """Fixed pure-Python work of the kinds pfdual does: tuple indexing,
    integer arithmetic and dict stores, then small tuples and sets built
    from generators.  The mix slows down about as much as pfdual's own code
    when the CPU it runs on slows down."""
    table = tuple(range(64))
    seen = {}
    acc = 0
    for i in range(1000):
        acc = table[(acc * 31 + i) & 63] ^ i
        seen[acc & 255] = i
    for i in range(150):
        t = tuple(j ^ i for j in range(6))
        acc = (acc + len({x & 7 for x in t}) + t[i % 6]) & 0xFFFF
    return acc + len(seen)


@dataclass(frozen=True)
class Timed:
    """A raw time, the time scaled to the nominal speed, and the reference
    time measured alongside that it was scaled by."""

    raw_s: float
    scaled_s: float
    reference_s: float

    def as_list(self) -> list:
        return [self.raw_s, self.scaled_s, self.reference_s]


class Sampler:
    """Times the block it guards and samples the CPU's speed inside it.

        with Sampler() as s:
            work()
        s.timed.scaled_s
    """

    def __init__(self, on_sample=None) -> None:
        """on_sample, if given, is called with the duration of each sample,
        so that a tracer can leave the samples out of its spans."""
        self.samples = []
        self._inside = 0.0
        self._on_sample = on_sample
        self.timed = None

    def _sample(self) -> float:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        if self._on_sample is not None:
            self._on_sample(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        self._inside += self._sample()

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        raw = wall - self._inside
        loop = sum(self.samples) / len(self.samples)
        self.timed = Timed(raw, raw * NOMINAL_LOOP_S / loop, loop)
