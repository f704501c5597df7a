"""Reference work that tracks how fast the host runs Python code.

On a host shared with other jobs, the speed of pure-Python code drifts by
tens of percent over seconds as other load comes and goes.  The benchmark
divides each pass's time by the time of this fixed reference work, sampled
during that same pass, which cancels much of the drift.  The work does not
touch the package under test, so a change to the package cannot move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array

INTERVAL_S = 0.1
MAX_SAMPLES = 4096
# Reference time on one idle core of the 2-core host the benchmark was tuned
# on.  Rescaled times are seconds at that speed.
NOMINAL_S = 0.0012
SAMPLE_SPAN = "speed.sample"

_PAIRS = tuple((1 + i % 9, 1 + (i * 7) % 11) for i in range(400))


def reference_work() -> int:
    """Power means, fsum, dicts, sorting and number formatting, like the
    package's own work; about 1.3 ms on an idle core."""
    rows = []
    for a in (-3.0, -1.0, 0.5, 2.0, 3.0):
        terms = []
        for x, y in _PAIRS:
            hi, lo = (x, y) if x > y else (y, x)
            base, t = (hi, lo / hi) if a > 0 else (lo, hi / lo)
            terms.append(base * ((1.0 + t**a) / 2.0) ** (1.0 / a))
        by_pair: dict[tuple[int, int], float] = {}
        for pair, v in zip(_PAIRS, terms):
            by_pair[pair] = by_pair.get(pair, 0.0) + v
        rows.append(",".join(format(v, ".17g") for v in sorted(by_pair.values())))
        rows.append(format(math.fsum(terms), ".17g"))
    return len("".join(rows))


def reference_seconds() -> float:
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


def rescaled(seconds: float, samples: list[float]) -> float:
    """`seconds` at the nominal reference speed, given the reference times
    sampled over the same interval (one more is taken if there are none)."""
    ref = statistics.median(samples) if samples else reference_seconds()
    return seconds * NOMINAL_S / ref


class SpeedSampler:
    """Times the reference work every `interval_s` seconds while active,
    from a SIGALRM handler in the measuring thread.

    Samples go into a preallocated array: float objects kept alive across a
    pass would pin allocator arenas and raise the program's peak memory.
    With a tracer, each sample is also recorded as a `speed.sample` span.
    """

    def __init__(self, interval_s: float = INTERVAL_S, tracer=None) -> None:
        self._interval = interval_s
        self._tracer = tracer
        self._times = array("d", bytes(8 * MAX_SAMPLES))
        self._count = 0

    def _sample(self, signum, frame) -> None:
        if self._count >= MAX_SAMPLES:
            return
        if self._tracer is None:
            self._times[self._count] = reference_seconds()
        else:  # a span, so that traced layers can leave the sample out
            with self._tracer.span(SAMPLE_SPAN):
                self._times[self._count] = reference_seconds()
        self._count += 1

    def samples(self) -> list[float]:
        return list(self._times[: self._count])

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
