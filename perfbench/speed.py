"""Host-speed normalisation of measured times.

The benchmark runs on shared hosts whose speed drifts by +-20% within
seconds (a fixed computation repeated for a minute on a 2-vCPU container
took between 64 and 128 ms), which more work per run does not average away.
So between operations the client times a fixed reference computation --
interpreter work plus small numpy arrays, the mix the program runs -- and
scales each operation's wall time by ``REFERENCE_S / reference time``
around it.  Every time the benchmark reports is therefore in *reference
seconds*: the wall time the operation would take on a host where the
reference computation takes ``REFERENCE_S``.  Raw wall times are printed
next to them.
"""

from __future__ import annotations

import bisect
import json
import statistics
from time import perf_counter

# Time of one Speedometer.reference() call on a 2-vCPU x86-64 container
# host (Python 3.11, numpy 2.4, OpenBLAS) in its fast phases.  It only sets
# the scale: both sides of a comparison use the same constant.
REFERENCE_S = 1.4e-3

# A tick is the median of this many reference() calls, taken at most every
# TICK_EVERY_S seconds between operations.
TICK_REPEATS = 5
TICK_EVERY_S = 0.2

_DOC = json.dumps({f"k{i}": list(range(20)) for i in range(300)})


class Speedometer:
    """Reference ticks over a run, and the scale factor for any interval."""

    def __init__(self):
        import numpy as np
        self._np, self._rng = np, np.random.default_rng(0)
        self.times: list[float] = []
        self.refs: list[float] = []

    def reference(self) -> float:
        """The fixed reference computation (~1.4 ms)."""
        np = self._np
        doc = json.loads(_DOC)
        members = frozenset(range(3000))
        kept = [x for x in members if x % 3]
        a = self._rng.normal(0.0, 1.0, 20000)
        words = np.rint(a * 100.0).astype(np.int64)
        return float((a * a).mean()) + len(doc) + len(kept) + float(words[0])

    def tick(self) -> None:
        runs = []
        for _ in range(TICK_REPEATS):
            start = perf_counter()
            self.reference()
            runs.append(perf_counter() - start)
        self.times.append(perf_counter())
        self.refs.append(statistics.median(runs))

    def maybe_tick(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= TICK_EVERY_S:
            self.tick()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean reference time of the last tick
        before ``start`` and the first tick after ``end``."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        near = [self.refs[k] for k in (before, after) if 0 <= k < len(self.refs)]
        if not near:
            raise ValueError("no reference tick recorded")
        return REFERENCE_S / statistics.fmean(near)

    def run_scale(self) -> float:
        """Scale factor from the median of every tick of the run."""
        return REFERENCE_S / statistics.median(self.refs)
