"""Host-speed calibration, so that timings compare across runs on a shared host.

On a host shared with other tenants, single-thread speed drifts by up to 2x
in phases of seconds to tens of minutes; steal time does not show it, and
wall and CPU time drift together.  Two sets of runs of the same code then
differ by more than any useful bound.  So every timed operation is paired
with a fixed calibration load, run right before and right after it in the
same process and, when ticks are on, every TICK_S seconds inside it from a
SIGALRM handler (whose own time is taken out of the operation's).  Each
calibration taking c seconds measures the host's speed as NOMINAL_S / c,
and the operation's time is scaled by the mean of these speeds:

    scaled = raw * mean(NOMINAL_S / c over the operation's calibrations)

which is the time the same work takes on a host where one calibration takes
NOMINAL_S.  A pre-empted calibration reads slow, so it moves the mean by
little.

The load is the same kind of work as packpredict's hot paths: a Python loop
of small numpy vector operations (the per-pack loop) plus JSON encoding and
decoding of float lists (the report).  It imports nothing from packpredict,
so a change to the program moves the scaled times and leaves the
calibration alone.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.06
LOOPS = 3000
TICK_S = 0.5
TICK_LOOPS = LOOPS // 3

_rng = np.random.default_rng(20020101)
_PREDS = _rng.uniform(0.0, 1.0, size=(16, 6))
_OUTCOMES = _rng.uniform(0.0, 1.0, size=6)


def calibrate(loops: int = LOOPS) -> float:
    """Seconds that LOOPS passes of the calibration load take, measured over
    `loops` passes."""
    start = time.perf_counter()
    losses = np.zeros(_PREDS.shape[0])
    rows = []
    for i in range(loops):
        z = -0.5 * losses
        w = np.exp(z - z.max())
        w /= w.sum()
        prices = w @ _PREDS
        rows.append({"trial": i, "prices": prices.tolist()})
        losses += ((_PREDS - _OUTCOMES) ** 2).sum(axis=1)
        losses -= losses.min()
    if len(json.loads(json.dumps(rows))) != loops:
        raise AssertionError("calibration load lost rows")
    return (time.perf_counter() - start) * LOOPS / loops


class Clock:
    """Times labelled operations, with one calibration between each two and,
    with `ticks`, calibrations inside each operation every TICK_S seconds.
    Ticks interrupt the operation, so a traced run turns them off.
    `calibration` and `nominal_s` replace the default load and its nominal
    time, for operations of another kind than the in-process ones."""

    def __init__(self, ticks: bool = False, calibration=calibrate,
                 nominal_s: float = NOMINAL_S):
        self.ticks = ticks
        self.calibration = calibration
        self.nominal_s = nominal_s
        self.last = calibration()
        self.calibrations = [self.last]
        self.raw = {}
        self.scaled = {}
        self._inside = None
        self._inside_s = 0.0
        if ticks:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self._inside is None:
            return
        start = time.perf_counter()
        self._inside.append(calibrate(TICK_LOOPS))
        self._inside_s += time.perf_counter() - start

    def time(self, label: str, operation):
        """Run `operation()`, record its raw and scaled wall time under
        `label`, and return its result."""
        self._inside, self._inside_s = [], 0.0
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            result = operation()
        finally:
            # Detach first: a tick that runs later returns at once, and one
            # that ran before is inside both the wall time and _inside_s.
            inside, self._inside = self._inside, None
            raw = time.perf_counter() - start - self._inside_s
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
        after = self.calibration()
        samples = [self.last, *inside, after]
        speed = statistics.fmean(self.nominal_s / c for c in samples)
        self.raw.setdefault(label, []).append(raw)
        self.scaled.setdefault(label, []).append(raw * speed)
        self.calibrations.extend(inside + [after])
        self.last = after
        return result

    def median(self, label: str) -> float:
        return statistics.median(self.scaled[label])
