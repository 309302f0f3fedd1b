"""Fixed routines of the benchmark's own whose run times measure the host's speed.

The speed of a shared host drifts by up to 2x over seconds to minutes.  An
operation's time divided by the time of a fixed routine measured in the same
spells moves with the program rather than with the host, if the routine does
the same kind of work: a slow spell slows Python-level work more than numpy
passes over large arrays.  Each workload names its routine.
"""

from __future__ import annotations

import contextlib
import signal
import time
import types

import numpy as np

# In-operation sampling: one call of the short routine every SAMPLE_INTERVAL_S
# of an operation, and at least MIN_SAMPLES calls per operation.
SAMPLE_INTERVAL_S = 0.1
MIN_SAMPLES = 5


def calibrate_text() -> None:
    """A fixed mix of float formatting, float parsing and numpy work (a few ms).

    The numpy arrays are kept small, so that calibrating between operations
    leaves the worker's peak memory to the operations.
    """
    text = ",".join(format(i * 0.001, ".9g") for i in range(3000))
    sum(float(v) for v in text.split(","))
    float(np.exp(-np.arange(30000.0) / 1e4).sum())


def calibrate_text_short() -> None:
    """The float formatting and parsing of :func:`calibrate_text` on 600 values (about 0.5 ms)."""
    text = ",".join(format(i * 0.001, ".9g") for i in range(600))
    sum(float(v) for v in text.split(","))


def calibrate_arrays() -> None:
    """Elementwise numpy passes over a 1 h recording's time grid (a few ms).

    Four rounds of the checks a waveform's channels get: all finite, the
    differences positive and their largest deviation from the sample
    spacing.  The library chain is mostly such passes over arrays of this
    size, with their temporaries; over 5.5 minutes of a drifting host its
    time divided by this routine's moved by 3.7% between 30 s windows
    (max over min), while raw time moved by 22% and the time divided by a
    routine built on ``np.exp`` passes plus :func:`calibrate_text` by 22%.
    The array lives only during the call, when the operation's own memory
    is freed.
    """
    t = np.linspace(0.0, 3600.0, 360_000, endpoint=False)
    for _ in range(4):
        bool(np.all(np.isfinite(t)))
        dt = np.diff(t)
        bool(np.all(dt > 0))
        float(np.max(np.abs(dt - 0.01)))


def calibration_s(routine, min_s: float) -> tuple[float, float]:
    """(mean time of one call, time spent) over calls of ``routine``.

    Calls are made until at least one has run and ``min_s`` seconds have
    been spent.
    """
    calls, start = 0, time.perf_counter()
    while not calls or time.perf_counter() - start < min_s:
        routine()
        calls += 1
    spent = time.perf_counter() - start
    return spent / calls, spent


@contextlib.contextmanager
def sampled_during(routine):
    """Time calls of ``routine`` made from a SIGALRM handler while the block runs.

    A block of calibration after an operation of several seconds catches one
    spell of the host, while the operation spans several; calls spread over
    the operation catch the same spells it does.  Yields a record: ``times``
    holds the time of each call, and once the block has ended ``block_s`` is
    its wall time less the calls made in it.  If the block gave fewer than
    MIN_SAMPLES calls, the rest are made right after it.  Only the main
    thread may use this.
    """
    record = types.SimpleNamespace(times=[], block_s=None)

    def handler(signum, frame):
        t0 = time.perf_counter()
        routine()
        record.times.append(time.perf_counter() - t0)

    previous = signal.signal(signal.SIGALRM, handler)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield record
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        record.block_s = time.perf_counter() - start - sum(record.times)
        signal.signal(signal.SIGALRM, previous)
        while len(record.times) < MIN_SAMPLES:
            handler(None, None)
