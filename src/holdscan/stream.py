"""The passes of ``generate`` and ``pipeline`` over a generated recording, in bounded memory.

Both take the generator's blocks (``mockgen._blocks``) one at a time;
``generate``'s (:func:`_generate_pass`) checks and writes them as they are.
``pipeline`` computes the values a reader gives for the 9-digit text of the
waveform and the score trace in numpy (``waveform._read_back``) and writes
the text only to save it.  In :func:`_stage_blocks` each block has its t read
back where that can change it, is checked as ``score`` checks a whole recording (by
``waveform._BlockCheck``, which holds the rule for the rate and the order of
the faults), scored, written to the ``--save-*`` streams and fed to a
resumable hold scan (``detection._HoldScan``).  Each segment is reported on
its own window of samples (:class:`_HoldReports`).  After a check fails, the
pass only checks the rest, so that it raises the error the separate commands give.

Per block, only t is read back, for the grid check, and only where it is not
the value of its 9-digit text already (:func:`_t_reads_back_as_itself`, decided
once per run; at 100 Hz, every t below 1e7 s is).  The log-scores are those
``score`` writes (of the read-back flow and pressure, read back) within ``B``
(``scoring._read_back_band``) of a threshold (:class:`_HoldReports`), and
everywhere where no ``B`` is proven, with ``--save-trace`` and after a check
fails.  A value and its read-back are alike finite, infinite or nan and have
one text, so the checks and the saved text are the same; wherever a decision
could change, the hold scan compares the values ``detect`` reads with its
thresholds.

What stays resident is one block of ``waveform._BLOCK`` samples and its
temporaries; in ``pipeline`` also a ring of the last ``VOLUME_LOOKBACK_S``
seconds of every channel, the samples of the segment that is open or may
still merge with the next, and the segment and report records, which grow
with the number of holds.  Where a segment, or a merge gap, is as long as
the recording (``--log-threshold-on=-inf``), so is what is held.  The CLI
stages the CSV and NDJSON texts in temporary files; only the report text,
which grows with the number of holds, is held in memory.
"""

from __future__ import annotations

import json

import numpy as np

from .detection import (
    DetectionConfig,
    _hold_segment,
    _HoldScan,
    segment_record,
    summarize_segment,
    write_segments_ndjson,
)
from .errors import HoldscanError
from .mechanics import VOLUME_LOOKBACK_S, _samples, report_hold
from .mockgen import MockConfig, _blocks, _checked_blocks, _sample_count
from .scoring import _TRACE_HEADER, ModelParams, _check_log_scores, _log_scores_array, _read_back_band
from .waveform import (
    _CHANNELS,
    Waveform,
    _BlockCheck,
    _check_rate,
    _read_back,
    _span_rate,
    _write_rows,
    format_value,
)


def _exact_log_scores(flow: np.ndarray, pressure: np.ndarray, params: ModelParams) -> np.ndarray:
    """The log-scores ``score`` writes for the text of ``flow`` and ``pressure``, read back."""
    return _read_back(_log_scores_array(*_read_back(np.concatenate([flow, pressure])).reshape(2, -1), params))


def _t_reads_back_as_itself(rate: float, n: int) -> bool:
    """Whether each ``t = k / rate``, ``k < n``, is the value its 9-digit text reads back to.

    Where ``rate`` is an integer ``2**a * 5**b``, it divides ``10**d`` for ``d =
    max(a, b)``, and ``t``, one rounding, is the float nearest the decimal ``k c /
    10**d`` with ``c = 10**d // rate``.  While ``(n - 1) c < 10**9`` that decimal
    has at most 9 digits, so it is the text of ``t``, which reads back to ``t``.
    """
    if not rate.is_integer():
        return False
    r = int(rate)
    a = (r & -r).bit_length() - 1
    r >>= a
    b = 0
    while r % 5 == 0:
        r //= 5
        b += 1
    return r == 1 and (n - 1) * (10 ** max(a, b) // int(rate)) < 10**9


def _pipeline_rate(cfg: MockConfig, n: int) -> float:
    """The rate ``score`` infers from the first and last timestamps ``generate`` writes.

    The first is 0; the last is read back from its text, as by ``_read_back``.
    """
    return _span_rate(n, 0.0, float(format_value(float(n - 1) / float(cfg.sample_rate_hz))))


class _HoldReports:
    """Hold segments and their reports from a recording given block by block.

    :meth:`feed` takes each block's ``[t, flow, pressure, volume]``, only t read
    back, and its log-scores as :meth:`log_scores` gives them: those ``score``
    writes within ``B`` of a threshold (everywhere with ``exact`` or without a
    proven ``B``), and elsewhere scored from the values as generated, which meet
    each threshold as those ``score`` writes do.  A resumable hold scan
    (``detection._HoldScan``) compares them with the thresholds of ``config``.
    A segment ``[a, b)`` it finishes is reported on samples ``[a - lookback,
    b)`` (``VOLUME_LOOKBACK_S`` at the rate), whose flow, pressure and volume
    are read back in one call and whose log-scores are computed from them and
    read back: the report of the whole recording.  Between blocks only the
    samples from ``lookback`` before the scan's current run, or before its
    position when no run is open or pending, are kept.
    """

    def __init__(self, config: DetectionConfig, params: ModelParams, rate: float,
                 peep: float | None, save_segments=None, exact: bool = False) -> None:
        self._scan = _HoldScan(config, rate)
        self._params = params
        self._near = [v for v in (config.log_threshold_on, config.log_threshold_off) if np.isfinite(v)]
        self._band = np.inf if exact else _read_back_band(params, self._near)
        self._rate = rate
        self._lookback = _samples(VOLUME_LOOKBACK_S, rate)
        self._peep = peep
        self._save_segments = save_segments
        self._pos = 0
        self._chunks: list[tuple[int, list[np.ndarray]]] = []  # (first index, channels)
        self._lines: list[str] = []

    def log_scores(self, flow: np.ndarray, pressure: np.ndarray) -> np.ndarray:
        """A block's log-scores for the hold scan, those ``score`` writes within the band of a threshold."""
        if self._band == np.inf:
            return _exact_log_scores(flow, pressure, self._params)
        ls = _log_scores_array(flow, pressure, self._params)
        j = np.flatnonzero(ls >= min(self._near, default=np.inf) - self._band)  # few reach a band
        j = j[np.flatnonzero(sum(np.abs(ls[j] - thr) <= self._band for thr in self._near))]
        if len(j):
            ls[j] = _exact_log_scores(flow[j], pressure[j], self._params)
        return ls

    def feed(self, channels, log_scores: np.ndarray) -> None:
        """The next block's ``[t, flow, pressure, volume]`` and :meth:`log_scores`."""
        self._chunks.append((self._pos, list(channels)))
        self._pos += len(log_scores)
        for a, b in self._scan.feed(log_scores):
            self._report(a, b)
        # drop what no segment can need any more
        lo = max(0, self._scan.keep_from - self._lookback)
        while self._chunks and self._chunks[0][0] + len(self._chunks[0][1][0]) <= lo:
            del self._chunks[0]

    def finish(self) -> str:
        """The report text of all segments."""
        for a, b in self._scan.finish():
            self._report(a, b)
        return "".join(self._lines)

    def _report(self, a: int, b: int) -> None:
        lo = max(0, a - self._lookback)
        t, *values = zip(*[[c[max(lo - s, 0) : b - s] for c in chans]
                           for s, chans in self._chunks if s < b and s + len(chans[0]) > lo])
        # one contiguous array per channel, so that its means have the whole recording's bits
        flow, pressure, volume = _read_back(np.concatenate(sum(values, ()))).reshape(3, -1)
        w = Waveform._checked(np.concatenate(t), flow, pressure, self._rate, volume)
        scores = _read_back(_log_scores_array(flow[a - lo :], pressure[a - lo :], self._params))
        record = segment_record(summarize_segment(w, _hold_segment(a, b, scores, self._rate), lo))
        if self._save_segments is not None:
            write_segments_ndjson([record], self._save_segments)
        self._lines.append(json.dumps(report_hold(w, record, self._peep, lo)) + "\n")


def _stage_blocks(cfg: MockConfig, params: ModelParams, config: DetectionConfig,
                  peep: float | None, save_waveform=None, save_trace=None,
                  save_segments=None) -> str:
    """``pipeline``'s one pass over the recording, block by block; returns the report text.

    Each block is generated, its t read back (the values a reader gives for
    the 9-digit text) where :func:`_t_reads_back_as_itself` does not hold,
    and fed to one check of the whole recording.  Until the first fault it is also checked as ``score`` checks the recording (at the
    rate it infers from the first and last timestamps), scored (exactly with
    ``save_trace``), written to the ``save_*`` streams and fed to
    :class:`_HoldReports`, so only one block, the samples segments still need
    and the records are held; after it, only its exact log-scores are checked.
    Once every block is in, a fault raises the separate commands' error:
    ``generate``'s, else ``score``'s (the grid, then the log-scores), else the fault.
    """
    n = _sample_count(cfg)
    t_is_text = _t_reads_back_as_itself(_check_rate(cfg.sample_rate_hz), n)  # generate's first check
    checks = _BlockCheck()
    fault = scores_error = None
    try:
        # the hold scan needs the rate before the first block
        rate = _pipeline_rate(cfg, n)
        reports = _HoldReports(config, params, rate, peep, save_segments, save_trace is not None)
    except HoldscanError as exc:
        fault = exc
    for start, t, *values in _blocks(cfg, n):
        if not t_is_text:
            t = _read_back(t)
        checks.feed(t, *values)
        if fault is None:
            try:
                checks.raise_first(rate)
                scores = reports.log_scores(*values[:2])
                _check_log_scores(scores)
                if save_waveform is not None:
                    _write_rows(save_waveform, _CHANNELS if start == 0 else None, (t, *values))
                if save_trace is not None:
                    _write_rows(save_trace, _TRACE_HEADER if start == 0 else None, (t, scores))
                reports.feed((t, *values), scores)
            except HoldscanError as exc:
                fault = exc
        if fault is not None and scores_error is None:
            try:
                _check_log_scores(_exact_log_scores(*values[:2], params))
            except HoldscanError as exc:
                scores_error = exc
    if fault is None:
        return reports.finish()
    # generate's grid passes at its rate for any n <= MAX_SAMPLES: its error is a non-finite value
    if checks.bad:
        checks.raise_first(cfg.sample_rate_hz)
    checks.raise_first()
    raise scores_error or fault


def _generate_pass(cfg: MockConfig, out) -> None:
    """``generate``'s pass: each block's CSV rows written to ``out`` and the
    block checked as ``generate_mock_waveform`` checks it (``mockgen._checked_blocks``),
    so that, once every block is in, it raises what that raises for the whole recording."""
    for start, *channels in _checked_blocks(cfg, _sample_count(cfg)):
        _write_rows(out, _CHANNELS if start == 0 else None, channels)
