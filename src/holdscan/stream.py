"""``pipeline``'s one pass over a generated recording, in bounded memory.

The separate commands only ever see the 9-digit text of the waveform and
the score trace; ``pipeline`` computes the values a reader gives for that
text in numpy (``waveform._read_back``) and writes the text only to save
it.  :func:`_stage_blocks` takes the generator's blocks (``mockgen._blocks``)
one at a time: each is read back, checked as ``score`` checks a whole
recording (by ``waveform._BlockCheck``, which holds the rule for the rate
and the order of the faults), scored, written to the ``--save-*`` streams
and fed to a resumable hold scan (``detection._HoldScan``).  Each segment is
reported on its own window of samples (:class:`_HoldReports`).  When a check
fails, :func:`_raise_first_error` finds the error the separate commands give
in one more pass, with one such check for ``generate`` and one for ``score``.

Per block, only t, flow and pressure are read back; the volume and the
log-scores, which decide nothing per sample, are read back on a segment's
window.  A value and its read-back are alike finite, infinite or nan and
have one text, so the checks and the saved text are the same; the read-back
is monotone, so the hold scan compares the log-scores with thresholds
translated once (``waveform._read_back_threshold``).

What stays resident is one block of ``mockgen._BLOCK`` samples and its
temporaries, a ring of the last ``mechanics.VOLUME_LOOKBACK_S`` seconds of
every channel, the samples of the segment that is open or may still merge
with the next, and the segment and report records, so memory does not grow
with the recording.  It does where a segment, or a merge gap, is as long as
the recording (for example with ``--log-threshold-on=-inf``).  The CLI
stages ``--save-*`` text in temporary files, not in memory.
"""

from __future__ import annotations

import json
from dataclasses import replace

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
from .mockgen import MockConfig, _blocks, _sample_count
from .scoring import _TRACE_HEADER, ModelParams, _check_log_scores, _log_scores_array
from .waveform import (
    _CHANNELS,
    Waveform,
    _BlockCheck,
    _read_back,
    _read_back_threshold,
    _span_rate,
    _write_rows,
    format_value,
)


def _read_back_blocks(cfg: MockConfig, params: ModelParams, n: int):
    """``(start, made, read)`` for each block of the recording.

    ``made`` is the generated ``[t, flow, pressure, volume]``, ``read`` its
    t, flow and pressure read back (the values ``score`` reads from
    ``generate``'s text), the volume, and their log-scores, not read back.
    """
    # Fresh arrays for each block, freed before the next, come back from the
    # heap without new pages; reusing buffers of a block's size took 7 times
    # the page faults on 1 h in a process that runs pipeline repeatedly.
    for start, *made in _blocks(cfg, n):
        read = [_read_back(values) for values in made[:3]]
        read += [made[3], _log_scores_array(read[1], read[2], params)]
        yield start, made, read


def _pipeline_rate(cfg: MockConfig, n: int) -> float:
    """The rate ``score`` infers from the first and last timestamps ``generate`` writes.

    The first is 0; the last is read back from its text, as by ``_read_back``.
    """
    return _span_rate(n, 0.0, float(format_value(float(n - 1) / float(cfg.sample_rate_hz))))


class _HoldReports:
    """Hold segments and their reports from a recording given block by block.

    Each block's channels ``[t, flow, pressure, volume, log_score]``, the
    last two not read back, go to a resumable hold scan
    (``detection._HoldScan``) with translated thresholds.  A segment
    ``[a, b)`` it finishes is summarized and reported on samples
    ``[a - lookback, b)`` (``lookback`` samples make ``VOLUME_LOOKBACK_S``
    at the rate), its volume and log-scores read back, which gives the
    report of the whole recording.  Between blocks only the blocks that hold
    what a segment still to be reported can need are kept: the samples from
    ``lookback`` before the scan's current run, or before its position when
    no run is open or pending.  That is a ring of the last ``lookback``
    samples, plus the samples of the run.
    """

    def __init__(self, config: DetectionConfig, rate: float, peep: float | None,
                 save_segments=None) -> None:
        on, off = config.log_threshold_on, config.log_threshold_off
        self._scan = _HoldScan(replace(config, log_threshold_on=_read_back_threshold(on),
                                       log_threshold_off=_read_back_threshold(off)), rate)
        self._rate = rate
        self._lookback = _samples(VOLUME_LOOKBACK_S, rate)
        self._peep = peep
        self._save_segments = save_segments
        self._pos = 0
        self._chunks: list[tuple[int, list[np.ndarray]]] = []  # (first index, channels)
        self._lines: list[str] = []

    def feed(self, channels) -> None:
        """The next block."""
        self._chunks.append((self._pos, list(channels)))
        self._pos += len(channels[0])
        for a, b in self._scan.feed(channels[4]):
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
        parts = [[c[max(lo - s, 0) : b - s] for c in chans]
                 for s, chans in self._chunks if s < b and s + len(chans[0]) > lo]
        # each channel of the window is one contiguous array, so that its
        # means have the bits of the whole recording's
        t, flow, pressure, volume, ls = (
            parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]
        )
        w = Waveform._checked(t, flow, pressure, self._rate, _read_back(volume))
        segment = _hold_segment(a, b, _read_back(ls[a - lo :]), self._rate)
        record = segment_record(summarize_segment(w, segment, lo))
        if self._save_segments is not None:
            write_segments_ndjson([record], self._save_segments)
        self._lines.append(json.dumps(report_hold(w, record, self._peep, lo)) + "\n")


def _stage_blocks(cfg: MockConfig, params: ModelParams, config: DetectionConfig,
                  peep: float | None, save_waveform=None, save_trace=None,
                  save_segments=None) -> str:
    """``pipeline``'s one pass over the recording, block by block; returns the report text.

    Each block is generated, its t, flow and pressure read back (the values
    a reader gives for the 9-digit text), checked as ``score`` checks the
    whole recording (at the rate it infers from the first and last
    timestamps, the previous block's last timestamp carried into the grid
    check), scored, written to the ``save_*`` streams, and fed to
    :class:`_HoldReports`, so only one block, the samples segments still
    need and the records are held.  If a check fails, the error is the one
    the separate commands give.
    """
    n = _sample_count(cfg)
    try:
        # the hold scan needs the rate before the first block
        rate = _pipeline_rate(cfg, n)
        checks = _BlockCheck()
        reports = _HoldReports(config, rate, peep, save_segments)
        for start, _, read in _read_back_blocks(cfg, params, n):
            checks.feed(*read[:4])
            checks.raise_first(rate)
            _check_log_scores(read[4])
            if save_waveform is not None:
                _write_rows(save_waveform, _CHANNELS if start == 0 else None, read[:4])
            if save_trace is not None:
                _write_rows(save_trace, _TRACE_HEADER if start == 0 else None, read[::4])
            reports.feed(read)
        return reports.finish()
    except HoldscanError:
        _raise_first_error(cfg, params, n)
        raise


def _raise_first_error(cfg: MockConfig, params: ModelParams, n: int) -> None:
    """Raise what ``generate``, then ``score``, raise for the recording, if anything.

    One more pass over the blocks, which only checks: the generated values
    at the configured rate, as ``generate`` checks them, then the values read
    back at the rate ``score`` infers, then their log-scores.  A recording
    that passes them fails only in detection, where the blocks meet the
    segments in the order ``detect`` does.
    """
    made, read = _BlockCheck(), _BlockCheck()
    scores_error = None
    for _, made_block, read_block in _read_back_blocks(cfg, params, n):
        made.feed(*made_block)
        read.feed(*read_block[:4])
        try:
            _check_log_scores(read_block[4])
        except HoldscanError as exc:
            scores_error = scores_error or exc
    made.raise_first(cfg.sample_rate_hz)
    read.raise_first()
    if scores_error is not None:
        raise scores_error
