"""Hold segmentation by hysteresis thresholding of a score trace.

A segment opens when the log-score reaches the on-threshold and closes at the
first sample strictly below the off-threshold (the closing sample is not part
of the segment).  Two thresholds suppress chatter around a single level;
nearby segments separated by sub-gap dropouts are merged, and anything
shorter than the minimum duration is discarded.

Default thresholds: at the hold operating point the log-score is about -1.66
and a 3-sigma noise excursion on both channels costs about 9 nats, so -10.0
admits realistic hold samples while breathing samples sit hundreds of nats
lower; -14.0 on the way out adds hysteresis.  All four knobs are
configuration, not constants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import InvalidConfig, MalformedRow, _real
from .scoring import ScoreTrace
from .waveform import Waveform, _check_span, _source_text

# Keys of one exported segment record, in canonical output order.
SEGMENT_RECORD_KEYS = (
    "start_s",
    "end_s",
    "start_index",
    "end_index",
    "peak_log_score",
    "mean_log_score",
    "mean_pressure",
    "mean_flow",
)


@dataclass(frozen=True)
class DetectionConfig:
    log_threshold_on: float = -10.0
    log_threshold_off: float = -14.0
    min_duration_s: float = 0.3
    merge_gap_s: float = 0.1

    def __post_init__(self) -> None:
        if math.isnan(_real("log_threshold_on", self.log_threshold_on)) or math.isnan(
            _real("log_threshold_off", self.log_threshold_off)
        ):
            raise InvalidConfig("thresholds must not be NaN")
        if self.log_threshold_off > self.log_threshold_on:
            raise InvalidConfig(
                f"log_threshold_off ({self.log_threshold_off}) must not exceed "
                f"log_threshold_on ({self.log_threshold_on})"
            )
        for name in ("min_duration_s", "merge_gap_s"):
            v = getattr(self, name)
            if not math.isfinite(_real(name, v)) or v < 0:
                raise InvalidConfig(f"{name} must be >= 0 and finite, got {v}")


@dataclass(frozen=True)
class HoldSegment:
    """A detected hold: [start_index, end_index) samples, times trace-relative."""

    start_index: int
    end_index: int  # exclusive
    start_s: float
    end_s: float
    peak_log_score: float
    mean_log_score: float

    def __post_init__(self) -> None:
        if self.start_index < 0 or self.start_index >= self.end_index:
            raise InvalidConfig(
                f"segment indices must satisfy 0 <= start < end, "
                f"got [{self.start_index}, {self.end_index})"
            )
        if self.peak_log_score < self.mean_log_score:
            raise InvalidConfig("peak_log_score must be >= mean_log_score")


@dataclass(frozen=True)
class HoldSummary:
    """Channel means over exactly the segment's samples."""

    segment: HoldSegment
    mean_pressure: float  # cmH2O; plateau pressure estimate
    mean_flow: float  # L/min


def detect_holds(trace: ScoreTrace, config: DetectionConfig = DetectionConfig()) -> list[HoldSegment]:
    """Run the hysteresis state machine over one trace.

    Returns segments sorted by start index, pairwise disjoint, each at least
    min_duration_s long.  An above-threshold run still open at the end of the
    trace closes there.
    """
    ls = trace.log_scores
    rate = trace.sample_rate_hz
    scan = _HoldScan(config, rate)
    runs = scan.feed(ls) + scan.finish()
    return [_hold_segment(a, b, ls[a:b], rate) for a, b in runs]


class _HoldScan:
    """The hysteresis scan of :func:`detect_holds`, resumable over consecutive blocks of a trace.

    :meth:`feed` takes the next block of log-scores and returns the runs
    ``(start, end)`` (trace indices) that are final: merged, at least
    ``min_duration_s`` long, and past any run that could still merge into
    them.  :meth:`finish` closes the trace and returns the rest.  Across
    blocks the scan carries its position and the current merged run, which
    is open (no closing sample yet) or pending (closed, but a run opening
    within ``merge_gap_s`` would still extend it).  Blocks of any size give
    the runs of the whole trace in one block.
    """

    def __init__(self, config: DetectionConfig, rate: float) -> None:
        self._config = config
        self._rate = rate
        self._pos = 0  # trace index of the next sample
        self._run: list | None = None  # [start, end] of the current merged run; end None while open

    @property
    def keep_from(self) -> int:
        """The first trace index a run still to be returned can contain."""
        return self._pos if self._run is None else self._run[0]

    def feed(self, ls: np.ndarray) -> list[tuple[int, int]]:
        on = self._config.log_threshold_on
        off = self._config.log_threshold_off
        p0 = self._pos
        self._pos += len(ls)

        # Raw runs from the samples that can open one (>= on) and those that
        # close one (< off); no sample is both, since off <= on.  ``pos[j]``
        # counts the closing samples before on-sample j, so a run opens at the
        # first on-sample (unless one is open from the last block) and at each
        # one with a closing sample since the last, and closes at the next
        # closing sample, or stays open past the end of the block.
        on_idx = np.flatnonzero(ls >= on)
        off_idx = np.flatnonzero(ls < off)
        pos = np.searchsorted(off_idx, on_idx)
        opens = np.ones(len(on_idx), dtype=bool)
        opens[1:] = pos[1:] > pos[:-1]
        carried = self._run is not None and self._run[1] is None
        if carried and len(on_idx):
            opens[0] = pos[0] > 0
        closes = np.append(off_idx, len(ls))[pos[opens]]

        out: list[tuple[int, int]] = []
        if carried and len(off_idx):
            self._run[1] = p0 + int(off_idx[0])
        for a, b in zip(on_idx[opens].tolist(), closes.tolist()):
            a, b = p0 + a, (p0 + b if b < len(ls) else None)
            if self._run is not None and (a - self._run[1]) / self._rate < self._config.merge_gap_s:
                self._run[1] = b
            else:
                self._emit(out)
                self._run = [a, b]
        # a run that opens from here on starts at self._pos or later
        if (self._run is not None and self._run[1] is not None
                and (self._pos - self._run[1]) / self._rate >= self._config.merge_gap_s):
            self._emit(out)
        return out

    def finish(self) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        if self._run is not None and self._run[1] is None:
            self._run[1] = self._pos
        self._emit(out)
        return out

    def _emit(self, out: list) -> None:
        if self._run is not None:
            a, b = self._run
            if (b - a) / self._rate >= self._config.min_duration_s:
                out.append((a, b))
            self._run = None


def _hold_segment(a: int, b: int, window: np.ndarray, rate: float) -> HoldSegment:
    """The segment of samples ``[a, b)``, whose log-scores are ``window``."""
    peak = float(window.max())
    return HoldSegment(
        start_index=a,
        end_index=b,
        start_s=a / rate,
        end_s=b / rate,
        peak_log_score=peak,
        # the mean of n equal values can round one ulp above them
        mean_log_score=min(_window_mean(window), peak),
    )


def _window_mean(window: np.ndarray) -> float:
    """The mean of a non-empty window: ``np.mean``'s own sum and division
    (``np.add.reduce``, then the sum over the length), or where that is not
    finite, the mean of the values scaled down: the finite mean where their
    sum left float64, and -inf where the window holds -inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.add.reduce(window)) / len(window)
    if math.isfinite(mean):
        return mean
    # a power of two above the length keeps every partial sum of finite values in range
    scale = 2.0 ** len(window).bit_length()
    return float(np.add.reduce(window / scale)) / len(window) * scale


def summarize_segment(w: Waveform, seg: HoldSegment, offset: int = 0) -> HoldSummary:
    """Channel means over the segment; the waveform must be the trace's source.

    ``w`` holds samples ``[offset, offset + len(w))`` of the recording.  A
    mean is finite where the sum of the samples leaves the float range.
    """
    _check_span(w, seg.start_index, seg.end_index, offset)
    sl = slice(seg.start_index - offset, seg.end_index - offset)
    return HoldSummary(
        segment=seg,
        mean_pressure=_window_mean(w.pressure[sl]),
        mean_flow=_window_mean(w.flow[sl]),
    )


def segment_record(summary: HoldSummary) -> dict:
    """Flatten one summary into the canonical export record; its times must be finite."""
    seg = summary.segment
    if not (math.isfinite(seg.start_s) and math.isfinite(seg.end_s)):
        # at a rate near the float minimum, index / rate leaves the float range
        raise InvalidConfig(f"segment times must be finite, got [{seg.start_s}, {seg.end_s}) s")
    return {
        "start_s": seg.start_s,
        "end_s": seg.end_s,
        "start_index": seg.start_index,
        "end_index": seg.end_index,
        "peak_log_score": seg.peak_log_score,
        "mean_log_score": seg.mean_log_score,
        "mean_pressure": summary.mean_pressure,
        "mean_flow": summary.mean_flow,
    }


def write_segments_ndjson(records: Iterable[Mapping], stream: IO[str]) -> None:
    """One JSON object per line, keys in canonical order."""
    for rec in records:
        ordered = {k: rec[k] for k in SEGMENT_RECORD_KEYS}
        stream.write(json.dumps(ordered) + "\n")


def read_segments_ndjson(source) -> list[dict]:
    """Parse segment records, validating keys and types; returns plain dicts."""
    records: list[dict] = []
    for lineno, raw in enumerate(_source_text(source).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        # a ValueError also for an integer of more than 4300 digits, and a
        # RecursionError for nesting deeper than the interpreter's stack
        except (ValueError, RecursionError) as exc:
            raise MalformedRow(f"line {lineno}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict) or set(obj) != set(SEGMENT_RECORD_KEYS):
            raise MalformedRow(
                f"line {lineno}: expected exactly keys {SEGMENT_RECORD_KEYS}"
            )
        for key in SEGMENT_RECORD_KEYS:
            value = obj[key]
            if key.endswith("_index"):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise MalformedRow(f"line {lineno}: {key} must be an integer")
            elif not isinstance(value, (int, float)) or isinstance(value, bool):
                raise MalformedRow(f"line {lineno}: {key} must be a number")
            elif isinstance(value, float) and not math.isfinite(value):
                # the log-scores may be -inf, as detect writes them
                if not key.endswith("_log_score"):
                    raise MalformedRow(f"line {lineno}: {key} must be finite, got {value}")
                if value != -math.inf:
                    raise MalformedRow(f"line {lineno}: {key} must be finite or -inf, got {value}")
        if not 0 <= obj["start_index"] < obj["end_index"]:
            raise MalformedRow(
                f"line {lineno}: indices must satisfy 0 <= start_index < end_index, "
                f"got [{obj['start_index']}, {obj['end_index']})"
            )
        records.append({k: obj[k] for k in SEGMENT_RECORD_KEYS})
    return records
