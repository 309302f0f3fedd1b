import dataclasses
import io
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_waveform
from holdscan import (
    DetectionConfig,
    HoldSegment,
    HoldscanError,
    InvalidConfig,
    InvalidRange,
    MalformedRow,
    ScoreTrace,
    detect_holds,
    read_segments_ndjson,
    segment_record,
    summarize_segment,
    write_segments_ndjson,
)
from holdscan.detection import SEGMENT_RECORD_KEYS, _hold_segment, _HoldScan, _window_mean

RATE = 100.0


def trace_of(values, rate=RATE):
    return ScoreTrace(log_scores=np.asarray(values, dtype=np.float64), sample_rate_hz=rate)


def flat_trace(n, level=-50.0, runs=(), run_level=-2.0, rate=RATE):
    """Constant trace with [start, stop) index runs raised to run_level."""
    scores = np.full(n, level)
    for a, b in runs:
        scores[a:b] = run_level
    return trace_of(scores, rate)


def detect_holds_loop(trace, config=DetectionConfig()):
    """The per-sample state machine detect_holds replaced; the test oracle."""
    ls = trace.log_scores
    rate = trace.sample_rate_hz
    on = config.log_threshold_on
    off = config.log_threshold_off

    raw = []
    open_at = None
    for i, s in enumerate(ls):
        if open_at is None:
            if s >= on:
                open_at = i
        elif s < off:
            raw.append((open_at, i))
            open_at = None
    if open_at is not None:
        raw.append((open_at, len(ls)))

    merged = []
    for seg in raw:
        if merged and (seg[0] - merged[-1][1]) / rate < config.merge_gap_s:
            merged[-1] = (merged[-1][0], seg[1])
        else:
            merged.append(seg)

    out = []
    for a, b in merged:
        if (b - a) / rate < config.min_duration_s:
            continue
        window = ls[a:b]
        peak = float(np.max(window))
        out.append(
            HoldSegment(
                start_index=a,
                end_index=b,
                start_s=a / rate,
                end_s=b / rate,
                peak_log_score=peak,
                mean_log_score=min(_window_mean(window), peak),
            )
        )
    return out


def _as_rows(segments):
    """Segments as tuples, floats by repr (so -0.0 and 0.0 differ)."""
    return [tuple(repr(v) if isinstance(v, float) else v for v in dataclasses.astuple(s))
            for s in segments]


_MAX = np.finfo(np.float64).max


@st.composite
def _detection_cases(draw):
    """Any valid ScoreTrace and DetectionConfig, its values often at a threshold."""
    if draw(st.booleans()):
        on, off = -10.0, -14.0
    else:
        on, off = sorted(draw(st.lists(st.floats(allow_nan=False), min_size=2, max_size=2)),
                         reverse=True)
    cfg = DetectionConfig(
        log_threshold_on=on,
        log_threshold_off=off,
        min_duration_s=draw(st.sampled_from([0.0, 0.03, 0.3]) | st.floats(0, 1e300)),
        merge_gap_s=draw(st.sampled_from([0.0, 0.05, 0.1]) | st.floats(0, 1e300)),
    )
    with np.errstate(over="ignore"):
        near = [on, off, np.nextafter(on, -np.inf), np.nextafter(off, -np.inf),
                np.nextafter(on, np.inf), (on + off) / 2, on + 1.0, off - 1.0, -np.inf, _MAX]
    near = [float(v) for v in near if not (math.isnan(v) or v == np.inf)]
    value = st.sampled_from(near) | st.floats(allow_nan=False, max_value=_MAX)
    scores = draw(st.lists(value, max_size=300))
    # from the least rate whose spacing 1 / rate is finite; 2 / rate still overflows
    rate = draw(st.sampled_from([1.0, 100.0, 250.0])
                | st.floats(min_value=5.56268464626801e-309, max_value=_MAX))
    return trace_of(scores, rate), cfg


class TestAgainstLoop:
    """detect_holds against the per-sample loop, over any trace and config."""

    @settings(max_examples=400, deadline=None)
    @given(case=_detection_cases())
    def test_matches_loop(self, case):
        trace, cfg = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            segs = detect_holds(trace, cfg)
        assert _as_rows(segs) == _as_rows(detect_holds_loop(trace, cfg))
        for seg in segs:
            assert (seg.end_index - seg.start_index) / trace.sample_rate_hz >= cfg.min_duration_s
        for prev, nxt in zip(segs, segs[1:]):
            assert prev.end_index < nxt.start_index

    def test_dense_random_traces(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            scores = rng.uniform(-20, 0, 2000)
            scores[rng.random(2000) < 0.05] = -np.inf
            trace = trace_of(scores)
            assert _as_rows(detect_holds(trace)) == _as_rows(detect_holds_loop(trace))


@st.composite
def _block_edges(draw, n):
    """Cut points of ``[0, n)`` into blocks: every sample its own block, or
    random cuts, empty blocks included."""
    if n and draw(st.booleans()):
        return list(range(1, n))
    return sorted(draw(st.lists(st.integers(0, n), max_size=12)))


def scan_in_blocks(trace, cfg, edges):
    """detect_holds with the trace fed to the resumable scan in blocks cut at ``edges``."""
    ls, rate = trace.log_scores, trace.sample_rate_hz
    scan = _HoldScan(cfg, rate)
    runs = []
    for lo, hi in zip([0, *edges], [*edges, len(ls)]):
        runs += scan.feed(ls[lo:hi])
        # nothing before what it keeps can belong to a run still to come
        assert scan.keep_from <= hi
        assert all(b <= scan.keep_from for _, b in runs)
    runs += scan.finish()
    return [_hold_segment(a, b, ls[a:b], rate) for a, b in runs]


class TestScanInBlocks:
    """The resumable scan over any cut into blocks gives the segments of the whole trace."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), case=_detection_cases())
    def test_matches_whole_trace_and_loop(self, data, case):
        trace, cfg = case
        edges = data.draw(_block_edges(len(trace)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            segs = scan_in_blocks(trace, cfg, edges)
        assert _as_rows(segs) == _as_rows(detect_holds(trace, cfg))
        assert _as_rows(segs) == _as_rows(detect_holds_loop(trace, cfg))

    def test_merge_across_block_edges(self):
        # runs 5 samples apart merge under a 0.1 s gap, whichever block they fall in
        scores = np.full(200, -50.0)
        scores[50:80] = scores[85:120] = -2.0
        trace, cfg = trace_of(scores), DetectionConfig()
        for edges in ([82], [80], [85], [60, 83, 100], list(range(1, 200))):
            segs = scan_in_blocks(trace, cfg, edges)
            assert [(s.start_index, s.end_index) for s in segs] == [(50, 120)]

    def test_pending_run_is_final_once_the_gap_has_passed(self):
        scores = np.full(100, -50.0)
        scores[10:50] = -2.0
        scan = _HoldScan(DetectionConfig(), RATE)
        assert scan.feed(scores[:55]) == []  # 5 samples past the run: a run may still merge
        assert scan.keep_from == 10
        assert scan.feed(scores[55:60]) == [(10, 50)]  # 10 samples: it may not
        assert scan.keep_from == 60
        assert scan.finish() == []


class TestWindowMean:
    """The mean log-score of a segment: -inf with -inf in it, else the mean, without warnings."""

    @staticmethod
    def detect(scores):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return detect_holds(trace_of(scores, 1.0), DetectionConfig(log_threshold_off=-np.inf))

    def test_minus_inf_next_to_overflowing_values(self):
        (seg,) = self.detect([1.7e308, 1.7e308, -np.inf, 1.7e308, -50.0, -50.0, -50.0])
        assert (seg.start_index, seg.end_index) == (0, 7)
        assert seg.peak_log_score == 1.7e308
        assert seg.mean_log_score == -np.inf
        buf = io.StringIO()
        write_segments_ndjson([segment_record(summarize_segment(
            make_waveform([0.0] * 7, [15.0] * 7, rate=1.0), seg))], buf)
        assert "NaN" not in buf.getvalue()

    @pytest.mark.parametrize("scores", [
        [1.7e308] * 3 + [-50.0],
        [0.0, -1.7e308, -1.7e308, -1.7e308],
        [_MAX, _MAX, -_MAX, _MAX] * 5,
    ])
    def test_sum_out_of_range_gives_the_mean(self, scores):
        (seg,) = self.detect(scores)
        exact = float(sum(map(Fraction, scores)) / len(scores))
        assert math.isfinite(seg.mean_log_score)
        assert seg.mean_log_score == pytest.approx(exact, rel=1e-15)
        assert seg.mean_log_score <= seg.peak_log_score

    def test_same_bits_as_np_mean_in_range(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 200, 5000):
            window = rng.normal(-5.0, 3.0, n)
            assert _window_mean(window) == float(np.mean(window))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                           | st.sampled_from([-np.inf, _MAX, -_MAX]), min_size=1, max_size=50))
    def test_any_window(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _window_mean(np.array(values))
        if -np.inf in values:
            assert got == -np.inf
        else:
            exact = float(sum(map(Fraction, values)) / len(values))
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12 * max(map(abs, values)))


class TestConfig:
    def test_defaults(self):
        cfg = DetectionConfig()
        assert cfg.log_threshold_on == -10.0
        assert cfg.log_threshold_off == -14.0
        assert cfg.min_duration_s == 0.3
        assert cfg.merge_gap_s == 0.1

    def test_off_above_on_rejected(self):
        with pytest.raises(InvalidConfig):
            DetectionConfig(log_threshold_on=-10.0, log_threshold_off=-9.0)

    def test_equal_thresholds_allowed(self):
        DetectionConfig(log_threshold_on=-10.0, log_threshold_off=-10.0)

    def test_nan_threshold_rejected(self):
        with pytest.raises(InvalidConfig):
            DetectionConfig(log_threshold_on=float("nan"))

    def test_negative_durations_rejected(self):
        with pytest.raises(InvalidConfig):
            DetectionConfig(min_duration_s=-0.1)
        with pytest.raises(InvalidConfig):
            DetectionConfig(merge_gap_s=float("inf"))

    def test_infinite_duration_named_as_not_finite(self):
        with pytest.raises(InvalidConfig, match=r"^min_duration_s must be >= 0 and finite, got inf$"):
            DetectionConfig(min_duration_s=float("inf"))


class TestDetectHolds:
    def test_all_quiet(self):
        assert detect_holds(flat_trace(9000)) == []

    def test_single_run(self):
        segs = detect_holds(flat_trace(9000, runs=[(4500, 4700)]))
        assert len(segs) == 1
        seg = segs[0]
        assert (seg.start_index, seg.end_index) == (4500, 4700)
        assert seg.start_s == 45.0
        assert seg.end_s == 47.0
        assert seg.peak_log_score == -2.0
        assert seg.mean_log_score == -2.0

    def test_run_shorter_than_min_duration_dropped(self):
        # 10 samples at 100 Hz is 0.1 s, below the 0.3 s floor
        assert detect_holds(flat_trace(1000, runs=[(400, 410)])) == []

    def test_hysteresis_band_keeps_segment_open(self):
        # dips to -12 sit between off (-14) and on (-10) and must not close
        scores = np.full(200, -50.0)
        scores[50:120] = -2.0
        scores[80:90] = -12.0
        segs = detect_holds(trace_of(scores))
        assert len(segs) == 1
        assert (segs[0].start_index, segs[0].end_index) == (50, 120)

    def test_below_off_closes_and_is_excluded(self):
        scores = np.full(200, -50.0)
        scores[50:120] = -2.0
        scores[90] = -20.0  # below off: closes the segment, sample excluded
        segs = detect_holds(trace_of(scores), DetectionConfig(merge_gap_s=0.0))
        assert [(s.start_index, s.end_index) for s in segs] == [(50, 90)]

    def test_open_at_trace_end(self):
        scores = np.full(100, -50.0)
        scores[60:] = -2.0
        segs = detect_holds(trace_of(scores))
        assert [(s.start_index, s.end_index) for s in segs] == [(60, 100)]
        assert segs[0].end_s == 1.0

    def test_short_gap_merges(self):
        # 5-sample gap is 0.05 s < merge_gap_s = 0.1
        segs = detect_holds(flat_trace(1000, runs=[(100, 200), (205, 300)]))
        assert [(s.start_index, s.end_index) for s in segs] == [(100, 300)]

    def test_long_gap_stays_split(self):
        # 20-sample gap is 0.2 s > 0.1
        segs = detect_holds(flat_trace(1000, runs=[(100, 200), (220, 320)]))
        assert [(s.start_index, s.end_index) for s in segs] == [(100, 200), (220, 320)]

    def test_merged_stats_span_the_gap(self):
        segs = detect_holds(flat_trace(1000, runs=[(100, 200), (205, 300)]))
        seg = segs[0]
        assert seg.peak_log_score == -2.0
        # mean covers the -50 gap samples too
        expected = (195 * -2.0 + 5 * -50.0) / 200
        assert seg.mean_log_score == pytest.approx(expected, rel=1e-12)

    def test_two_short_runs_merge_then_survive(self):
        # each run is 0.2 s, below min duration alone; merged with the gap
        # they span 0.45 s and survive
        segs = detect_holds(flat_trace(1000, runs=[(100, 120), (125, 145)]))
        assert [(s.start_index, s.end_index) for s in segs] == [(100, 145)]

    def test_minus_inf_scores_never_open(self):
        scores = np.full(100, -np.inf)
        assert detect_holds(trace_of(scores)) == []

    def test_empty_trace(self):
        assert detect_holds(trace_of([])) == []

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        on=st.floats(-12, -6),
        gap=st.floats(0.5, 8),
    )
    def test_segments_sorted_disjoint_and_long_enough(self, seed, on, gap):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-30, 5, 600)
        cfg = DetectionConfig(log_threshold_on=on, log_threshold_off=on - gap)
        segs = detect_holds(trace_of(scores), cfg)
        for seg in segs:
            assert seg.end_index - seg.start_index >= cfg.min_duration_s * RATE
            assert seg.start_s == seg.start_index / RATE
            assert seg.end_s == seg.end_index / RATE
        for prev, nxt in zip(segs, segs[1:]):
            assert prev.end_index < nxt.start_index

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), delta=st.floats(0.5, 6))
    def test_raising_thresholds_shrinks_segments(self, seed, delta):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-30, 5, 600)
        low = DetectionConfig(log_threshold_on=-10.0, log_threshold_off=-14.0)
        high = DetectionConfig(log_threshold_on=-10.0 + delta, log_threshold_off=-14.0 + delta)
        low_segs = detect_holds(trace_of(scores), low)
        for seg in detect_holds(trace_of(scores), high):
            assert any(
                c.start_index <= seg.start_index and seg.end_index <= c.end_index
                for c in low_segs
            )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-8, 8))
    def test_shift_equivariance(self, seed, shift):
        # scores drawn away from threshold ulp-neighbourhoods so that
        # (x + c >= on + c) cannot flip under rounding
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-30, 5, 600)
        cfg = DetectionConfig()
        on, off = cfg.log_threshold_on + shift, cfg.log_threshold_off + shift
        if any(
            min(abs(s + shift - on), abs(s + shift - off)) < 1e-6 for s in scores
        ):
            return
        base = detect_holds(trace_of(scores), cfg)
        moved = detect_holds(
            trace_of(scores + shift),
            DetectionConfig(log_threshold_on=on, log_threshold_off=off),
        )
        assert [(s.start_index, s.end_index) for s in moved] == [
            (s.start_index, s.end_index) for s in base
        ]

    def test_deterministic(self):
        rng = np.random.default_rng(99)
        scores = rng.uniform(-30, 5, 600)
        a = detect_holds(trace_of(scores))
        b = detect_holds(trace_of(scores.copy()))
        assert a == b


class TestSegmentValidation:
    def test_end_not_after_start_rejected(self):
        with pytest.raises(InvalidConfig):
            HoldSegment(
                start_index=10,
                end_index=10,
                start_s=0.1,
                end_s=0.1,
                peak_log_score=-2.0,
                mean_log_score=-2.0,
            )

    def test_peak_below_mean_rejected(self):
        with pytest.raises(InvalidConfig):
            HoldSegment(
                start_index=0,
                end_index=10,
                start_s=0.0,
                end_s=0.1,
                peak_log_score=-5.0,
                mean_log_score=-2.0,
            )


class TestSummarize:
    def test_means(self):
        w = make_waveform([-1.0, 1.0, 3.0], [14.0, 15.0, 16.0])
        seg = detect_holds(trace_of([-2.0, -2.0, -2.0]), DetectionConfig(min_duration_s=0.0))[0]
        summary = summarize_segment(w, seg)
        assert summary.mean_pressure == pytest.approx(15.0, abs=1e-12)
        assert summary.mean_flow == pytest.approx(1.0, abs=1e-12)

    def test_signed_flow_cancels(self):
        w = make_waveform([-1.0, 1.0], [15.0, 15.0])
        seg = detect_holds(trace_of([-2.0, -2.0]), DetectionConfig(min_duration_s=0.0))[0]
        summary = summarize_segment(w, seg)
        assert summary.mean_flow == pytest.approx(0.0, abs=1e-12)

    def test_out_of_bounds(self):
        w = make_waveform([0.0, 0.0], [15.0, 15.0])
        seg = HoldSegment(
            start_index=0,
            end_index=5,
            start_s=0.0,
            end_s=0.05,
            peak_log_score=-2.0,
            mean_log_score=-2.0,
        )
        with pytest.raises(InvalidRange):
            summarize_segment(w, seg)


class TestNdjson:
    def make_summaries(self):
        w = make_waveform(
            np.concatenate([np.full(50, 30.0), np.full(60, 0.5), np.full(90, -20.0)]),
            np.concatenate([np.full(50, 18.0), np.full(60, 15.1), np.full(90, 8.0)]),
        )
        scores = np.full(200, -50.0)
        scores[50:110] = -2.5
        segs = detect_holds(trace_of(scores))
        return w, [summarize_segment(w, s) for s in segs]

    def test_record_key_order(self):
        _, summaries = self.make_summaries()
        rec = segment_record(summaries[0])
        assert tuple(rec.keys()) == SEGMENT_RECORD_KEYS

    def test_round_trip(self):
        _, summaries = self.make_summaries()
        buf = io.StringIO()
        write_segments_ndjson([segment_record(s) for s in summaries], buf)
        text = buf.getvalue()
        assert text.endswith("\n")
        records = read_segments_ndjson(text)
        assert records == [segment_record(s) for s in summaries]
        buf2 = io.StringIO()
        write_segments_ndjson(records, buf2)
        assert buf2.getvalue() == text

    def test_each_line_is_plain_json(self):
        _, summaries = self.make_summaries()
        buf = io.StringIO()
        write_segments_ndjson([segment_record(s) for s in summaries], buf)
        for line in buf.getvalue().splitlines():
            rec = json.loads(line)
            assert set(rec) == set(SEGMENT_RECORD_KEYS)

    def test_minus_infinity_round_trips(self):
        rec = {
            "start_s": 0.0,
            "end_s": 0.5,
            "start_index": 0,
            "end_index": 50,
            "peak_log_score": -1.0,
            "mean_log_score": float("-inf"),
            "mean_pressure": 15.0,
            "mean_flow": 0.0,
        }
        line = json.dumps(rec)
        assert "-Infinity" in line
        got = read_segments_ndjson(line + "\n")
        assert got[0]["mean_log_score"] == float("-inf")

    @pytest.mark.parametrize("key", ["start_s", "end_s", "mean_pressure", "mean_flow"])
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_value_rejected(self, key, text):
        line = self.second_line_with(0, 5).replace(f'"{key}": 1.0', f'"{key}": {text}')
        assert text in line
        with pytest.raises(MalformedRow, match=f"^line 1: {key} must be finite"):
            read_segments_ndjson(line)

    @pytest.mark.parametrize("key", ["start_s", "mean_log_score"])
    def test_text_value_rejected(self, key):
        line = self.second_line_with(0, 5).replace(f'"{key}": 1.0', f'"{key}": "1.0"')
        with pytest.raises(MalformedRow, match=f"^line 1: {key} must be a number$"):
            read_segments_ndjson(line)

    @pytest.mark.parametrize("key", ["peak_log_score", "mean_log_score"])
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "1e999"])
    def test_log_score_finite_or_minus_infinity(self, key, text):
        line = self.second_line_with(0, 5)
        assert read_segments_ndjson(line.replace(f'"{key}": 1.0', f'"{key}": -Infinity', 1))
        with pytest.raises(MalformedRow, match=f"^line 1: {key} must be finite or -inf"):
            read_segments_ndjson(line.replace(f'"{key}": 1.0', f'"{key}": {text}', 1))

    def test_empty_input(self):
        assert read_segments_ndjson("") == []
        assert read_segments_ndjson("\n\n") == []

    def test_bad_json_rejected(self):
        with pytest.raises(MalformedRow):
            read_segments_ndjson("{not json}\n")

    def test_missing_key_rejected(self):
        rec = {k: 1.0 for k in SEGMENT_RECORD_KEYS[:-1]}
        with pytest.raises(MalformedRow):
            read_segments_ndjson(json.dumps(rec) + "\n")

    def test_non_integer_index_rejected(self):
        rec = {k: 1.0 for k in SEGMENT_RECORD_KEYS}
        rec["start_index"] = 1.5
        with pytest.raises(MalformedRow):
            read_segments_ndjson(json.dumps(rec) + "\n")

    @staticmethod
    def second_line_with(start, end):
        good = {k: 1.0 for k in SEGMENT_RECORD_KEYS} | {"start_index": 0, "end_index": 5}
        return json.dumps(good) + "\n" + json.dumps(good | {"start_index": start, "end_index": end})

    def test_boolean_index_rejected(self):
        with pytest.raises(MalformedRow, match="^line 2: start_index must be an integer"):
            read_segments_ndjson(self.second_line_with(True, 5))

    @pytest.mark.parametrize("start,end", [(7, 5), (5, 5), (-1, 5)], ids=["inverted", "empty", "negative"])
    def test_index_range_rejected(self, start, end):
        with pytest.raises(MalformedRow, match=rf"^line 2: .*got \[{start}, {end}\)"):
            read_segments_ndjson(self.second_line_with(start, end))

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(HoldscanError):
            read_segments_ndjson(b"\xff\n")

    def test_key_order_normalized_on_read(self):
        rec = {
            "mean_flow": 0.0,
            "mean_pressure": 15.0,
            "mean_log_score": -2.0,
            "peak_log_score": -1.0,
            "end_index": 50,
            "start_index": 0,
            "end_s": 0.5,
            "start_s": 0.0,
        }
        got = read_segments_ndjson(json.dumps(rec) + "\n")
        assert tuple(got[0].keys()) == SEGMENT_RECORD_KEYS

