import io
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_waveform
from holdscan import (
    EmptyInput,
    HoldscanError,
    InvalidConfig,
    MalformedRow,
    MockConfig,
    NonFiniteInput,
    NonMonotonicTime,
    NonUniformSampling,
    ScoreTrace,
    Waveform,
    generate_mock_waveform,
    load_score_trace_csv,
    load_waveform_csv,
    read_segments_ndjson,
    score_series,
    validate_waveform,
    waveform_to_csv,
    write_score_trace_csv,
)
from holdscan.mockgen import _BLOCK
from holdscan.waveform import (
    _BlockCheck,
    _channel,
    _read_back,
    check_time_grid,
    format_value,
)

CSV_3ROWS = "t,flow,pressure\n0.00,10.0,5.0\n0.01,20.0,6.0\n0.02,30.0,7.0\n"


class TestLoadCsv:
    def test_three_rows_infer_rate(self):
        w = load_waveform_csv(CSV_3ROWS)
        assert len(w) == 3
        assert w.sample_rate_hz == 100.0
        assert w.flow.tolist() == [10.0, 20.0, 30.0]
        assert w.pressure.tolist() == [5.0, 6.0, 7.0]
        assert w.volume is None

    def test_non_monotonic_rows(self):
        text = "t,flow,pressure\n0.0,1,1\n0.2,1,1\n0.1,1,1\n"
        with pytest.raises(NonMonotonicTime):
            load_waveform_csv(text)

    def test_non_numeric_field(self):
        text = "t,flow,pressure\n0.00,1.0,1.0\n0.01,abc,15.2\n"
        with pytest.raises(MalformedRow):
            load_waveform_csv(text)

    def test_wrong_column_count(self):
        text = "t,flow,pressure\n0.00,1.0\n"
        with pytest.raises(MalformedRow):
            load_waveform_csv(text)

    def test_non_finite_field(self):
        text = "t,flow,pressure\n0.00,nan,1.0\n0.01,1.0,1.0\n"
        with pytest.raises(MalformedRow):
            load_waveform_csv(text)

    def test_unknown_header(self):
        with pytest.raises(MalformedRow):
            load_waveform_csv("time,flow,pressure\n0,1,1\n")

    def test_empty_and_header_only(self):
        with pytest.raises(EmptyInput):
            load_waveform_csv("")
        with pytest.raises(EmptyInput):
            load_waveform_csv("t,flow,pressure\n")

    def test_comments_blank_lines_crlf(self):
        text = "# recording 1\r\nt,flow,pressure\r\n\r\n0.00,1.0,2.0\r\n# mid comment\r\n0.01,3.0,4.0\r\n"
        w = load_waveform_csv(text)
        assert len(w) == 2
        assert w.flow.tolist() == [1.0, 3.0]

    def test_volume_column(self):
        text = "t,flow,pressure,volume\n0.00,1.0,2.0,0.0\n0.01,3.0,4.0,0.1\n"
        w = load_waveform_csv(text)
        assert w.volume is not None
        assert w.volume.tolist() == [0.0, 0.1]

    def test_non_utf8_bytes_rejected(self):
        for source in (b"t,flow,pressure\n0,1,1\n0.01,1,1\xff\n", io.BytesIO(b"\xff")):
            with pytest.raises(HoldscanError):
                load_waveform_csv(source)

    def test_non_monotonic_names_samples(self):
        text = "t,flow,pressure\n# c\n0,1,1\n0.01,1,1\n0.005,1,1\n"
        with pytest.raises(NonMonotonicTime, match=r" at index 2 \(t=0\.01 then t=0\.005\)$"):
            load_waveform_csv(text)

    def test_subnormal_span_rejected(self):
        # the rate inferred from a 5e-324 s span is infinite
        with pytest.raises(NonUniformSampling):
            load_waveform_csv("t,flow,pressure\n0,1,1\n5e-324,1,1\n")

    def test_grid_checked_once(self):
        with mock.patch.object(_BlockCheck, "raise_first", autospec=True,
                               side_effect=_BlockCheck.raise_first) as check:
            load_waveform_csv(CSV_3ROWS)
        assert check.call_count == 1

    def test_bytes_and_stream_sources(self):
        w1 = load_waveform_csv(CSV_3ROWS.encode("utf-8"))
        w2 = load_waveform_csv(io.StringIO(CSV_3ROWS))
        w3 = load_waveform_csv(io.BytesIO(CSV_3ROWS.encode("utf-8")))
        for w in (w1, w2, w3):
            assert len(w) == 3

    @pytest.mark.parametrize("load", [load_waveform_csv, load_score_trace_csv, read_segments_ndjson])
    def test_list_of_lines_rejected(self, load):
        with pytest.raises(MalformedRow, match="not list"):
            load(CSV_3ROWS.splitlines(keepends=True))

    def test_single_row_needs_rate(self):
        text = "t,flow,pressure\n0.00,1.0,2.0\n"
        with pytest.raises(InvalidConfig):
            load_waveform_csv(text)
        w = load_waveform_csv(text, expected_rate_hz=50.0)
        assert w.sample_rate_hz == 50.0

    def test_non_uniform_spacing(self):
        text = "t,flow,pressure\n0.00,1,1\n0.01,1,1\n0.03,1,1\n"
        with pytest.raises(NonUniformSampling):
            load_waveform_csv(text)

    def test_expected_rate_mismatch(self):
        with pytest.raises(NonUniformSampling):
            load_waveform_csv(CSV_3ROWS, expected_rate_hz=200.0)

    def test_bad_expected_rate(self):
        for rate in (-5.0, 5e-324, "x", 2**1100, 1j):
            with pytest.raises(InvalidConfig, match="expected_rate_hz"):
                load_waveform_csv(CSV_3ROWS, expected_rate_hz=rate)
            with pytest.raises(InvalidConfig, match="expected_rate_hz"):
                load_score_trace_csv("t,log_score\n0,-1\n0.5,-1\n7,-1\n", expected_rate_hz=rate)
            with pytest.raises(InvalidConfig, match="expected_rate_hz"):
                check_time_grid(np.arange(3) / 100.0, rate)


class TestValidate:
    def test_uniform_ok(self):
        validate_waveform(make_waveform([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]))

    def test_single_sample_ok(self):
        validate_waveform(make_waveform([1.0], [2.0]))

    def test_nan_flow_rejected(self):
        with pytest.raises(NonFiniteInput):
            make_waveform([1.0, float("nan")], [2.0, 3.0])

    def test_inf_pressure_rejected(self):
        with pytest.raises(NonFiniteInput):
            make_waveform([1.0, 2.0], [2.0, float("inf")])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            Waveform(t=np.array([]), flow=np.array([]), pressure=np.array([]), sample_rate_hz=100.0)

    def test_non_monotonic_rejected(self):
        with pytest.raises(NonMonotonicTime, match=r"at index 2 \(t=0\.02 then t=0\.01\)"):
            Waveform(
                t=np.array([0.0, 0.02, 0.01]),
                flow=np.zeros(3),
                pressure=np.zeros(3),
                sample_rate_hz=100.0,
            )

    def test_spacing_vs_declared_rate(self):
        with pytest.raises(NonUniformSampling):
            Waveform(
                t=np.arange(5) / 100.0,
                flow=np.zeros(5),
                pressure=np.zeros(5),
                sample_rate_hz=90.0,
            )

    def test_bad_rate_rejected(self):
        w = make_waveform([1.0, 2.0], [1.0, 2.0])
        # at 5e-324 the spacing 1 / rate overflows, and inf would pass any grid
        for rate in (0.0, 5e-324):
            with pytest.raises(InvalidConfig):
                Waveform(t=w.t, flow=w.flow, pressure=w.pressure, sample_rate_hz=rate)

    def test_rate_judged_before_the_channels(self):
        t = np.arange(3) / 100.0
        flow = np.array([0.0, np.nan, 0.0])
        with pytest.raises(InvalidConfig):
            Waveform(t=t, flow=flow, pressure=t, sample_rate_hz=0.0)
        with pytest.raises(NonFiniteInput):
            Waveform(t=t, flow=flow, pressure=t, sample_rate_hz=100.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(MalformedRow):
            Waveform(
                t=np.arange(3) / 100.0,
                flow=np.zeros(2),
                pressure=np.zeros(3),
                sample_rate_hz=100.0,
            )

    @pytest.mark.parametrize("name", ["t", "flow", "pressure", "volume"])
    @pytest.mark.parametrize("bad", [["a", "b"], [0.0, 1j], np.array([0.0, 1j]), np.zeros((2, 1)),
                                     [[0.0, 1.0], 2.0]],
                             ids=["text", "complex", "complex-array", "2-d", "ragged"])
    def test_bad_channel_rejected(self, name, bad):
        channels = {"t": [0.0, 0.01], "flow": [1.0, 2.0], "pressure": [15.0, 16.0],
                    "volume": [0.0, 0.1], name: bad}
        with pytest.raises(MalformedRow, match=f"^channel {name!r} must "):
            Waveform(**channels, sample_rate_hz=100.0)

    @pytest.mark.parametrize("name", ["t", "flow", "pressure"])
    def test_only_volume_may_be_missing(self, name):
        channels = {"t": [0.0, 0.01], "flow": [1.0, 2.0], "pressure": [15.0, 16.0]}
        assert Waveform(**channels, sample_rate_hz=100.0).volume is None
        with pytest.raises(MalformedRow, match=f"^channel {name!r} must "):
            Waveform(**(channels | {name: None}), sample_rate_hz=100.0)

    def test_channel_converted_without_a_copy(self):
        rows = np.arange(6.0).reshape(3, 2)
        for arr in (rows[:, 0], rows[:, 1].copy()):
            assert _channel("channel 't'", arr) is arr
        ints = np.arange(3)
        assert _channel("channel 't'", ints).tobytes() == ints.astype(np.float64).tobytes()

    def test_channels_read_only(self):
        w = make_waveform([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(ValueError):
            w.flow[0] = 99.0


@st.composite
def _recordings_in_blocks(draw):
    """Channels on a grid with a few samples moved or made non-finite, and cut points."""
    n = draw(st.integers(1, 60))
    rate = draw(st.sampled_from([100.0, 7.3]))
    channels = [np.arange(n) / rate] + [np.linspace(-1.0, 1.0, n) for _ in range(3)]
    for _ in range(draw(st.integers(0, 3))):
        k, i = draw(st.integers(0, 3)), draw(st.integers(0, n - 1))
        channels[k][i] = draw(st.sampled_from([np.nan, np.inf, -np.inf, channels[0][i] + 1e-9,
                                               channels[0][i] + 0.25 / rate,
                                               channels[0][i] - 1.0 / rate, 0.0]))
    edges = sorted(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=5)))
    return channels, rate, edges


def _first_error(check):
    try:
        check()
    except HoldscanError as exc:
        return type(exc), str(exc)
    return None


def _reference_check(channels, rate):
    """The checks of a whole recording written out: finite channels, then the grid."""
    for name, arr in zip(("t", "flow", "pressure", "volume"), channels):
        if not np.all(np.isfinite(arr)):
            i = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise NonFiniteInput(f"channel {name!r} has a non-finite value at index {i}")
    t = channels[0]
    for i in range(1, len(t)):
        if not t[i] > t[i - 1]:
            raise NonMonotonicTime(f"timestamps not strictly increasing at index {i} "
                                   f"(t={float(t[i - 1])!r} then t={float(t[i])!r})")
    nominal = 1.0 / rate
    devs = [abs(float(b - a) - nominal) for a, b in zip(t, t[1:])]
    dev = max(devs, default=0.0)
    if dev > 1e-6 * nominal:
        i = devs.index(dev) + 1  # the first step that deviates most ends at sample i
        raise NonUniformSampling(f"timestamp spacing deviates from {nominal} s by {dev} at index {i} "
                                 f"(t={float(t[i - 1])!r} then t={float(t[i])!r}; allowed {1e-6 * nominal})")


class TestBlockCheck:
    """validate_waveform's checks over blocks, the last timestamp carried, against the whole."""

    @settings(max_examples=300, deadline=None)
    @given(case=_recordings_in_blocks())
    def test_same_error_as_whole_recording(self, case):
        channels, rate, edges = case
        want = _first_error(lambda: _reference_check(channels, rate))
        w = Waveform.__new__(Waveform)  # unchecked, to be checked here
        for name, arr in zip(("t", "flow", "pressure", "volume"), channels):
            object.__setattr__(w, name, arr)
        object.__setattr__(w, "sample_rate_hz", rate)
        assert _first_error(lambda: validate_waveform(w)) == want
        check = _BlockCheck()
        passed = []
        for lo, hi in zip([0, *edges], [*edges, len(channels[0])]):
            if hi > lo:
                check.feed(*(c[lo:hi] for c in channels))
                passed.append(_first_error(lambda: check.raise_first(rate)) is None)
        assert _first_error(lambda: check.raise_first(rate)) == want
        assert all(passed) == (want is None)

    def test_without_volume(self):
        t = np.arange(5) / 100.0
        validate_waveform(make_waveform(t, t))
        flow = t.copy()
        flow[3] = np.nan
        with pytest.raises(NonFiniteInput, match="'flow' has a non-finite value at index 3$"):
            validate_waveform(Waveform._checked(t, flow, t, 100.0))

    def test_backward_step_at_a_block_edge(self):
        t = np.arange(10) / 100.0
        t[5] = t[4]
        check = _BlockCheck()
        check.feed(t[:5], t[:5], t[:5], t[:5])
        assert check.raise_first() == check.raise_first(100.0) == 100.0
        check.feed(t[5:], t[5:], t[5:], t[5:])
        with pytest.raises(NonMonotonicTime, match="at index 5 "):
            check.raise_first(100.0)

    def test_uneven_step_at_a_block_edge(self):
        t = np.arange(10) / 100.0
        t[5:] += 0.004
        check = _BlockCheck()
        check.feed(t[:5], t[:5], t[:5], t[:5])
        check.feed(t[5:], t[5:], t[5:], t[5:])
        where = f"at index 5 (t={float(t[4])!r} then t={float(t[5])!r}; "
        with pytest.raises(NonUniformSampling, match=re.escape(where)):
            check.raise_first(100.0)


class TestTimeGrid:
    def test_snaps_to_integer_rate(self):
        # a 100 Hz grid that went through 9-digit serialization
        t = np.array([float(format_value(i / 100.0)) for i in range(500)])
        assert check_time_grid(t) == 100.0

    def test_fractional_rate_not_snapped(self):
        t = np.arange(100) / 3.7
        rate = check_time_grid(t)
        assert rate == pytest.approx(3.7, rel=1e-9)
        assert rate != 4.0

    def test_offset_grid(self):
        t = 120.0 + np.arange(50) / 250.0
        assert check_time_grid(t) == 250.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_timestamp(self, bad):
        t = np.arange(5) / 100.0
        t[2] = bad
        with pytest.raises(NonFiniteInput, match="'t' has a non-finite value at index 2$"):
            check_time_grid(t, 100.0)

    @pytest.mark.parametrize("t", [[0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0], [0.0, np.nan, 1.0]])
    def test_non_finite_timestamp_without_a_rate(self, t):
        # the rate cannot be inferred from a span that is not finite
        with pytest.raises(NonFiniteInput, match="'t' has a non-finite value"):
            check_time_grid(np.array(t))

    @pytest.mark.parametrize("t", [[0.0, 1.7976931348623157e308], [-1e308, 1e308]])
    def test_span_at_the_float_edge(self, t):
        # the inferred rate is 0, or so small that its spacing 1 / rate overflows
        with pytest.raises(InvalidConfig, match="sample_rate_hz must be positive"):
            check_time_grid(np.array(t))
        with pytest.raises(InvalidConfig, match="sample_rate_hz must be positive"):
            load_waveform_csv("t,flow,pressure\n" + "".join(f"{v!r},0,15\n" for v in t))

    def test_no_timestamps(self):
        with pytest.raises(EmptyInput, match="^no timestamps$"):
            check_time_grid(np.array([]))

    def test_step_beyond_the_float_range(self):
        # the step overflows to inf, without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonUniformSampling, match="by inf "):
                check_time_grid(np.array([-1e308, 1e308]), 1.0)


# values in a physiological-to-extreme range; 9 significant digits quantize
# at most 5e-9 relative, which is what the first serialization may lose
_value = st.one_of(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    st.sampled_from([
        -0.0,
        5e-324,  # smallest subnormal
        1.5e-310,  # subnormal
        2.2250738585072014e-308,  # smallest normal
        1e300,
        -1e300,
        9.9999999996,  # rounds up across a decade: "10"
        -0.00099999999996,  # "-0.001"
        999999999.6,  # "1e+09"
        99999.9999996,  # "100000"
    ]),
)
# log-scores include -inf and values whose exp() underflows to 0
_log_score = st.one_of(
    st.floats(min_value=-2000.0, max_value=27.6, allow_nan=False),
    st.sampled_from([-np.inf, -745.2, -800.0, -1e300, 9.99999999951]),
)


def _csv_oracle(header, columns):
    """The CSV text written one value at a time with format_value."""
    rows = (",".join(format_value(v) for v in row) + "\n" for row in zip(*columns))
    return header + "\n" + "".join(rows)


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(st.tuples(_value, _value, _value, _log_score), min_size=1, max_size=40),
        rate=st.sampled_from([50.0, 100.0, 250.0, 1000.0]),
    )
    def test_serialize_load_serialize(self, rows, rate):
        flow = [r[0] for r in rows]
        pressure = [r[1] for r in rows]
        volume = np.asarray([r[2] for r in rows])
        w = make_waveform(flow, pressure, rate=rate, volume=volume)
        text1 = waveform_to_csv(w)
        assert text1 == _csv_oracle("t,flow,pressure,volume", (w.t, w.flow, w.pressure, w.volume))
        w2 = load_waveform_csv(text1, expected_rate_hz=rate)
        assert len(w2) == len(w)
        # first pass may quantize, but never beyond the 9-digit tick
        for a, b in ((w.flow, w2.flow), (w.pressure, w2.pressure), (w.volume, w2.volume)):
            assert np.allclose(a, b, rtol=5e-9, atol=1e-300)
        # from the first serialization onward the text is a fixpoint
        text2 = waveform_to_csv(w2)
        assert text2 == text1
        w3 = load_waveform_csv(text2, expected_rate_hz=rate)
        assert np.array_equal(w2.flow, w3.flow)
        assert np.array_equal(w2.pressure, w3.pressure)
        assert np.array_equal(w2.volume, w3.volume)

        # the score trace goes through the same writer and reader
        trace = ScoreTrace(log_scores=[r[3] for r in rows], sample_rate_hz=rate)
        with np.errstate(under="ignore", over="ignore"):
            linear = np.exp(trace.log_scores)
        for with_linear in (False, True):
            buf = io.StringIO()
            write_score_trace_csv(w.t, trace, buf, linear=with_linear)
            text1 = buf.getvalue()
            if with_linear:
                expected = _csv_oracle("t,log_score,score", (w.t, trace.log_scores, linear))
                assert all(line.endswith(",0") for line, ls in zip(text1.splitlines()[1:], trace.log_scores)
                           if ls < -746.0)
            else:
                expected = _csv_oracle("t,log_score", (w.t, trace.log_scores))
            assert text1 == expected
            t2, trace2 = load_score_trace_csv(text1, expected_rate_hz=rate)
            buf = io.StringIO()
            write_score_trace_csv(t2, trace2, buf, linear=with_linear)
            _, trace3 = load_score_trace_csv(buf.getvalue(), expected_rate_hz=rate)
            assert trace3.log_scores.tobytes() == trace2.log_scores.tobytes()
            if not with_linear:
                # the linear column is exp() of the unrounded log-score, so
                # only the two-column layout is a fixpoint from the first pass
                assert buf.getvalue() == text1

    def test_negative_zero_stable(self):
        w = make_waveform([-0.0, 1.0], [0.0, -0.0])
        text1 = waveform_to_csv(w)
        text2 = waveform_to_csv(load_waveform_csv(text1))
        assert text1 == text2


# str.splitlines() breaks a line at each of these; np.loadtxt only at \r and
# \n, and strips the others as whitespace
_SPLIT = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r", "\n"]
_NOISE = _SPLIT + ["#", " ", "\t", "_", "nan", "inf", "\uff11", ",", ".", "-", "e", "0", "1e999", ""]
# whole fields that either reader may take differently from the other
_FIELDS = ["1e999", "-1e999", "nan", "-inf", "", "1_0", "\uff11", " 5 ", "+.5E-3"]
_CANONICAL = ["t,flow,pressure", "t,flow,pressure,volume", "t,log_score", "t,log_score,score"]
_HEADERS = _CANONICAL * 2 + ["t,flow", "# comment", ""]


@st.composite
def _csv_texts(draw):
    """Mostly canonical CSV text (valid grid, 9-digit values) with a few edits."""
    header = draw(st.sampled_from(_HEADERS))
    fields = len(header.split(","))
    # rows mostly as wide as the header, else consistently of another width
    width = draw(st.sampled_from([fields, fields, fields, 1, 2, 3, 4]))
    rate = draw(st.sampled_from([100.0, 250.0]))
    n = draw(st.sampled_from([3, 2, 4, 1, 0]))
    rows = [[format_value(i / rate)] + [format_value(draw(_value)) for _ in range(width - 1)]
            for i in range(n)]
    text = header + "\n" + "".join(",".join(row) + "\n" for row in rows)
    for _ in range(draw(st.sampled_from([1, 2, 0]))):
        # fields start after a delimiter; next to one, a line break splits a row
        starts = [i + 1 for i, c in enumerate(text) if c == "," and i > len(header)]
        kind = draw(st.sampled_from(["delimiter", "field", "field", "anywhere"]))
        if kind == "delimiter" and starts:
            at = draw(st.sampled_from(starts)) - draw(st.integers(0, 1))
            text = text[:at] + draw(st.sampled_from(_SPLIT) | st.sampled_from(_NOISE)) + text[at:]
        elif kind == "field" and starts:
            at = stop = draw(st.sampled_from(starts))
            while stop < len(text) and text[stop] not in ",\n":
                stop += 1
            text = text[:at] + draw(st.sampled_from(_FIELDS)) + text[stop:]
        else:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(_NOISE)) + text[at + draw(st.integers(0, 1)):]
    return text, draw(st.sampled_from([None, rate]))


def _waveform_outcome(text, rate):
    w = load_waveform_csv(text, rate)
    volume = None if w.volume is None else w.volume.tobytes()
    return w.t.tobytes(), w.flow.tobytes(), w.pressure.tobytes(), volume, w.sample_rate_hz


def _trace_outcome(text, rate):
    t, trace = load_score_trace_csv(text, rate)
    return t.tobytes(), trace.log_scores.tobytes(), trace.sample_rate_hz


def _outcome(load, text, rate):
    try:
        return load(text, rate)
    except Exception as exc:
        return type(exc), str(exc)


class TestFastReader:
    """The np.loadtxt path against the line parser, its oracle."""

    @settings(max_examples=400, deadline=None)
    @given(case=_csv_texts())
    def test_matches_line_parser(self, case):
        text, rate = case
        for load in (_waveform_outcome, _trace_outcome):
            fast = _outcome(load, text, rate)
            with mock.patch("holdscan.waveform._fast_table", return_value=None):
                legacy = _outcome(load, text, rate)
            assert fast == legacy

    def test_writer_output_takes_fast_path(self):
        w = make_waveform([1.0, -2.5e-7, 3.0], [4.0, 1e300, 6.0], volume=np.array([0.0, 0.1, -0.0]))
        trace = ScoreTrace(log_scores=[-1.0, -800.0, 27.5], sample_rate_hz=100.0)
        texts = []
        for linear in (False, True):
            buf = io.StringIO()
            write_score_trace_csv(w.t, trace, buf, linear=linear)
            texts.append(buf.getvalue())
        with mock.patch("holdscan.waveform._parse_lines", side_effect=AssertionError("slow path")):
            assert load_waveform_csv(waveform_to_csv(w)).flow.tolist() == [1.0, -2.5e-7, 3.0]
            for text in texts:
                assert load_score_trace_csv(text)[1].log_scores.tolist() == [-1.0, -800.0, 27.5]


def _text_round_trip(values):
    """What a reader gives for the writer's text: float(format_value(v)) each."""
    return np.array([float(format_value(v)) for v in values], dtype=np.float64)


@st.composite
def _near_ties(draw, exponents=st.integers(-40, 40)):
    """Values at, or one ulp from, a 9-digit rounding tie or a power of ten."""
    exponent = draw(exponents)
    if draw(st.booleans()):
        mantissa = draw(st.integers(10**8, 10**9 - 1))
        v = float(f"{mantissa}5e{exponent - 9}")
    else:
        v = 10.0**exponent
    v = draw(st.sampled_from([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]))
    return float(v) if draw(st.booleans()) else -float(v)


class TestReadBack:
    """_read_back against the text round trip it stands in for."""

    # NaN is left out: its bits need not survive float("nan"), and neither a
    # waveform nor a score trace holds one
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(
        st.floats(allow_nan=False)
        | st.sampled_from([-0.0, 5e-324, -1.5e-310, 1e300, -1e300, np.inf, -np.inf])
        | _near_ties(),
        min_size=1, max_size=60,
    ))
    def test_matches_text_round_trip(self, values):
        assert _read_back(values).tobytes() == _text_round_trip(values).tobytes()

    # beyond the exact powers of ten, so through the text: from 1e9 up, tiny
    # values, subnormals, and ties in every decade a float reaches
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(
        st.floats(allow_nan=False).filter(lambda v: not 1e-14 <= abs(v) < 1e9)
        | st.floats(min_value=-1e-300, max_value=1e-300)
        | _near_ties(st.integers(-315, 308)),
        min_size=1, max_size=60,
    ))
    def test_wide_matches_text_round_trip(self, values):
        assert _read_back(values).tobytes() == _text_round_trip(values).tobytes()

    def test_full_block_of_wide_values(self):
        # a whole block beyond 1e31, below 1e-14, and -inf, as in the log-scores
        # of a model with a tiny variance
        rng = np.random.default_rng(3)
        exponents = rng.uniform(-323.0, 308.0, 2 * _BLOCK)
        values = -(10.0 ** exponents[np.abs(exponents - 8.0) > 23.0])[:_BLOCK]
        values[::5] = -np.inf
        assert len(values) == _BLOCK
        assert _read_back(values).tobytes() == _text_round_trip(values).tobytes()

    def test_recording_columns(self):
        w, _ = generate_mock_waveform(MockConfig(duration_s=60.0, rng_seed=3))
        log_scores = score_series(w).log_scores
        for values in (w.t, w.flow, w.pressure, w.volume, log_scores):
            assert _read_back(values).tobytes() == _text_round_trip(values).tobytes()

    def test_is_what_the_reader_gives(self):
        cfg = MockConfig(duration_s=20.0, sample_rate_hz=250.0, holds=((8.0, 2.0),), rng_seed=5)
        w, _ = generate_mock_waveform(cfg)
        loaded = load_waveform_csv(waveform_to_csv(w))
        for name in ("t", "flow", "pressure", "volume"):
            assert _read_back(getattr(w, name)).tobytes() == getattr(loaded, name).tobytes()

    # with the true decade estimate (0) and wrong ones: a log10 that puts
    # values in the wrong decade must cost speed only
    @pytest.mark.parametrize("decades", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_wrong_decade_estimate_stays_exact(self, decades):
        # at the top of a decade, where the 9-digit rounding carries, and at
        # the edges of the table of exact powers
        edges = [999999996.0, 9.99999996, -0.0999999996, 9.99999997e-15, 1e31 * (1 + 1e-9),
                 1e31 * (1 - 1e-9), 1e9 + 0.3, 999999999.5]
        values = np.array([0.1234567891, 98765.43215, -7.0000000049, 1.0, 999999999.7,
                           1.234567891e200, -9.87654321e-250, 5e-324, 1.7976931348623157e308,
                           *edges, *(-v for v in edges)])
        log10 = np.log10
        with mock.patch.object(np, "log10", lambda a: log10(a) + decades):
            got = _read_back(values)
        assert got.tobytes() == _text_round_trip(values).tobytes()

    # within 1e-8 relative of a power of ten, on either side, in every decade
    # a float reaches, with the true decade estimate and wrong ones
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.integers(-320, 308), st.integers(-100, 100), st.booleans()).map(
                lambda c: (-1.0 if c[2] else 1.0) * float(f"1e{c[0]}") * (1.0 + c[1] * 1e-10)),
            min_size=1, max_size=60),
        decades=st.sampled_from([0.0, -3.0, -1.0, 1.0, 3.0]),
    )
    def test_near_powers_of_ten(self, values, decades):
        log10 = np.log10
        with mock.patch.object(np, "log10", lambda a: log10(a) + decades):
            got = _read_back(values)
        assert got.tobytes() == _text_round_trip(values).tobytes()

    def test_into_out(self):
        # the exact-power path, the text path and pass-through values all land
        # in the one array returned
        values = np.array([0.1234567891, -0.0, np.inf, 1e300, 5e-324, 98765.43215])
        assert _read_back(values).tobytes() == _text_round_trip(values).tobytes()

    def test_input_left_alone(self):
        values = np.array([0.1234567891, -0.0, np.inf])
        before = values.tobytes()
        _read_back(values)
        assert values.tobytes() == before
