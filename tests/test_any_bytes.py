"""Any bytes given to a reader give a value or a HoldscanError, never another exception."""

import io
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from holdscan import (
    HoldscanError,
    MockConfig,
    detect_holds,
    generate_mock_waveform,
    load_score_trace_csv,
    load_waveform_csv,
    read_segments_ndjson,
    score_series,
    segment_record,
    summarize_segment,
    waveform_to_csv,
    write_score_trace_csv,
    write_segments_ndjson,
)


def _canonical_texts():
    """What the writers emit for a short recording with one hold."""
    w, _ = generate_mock_waveform(MockConfig(duration_s=4.0, holds=((1.0, 1.5),), rng_seed=2))
    trace = score_series(w)
    texts = {"waveform": waveform_to_csv(w)}
    for linear in (False, True):
        buf = io.StringIO()
        write_score_trace_csv(w.t, trace, buf, linear=linear)
        texts[f"trace{linear:d}"] = buf.getvalue()
    buf = io.StringIO()
    write_segments_ndjson([segment_record(summarize_segment(w, s)) for s in detect_holds(trace)], buf)
    texts["segments"] = buf.getvalue()
    assert texts["segments"]
    return [t.encode("utf-8") for t in texts.values()]


_CANONICAL = _canonical_texts()

# pieces that each reader takes apart differently: structure, numbers at
# and past the float range, bytes that are not UTF-8, and JSON of every kind
_PIECES = [b",", b"\n", b"\r", b"#", b" ", b"\t", b"\x00", b"\xff", b"\xc3", b"\xe2\x80\xa8",
           b"nan", b"inf", b"-inf", b"1e999", b"-0", b"1" * 400, b"9" * 5000, b"e", b".", b"-",
           b"{", b"}", b"[" * 3000, b'"', b":", b"null", b"true", b"NaN", b"Infinity",
           b'"start_index": ', b'"end_index": ', b'"start_s": ', b"t,flow,pressure\n",
           b"t,log_score\n", b"t,log_score,score\n", b"t,flow,pressure,volume\n"]


@st.composite
def _edited(draw, texts=_CANONICAL):
    """A canonical text cut short, or with a few spans replaced by pieces or bytes."""
    data = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 12))
        piece = draw(st.sampled_from(_PIECES) | st.binary(max_size=6))
        data = data[:at] + piece + data[at + cut:]
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


# timestamps at the edges of the float range; steps between them overflow,
# and the spans they make give no finite rate, or one whose spacing overflows
_EDGE_TIMES = [1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, float("inf"),
               5e-324, -0.0]


@st.composite
def _edge_files(draw):
    """Waveform and trace bytes of 2 to 5 rows, each timestamp an edge value or on a 100 Hz grid."""
    t = [draw(st.sampled_from([*_EDGE_TIMES, i / 100.0])) for i in range(draw(st.integers(2, 5)))]
    wave = "t,flow,pressure\n" + "".join(f"{v!r},0,15\n" for v in t)
    trace = "t,log_score\n" + "".join(f"{v!r},-1\n" for v in t)
    return wave.encode("ascii"), trace.encode("ascii")


# channel values at the edges of the float range, and ordinary ones
_EDGE_CHANNEL_VALUES = [1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308, 5e-324,
                        -5e-324, 0.0, -0.0, 0.5, -30.0, 5.0, 15.0, 25.0]


@st.composite
def _edge_channel_files(draw):
    """Waveform and trace bytes of 2 to 800 rows on a 100 Hz grid: flow,
    pressure and maybe volume in runs of edge and ordinary values, and
    log-scores in runs, those at 0 long enough to open segments."""
    n = draw(st.integers(2, 800))

    def runs(values):
        column = []
        while len(column) < n:
            column += [draw(st.sampled_from(values))] * draw(st.integers(1, 200))
        return column[:n]

    names = ["t", "flow", "pressure", "volume"][: draw(st.integers(3, 4))]
    columns = [[i / 100.0 for i in range(n)], *(runs(_EDGE_CHANNEL_VALUES) for _ in names[1:])]
    log_scores = runs([0.0, -12.0, -20.0, float("-inf")])
    wave = ",".join(names) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in zip(*columns))
    trace = "t,log_score\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(columns[0], log_scores))
    return wave.encode("ascii"), trace.encode("ascii")


def _loads(data, expected_rate_hz=None):
    """Every reader's outcome for the bytes; a value or a HoldscanError each."""
    readers = (lambda source: load_waveform_csv(source, expected_rate_hz),
               lambda source: load_score_trace_csv(source, expected_rate_hz),
               read_segments_ndjson)
    for read in readers:
        for source in (data, io.BytesIO(data)):
            try:
                read(source)
            except HoldscanError:
                pass


class TestAnyBytes:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=400))
    def test_raw_bytes(self, data):
        _loads(data)

    @settings(max_examples=400, deadline=None)
    @given(data=_edited())
    def test_edited_canonical_text(self, data):
        _loads(data)

    @settings(max_examples=300, deadline=None)
    @given(files=_edge_files(), expected_rate_hz=st.sampled_from([None, 1.0, 100.0]))
    def test_timestamps_at_the_float_edge(self, files, expected_rate_hz):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for data in files:
                _loads(data, expected_rate_hz)

    def test_huge_integer_and_deep_nesting(self):
        # json.loads raises ValueError past 4300 digits and RecursionError
        # when nested deep enough; neither is a JSONDecodeError
        line = (b'{"start_s": 1.0, "end_s": 2.0, "start_index": 1' + b"0" * 5000
                + b', "end_index": 3, "peak_log_score": 0.0, "mean_log_score": 0.0, '
                b'"mean_pressure": 15.0, "mean_flow": 0.0}\n')
        for data in (line, b"[" * 100000 + b"\n"):
            try:
                read_segments_ndjson(data)
            except HoldscanError:
                pass
