"""Any command line ends in output or in one ``error:`` line, never in a traceback.

``cli.run`` is driven with the argv of all five subcommands.  Flag values
are drawn from the edges of the float range and from text that is no
number; ``--config`` files and the input files are drawn as canonical text
with random edits, and waveform and trace files also as a few rows with
timestamps at the edges of the float range, or as rows on a 100 Hz grid
with channel values there, which ``score``, ``detect`` and ``report`` must
take or refuse with exit 1.  The durations and rates that can be drawn cap
a recording at 90 s x 250 Hz, or make it fail its checks before anything is
allocated.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holdscan import cli
from test_any_bytes import _edge_channel_files, _edge_files, _edited

EDGE_VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-0.0", "1" * 400, "abc", ""]

# Values that give a valid run somewhere; together with EDGE_VALUES they
# never ask for more than 90 s at 250 Hz: an edge value in either makes the
# count of samples 0, not finite, or above the ceiling.
FLAG_VALUES = {
    "--duration-s": ["0.01", "1", "30", "90"],
    "--sample-rate-hz": ["7.3", "100", "250"],
    "--respiratory-rate-bpm": ["15"],
    "--i-to-e-ratio": ["0.5", "1e-308"],
    "--peak-flow-lpm": ["60"],
    "--peep-cmh2o": ["5"],
    "--plateau-cmh2o": ["15"],
    "--peak-pressure-cmh2o": ["20"],
    "--noise-sd-flow": ["0", "1"],
    "--noise-sd-pressure": ["0", "1"],
    "--mu-flow": ["0"],
    "--var-flow": ["1", "1e-306"],
    "--mu-pressure": ["15"],
    "--var-pressure": ["1"],
    "--log-threshold-on": ["-10"],
    "--log-threshold-off": ["-14"],
    "--min-duration-s": ["0", "0.3"],
    "--merge-gap-s": ["0.1"],
    "--peep": ["5"],
    "--expected-rate-hz": ["100"],
    "--seed": ["0", "7", str(2**70), "-3"],
    "--hold": ["0:2", "10:2", "45:2", "10:100", "nan:1", "1:inf", "1e308:1", "5", "a:b"],
}
MOCK_FLAGS = ["--duration-s", "--sample-rate-hz", "--respiratory-rate-bpm", "--i-to-e-ratio",
              "--peak-flow-lpm", "--peep-cmh2o", "--plateau-cmh2o", "--peak-pressure-cmh2o",
              "--noise-sd-flow", "--noise-sd-pressure", "--hold"]
MODEL_FLAGS = ["--mu-flow", "--var-flow", "--mu-pressure", "--var-pressure"]
DETECTION_FLAGS = ["--log-threshold-on", "--log-threshold-off", "--min-duration-s", "--merge-gap-s"]

CONFIG_KEYS = {"duration_s": FLAG_VALUES["--duration-s"], "sample_rate_hz": FLAG_VALUES["--sample-rate-hz"],
               "noise_sd_flow": ["1.0"], "peep_cmh2o": ["5.0"], "rng_seed": ["5", "1.5"],
               "holds": ["((10.0, 2.0),)", "((1e999, 1),)", f"(({'1' * 400}, 1),)", "5", "((1, 2, 3),)"]}
CONFIG_EDGES = ['"abc"', "None", "1j", "1e999", "-1e999", "1" * 400, "[1]", "{[]: 1}", "(" * 300]
CONFIG_BASE = [b"rng_seed = 5\nholds = ((10.0, 2.0),)\nnoise_sd_flow = 1.0\n"]


def _inputs():
    """Canonical waveform, trace and segment files of a short recording."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        paths = [os.path.join(d, n) for n in ("w.csv", "t.csv", "s.ndjson")]
        assert cli.run(["pipeline", "--seed", "2", "--duration-s", "20", "--hold", "8:2",
                        "--save-waveform", paths[0], "--save-trace", paths[1],
                        "--save-segments", paths[2]], stdout=out, stderr=err) == 0
        texts = []
        for path in paths:
            with open(path, "rb") as fh:
                texts.append(fh.read())
    return texts


WAVE, TRACE, SEGMENTS = _inputs()


@st.composite
def _value(draw, flag):
    """A value that works for ``flag`` two times in three, else an edge value."""
    if draw(st.integers(0, 2)):
        return draw(st.sampled_from(FLAG_VALUES[flag]))
    return draw(st.sampled_from(EDGE_VALUES))


@st.composite
def _flags(draw, names):
    argv = []
    for flag in draw(st.lists(st.sampled_from(names), max_size=4)):
        # the = form keeps a value that starts with "-" a value
        argv.append(f"{flag}={draw(_value(flag))}")
    return argv


@st.composite
def _config_text(draw):
    if draw(st.booleans()):
        return draw(_edited(CONFIG_BASE))
    lines = []
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), max_size=4)):
        value = draw(st.sampled_from(CONFIG_KEYS[key] + CONFIG_EDGES))
        lines.append(f"{key} = {value}")
    return "\n".join(lines).encode("utf-8")


@st.composite
def _command(draw):
    """``(argv, files)``: a command line and the bytes of the files it names."""
    command = draw(st.sampled_from(["generate", "score", "detect", "report", "pipeline"]))
    files = {}

    def file(name, canonical):
        files[name] = canonical if draw(st.booleans()) else draw(_edited([canonical]))
        return name

    argv = [command]
    if command in ("generate", "pipeline"):
        if draw(st.integers(0, 3)):
            argv.append(f"--seed={draw(_value('--seed'))}")
        if draw(st.integers(0, 2)) == 0:
            argv.append("--config=c.txt")
            files["c.txt"] = draw(_config_text())
        names = MOCK_FLAGS + (MODEL_FLAGS + DETECTION_FLAGS + ["--peep"] if command == "pipeline" else [])
        argv += draw(_flags(names))
        if draw(st.booleans()):
            argv.append("--ground-truth=-")
    elif command == "score":
        argv.append(file("w.csv", WAVE))
        argv += draw(_flags(MODEL_FLAGS + ["--expected-rate-hz"]))
        if draw(st.booleans()):
            argv.append("--linear")
    elif command == "detect":
        argv += [file("t.csv", TRACE), "--waveform", file("w.csv", WAVE)]
        argv += draw(_flags(DETECTION_FLAGS + ["--expected-rate-hz"]))
    else:
        argv += [file("w.csv", WAVE), "--segments", file("s.ndjson", SEGMENTS)]
        argv += draw(_flags(["--peep", "--expected-rate-hz"]))
    return argv, files


@st.composite
def _edge_command(draw):
    """``score``, ``detect`` or ``report`` on files whose timestamps lie at the float edge."""
    wave, trace = draw(_edge_files())
    files = {"w.csv": wave, "t.csv": trace, "s.ndjson": draw(st.sampled_from([b"", SEGMENTS]))}
    argv = draw(st.sampled_from([["score", "w.csv"], ["detect", "t.csv", "--waveform", "w.csv"],
                                 ["report", "w.csv", "--segments", "s.ndjson"]]))
    if draw(st.booleans()):
        argv = [*argv, f"--expected-rate-hz={draw(st.sampled_from(['1', '100']))}"]
    return argv, files


class _NonStandard(Exception):
    pass


def _strict(text):
    raise _NonStandard(text)


def _minus_infinity(text):
    if text != "-Infinity":
        raise _NonStandard(text)
    return "-Infinity"


def _run_and_check(argv, files, codes=(0, 1, 2)):
    """Run ``argv`` on ``files`` in a fresh directory; output or one error
    line, no warning, and an exit code in ``codes``.  Returns the output."""
    with tempfile.TemporaryDirectory() as d:
        for name, data in files.items():
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(data)
        argv = [os.path.join(d, a) if a in files else
                a.replace("=c.txt", "=" + os.path.join(d, "c.txt")) for a in argv]
        out, err, console = io.StringIO(), io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(console):
            warnings.simplefilter("error")
            code = cli.run(argv, stdin=io.StringIO(""), stdout=out, stderr=err)
    out, err = out.getvalue(), err.getvalue()
    assert code in codes
    assert console.getvalue() == ""  # not even argparse writes to sys.stderr
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out == ""
    if argv[0] in ("report", "pipeline"):
        for line in out.splitlines():
            json.loads(line, parse_constant=_strict)
    if argv[0] == "detect":
        for line in out.splitlines():
            record = json.loads(line, parse_constant=_minus_infinity)
            for key, value in record.items():
                assert value != "-Infinity" or key in ("peak_log_score", "mean_log_score")
    return out


class TestAnyCommandLine:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=_command())
    def test_output_or_one_error_line(self, case):
        _run_and_check(*case)

    @settings(max_examples=300, deadline=None)
    @given(case=_edge_command())
    def test_timestamps_at_the_float_edge(self, case):
        _run_and_check(*case)

    @settings(max_examples=200, deadline=None)
    @given(files=_edge_channel_files())
    def test_channels_at_the_float_edge(self, files):
        # report reads the segments that detect writes, if any
        wave, trace = files
        _run_and_check(["score", "w.csv"], {"w.csv": wave}, codes=(0, 1))
        segments = _run_and_check(["detect", "t.csv", "--waveform", "w.csv"],
                                  {"w.csv": wave, "t.csv": trace}, codes=(0, 1))
        _run_and_check(["report", "w.csv", "--segments", "s.ndjson"],
                       {"w.csv": wave, "s.ndjson": segments.encode("utf-8")}, codes=(0, 1))
