import argparse
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdscan
from holdscan import (
    DetectionConfig,
    HoldscanError,
    InvalidRange,
    MockConfig,
    NonFiniteInput,
    ModelParams,
    ScoreTrace,
    Waveform,
    detect_holds,
    generate_mock_waveform,
    load_score_trace_csv,
    load_waveform_csv,
    score_series,
    segment_record,
    summarize_segment,
    waveform_to_csv,
)
from holdscan import cli
from holdscan.cli import run
from holdscan.stream import _exact_log_scores, _HoldReports, _stage_blocks, _t_reads_back_as_itself
from holdscan.mechanics import HEURISTICS_NOTE, report_hold
from holdscan.mockgen import _BLOCK, _blocks, _sample_count
from holdscan.scoring import LOG_Q_MAX, _log_scores_array, _read_back_band
from holdscan.waveform import _read_back, check_time_grid


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


VALID_WAVE = "t,flow,pressure\n0,0,15\n0.01,0,15\n0.02,0,15\n"


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        code, out, err = run_cli(["score", str(tmp_path / "missing.csv")])
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_validation_failure(self, tmp_path):
        wave = tmp_path / "w.csv"
        wave.write_text(VALID_WAVE)
        bad_trace = "t,log_score\n0,-1\n0.01,-1\n0.005,-1\n"
        code, out, err = run_cli(
            ["detect", "-", "--waveform", str(wave)], stdin_text=bad_trace
        )
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_unknown_flag(self):
        code, _, err = run_cli(["generate", "--seed", "1", "--no-such-flag"])
        assert code == 2
        assert err == "error: holdscan: unrecognized arguments: --no-such-flag\n"

    def test_unknown_command(self):
        code, _, err = run_cli(["frobnicate"])
        assert code == 2
        assert err.startswith("error: holdscan: argument command: invalid choice: 'frobnicate'")

    def test_argparse_error_is_one_line_on_the_given_stream(self, capsys):
        code, out, err = run_cli(["pipeline", "--seed", "1", "--duration-s", "abc"])
        assert (code, out) == (2, "")
        assert err == "error: holdscan pipeline: argument --duration-s: invalid float value: 'abc'\n"
        assert capsys.readouterr() == ("", "")

    def test_missing_seed_is_usage_error(self):
        code, out, err = run_cli(["generate"])
        assert code == 2
        assert "seed" in err

    def test_help_exits_zero(self, capsys):
        code, out, err = run_cli(["--help"])
        assert (code, err) == (0, "") and out.startswith("usage: holdscan")
        assert capsys.readouterr() == ("", "")


class TestParserCache:
    """The parser is built once per process, and each parse leaves it as it was."""

    ARGV = ["pipeline", "--seed", "3", "--duration-s", "60"]

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_hold_default_after_repeated_holds(self):
        held = run_cli(self.ARGV + ["--hold", "10:2", "--hold", "30:2"])
        default = run_cli(self.ARGV)
        with mock.patch.object(cli, "_build_parser", cli._build_parser.__wrapped__):
            assert run_cli(self.ARGV) == default
        assert held[0] == default[0] == 0
        assert [json.loads(line)["start_s"] for line in held[1].splitlines()] == [10.0, 30.0]
        assert [json.loads(line)["start_s"] for line in default[1].splitlines()] == [45.0]

    def test_error_between_calls(self):
        before = run_cli(self.ARGV)
        code, _, err = run_cli(self.ARGV + ["--hold", "10:2", "--duration-s", "abc"])
        assert code == 2 and err.startswith("error: ")
        assert run_cli(self.ARGV) == before

    def test_help_follows_columns(self, capsys, monkeypatch):
        texts = []
        for columns in ("60", "60", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, err = run_cli(["pipeline", "--help"])
            assert (code, err) == (0, "") and out
            texts.append(out)
        with mock.patch.object(cli, "_build_parser", cli._build_parser.__wrapped__):
            assert texts[0] == texts[1] != texts[2] == run_cli(["pipeline", "--help"])[1]
        assert capsys.readouterr() == ("", "")


# Each subcommand's actions: option strings, dest, default, type, metavar and
# help with %(default)s expanded.
_HELP_FLAG = (("-h", "--help"), "help", argparse.SUPPRESS, None, None,
              "show this help message and exit")
_MOCK_FLAGS = [
    (("--seed",), "seed", None, "int", None,
     "RNG seed, 64-bit integer; required here or as rng_seed in --config"),
    (("--config",), "config", None, None, "PATH",
     "key = value file with MockConfig field names; flags override it"),
    (("--duration-s",), "duration_s", None, "float", None,
     "recording length in seconds (default 90.0)"),
    (("--sample-rate-hz",), "sample_rate_hz", None, "float", None,
     "samples per second (default 100.0)"),
    (("--respiratory-rate-bpm",), "respiratory_rate_bpm", None, "float", None,
     "breaths per minute (default 15.0)"),
    (("--i-to-e-ratio",), "i_to_e_ratio", None, "float", None,
     "inspiration:expiration ratio (default 0.5 = 1:2)"),
    (("--peak-flow-lpm",), "peak_flow_lpm", None, "float", None,
     "peak inspiratory flow in L/min (default 60.0)"),
    (("--peep-cmh2o",), "peep_cmh2o", None, "float", None,
     "baseline pressure in cmH2O (default 5.0)"),
    (("--plateau-cmh2o",), "plateau_cmh2o", None, "float", None,
     "hold plateau pressure in cmH2O (default 15.0)"),
    (("--peak-pressure-cmh2o",), "peak_pressure_cmh2o", None, "float", None,
     "end-inspiratory pressure in cmH2O (default 20.0)"),
    (("--noise-sd-flow",), "noise_sd_flow", None, "float", None,
     "flow noise SD in L/min (default 1.0)"),
    (("--noise-sd-pressure",), "noise_sd_pressure", None, "float", None,
     "pressure noise SD in cmH2O (default 1.0)"),
    (("--hold",), "hold", None, None, "START:DURATION",
     "hold interval in seconds, repeatable (default 45.0:2.0)"),
]
_MODEL_FLAGS = [
    (("--mu-flow",), "mu_flow", 0.0, "float", None,
     "hold-model mean flow in L/min (default 0.0)"),
    (("--var-flow",), "var_flow", 1.0, "float", None,
     "hold-model flow variance in (L/min)^2 (default 1.0)"),
    (("--mu-pressure",), "mu_pressure", 15.0, "float", None,
     "hold-model mean pressure in cmH2O (default 15.0)"),
    (("--var-pressure",), "var_pressure", 1.0, "float", None,
     "hold-model pressure variance in (cmH2O)^2 (default 1.0)"),
]
_DETECTION_FLAGS = [
    (("--log-threshold-on",), "log_threshold_on", -10.0, "float", None,
     "log-score opening a segment, nats (default -10.0)"),
    (("--log-threshold-off",), "log_threshold_off", -14.0, "float", None,
     "log-score closing a segment, nats (default -14.0)"),
    (("--min-duration-s",), "min_duration_s", 0.3, "float", None,
     "discard segments shorter than this, seconds (default 0.3)"),
    (("--merge-gap-s",), "merge_gap_s", 0.1, "float", None,
     "merge segments separated by less than this, seconds (default 0.1)"),
]
_RATE_FLAG = (("--expected-rate-hz",), "expected_rate_hz", None, "float", None,
              "declared sample rate in Hz; inferred from spacing when omitted")
_PEEP_FLAG = (("--peep",), "peep", None, "float", None,
              "known PEEP in cmH2O; estimated from pre-hold pressure when omitted")
_GROUND_TRUTH_FLAG = (("--ground-truth",), "ground_truth", None, None, "PATH",
                      "also write true hold intervals as NDJSON to PATH")


def _output_flag(what):
    return (("-o", "--output"), "output", None, None, "PATH",
            f"{what} destination (default stdout)")


_FLAGS = {
    "generate": [_HELP_FLAG, *_MOCK_FLAGS, _GROUND_TRUTH_FLAG, _output_flag("waveform CSV")],
    "score": [
        _HELP_FLAG,
        ((), "waveform", None, None, None, "waveform CSV path, or - for stdin"),
        *_MODEL_FLAGS,
        (("--linear",), "linear", False, None, None,
         "append a linear score column (exp of log_score, underflows to 0)"),
        _RATE_FLAG,
        _output_flag("score CSV"),
    ],
    "detect": [
        _HELP_FLAG,
        ((), "trace", None, None, None, "score CSV path, or - for stdin"),
        (("--waveform",), "waveform", None, None, "PATH",
         "source waveform CSV (for per-segment channel means)"),
        *_DETECTION_FLAGS,
        _RATE_FLAG,
        _output_flag("segment NDJSON"),
    ],
    "report": [
        _HELP_FLAG,
        ((), "waveform", None, None, None, "waveform CSV path, or - for stdin"),
        (("--segments",), "segments", None, None, "PATH", "segment NDJSON path, or - for stdin"),
        _PEEP_FLAG,
        _RATE_FLAG,
        _output_flag("report NDJSON"),
    ],
    "pipeline": [
        _HELP_FLAG, *_MOCK_FLAGS, *_MODEL_FLAGS, *_DETECTION_FLAGS, _PEEP_FLAG, _GROUND_TRUTH_FLAG,
        (("--save-waveform",), "save_waveform", None, None, "PATH",
         "also write the intermediate waveform CSV to PATH"),
        (("--save-trace",), "save_trace", None, None, "PATH",
         "also write the intermediate score CSV to PATH"),
        (("--save-segments",), "save_segments", None, None, "PATH",
         "also write the intermediate segment NDJSON to PATH"),
        _output_flag("report NDJSON"),
    ],
}


class TestFlags:
    """Each subcommand's flags, defaults and help, as the parser holds them."""

    @staticmethod
    def _subparsers():
        parser = cli._build_parser()
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def test_commands(self):
        assert list(self._subparsers()) == list(_FLAGS)

    @pytest.mark.parametrize("command", list(_FLAGS))
    def test_actions(self, command):
        p = self._subparsers()[command]
        formatter = p._get_formatter()
        got = [(tuple(a.option_strings), a.dest, a.default, getattr(a.type, "__name__", a.type),
                a.metavar, formatter._expand_help(a)) for a in p._actions]
        assert got == _FLAGS[command]


class TestGenerate:
    def test_deterministic_stdout(self):
        a = run_cli(["generate", "--seed", "3"])
        b = run_cli(["generate", "--seed", "3"])
        assert a == b
        assert a[0] == 0

    def test_output_parses_with_default_shape(self):
        code, out, _ = run_cli(["generate", "--seed", "3"])
        assert code == 0
        w = load_waveform_csv(out)
        assert len(w) == 9000
        assert w.sample_rate_hz == 100.0
        assert w.volume is not None

    def test_ground_truth_sidecar(self, tmp_path):
        gt = tmp_path / "truth.ndjson"
        code, _, _ = run_cli(
            ["generate", "--seed", "3", "--ground-truth", str(gt), "-o", str(tmp_path / "w.csv")]
        )
        assert code == 0
        records = [json.loads(line) for line in gt.read_text().splitlines()]
        assert records == [{"start_s": 45.0, "end_s": 47.0}]

    def test_repeatable_hold_flag(self, tmp_path):
        gt = tmp_path / "truth.ndjson"
        code, _, _ = run_cli(
            [
                "generate", "--seed", "3", "--hold", "10:1.5", "--hold", "45:2",
                "--ground-truth", str(gt), "-o", str(tmp_path / "w.csv"),
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in gt.read_text().splitlines()]
        assert records == [
            {"start_s": 10.0, "end_s": 11.5},
            {"start_s": 45.0, "end_s": 47.0},
        ]

    def test_malformed_hold_spec(self):
        code, _, err = run_cli(["generate", "--seed", "3", "--hold", "10"])
        assert code == 1
        assert "error:" in err

    def test_file_output_leaves_stdout_empty(self, tmp_path):
        dest = tmp_path / "w.csv"
        code, out, _ = run_cli(["generate", "--seed", "3", "-o", str(dest)])
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("t,flow,pressure")


@st.composite
def _generated_configs(draw):
    """A recording of 1 to 4 generator blocks and an odd number of samples,
    with a hold across each block edge, or one anywhere when it has none;
    its noise may overflow."""
    rate = draw(st.sampled_from([7.3, 100.0, 250.0]))
    blocks = draw(st.integers(1, 4))
    n = 2 * draw(st.integers((blocks - 1) * _BLOCK // 2, (blocks * _BLOCK - 1) // 2)) + 1
    duration = n / rate
    edges = [k * _BLOCK / rate for k in range(1, blocks)] or [draw(st.floats(0.0, duration))]
    holds = []
    for edge in edges:
        start = math.floor(max(0.0, edge - draw(st.floats(0.0, 1.5))) * 100) / 100
        length = math.floor(min(draw(st.floats(0.05, 3.0)), duration - start) * 100) / 100
        if length > 0:
            holds.append((start, length))
    return MockConfig(duration_s=duration, sample_rate_hz=rate, holds=tuple(holds) or ((0.0, duration),),
                      noise_sd_flow=draw(st.sampled_from([1.0, 0.0, 1e308])),
                      rng_seed=draw(st.integers(0, 2**64 - 1)))


class TestGenerateBlocks:
    """generate writes its CSV block by block; the library's whole-recording writer is the reference."""

    @settings(max_examples=30, deadline=None)
    @given(_generated_configs())
    def test_matches_whole_recording(self, cfg):
        argv = ["generate", "--seed", str(cfg.rng_seed), "--duration-s", repr(cfg.duration_s),
                "--sample-rate-hz", repr(cfg.sample_rate_hz),
                "--noise-sd-flow", repr(cfg.noise_sd_flow)]
        argv += [f"--hold={s!r}:{d!r}" for s, d in cfg.holds]
        try:
            want = (0, waveform_to_csv(generate_mock_waveform(cfg)[0]), "")
        except HoldscanError as exc:
            want = (1, "", f"error: {exc}\n")
        assert run_cli(argv) == want

    def test_overflowing_noise(self):
        cfg = MockConfig(duration_s=400.0, noise_sd_flow=1e308, rng_seed=9)
        with pytest.raises(NonFiniteInput) as exc:
            generate_mock_waveform(cfg)
        argv = ["generate", "--seed", "9", "--duration-s", "400", "--noise-sd-flow", "1e308"]
        assert run_cli(argv) == (1, "", f"error: {exc.value}\n")


class TestConfigFile:
    def test_config_supplies_everything(self, tmp_path):
        cfg = tmp_path / "mock.cfg"
        cfg.write_text("# short run\nduration_s = 30.0\nrng_seed = 5\nholds = ((10.0, 1.0),)\n")
        code, out, _ = run_cli(["generate", "--config", str(cfg)])
        assert code == 0
        assert len(load_waveform_csv(out)) == 3000

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "mock.cfg"
        cfg.write_text("duration_s = 30.0\nrng_seed = 5\nholds = ((10.0, 1.0),)\n")
        code, out, _ = run_cli(
            ["generate", "--config", str(cfg), "--duration-s", "20"]
        )
        assert code == 0
        assert len(load_waveform_csv(out)) == 2000

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        cfg = tmp_path / "mock.cfg"
        cfg.write_text("rng_seed = 5\n")
        _, from_cfg_seed, _ = run_cli(["generate", "--config", str(cfg)])
        _, from_flag, _ = run_cli(["generate", "--config", str(cfg), "--seed", "9"])
        _, plain_9, _ = run_cli(["generate", "--seed", "9"])
        assert from_flag == plain_9
        assert from_flag != from_cfg_seed

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "mock.cfg"
        cfg.write_text("volume_units = 3\nrng_seed = 5\n")
        code, _, err = run_cli(["generate", "--config", str(cfg)])
        assert code == 1
        assert "unknown key" in err

    def test_bad_syntax_rejected(self, tmp_path):
        cfg = tmp_path / "mock.cfg"
        cfg.write_text("rng_seed 5\n")
        code, _, _ = run_cli(["generate", "--config", str(cfg)])
        assert code == 1

    def test_unparseable_value_rejected(self, tmp_path):
        cfg = tmp_path / "mock.cfg"
        cfg.write_text("rng_seed = five\n")
        code, _, _ = run_cli(["generate", "--config", str(cfg)])
        assert code == 1

    def test_missing_config_file(self, tmp_path):
        code, _, _ = run_cli(["generate", "--config", str(tmp_path / "none.cfg")])
        assert code == 2


class TestScore:
    def setup_method(self):
        _, self.wave_text, _ = run_cli(
            ["generate", "--seed", "6", "--duration-s", "10", "--hold", "4:1"]
        )

    def test_matches_library(self, tmp_path):
        wave = tmp_path / "w.csv"
        wave.write_text(self.wave_text)
        code, out, _ = run_cli(["score", str(wave)])
        assert code == 0
        _, trace = load_score_trace_csv(out)
        w = load_waveform_csv(self.wave_text)
        expected = score_series(w)
        assert np.allclose(trace.log_scores, expected.log_scores, rtol=1e-8, atol=1e-12)

    def test_stdin_input(self):
        code, out, _ = run_cli(["score", "-"], stdin_text=self.wave_text)
        assert code == 0
        assert out.startswith("t,log_score\n")

    def test_linear_flag_adds_column(self):
        code, out, _ = run_cli(["score", "-", "--linear"], stdin_text=self.wave_text)
        assert code == 0
        assert out.startswith("t,log_score,score\n")
        _, trace = load_score_trace_csv(out)
        assert len(trace) == 1000

    def test_output_file(self, tmp_path):
        dest = tmp_path / "trace.csv"
        code, out, _ = run_cli(["score", "-", "-o", str(dest)], stdin_text=self.wave_text)
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("t,log_score\n")

    def test_dropped_row_names_where_and_the_rate(self):
        # one row of a 100 Hz recording deleted: the rate inferred from the span
        # is not 100 Hz, and the error names the gap and the rate of the other steps
        _, text, _ = run_cli(["generate", "--seed", "1", "--duration-s", "120", "--hold", "60:2"])
        lines = text.splitlines(keepends=True)
        assert lines[5000].startswith("49.99,")
        del lines[5000]
        assert run_cli(["score", "-"], stdin_text="".join(lines)) == (1, "", (
            "error: timestamp spacing deviates from 0.010000833472245374 s by 0.009999166527757753 "
            "at index 4999 (t=49.98 then t=50.0; allowed 1.0000833472245374e-08; "
            "the smallest step fits 100 Hz)\n"))

    def test_model_flags_change_scores(self):
        _, base, _ = run_cli(["score", "-"], stdin_text=self.wave_text)
        _, moved, _ = run_cli(
            ["score", "-", "--mu-pressure", "12"], stdin_text=self.wave_text
        )
        assert base != moved


class TestDetect:
    def setup_method(self):
        _, self.wave_text, _ = run_cli(["generate", "--seed", "6"])
        _, self.trace_text, _ = run_cli(["score", "-"], stdin_text=self.wave_text)

    def test_matches_library(self, tmp_path):
        wave = tmp_path / "w.csv"
        wave.write_text(self.wave_text)
        code, out, _ = run_cli(
            ["detect", "-", "--waveform", str(wave)], stdin_text=self.trace_text
        )
        assert code == 0
        w = load_waveform_csv(self.wave_text)
        _, trace = load_score_trace_csv(self.trace_text)
        expected = [
            segment_record(summarize_segment(w, seg))
            for seg in detect_holds(trace, DetectionConfig())
        ]
        got = [json.loads(line) for line in out.splitlines()]
        assert len(got) == 1
        for rec, want in zip(got, expected):
            assert rec.keys() == want.keys()
            for key, value in want.items():
                assert rec[key] == pytest.approx(value, rel=1e-6)

    def test_waveform_stdin_rejected(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(self.trace_text)
        code, _, err = run_cli(["detect", str(trace), "--waveform", "-"])
        assert code == 2
        assert "error:" in err

    def test_length_mismatch(self, tmp_path):
        wave = tmp_path / "w.csv"
        wave.write_text(VALID_WAVE)
        code, _, _ = run_cli(
            ["detect", "-", "--waveform", str(wave)], stdin_text=self.trace_text
        )
        assert code == 1

    def test_rate_mismatch(self, tmp_path):
        wave = tmp_path / "w.csv"
        wave.write_text(VALID_WAVE)
        # as many rows as the waveform, at half its rate
        code, out, err = run_cli(["detect", "-", "--waveform", str(wave)],
                                 stdin_text="t,log_score\n0,-1\n0.02,-1\n0.04,-1\n")
        assert (code, out) == (1, "")
        assert err == "error: trace rate 50.0 Hz does not match waveform rate 100.0 Hz\n"

    def test_threshold_flags_respected(self, tmp_path):
        wave = tmp_path / "w.csv"
        wave.write_text(self.wave_text)
        # impossible-to-reach on-threshold: no segments
        code, out, _ = run_cli(
            ["detect", "-", "--waveform", str(wave), "--log-threshold-on", "100",
             "--log-threshold-off", "99"],
            stdin_text=self.trace_text,
        )
        assert code == 0
        assert out == ""


class TestReport:
    def setup_method(self):
        _, self.wave_text, _ = run_cli(["generate", "--seed", "7"])
        _, trace_text, _ = run_cli(["score", "-"], stdin_text=self.wave_text)
        self.trace_text = trace_text

    def segments_text(self, tmp_path):
        wave = tmp_path / "w.csv"
        wave.write_text(self.wave_text)
        _, seg_text, _ = run_cli(
            ["detect", "-", "--waveform", str(wave)], stdin_text=self.trace_text
        )
        return seg_text

    def test_full_record(self, tmp_path):
        seg = tmp_path / "segs.ndjson"
        seg.write_text(self.segments_text(tmp_path))
        code, out, _ = run_cli(["report", "-", "--segments", str(seg)], stdin_text=self.wave_text)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1
        rec = records[0]
        assert rec["note"] == HEURISTICS_NOTE
        assert "compliance_l_per_cmh2o" in rec
        assert "resistance_cmh2o_per_lps" in rec
        assert rec["plateau_pressure_cmh2o"] == pytest.approx(15.0, abs=0.5)

    def test_peep_override(self, tmp_path):
        seg = tmp_path / "segs.ndjson"
        seg.write_text(self.segments_text(tmp_path))
        code, out, _ = run_cli(
            ["report", "-", "--segments", str(seg), "--peep", "5.0"],
            stdin_text=self.wave_text,
        )
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert rec["peep_cmh2o"] == 5.0

    def test_double_stdin_rejected(self):
        code, _, err = run_cli(["report", "-", "--segments", "-"])
        assert code == 2
        assert "error:" in err

    def test_hold_at_start_reports_reasons(self, tmp_path):
        wave = tmp_path / "w.csv"
        n = 100
        lines = ["t,flow,pressure"]
        for i in range(n):
            lines.append(f"{i / 100.0},0,15")
        wave.write_text("\n".join(lines) + "\n")
        seg = tmp_path / "segs.ndjson"
        seg.write_text(
            json.dumps(
                {
                    "start_s": 0.0,
                    "end_s": 0.5,
                    "start_index": 0,
                    "end_index": 50,
                    "peak_log_score": -1.7,
                    "mean_log_score": -1.7,
                    "mean_pressure": 15.0,
                    "mean_flow": 0.0,
                }
            )
            + "\n"
        )
        code, out, _ = run_cli(["report", str(wave), "--segments", str(seg)])
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert "compliance_l_per_cmh2o" not in rec
        assert "resistance_cmh2o_per_lps" not in rec
        reasons = rec["unavailable"]
        assert "missing inputs" in reasons["compliance_l_per_cmh2o"]
        assert reasons["peak_pressure_cmh2o"] == "no samples before the hold"

    def test_segment_outside_waveform(self, tmp_path):
        wave = tmp_path / "w.csv"
        wave.write_text(VALID_WAVE)
        seg = tmp_path / "segs.ndjson"
        seg.write_text(
            json.dumps(
                {
                    "start_s": 0.0,
                    "end_s": 1.0,
                    "start_index": 0,
                    "end_index": 100,
                    "peak_log_score": -1.7,
                    "mean_log_score": -1.7,
                    "mean_pressure": 15.0,
                    "mean_flow": 0.0,
                }
            )
            + "\n"
        )
        code, _, _ = run_cli(["report", str(wave), "--segments", str(seg)])
        assert code == 1


class TestPipeline:
    def manual_composition(self, tmp_path, gen_args=(), score_args=(), detect_args=(), report_args=()):
        wave = tmp_path / "w.csv"
        trace = tmp_path / "trace.csv"
        segs = tmp_path / "segs.ndjson"
        assert run_cli(["generate", *gen_args, "-o", str(wave)])[0] == 0
        assert run_cli(["score", str(wave), *score_args, "-o", str(trace)])[0] == 0
        assert run_cli(
            ["detect", str(trace), "--waveform", str(wave), *detect_args, "-o", str(segs)]
        )[0] == 0
        code, out, _ = run_cli(["report", str(wave), "--segments", str(segs), *report_args])
        assert code == 0
        return out, wave.read_text(), trace.read_text(), segs.read_text()

    def test_equals_manual_composition(self, tmp_path):
        manual, _, _, _ = self.manual_composition(tmp_path, gen_args=["--seed", "7"])
        code, piped, _ = run_cli(["pipeline", "--seed", "7"])
        assert code == 0
        assert piped == manual

    def test_equals_manual_composition_nondefault(self, tmp_path):
        gen = ["--seed", "12", "--duration-s", "60", "--hold", "20:1.5"]
        det = ["--log-threshold-on", "-9", "--log-threshold-off", "-13"]
        rep = ["--peep", "5"]
        manual, _, _, _ = self.manual_composition(
            tmp_path, gen_args=gen, detect_args=det, report_args=rep
        )
        code, piped, _ = run_cli(["pipeline", *gen, *det, *rep])
        assert code == 0
        assert piped == manual

    def test_saved_intermediates_match_stages(self, tmp_path):
        manual, wave_text, trace_text, seg_text = self.manual_composition(
            tmp_path, gen_args=["--seed", "7"]
        )
        wave2 = tmp_path / "w2.csv"
        trace2 = tmp_path / "t2.csv"
        segs2 = tmp_path / "s2.ndjson"
        code, piped, _ = run_cli(
            [
                "pipeline", "--seed", "7",
                "--save-waveform", str(wave2),
                "--save-trace", str(trace2),
                "--save-segments", str(segs2),
            ]
        )
        assert code == 0
        assert piped == manual
        assert wave2.read_text() == wave_text
        assert trace2.read_text() == trace_text
        assert segs2.read_text() == seg_text

    def save_all(self, tmp_path, argv):
        """Run pipeline with every --save-* flag; (stdout, wave, trace, segments)."""
        paths = [tmp_path / n for n in ("pw.csv", "pt.csv", "ps.ndjson")]
        code, piped, err = run_cli([
            "pipeline", *argv,
            "--save-waveform", str(paths[0]),
            "--save-trace", str(paths[1]),
            "--save-segments", str(paths[2]),
        ])
        assert (code, err) == (0, "")
        return (piped, *(p.read_text() for p in paths))

    def test_minus_inf_trace_matches_stages(self, tmp_path):
        # with this variance most squared flow deviations overflow
        gen, model = ["--seed", "7"], ["--var-flow", "1e-306"]
        manual = self.manual_composition(tmp_path, gen_args=gen, score_args=model)
        assert ",-inf\n" in manual[2]
        assert self.save_all(tmp_path, [*gen, *model]) == manual

    def test_250_hz_matches_stages(self, tmp_path):
        gen = ["--seed", "3", "--duration-s", "120", "--sample-rate-hz", "250", "--hold", "60:2"]
        manual = self.manual_composition(tmp_path, gen_args=gen)
        assert '"start_s": 60.0' in manual[0]
        assert self.save_all(tmp_path, gen) == manual

    @pytest.mark.parametrize("steps", [-1, 0, 1])
    @pytest.mark.parametrize("flag", ["--log-threshold-on", "--log-threshold-off"])
    def test_threshold_on_a_trace_value_matches_stages(self, tmp_path, flag, steps):
        # a threshold is a log-score detect reads (the peak, or the one that
        # closes the segment), or a float neighbour of it
        gen = ["--seed", "7", "--duration-s", "120", "--hold", "60:2"]
        _, _, trace, segs = self.manual_composition(tmp_path, gen_args=gen)
        log_scores = [float(line.split(",")[1]) for line in trace.splitlines()[1:]]
        (segment,) = map(json.loads, segs.splitlines())
        value = (max(log_scores) if flag == "--log-threshold-on"
                 else log_scores[segment["end_index"]])
        for _ in range(abs(steps)):
            value = np.nextafter(value, np.inf if steps > 0 else -np.inf)
        det = [flag, repr(float(value))]
        manual = self.manual_composition(tmp_path, gen_args=gen, detect_args=det)
        assert self.save_all(tmp_path, [*gen, *det]) == manual
        # above the peak, no sample opens a segment
        assert (manual[0] == "") == (flag == "--log-threshold-on" and steps > 0)

    def test_no_csv_text_unless_saved(self):
        # the read-back values are computed; no CSV is written or parsed
        fail = mock.Mock(side_effect=AssertionError("CSV text in pipeline"))
        with mock.patch("holdscan.waveform._write_rows", fail), \
                mock.patch("holdscan.stream._write_rows", fail), \
                mock.patch("holdscan.waveform._read_table", fail), \
                mock.patch("holdscan.scoring._write_rows", fail), \
                mock.patch("holdscan.scoring._read_table", fail):
            code, out, err = run_cli(["pipeline", "--seed", "7", "--save-segments", "-"])
        assert (code, err) == (0, "")
        assert out.count("\n") == 2

    def test_block_edges_at_250_hz_match_stages(self, tmp_path):
        # a sample count that is no block multiple, and holds across two block edges
        n = 2 * _BLOCK + 1234
        edges = [_BLOCK / 250.0, 2 * _BLOCK / 250.0]
        gen = ["--seed", "11", "--duration-s", repr(n / 250.0), "--sample-rate-hz", "250",
               "--hold", f"{edges[0] - 1.0!r}:2", "--hold", f"{edges[1] - 0.5!r}:1.5"]
        manual = self.manual_composition(tmp_path, gen_args=gen)
        starts = [json.loads(line)["start_index"] for line in manual[0].splitlines()]
        assert {_BLOCK - 250, 2 * _BLOCK - 125} <= set(starts)
        assert self.save_all(tmp_path, gen) == manual

    def test_merge_across_block_edge_matches_stages(self, tmp_path):
        # the first block ends at 163.84 s: two holds 0.05 s apart on either
        # side of it merge, and the lookback of the hold at 167 s crosses it
        edge = _BLOCK / 100.0
        gen = ["--seed", "13", "--duration-s", "400", "--hold", f"{edge - 1.84!r}:1.82",
               "--hold", f"{edge + 0.03!r}:1.5", "--hold", "167:2", "--hold", "330:2"]
        manual = self.manual_composition(tmp_path, gen_args=gen)
        spans = [(r["start_index"], r["end_index"])
                 for r in map(json.loads, manual[3].splitlines())]
        assert spans[0][0] < _BLOCK < spans[0][1] and spans[1][0] - 500 < _BLOCK
        assert self.save_all(tmp_path, gen) == manual

    def test_saves_to_stdout_in_order(self, tmp_path):
        gen = ["--seed", "7", "--duration-s", "200", "--hold", "150:2"]
        report, wave, trace, segs = self.manual_composition(tmp_path, gen_args=gen)
        code, out, err = run_cli(["pipeline", *gen, "--ground-truth", "-", "--save-waveform", "-",
                                  "--save-trace", "-", "--save-segments", "-"])
        assert (code, err) == (0, "")
        truth = '{"start_s": 150.0, "end_s": 152.0}\n'
        assert out == truth + wave + trace + segs + report

    def test_report_record_shape(self):
        code, out, _ = run_cli(["pipeline", "--seed", "7"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1
        rec = records[0]
        assert rec["start_s"] == pytest.approx(45.0, abs=0.2)
        assert rec["end_s"] == pytest.approx(47.0, abs=0.2)
        assert 0.01 < rec["compliance_l_per_cmh2o"] < 0.2
        assert rec["resistance_cmh2o_per_lps"] > 0

    def test_ground_truth_sidecar(self, tmp_path):
        gt = tmp_path / "truth.ndjson"
        code, _, _ = run_cli(["pipeline", "--seed", "7", "--ground-truth", str(gt)])
        assert code == 0
        assert json.loads(gt.read_text().splitlines()[0]) == {"start_s": 45.0, "end_s": 47.0}


def read_back_stages(cfg, params):
    """The waveform and trace ``score`` and ``detect`` read back: the whole
    recording generated, then each column and the log-scores read back."""
    w, _ = generate_mock_waveform(cfg)
    t = _read_back(w.t)
    read = Waveform(t=t, flow=_read_back(w.flow), pressure=_read_back(w.pressure),
                    sample_rate_hz=check_time_grid(t), volume=_read_back(w.volume))
    scores = score_series(read, params).log_scores
    return read, ScoreTrace(log_scores=_read_back(scores), sample_rate_hz=read.sample_rate_hz)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HoldscanError as exc:
        return type(exc), str(exc)


def read_back_pass(cfg, params, config=DetectionConfig(), exact=False):
    """pipeline's blocks joined as it feeds them to the hold scan: t read
    back, flow, pressure and volume as generated, and the log-scores of
    ``_HoldReports.log_scores``, or where ``exact`` (as with --save-trace)
    those ``score`` writes."""
    reports = _HoldReports(config, params, 1.0, None, exact=exact)
    blocks = [(_read_back(t), flow, pressure, volume, reports.log_scores(flow, pressure))
              for _, t, flow, pressure, volume in _blocks(cfg, _sample_count(cfg))]
    return [np.concatenate(c) for c in zip(*blocks)]


def meets_thresholds(scores, ref, config):
    """Whether pipeline's log-scores meet the thresholds where the read-back
    log-scores ``ref`` of the stages do."""
    on, off = config.log_threshold_on, config.log_threshold_off
    return np.array_equal(scores >= on, ref >= on) and np.array_equal(scores < off, ref < off)


def block_pass(cfg, params):
    """pipeline's pass over the blocks, up to its report text."""
    return _stage_blocks(cfg, params, DetectionConfig(), None)


class TestReadBackPass:
    """pipeline's block pass against the whole recording read back after it is generated."""

    @pytest.mark.parametrize("cfg, params", [
        (MockConfig(rng_seed=7), ModelParams()),
        (MockConfig(duration_s=(2 * _BLOCK + 777) / 250.0, sample_rate_hz=250.0,
                    holds=((_BLOCK / 250.0 - 1.0, 2.0),), rng_seed=2**64 + 3), ModelParams()),
        (MockConfig(duration_s=(_BLOCK - 1) / 100.0, holds=((10.0, 0.7),), rng_seed=1,
                    noise_sd_flow=0.0, noise_sd_pressure=0.0), ModelParams()),
        (MockConfig(duration_s=600.0, holds=((100.0, 2.0),), rng_seed=1), ModelParams(var_flow=1e-306)),
        (MockConfig(duration_s=97.0, sample_rate_hz=7.3, holds=((30.0, 3.0),), rng_seed=5),
         ModelParams(mu_pressure=14.0)),
    ])
    def test_bit_identical(self, cfg, params):
        t, *values, exact = read_back_pass(cfg, params, exact=True)
        *_, scores = read_back_pass(cfg, params)
        ref_w, ref_trace = read_back_stages(cfg, params)
        assert t.tobytes() == ref_w.t.tobytes()
        for name, made in zip(("flow", "pressure", "volume"), values):
            assert _read_back(made).tobytes() == getattr(ref_w, name).tobytes()
        assert exact.tobytes() == ref_trace.log_scores.tobytes()
        assert meets_thresholds(scores, ref_trace.log_scores, DetectionConfig())
        assert check_time_grid(t) == ref_w.sample_rate_hz == ref_trace.sample_rate_hz

    FAILING = [
        (MockConfig(duration_s=0.001, holds=((0.0, 0.001),), rng_seed=9), ModelParams()),  # no samples
        (MockConfig(duration_s=0.01, holds=((0.0, 0.01),), rng_seed=9), ModelParams()),  # one sample
        # one sample that is not finite: the recording's own error comes first
        (MockConfig(duration_s=0.01, holds=((0.0, 0.01),), rng_seed=7, noise_sd_flow=1.7e308),
         ModelParams()),
        (MockConfig(duration_s=30.0, holds=((0.0, 1.0),), rng_seed=9, noise_sd_flow=1e308),
         ModelParams()),
        # a 7.3 Hz grid that 9 digits do not keep uniform
        (MockConfig(duration_s=300.0, sample_rate_hz=7.3, holds=((100.0, 3.0),), rng_seed=4),
         ModelParams()),
        # a recording that score refuses: the flow's squared deviation and
        # twice its variance overflow, and inf / inf makes the log-scores nan
        (MockConfig(duration_s=30.0, holds=((10.0, 2.0),), rng_seed=1),
         ModelParams(mu_flow=-1.7e308, var_flow=1e308)),
        # five blocks whose 256 Hz grid 9 digits keep uniform until t = 100 s,
        # in the second block, after the hold at 50 s is reported
        (MockConfig(duration_s=300.0, sample_rate_hz=256.0, holds=((50.0, 2.0),), rng_seed=1),
         ModelParams()),
        # log-scores that are nan over two blocks
        (MockConfig(duration_s=200.0, holds=((50.0, 2.0),), rng_seed=1),
         ModelParams(mu_flow=-1.7e308, var_flow=1e308)),
        # one sample at a rate whose spacing 1 / rate overflows: generate's own check
        (MockConfig(duration_s=1.5e308, sample_rate_hz=5e-309, holds=((0.0, 1.0),), rng_seed=1),
         ModelParams()),
    ]

    @pytest.mark.parametrize("cfg, params", FAILING, ids=[f"cfg{i}" for i in range(len(FAILING))])
    def test_same_error(self, cfg, params):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = _outcome(block_pass, cfg, params)
            want = _outcome(read_back_stages, cfg, params)
        assert isinstance(want, tuple) and issubclass(want[0], HoldscanError)
        assert got == want

    @pytest.mark.parametrize("cfg, params", FAILING, ids=[f"cfg{i}" for i in range(len(FAILING))])
    def test_one_pass(self, cfg, params):
        with mock.patch("holdscan.stream._blocks", wraps=_blocks) as blocks, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _outcome(block_pass, cfg, params)
        assert blocks.call_count <= 1

    @pytest.mark.parametrize("cfg, read_back", [
        (MockConfig(duration_s=3600.0, holds=((1800.0, 2.0),), rng_seed=1), False),
        (MockConfig(duration_s=300.0, sample_rate_hz=128.0, holds=((50.0, 2.0),), rng_seed=1), True),
        (FAILING[4][0], True),  # 7.3 Hz
        (FAILING[6][0], True),  # 256 Hz
    ])
    def test_t_read_back_where_it_is_not_its_text(self, cfg, read_back):
        made = []

        def blocks(*args):
            for block in _blocks(*args):
                made.append(block[1])
                yield block

        with mock.patch("holdscan.stream._blocks", blocks), \
                mock.patch("holdscan.stream._read_back", wraps=_read_back) as read:
            _outcome(block_pass, cfg, ModelParams())
        assert len(made) == -(-_sample_count(cfg) // _BLOCK)
        assert [any(c.args[0] is t for c in read.call_args_list) for t in made] == [read_back] * len(made)

    def test_cli_error_line(self):
        argv = ["--seed", "7", "--duration-s", "0.01", "--hold", "0:0.01", "--noise-sd-flow", "1.7e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the noise overflows
            code, out, err = run_cli(["pipeline", *argv])
            assert run_cli(["generate", *argv])[0] == 1
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "error: channel 'flow' has a non-finite value at index 0"


# the integer rates 2**a * 5**b up to 1e6 Hz, with c = 10**d // rate for the least d
_DECIMAL_RATES = sorted((2**a * 5**b, 10 ** max(a, b) // (2**a * 5**b))
                        for a in range(20) for b in range(9) if 2**a * 5**b <= 10**6)


class TestTimeIsItsText:
    """Where t = k / rate is the value of its own 9-digit text: while k c < 1e9."""

    @settings(max_examples=200, deadline=None)
    @given(rate_c=st.sampled_from(_DECIMAL_RATES), share=st.floats(0.0, 1.0))
    def test_inside_the_bound(self, rate_c, share):
        rate, c = rate_c
        last = (10**9 - 1) // c  # the last index inside the bound
        t = np.array([0, int(share * last), last]) / float(rate)
        assert _read_back(t).tobytes() == t.tobytes()
        assert _t_reads_back_as_itself(float(rate), last + 1)
        # from the first index past the bound on, t is read back
        assert not _t_reads_back_as_itself(float(rate), last + 2)

    @pytest.mark.parametrize("rate", [3.0, 7.3, 100.5, 0.125, 6e6, 1e300])
    def test_other_rates(self, rate):
        assert not _t_reads_back_as_itself(rate, 1)


@st.composite
def _reported_recordings(draw):
    """A short recording whose holds start near its beginning, where the
    lookback is clipped, and anywhere else; cut into random blocks."""
    size = draw(st.sampled_from([1, 7, 100, 1000, None]))
    rate = 100.0 if size == 1 else draw(st.sampled_from([100.0, 250.0, 7.3]))
    duration = draw(st.integers(15, 25 if size == 1 else 60))
    first = draw(st.floats(0.0, 6.0).map(lambda v: round(v, 2)))
    holds = [(first, 1.5)]
    start = first + 1.5 + draw(st.floats(0.1, 8.0).map(lambda v: round(v, 2)))
    while start + 2.0 < duration:
        holds.append((start, 2.0))
        start += 2.0 + draw(st.floats(0.05, 12.0).map(lambda v: round(v, 2)))
    cfg = MockConfig(duration_s=float(duration), sample_rate_hz=rate, holds=tuple(holds),
                     rng_seed=draw(st.integers(0, 2**64)))
    n = _sample_count(cfg)
    size = size or n
    edges = sorted(set(range(size, n, size)) | set(draw(st.lists(st.integers(1, n - 1), max_size=4))))
    config = DetectionConfig(min_duration_s=draw(st.sampled_from([0.0, 0.3])),
                             merge_gap_s=draw(st.sampled_from([0.1, 0.5, 3.0])))
    return cfg, edges, config, draw(st.sampled_from([None, 5.0]))


class TestHoldReports:
    """pipeline's windowed reports against report_hold on the whole recording read back."""

    @settings(max_examples=60, deadline=None)
    @given(case=_reported_recordings())
    def test_matches_whole_recording(self, case):
        cfg, edges, config, peep = case
        w, trace = read_back_stages(cfg, ModelParams())
        records = [segment_record(summarize_segment(w, s)) for s in detect_holds(trace, config)]
        # as pipeline feeds them: t read back, flow, pressure and volume as generated
        made, _ = generate_mock_waveform(cfg)
        channels = (w.t, made.flow, made.pressure, made.volume)

        saved = io.StringIO()
        reports = _HoldReports(config, ModelParams(), w.sample_rate_hz, peep, saved)
        for lo, hi in zip([0, *edges], [*edges, len(w)]):
            block = [c[lo:hi] for c in channels]
            reports.feed(block, reports.log_scores(block[1], block[2]))
        got = reports.finish()
        assert saved.getvalue() == "".join(json.dumps(r) + "\n" for r in records)
        assert got == "".join(json.dumps(report_hold(w, r, peep)) + "\n" for r in records)

    def test_window_must_hold_the_lookback(self):
        w, _ = generate_mock_waveform(MockConfig(rng_seed=3, duration_s=20.0, holds=((10.0, 2.0),)))
        (record,) = [segment_record(summarize_segment(w, s)) for s in detect_holds(score_series(w))]
        lo = record["start_index"] - 500
        window = Waveform(t=w.t[lo + 1 :], flow=w.flow[lo + 1 :], pressure=w.pressure[lo + 1 :],
                          sample_rate_hz=w.sample_rate_hz, volume=w.volume[lo + 1 :])
        with pytest.raises(InvalidRange, match="miss the 5.0 s lookback"):
            report_hold(window, record, offset=lo + 1)
        window = Waveform(t=w.t[lo:], flow=w.flow[lo:], pressure=w.pressure[lo:],
                          sample_rate_hz=w.sample_rate_hz, volume=w.volume[lo:])
        assert report_hold(window, record, offset=lo) == report_hold(w, record)


# the greatest log-score, at ln q = LOG_Q_MAX
_TOP = LOG_Q_MAX - math.log1p(-math.exp(LOG_Q_MAX))
# thresholds at the edges of the read-back: a 9-digit tie, -10 (the band
# tests also take float neighbours of each), subnormals, zeros and infinities
_EDGE_THRESHOLDS = [1.234567895, -10.0, 5e-324, -5e-324, 1e-320, 0.0, -0.0, math.inf, -math.inf]


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _band_cases(draw):
    """A short recording, a model, a block size and a sample to draw a
    threshold from, for pipeline's band path against its exact path."""
    kind = draw(st.sampled_from(["near", "near", "wide", "ceiling", "square", "nan"]))
    noise = 0.0 if kind == "ceiling" else 1.0
    cfg = MockConfig(duration_s=draw(st.sampled_from([12.0, 25.0])), holds=((4.0, 2.0),),
                     rng_seed=draw(st.integers(0, 2**32)), noise_sd_pressure=noise,
                     noise_sd_flow=1e154 if kind == "square" else noise)
    focus = None
    if kind == "near":
        params = ModelParams(draw(st.floats(-5, 5)), draw(_decades(-3, 3)),
                             draw(st.floats(0, 30)), draw(_decades(-3, 3)))
    elif kind == "ceiling":  # hold samples at the model's means reach LOG_Q_MAX
        params = ModelParams(0.0, draw(_decades(-6, -2)), 15.0, draw(_decades(-6, -2)))
    elif kind == "wide":
        mu = st.floats(-1e300, 1e300) | st.floats(-30, 30)
        params = ModelParams(draw(mu), draw(_decades(-306, 308)), draw(mu), draw(_decades(-306, 308)))
    elif kind == "square":
        # a flow whose squared deviation overflows as generated or as read
        # back, but not both: mu puts sqrt(float max) between the two
        made, _ = generate_mock_waveform(cfg)
        focus = draw(st.integers(0, len(made) - 1))
        pair = sorted(float(v) for v in (made.flow[focus], _read_back(made.flow[focus : focus + 1])[0]))
        mu = (pair[0] + pair[1]) / 2 - math.sqrt(sys.float_info.max)
        params = ModelParams(mu, draw(_decades(0, 3)), 15.0, 1.0)
    else:  # twice the variance overflows, and inf / inf makes the log-scores nan
        params = ModelParams(-1.7e308, draw(st.floats(9e307, 1.7e308)), 15.0, 1.0)
    return cfg, params, draw(st.sampled_from([50, 999, 4096, _BLOCK])), focus


class TestBandPath:
    """pipeline reads back flow and pressure only where a log-score lies in
    the band of a threshold; its segments, reports and errors are those of
    the path that reads back every value (the one --save-trace takes)."""

    @staticmethod
    def outcome(cfg, params, config, peep, size, exact):
        segments = io.StringIO()
        trace = io.StringIO() if exact else None
        with mock.patch("holdscan.stream._blocks", lambda c, n: _blocks(c, n, size)):
            got = _outcome(_stage_blocks, cfg, params, config, peep, None, trace, segments)
        return got, segments.getvalue()

    @staticmethod
    def draw_config(data, ref, focus):
        """Thresholds at a sample's exact log-score, at the log1p switch, at
        the ceiling or at an edge of the read-back, or a few floats from there,
        one of them or both."""
        i = focus if focus is not None else data.draw(st.integers(0, len(ref) - 1))
        anchors = [float(v) for v in (ref[i], np.max(ref)) if not np.isnan(v)]  # nan where the model is
        thr = data.draw(st.sampled_from([*anchors[:1] * 3, *anchors, -40.0, _TOP])
                        | st.sampled_from(_EDGE_THRESHOLDS))
        steps = data.draw(st.integers(-2, 2))
        for _ in range(abs(steps)):
            thr = float(np.nextafter(thr, math.copysign(math.inf, steps)))
        gap = data.draw(st.sampled_from([0.0, 1e-9, 0.5, 4.0, math.inf]))
        on, off = ((thr, thr - gap if gap < math.inf else -math.inf) if data.draw(st.booleans())
                   else (thr + gap if gap < math.inf else math.inf, thr))
        return DetectionConfig(on, off, min_duration_s=data.draw(st.sampled_from([0.0, 0.3])))

    @settings(max_examples=100, deadline=None)
    @given(case=_band_cases(), data=st.data())
    def test_matches_exact_path(self, case, data):
        cfg, params, size, focus = case
        ref = read_back_pass(cfg, params, exact=True)[-1]
        configs = [self.draw_config(data, ref, focus) for _ in range(4)]
        for config in configs:
            assert meets_thresholds(read_back_pass(cfg, params, config)[-1], ref, config)
        peep = data.draw(st.sampled_from([None, 5.0]))
        band = self.outcome(cfg, params, configs[0], peep, size, exact=False)
        assert band == self.outcome(cfg, params, configs[0], peep, size, exact=True)

    @settings(max_examples=100, deadline=None)
    @given(case=_band_cases(), data=st.data())
    def test_band_bounds_the_read_back(self, case, data):
        # at a threshold at any sample's exact log-score, or a float next to
        # it, each log-score of the values as generated that lies outside the
        # threshold's band meets it as the one score writes does
        cfg, params, _, focus = case
        scores, ref = self.scored(cfg, params)
        picks = data.draw(st.lists(st.integers(0, len(ref) - 1), min_size=1, max_size=20))
        for v in [*ref[picks + [focus or 0]].tolist(), -40.0, _TOP, *_EDGE_THRESHOLDS]:
            self.assert_bounded(scores, ref, params,
                                [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)])

    def test_band_bounds_the_read_back_of_the_log_score(self):
        # a wide model, where the read-back of a log-score near -10 moves it
        # more than the read-back of its flow and pressure does
        cfg = MockConfig(duration_s=12.0, holds=((4.0, 2.0),), rng_seed=0)
        params = ModelParams(0.0, 1e4, 0.0, 1e3)
        scores, ref = self.scored(cfg, params)
        self.assert_bounded(scores, ref, params, ref.tolist())

    @staticmethod
    def scored(cfg, params):
        """The log-scores of the values as generated, and those score writes."""
        made, _ = generate_mock_waveform(cfg)
        return (_log_scores_array(made.flow, made.pressure, params),
                _exact_log_scores(made.flow, made.pressure, params))

    @staticmethod
    def assert_bounded(scores, ref, params, thresholds):
        """Each of ``scores`` outside a threshold's band meets it as ``ref`` does."""
        for thr in thresholds:
            band = _read_back_band(params, [thr])
            if math.isfinite(thr) and band < math.inf:
                with np.errstate(over="ignore"):  # the float maximum less a log-score
                    far = ~(np.abs(scores - thr) <= band)
                assert np.array_equal((scores >= thr)[far], (ref >= thr)[far])

    @pytest.mark.parametrize("role", ["on", "off"])
    def test_straddling_sample_is_exact(self, role):
        # a threshold at a sample's exact log-score, which the sample's
        # log-score as generated lies on the other side of, with the other
        # threshold 4 away: outside that threshold's band
        cfg, params = MockConfig(duration_s=30.0, holds=((10.0, 2.0),), rng_seed=3), ModelParams()
        made, _ = generate_mock_waveform(cfg)
        scores = _log_scores_array(made.flow, made.pressure, params)
        ref = _exact_log_scores(made.flow, made.pressure, params)
        k = np.flatnonzero(scores < ref)[0]
        v = float(ref[k])
        config = DetectionConfig(v, v - 4.0) if role == "on" else DetectionConfig(v + 4.0, v)
        assert meets_thresholds(read_back_pass(cfg, params, config)[-1], ref, config)

    @given(mu=st.floats(allow_nan=False, allow_infinity=False),
           var=st.floats(5e-324, 1.7976931348623157e308),
           thresholds=st.lists(st.floats(allow_nan=False) | st.sampled_from(_EDGE_THRESHOLDS), max_size=2))
    def test_band_is_quiet(self, mu, var, thresholds):
        # no OverflowError from any model or threshold
        for params in (ModelParams(mu, var, 15.0, 1.0), ModelParams(0.0, 1.0, mu, var)):
            assert _read_back_band(params, thresholds) >= 0.0

    def test_band_at_the_defaults(self):
        band = _read_back_band(ModelParams(), [-10.0, -14.0])
        assert 0.0 < band < 1e-5
        assert _read_back_band(ModelParams(mu_pressure=1e300), [-10.0]) == math.inf
        assert _read_back_band(ModelParams(var_flow=1e308), [-10.0]) == math.inf
        # no log-score reaches 28, so no band is needed there
        assert _read_back_band(ModelParams(), [28.0, math.inf, -math.inf]) == 0.0
        assert 27.63 < _TOP < 27.64


FAILING_ARGV = [
    ["--seed", "9", "--duration-s", "0.001", "--hold", "0:0.001"],  # no samples
    ["--seed", "9", "--duration-s", "0.01", "--hold", "0:0.01"],  # one sample
    ["--seed", "7", "--duration-s", "0.01", "--hold", "0:0.01", "--noise-sd-flow", "1.7e308"],
    ["--seed", "9", "--duration-s", "30", "--hold", "0:1", "--noise-sd-flow", "1e308"],
    ["--seed", "4", "--duration-s", "300", "--sample-rate-hz", "7.3", "--hold", "100:3"],
    ["--seed", "1", "--duration-s", "30", "--hold", "10:2", "--mu-flow=-1.7e308", "--var-flow", "1e308"],
]


# a short recording with one hold, whose report has a record
RECORDING = ["--seed", "6", "--duration-s", "10", "--hold", "4:1"]


def stage_files(d):
    """The waveform, trace and segment files of ``RECORDING``, written to the directory ``d``."""
    d.mkdir(exist_ok=True)
    argv = each_command(d)
    for command, name in (("generate", "w.csv"), ("score", "t.csv"), ("detect", "s.ndjson")):
        assert run_cli([*argv[command], "-o", str(d / name)])[0] == 0
    return d


def each_command(d, recording=RECORDING, wave=None):
    """The argv of each command by name: ``generate`` and ``pipeline`` on
    ``recording``, the others on the files of :func:`stage_files` in ``d``,
    with the waveform file ``wave`` in its place if given."""
    w = str(wave or d / "w.csv")
    return {
        "generate": ["generate", *recording],
        "score": ["score", w],
        "detect": ["detect", str(d / "t.csv"), "--waveform", w],
        "report": ["report", w, "--segments", str(d / "s.ndjson")],
        "pipeline": ["pipeline", *recording],
    }


class TestSaveFiles:
    """Each output is staged while its command runs, and written out only when it succeeds."""

    @staticmethod
    def saves(tmp_path):
        return ["--save-waveform", str(tmp_path / "w.csv"), "--save-trace", str(tmp_path / "t.csv"),
                "--save-segments", str(tmp_path / "s.ndjson"), "-o", str(tmp_path / "r.ndjson")]

    @pytest.mark.parametrize("argv", FAILING_ARGV)
    def test_failure_leaves_no_file(self, tmp_path, argv):
        assert_clean_failure(["pipeline", *argv, *self.saves(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    def test_failure_after_written_blocks_leaves_no_file(self, tmp_path):
        calls = []

        def fail_third_block(log_scores):
            calls.append(len(log_scores))
            if len(calls) == 3:
                raise NonFiniteInput("log_scores entries must be finite or -inf")

        argv = ["pipeline", "--seed", "7", "--duration-s", "600", "--hold", "300:2", *self.saves(tmp_path)]
        with mock.patch("holdscan.stream._check_log_scores", fail_third_block):
            code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err == "error: log_scores entries must be finite or -inf\n"
        assert list(tmp_path.iterdir()) == []
        # the temporary files had been written before the error
        assert run_cli(argv) == (0, "", "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.ndjson", "s.ndjson", "t.csv", "w.csv"]

    # generate stages its CSV as pipeline stages --save-waveform; these fail in generate
    @pytest.mark.parametrize("argv", [
        FAILING_ARGV[0], FAILING_ARGV[2], FAILING_ARGV[3],
        # every one of its three blocks is written before the error
        ["--seed", "9", "--duration-s", "400", "--hold", "0:1", "--noise-sd-flow", "1e308"],
    ])
    def test_generate_failure_leaves_no_file(self, tmp_path, argv):
        assert_clean_failure(["generate", *argv, "-o", str(tmp_path / "w.csv"),
                              "--ground-truth", str(tmp_path / "g.ndjson")])
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def writers(tmp_path):
        """Each output that can go to a path: a new directory, the argv that
        writes it to the path appended, and one that fails before it does."""
        inputs = stage_files(tmp_path / "in")
        (inputs / "bad.csv").write_text("t,flow,pressure\n0,x,15\n")
        ok, fail = each_command(inputs), each_command(inputs, FAILING_ARGV[0], inputs / "bad.csv")
        for i, (command, flags) in enumerate([
            ("pipeline", ["-o", os.devnull, "--save-waveform"]),
            ("generate", ["-o"]),
            ("generate", ["-o", os.devnull, "--ground-truth"]),
            ("score", ["-o"]), ("detect", ["-o"]), ("report", ["-o"]),
        ]):
            (tmp_path / str(i)).mkdir()
            yield tmp_path / str(i), [*ok[command], *flags], [*fail[command], *flags]

    @staticmethod
    def written(argv):
        """What ``argv`` writes to its path, written to stdout with ``-``."""
        code, out, _ = run_cli([*argv, "-"])
        assert code == 0 and out
        return out

    def test_missing_directory(self, tmp_path):
        for d, argv, _ in self.writers(tmp_path):
            target = d / "no" / "out"
            code, out, err = run_cli([*argv, str(target)])
            assert (code, out) == (2, "")
            assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
            assert list(d.iterdir()) == []

    def test_replaces_existing_file(self, tmp_path):
        for d, argv, _ in self.writers(tmp_path):
            target = d / "out"
            target.write_text("old\n")
            assert run_cli([*argv, str(target)])[0] == 0
            assert target.read_text() == self.written(argv)
            assert [p.name for p in d.iterdir()] == ["out"]

    def test_device_is_written_in_place(self, tmp_path):
        for _, argv, _ in self.writers(tmp_path):
            assert run_cli([*argv, os.devnull])[0] == 0
            assert not os.path.isfile(os.devnull)

    def test_failure_leaves_existing_file(self, tmp_path):
        for d, _, failing in self.writers(tmp_path):
            target = d / "out"
            target.write_text("old\n")
            assert_clean_failure([*failing, str(target)])
            assert target.read_text() == "old\n"
            assert [p.name for p in d.iterdir()] == ["out"]

    def test_symlink_is_written_through(self, tmp_path):
        for d, argv, _ in self.writers(tmp_path):
            (d / "real").write_text("old\n")
            (d / "link").symlink_to("real")
            assert run_cli([*argv, str(d / "link")])[0] == 0
            assert (d / "link").is_symlink()
            assert (d / "real").read_text() == self.written(argv)

    def test_mode_and_links_kept(self, tmp_path):
        for d, argv, _ in self.writers(tmp_path):
            target = d / "out"
            target.write_text("old\n")
            target.chmod(0o600)
            os.link(target, d / "other")
            assert run_cli([*argv, str(target)])[0] == 0
            assert target.stat().st_mode & 0o777 == 0o600
            assert (d / "other").read_text() == self.written(argv)

    def test_minus_is_stdout(self, tmp_path):
        for argv in each_command(stage_files(tmp_path)).values():
            got = run_cli(argv)
            assert got[0] == 0 and got[1]
            assert run_cli([*argv, "-o", "-"]) == got


class TestGivenStreams:
    """``run`` writes only to the streams it is given, whether the command
    succeeds or fails, and ``--help`` too."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = stage_files(tmp_path_factory.mktemp("streams"))
        (d / "bad.csv").write_text("t,flow,pressure\n0,x,15\n")
        return d

    @pytest.mark.parametrize("command", ["generate", "score", "detect", "report", "pipeline"])
    def test_success(self, inputs, command, capsys):
        code, out, err = run_cli(each_command(inputs)[command])
        assert (code, err) == (0, "") and out
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("command", ["generate", "score", "detect", "report", "pipeline"])
    def test_failure(self, inputs, command, capsys):
        code, out, err = run_cli(each_command(inputs, FAILING_ARGV[0], inputs / "bad.csv")[command])
        assert (code, out) == (1, "") and err.startswith("error: ")
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["score", "--help"], ["pipeline", "-h"]])
    def test_help(self, argv, capsys):
        code, out, err = run_cli(argv)
        prog = " ".join(["holdscan", *argv[:-1]])
        assert (code, err) == (0, "") and out.startswith(f"usage: {prog} ")
        assert capsys.readouterr() == ("", "")


class TestPeep:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("hold", ["0:2", "10:0.1"])  # the second gives no segment
    def test_pipeline_rejects_non_finite_peep(self, value, hold):
        assert_clean_failure(["pipeline", "--seed", "3", "--duration-s", "30", "--hold", hold,
                              f"--peep={value}"])

    def test_report_rejects_non_finite_peep(self, tmp_path):
        wave = tmp_path / "w.csv"
        wave.write_text(VALID_WAVE)
        segs = tmp_path / "s.ndjson"
        segs.write_text("")  # no records: the flag is checked all the same
        assert_clean_failure(["report", str(wave), "--segments", str(segs), "--peep", "nan"])


class TestNumericValues:
    """Values that are no float, or that no float holds, end in one error line."""

    @pytest.mark.parametrize("line", ['duration_s = "abc"', f"duration_s = {'9' * 400}",
                                      "sample_rate_hz = 1j", "holds = ((1e999, 1),)",
                                      f"holds = (({'1' * 400}, 1),)", "rng_seed = {[]: 1}"])
    def test_config_file(self, tmp_path, line):
        config = tmp_path / "c.txt"
        config.write_text(f"rng_seed = 3\n{line}\n")
        assert_clean_failure(["generate", "--config", str(config)])

    def test_config_file_not_utf8(self, tmp_path):
        config = tmp_path / "c.txt"
        config.write_bytes(b"rng_seed = 3\xff\n")
        assert_clean_failure(["generate", "--config", str(config)])

    @pytest.mark.parametrize("argv", [["--duration-s", "1e308", "--sample-rate-hz", "10"],
                                      ["--duration-s", "1e15"]])
    def test_recording_above_the_ceiling(self, argv):
        for command in ("generate", "pipeline"):
            assert_clean_failure([command, "--seed", "1", *argv, "--hold", "0:1"])

    @pytest.mark.parametrize("cls, name", [(ModelParams, "var_flow"), (ModelParams, "mu_pressure"),
                                           (DetectionConfig, "log_threshold_on"),
                                           (DetectionConfig, "merge_gap_s")])
    @pytest.mark.parametrize("value", ["abc", None, 10**400])
    def test_library_configs(self, cls, name, value):
        with pytest.raises(HoldscanError, match=name):
            cls(**{name: value})

    @pytest.mark.parametrize("flag", ["--peak-pressure-cmh2o=1e308", "--i-to-e-ratio=1e-308",
                                      "--i-to-e-ratio=1e308", "--mu-flow=-1e308"])
    def test_edge_values_run_without_warnings(self, flag):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(["pipeline", "--seed", "9", "--duration-s", "30",
                                    "--hold", "10:2", flag])
        assert (code, err) == (0, "")

    def test_infinite_variance_ends_in_one_error_line(self, tmp_path):
        # a squared deviation over a doubled variance that both overflow is nan
        wave = tmp_path / "w.csv"
        wave.write_text(VALID_WAVE)
        assert_clean_failure(["score", str(wave), "--mu-flow=-1e308", "--var-flow=1e308"])

    def test_rate_whose_spacing_overflows(self, tmp_path):
        # at 5e-324 Hz the spacing 1 / rate is inf, which any grid would pass
        wave, trace, segs = tmp_path / "w.csv", tmp_path / "t.csv", tmp_path / "s.ndjson"
        wave.write_text("t,flow,pressure\n0,1,2\n0.5,1,2\n7,1,2\n")
        trace.write_text("t,log_score\n0,-1\n0.5,-1\n7,-1\n")
        segs.write_text("")
        for argv in (["score", str(wave)], ["detect", str(trace), "--waveform", str(wave)],
                     ["report", str(wave), "--segments", str(segs)]):
            assert_clean_failure(argv + ["--expected-rate-hz", "5e-324"])

    def test_timestamps_whose_step_overflows(self, tmp_path):
        # the span from -1e308 to 1e308 is beyond the float range: the rate
        # inferred from it is 0, and at a given rate the step is inf
        wave, trace, segs = tmp_path / "w.csv", tmp_path / "t.csv", tmp_path / "s.ndjson"
        wave.write_text("t,flow,pressure\n-1e308,1,2\n1e308,1,2\n")
        trace.write_text("t,log_score\n-1e308,-1\n1e308,-1\n")
        segs.write_text("")
        for rate in ([], ["--expected-rate-hz", "1"]):
            for argv in (["score", str(wave)], ["detect", str(trace), "--waveform", str(wave)],
                         ["report", str(wave), "--segments", str(segs)]):
                assert_clean_failure(argv + rate)

    @pytest.mark.parametrize("hold, fault", [
        ("a:2", "hold spec 'a:2' must be numeric"),
        ("1e400:2", "hold (inf, 2.0) must have a finite start and a positive, finite duration"),
        ("1:nan", "hold (1.0, nan) must have a finite start and a positive, finite duration"),
    ])
    def test_hold_spec(self, hold, fault):
        argv = ["pipeline", "--seed", "1", "--duration-s", "30", "--hold", hold]
        assert_clean_failure(argv)
        assert run_cli(argv)[2] == f"error: {fault}\n"

    def test_segment_times_beyond_the_float_range(self, tmp_path):
        # the inferred rate is 1 / 1.6e308 Hz, so the segment that opens at
        # the second sample ends at index 2, beyond the float range in seconds
        wave, trace = tmp_path / "w.csv", tmp_path / "t.csv"
        wave.write_text("t,flow,pressure\n0,1,2\n1.6e308,1,2\n")
        trace.write_text("t,log_score\n0,-1\n1.6e308,0\n")
        argv = ["detect", str(trace), "--waveform", str(wave), "--log-threshold-on=-0.5",
                "--log-threshold-off=-0.6", "--min-duration-s", "0"]
        assert_clean_failure(argv)
        want = "error: segment times must be finite, got [1.6000000000000004e+308, inf) s\n"
        assert run_cli(argv)[2] == want

    def test_overflowing_noise_ends_in_one_error_line(self):
        assert_clean_failure(["pipeline", "--seed", "9", "--duration-s", "30", "--hold", "0:1",
                              "--noise-sd-flow", "1e308"])


class TestNegativeValues:
    """A negative number in any notation ``float()`` takes is a flag's value."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        return stage_files(tmp_path_factory.mktemp("negative"))

    @pytest.mark.parametrize("token", ["-inf", "-1e306", "-1.5E+1", "-1e1", "-15.5"])
    @pytest.mark.parametrize("command, flag", [
        ("generate", "--peep-cmh2o"), ("score", "--mu-flow"), ("detect", "--log-threshold-off"),
        ("report", "--peep"), ("pipeline", "--log-threshold-on"),
    ])
    def test_float_flag_of_each_command(self, files, command, flag, token):
        argv = each_command(files)[command]
        got = run_cli([*argv, flag, token])
        assert got[0] != 2, got[2]
        assert got == run_cli([*argv, f"{flag}={token}"])

    def test_minus_stays_stdin(self, files):
        wave = (files / "w.csv").read_text()
        got = run_cli(["score", "-", "--mu-flow", "-1e1"], stdin_text=wave)
        assert got[0] == 0
        assert got == run_cli(["score", str(files / "w.csv"), "--mu-flow=-10"])

    def test_int_flag_refuses_float_notation(self):
        code, _, err = run_cli(["pipeline", "--seed", "-1e3"])
        assert code == 2
        assert err == "error: holdscan pipeline: argument --seed: invalid int value: '-1e3'\n"

    def test_unknown_short_flag(self):
        code, _, err = run_cli(["pipeline", "--seed", "1", "-x"])
        assert code == 2
        assert err == "error: holdscan: unrecognized arguments: -x\n"


class TestNoiseFree:
    # Every hold length of the benchmark's batch (0.5 to 5.9 s): with no
    # noise the hold's log-scores are all equal, and their mean must not
    # come out above their peak.
    @pytest.mark.parametrize("tenths", range(5, 60))
    def test_pipeline_finds_clean_hold(self, tenths):
        length = tenths / 10
        code, out, err = run_cli([
            "pipeline", "--seed", "1", "--duration-s", "16", "--hold", f"8:{length}",
            "--noise-sd-flow", "0", "--noise-sd-pressure", "0",
        ])
        assert (code, err) == (0, "")
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1
        assert records[0]["start_s"] == pytest.approx(8.0, abs=0.2)
        assert records[0]["end_s"] == pytest.approx(8.0 + length, abs=0.2)


def assert_clean_failure(argv):
    """Exit 1 with empty stdout, one ``error:`` line and no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert caught == []


class TestNotUtf8:
    WAVE = b"t,flow,pressure\n0,0,15\n0.01,0,15\xff\n"

    def test_file(self, tmp_path):
        wave = tmp_path / "w.csv"
        wave.write_bytes(self.WAVE)
        assert_clean_failure(["score", str(wave)])

    def test_segments_file(self, tmp_path):
        wave, segs = tmp_path / "w.csv", tmp_path / "s.ndjson"
        wave.write_text(VALID_WAVE)
        segs.write_bytes(b"\xff\n")
        assert_clean_failure(["report", str(wave), "--segments", str(segs)])

    def test_binary_stdin(self):
        out, err = io.StringIO(), io.StringIO()
        assert run(["score", "-"], stdin=io.BytesIO(self.WAVE), stdout=out, stderr=err) == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: stdin is not UTF-8")
        assert err.getvalue().count("\n") == 1


def run_command(argv, stdin, encoding=None, close_stdout=False, close_stderr=False):
    """``python -m holdscan.cli argv`` with ``stdin`` (a file, or None for a
    closed stdin), stdout closed if ``close_stdout``, stderr closed if
    ``close_stderr`` and ``PYTHONIOENCODING=encoding``: (exit code, stdout,
    stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(holdscan.__file__).resolve().parents[1]))
    env.pop("PYTHONIOENCODING", None)
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    command = [sys.executable, "-m", "holdscan.cli", *argv]
    closing = ["<&-"] * (stdin is None) + [">&-"] * close_stdout + ["2>&-"] * close_stderr
    if closing:
        command = ["sh", "-c", 'exec "$@" ' + " ".join(closing), "sh", *command]
    done = subprocess.run(command, stdin=stdin, capture_output=True, env=env)
    return done.returncode, done.stdout, done.stderr


class TestStdinBytes:
    """``-`` reads stdin's bytes as UTF-8, as a path is read, whatever the locale's codec."""

    @pytest.mark.parametrize("encoding", [None, "ascii", "latin-1"])
    def test_stdin_as_path(self, tmp_path, encoding):
        for name, comment in (("bad", b"\xff"), ("good", "caf\u00e9".encode())):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(VALID_WAVE.encode().replace(b"\n", b"\n# " + comment + b"\n", 1))
            want = run_command(["score", str(path)], subprocess.DEVNULL, encoding)
            with open(path, "rb") as fh:
                code, out, err = run_command(["score", "-"], fh, encoding)
            assert (code, out, err.replace(b"stdin", str(path).encode())) == want
            assert code == (1 if name == "bad" else 0)

    @pytest.mark.parametrize("argv", [["score", "-"], ["report", "-", "--segments", "s.ndjson"]])
    def test_closed_stdin(self, argv):
        assert run_command(argv, None) == (2, b"", b"error: stdin is closed\n")


class TestClosedStdout:
    """With stdout closed, a command that writes there ends in one error line
    before it writes anything; one that writes only to paths runs as before."""

    CLOSED = (2, b"", b"error: stdout is closed\n")

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        return stage_files(tmp_path_factory.mktemp("closed"))

    @pytest.mark.parametrize("command", ["generate", "score", "detect", "report", "pipeline"])
    def test_one_error_line(self, files, command):
        argv = each_command(files)[command]
        assert run_command(argv, subprocess.DEVNULL, close_stdout=True) == self.CLOSED

    @pytest.mark.parametrize("command, flag", [("pipeline", "--save-waveform"),
                                               ("generate", "--ground-truth")])
    def test_writes_no_file(self, tmp_path, command, flag):
        target = tmp_path / "out"
        argv = [*each_command(tmp_path)[command], flag, str(target)]
        assert run_command(argv, subprocess.DEVNULL, close_stdout=True) == self.CLOSED
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["score", "--help"]])
    def test_help(self, argv):
        code, out, err = run_command(argv, subprocess.DEVNULL)
        assert (code, err) == (0, b"") and out.startswith(b"usage: holdscan")
        assert run_command(argv, subprocess.DEVNULL, close_stdout=True) == self.CLOSED

    def test_output_to_a_path(self, files, tmp_path):
        argv = each_command(files)["score"]
        target = tmp_path / "t.csv"
        got = run_command([*argv, "-o", str(target)], subprocess.DEVNULL, close_stdout=True)
        assert got == (0, b"", b"")
        assert target.read_bytes() == run_command(argv, subprocess.DEVNULL)[1]


class TestClosedStderr:
    """With stderr closed, a failing command keeps its exit code and its
    error line is dropped, never written to stdout in its place."""

    # the exit code, argv and stdin of each case
    FAILING = {
        "missing file": (2, ["score", str(Path(__file__).with_name("missing.csv"))],
                         subprocess.DEVNULL),
        "unknown command": (2, ["bogus"], subprocess.DEVNULL),
        "hold outside": (1, ["generate", "--seed", "1", "--duration-s", "1"], subprocess.DEVNULL),
        "nan variance": (1, ["pipeline", "--seed", "1", "--duration-s", "60", "--var-flow", "nan"],
                         subprocess.DEVNULL),
        "closed stdin": (2, ["score", "-"], None),
    }

    @pytest.mark.parametrize("case", FAILING)
    def test_exit_code_and_no_stdout(self, case):
        code, argv, stdin = self.FAILING[case]
        opened, out, err = run_command(argv, stdin)
        assert (opened, out) == (code, b"") and err.startswith(b"error: ")
        assert run_command(argv, stdin, close_stderr=True) == (code, b"", b"")

    def test_success_writes_the_same_bytes(self):
        argv = ["generate", *RECORDING]
        got = run_command(argv, subprocess.DEVNULL, close_stderr=True)
        assert got == run_command(argv, subprocess.DEVNULL)
        assert got[0] == 0 and got[1]

    @pytest.mark.parametrize("case", [c for c, (*_, stdin) in FAILING.items() if stdin is not None])
    def test_unwritable_stderr_in_process(self, case):
        class Unwritable(io.StringIO):
            def write(self, text):
                raise OSError(9, "Bad file descriptor")

        code, argv, _ = self.FAILING[case]
        out = io.StringIO()
        assert run(argv, stdin=io.StringIO(""), stdout=out, stderr=Unwritable()) == code
        assert out.getvalue() == ""


class TestNoDataRows:
    WAVE_EMPTY = ("t,flow,pressure\n", "t,flow,pressure\n\n\n", "# no samples\n")
    TRACE_EMPTY = ("t,log_score\n", "# no samples\n")

    @pytest.mark.parametrize("text", WAVE_EMPTY)
    def test_score(self, tmp_path, text):
        wave = tmp_path / "w.csv"
        wave.write_text(text)
        assert_clean_failure(["score", str(wave)])

    @pytest.mark.parametrize("text", TRACE_EMPTY)
    def test_detect_trace(self, tmp_path, text):
        wave, trace = tmp_path / "w.csv", tmp_path / "t.csv"
        wave.write_text(VALID_WAVE)
        trace.write_text(text)
        assert_clean_failure(["detect", str(trace), "--waveform", str(wave)])

    @pytest.mark.parametrize("text", WAVE_EMPTY)
    def test_detect_waveform(self, tmp_path, text):
        wave, trace = tmp_path / "w.csv", tmp_path / "t.csv"
        wave.write_text(text)
        trace.write_text("t,log_score\n0,-1\n0.01,-1\n0.02,-1\n")
        assert_clean_failure(["detect", str(trace), "--waveform", str(wave)])

    @pytest.mark.parametrize("text", WAVE_EMPTY)
    def test_report(self, tmp_path, text):
        wave, segs = tmp_path / "w.csv", tmp_path / "s.ndjson"
        wave.write_text(text)
        segs.write_text("")
        assert_clean_failure(["report", str(wave), "--segments", str(segs)])
