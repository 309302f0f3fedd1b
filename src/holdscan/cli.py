"""Command-line front end: generate -> score -> detect -> report.

Each subcommand reads/writes the text formats defined by the library modules
(waveform CSV, score CSV, segment NDJSON), with machine-readable output on
stdout and diagnostics on stderr.  Each command parses each of its inputs
once.

``pipeline`` runs the four stages with the data flow of the separate
commands, so its output is byte-identical to piping them by hand.  Neither
it nor ``generate`` holds the whole recording (:mod:`holdscan.stream`).  A
handler maps the namespace, ``read`` (a path to its text) and ``stage`` (a
new unnamed temporary file) to its ``(path, text)`` outputs, all staged but
pipeline's report and the ground truth, short strings.  :func:`run` alone
touches a stream: it hands them to :func:`_commit`, the one writer of
stdout and output paths, and ``--help``'s screen too.  The CSV readers are
:mod:`holdscan.waveform`'s.

The parser is built once per process, on the first :func:`run`.

Exit codes: 0 success, 1 data/validation error, 2 usage or I/O error (a
closed stdin or stdout included); each error is one ``error:`` line on the
``stderr`` given to :func:`run`, argparse's own included, or none, with the
same exit code, if stderr is closed or cannot be written.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import json
import shutil
import sys
import tempfile
from dataclasses import fields

from .detection import (
    DetectionConfig,
    detect_holds,
    read_segments_ndjson,
    segment_record,
    summarize_segment,
    write_segments_ndjson,
)
from .errors import HoldscanError, InvalidConfig, MalformedRow
from .mechanics import _check_peep, report_hold
from .mockgen import MockConfig, _ground_truth
from .scoring import (
    ModelParams,
    load_score_trace_csv,
    score_series,
    write_score_trace_csv,
)
from .stream import _generate_pass, _stage_blocks
from .waveform import load_waveform_csv

_MOCK_FIELD_NAMES = tuple(f.name for f in fields(MockConfig))


class _UsageError(Exception):
    """Command-line misuse, argparse's own included."""


class _Help(Exception):
    """``--help``: its text, the output :func:`run` writes for it."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors :func:`run` reports as one line, and
    whose help screen it writes to its stdout as a command's output."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        raise _Help(self.format_help())

    def _parse_optional(self, arg_string):
        try:  # any number is a value; argparse's own rule misses -1e3 and -inf
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


# ---------------------------------------------------------------------------
# staged output


# An unnamed temporary file, in TMPDIR, for text that _commit writes out.
_staged = functools.partial(tempfile.TemporaryFile, "w+", encoding="utf-8", newline="")


def _commit(outputs, stdout) -> None:
    """Write each ``(path, text)`` of a command that has succeeded, in order,
    to stdout for None or ``-``, else to ``path``, opened now.

    So an error before, or a closed stdout (None), leaves no file and an
    existing one as it was, a symlink is written through, and a file keeps
    its mode, owner and links.  ``text`` is ``_staged``, or a short ``str``:
    a ``StringIO`` would hold 4 bytes a character.
    """
    if stdout is None and any(path in (None, "-") for path, _ in outputs):
        raise OSError("stdout is closed")
    for path, text in outputs:
        with (contextlib.nullcontext(stdout) if path in (None, "-")
              else open(path, "w", encoding="utf-8", newline="")) as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                text.seek(0)
                shutil.copyfileobj(text, fh)


def _ground_truth_output(ns, cfg: MockConfig) -> list:
    """``[(path, text)]`` of ``--ground-truth``, or ``[]`` without it."""
    if ns.ground_truth is None:
        return []
    return [(ns.ground_truth, "".join(json.dumps({"start_s": s, "end_s": e}) + "\n"
                                      for s, e in _ground_truth(cfg).hold_segments))]


# ---------------------------------------------------------------------------
# argument plumbing


# Help of each configuration flag, by field name; {} is the field's default.
_FIELD_HELP = {
    "duration_s": "recording length in seconds (default {})",
    "sample_rate_hz": "samples per second (default {})",
    "respiratory_rate_bpm": "breaths per minute (default {})",
    "i_to_e_ratio": "inspiration:expiration ratio (default {} = 1:2)",
    "peak_flow_lpm": "peak inspiratory flow in L/min (default {})",
    "peep_cmh2o": "baseline pressure in cmH2O (default {})",
    "plateau_cmh2o": "hold plateau pressure in cmH2O (default {})",
    "peak_pressure_cmh2o": "end-inspiratory pressure in cmH2O (default {})",
    "noise_sd_flow": "flow noise SD in L/min (default {})",
    "noise_sd_pressure": "pressure noise SD in cmH2O (default {})",
    "mu_flow": "hold-model mean flow in L/min (default {})",
    "var_flow": "hold-model flow variance in (L/min)^2 (default {})",
    "mu_pressure": "hold-model mean pressure in cmH2O (default {})",
    "var_pressure": "hold-model pressure variance in (cmH2O)^2 (default {})",
    "log_threshold_on": "log-score opening a segment, nats (default {})",
    "log_threshold_off": "log-score closing a segment, nats (default {})",
    "min_duration_s": "discard segments shorter than this, seconds (default {})",
    "merge_gap_s": "merge segments separated by less than this, seconds (default {})",
}


def _add_field_flags(p: argparse.ArgumentParser, cls) -> None:
    """A ``--name-with-dashes`` number flag for each field of the dataclass
    ``cls`` that ``_FIELD_HELP`` names.  Its default is the field's, except
    for ``MockConfig``, whose flags default to None so that ``--config`` can
    set the field."""
    for f in fields(cls):
        if f.name in _FIELD_HELP:
            p.add_argument("--" + f.name.replace("_", "-"), type=float,
                           default=None if cls is MockConfig else f.default,
                           help=_FIELD_HELP[f.name].format(f.default))


def _from_ns(cls, ns: argparse.Namespace, values=()):
    """``cls`` from ``values``, a mapping of field names, updated with the
    value of each field's flag that holds one."""
    kwargs = dict(values)
    kwargs.update((f.name, v) for f in fields(cls)
                  if (v := getattr(ns, f.name, None)) is not None)
    return cls(**kwargs)


def _add_mock_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed, 64-bit integer; required here or as rng_seed in --config")
    p.add_argument("--config", default=None, metavar="PATH",
                   help="key = value file with MockConfig field names; flags override it")
    _add_field_flags(p, MockConfig)
    start, duration = MockConfig().holds[0]
    p.add_argument("--hold", action="append", default=None, metavar="START:DURATION",
                   help=f"hold interval in seconds, repeatable (default {start}:{duration})")


def _parse_config_file(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidConfig(f"config line {lineno}: expected key = value")
        key = key.strip()
        if key not in _MOCK_FIELD_NAMES:
            raise InvalidConfig(f"config line {lineno}: unknown key {key!r}")
        try:
            out[key] = ast.literal_eval(value.strip())
        # a TypeError for an unhashable key, and a MemoryError or
        # RecursionError for nesting deeper than the parser takes
        except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
            raise InvalidConfig(
                f"config line {lineno}: cannot parse value {value.strip()!r}"
            ) from None
    return out


def _parse_hold_spec(spec: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise InvalidConfig(f"hold spec {spec!r} must be START:DURATION")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise InvalidConfig(f"hold spec {spec!r} must be numeric") from None


def _mock_config_from(ns: argparse.Namespace) -> MockConfig:
    values: dict = {}
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidConfig(f"config {ns.config} is not UTF-8 text: {exc}") from None
        values = _parse_config_file(text)
    if ns.hold is not None:
        values["holds"] = tuple(_parse_hold_spec(s) for s in ns.hold)
    if ns.seed is not None:
        values["rng_seed"] = ns.seed
    elif "rng_seed" not in values:
        raise _UsageError("a seed is required: pass --seed or rng_seed in --config")
    return _from_ns(MockConfig, ns, values)


def _read_input(path: str, stdin) -> str:
    try:
        if path == "-":
            if stdin is None:  # the process was started with stdin closed
                raise OSError("stdin is closed")
            data = stdin.read()
            return data.decode("utf-8") if isinstance(data, bytes) else data
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise MalformedRow(f"{name} is not UTF-8 text: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_generate(ns, read, stage) -> list:
    cfg = _mock_config_from(ns)
    staged = stage()
    _generate_pass(cfg, staged)
    return [*_ground_truth_output(ns, cfg), (ns.output, staged)]


def _cmd_score(ns, read, stage) -> list:
    w = load_waveform_csv(read(ns.waveform), ns.expected_rate_hz)
    trace = score_series(w, _from_ns(ModelParams, ns))
    staged = stage()
    write_score_trace_csv(w.t, trace, staged, linear=ns.linear)
    return [(ns.output, staged)]


def _cmd_detect(ns, read, stage) -> list:
    if ns.waveform == "-":
        raise _UsageError("--waveform must be a file path, not '-'")
    trace_text = read(ns.trace)
    wave_text = read(ns.waveform)
    _, trace = load_score_trace_csv(trace_text, ns.expected_rate_hz)
    w = load_waveform_csv(wave_text, ns.expected_rate_hz)
    config = _from_ns(DetectionConfig, ns)
    if len(w) != len(trace):
        raise MalformedRow(
            f"trace has {len(trace)} rows but waveform has {len(w)} samples"
        )
    if abs(w.sample_rate_hz - trace.sample_rate_hz) > 1e-6 * w.sample_rate_hz:
        raise InvalidConfig(
            f"trace rate {trace.sample_rate_hz} Hz does not match waveform rate "
            f"{w.sample_rate_hz} Hz"
        )
    records = [segment_record(summarize_segment(w, seg)) for seg in detect_holds(trace, config)]
    staged = stage()
    write_segments_ndjson(records, staged)
    return [(ns.output, staged)]


def _cmd_report(ns, read, stage) -> list:
    if ns.waveform == "-" and ns.segments == "-":
        raise _UsageError("at most one of waveform and --segments may read stdin")
    peep = _check_peep(ns.peep)
    wave_text = read(ns.waveform)
    seg_text = read(ns.segments)
    w = load_waveform_csv(wave_text, ns.expected_rate_hz)
    staged = stage()
    for rec in read_segments_ndjson(seg_text):
        staged.write(json.dumps(report_hold(w, rec, peep)) + "\n")
    return [(ns.output, staged)]


def _cmd_pipeline(ns, read, stage) -> list:
    cfg = _mock_config_from(ns)
    params, config = _from_ns(ModelParams, ns), _from_ns(DetectionConfig, ns)
    peep = _check_peep(ns.peep)
    saves = {name: stage() for name in ("save_waveform", "save_trace", "save_segments")
             if getattr(ns, name) is not None}
    report = _stage_blocks(cfg, params, config, peep, **saves)
    saved = [(getattr(ns, name), staged) for name, staged in saves.items()]
    return [*_ground_truth_output(ns, cfg), *saved, (ns.output, report)]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="holdscan",
        description="Detect inspiratory holds in ventilator waveforms and "
        "estimate respiratory mechanics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a seeded synthetic waveform CSV")
    _add_mock_flags(g)
    g.add_argument("--ground-truth", default=None, metavar="PATH",
                   help="also write true hold intervals as NDJSON to PATH")
    g.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="waveform CSV destination (default stdout)")
    g.set_defaults(handler=_cmd_generate)

    s = sub.add_parser("score", help="score each sample of a waveform CSV")
    s.add_argument("waveform", help="waveform CSV path, or - for stdin")
    _add_field_flags(s, ModelParams)
    s.add_argument("--linear", action="store_true",
                   help="append a linear score column (exp of log_score, underflows to 0)")
    s.add_argument("--expected-rate-hz", type=float, default=None,
                   help="declared sample rate in Hz; inferred from spacing when omitted")
    s.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="score CSV destination (default stdout)")
    s.set_defaults(handler=_cmd_score)

    dt = sub.add_parser("detect", help="segment holds from a score CSV")
    dt.add_argument("trace", help="score CSV path, or - for stdin")
    dt.add_argument("--waveform", required=True, metavar="PATH",
                    help="source waveform CSV (for per-segment channel means)")
    _add_field_flags(dt, DetectionConfig)
    dt.add_argument("--expected-rate-hz", type=float, default=None,
                    help="declared sample rate in Hz; inferred from spacing when omitted")
    dt.add_argument("-o", "--output", default=None, metavar="PATH",
                    help="segment NDJSON destination (default stdout)")
    dt.set_defaults(handler=_cmd_detect)

    r = sub.add_parser("report", help="derive mechanics from detected segments")
    r.add_argument("waveform", help="waveform CSV path, or - for stdin")
    r.add_argument("--segments", required=True, metavar="PATH",
                   help="segment NDJSON path, or - for stdin")
    r.add_argument("--peep", type=float, default=None,
                   help="known PEEP in cmH2O; estimated from pre-hold pressure when omitted")
    r.add_argument("--expected-rate-hz", type=float, default=None,
                   help="declared sample rate in Hz; inferred from spacing when omitted")
    r.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="report NDJSON destination (default stdout)")
    r.set_defaults(handler=_cmd_report)

    pl = sub.add_parser("pipeline", help="generate, score, detect, and report in one run")
    _add_mock_flags(pl)
    _add_field_flags(pl, ModelParams)
    _add_field_flags(pl, DetectionConfig)
    pl.add_argument("--peep", type=float, default=None,
                    help="known PEEP in cmH2O; estimated from pre-hold pressure when omitted")
    pl.add_argument("--ground-truth", default=None, metavar="PATH",
                    help="also write true hold intervals as NDJSON to PATH")
    pl.add_argument("--save-waveform", default=None, metavar="PATH",
                    help="also write the intermediate waveform CSV to PATH")
    pl.add_argument("--save-trace", default=None, metavar="PATH",
                    help="also write the intermediate score CSV to PATH")
    pl.add_argument("--save-segments", default=None, metavar="PATH",
                    help="also write the intermediate segment NDJSON to PATH")
    pl.add_argument("-o", "--output", default=None, metavar="PATH",
                    help="report NDJSON destination (default stdout)")
    pl.set_defaults(handler=_cmd_pipeline)

    return parser


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    """Parse arguments, run the command and write its outputs, or its error
    line unless stderr is closed or cannot be written; returns the process
    exit code."""
    # bytes, so that stdin is decoded as UTF-8 whatever the locale
    stdin = getattr(sys.stdin, "buffer", sys.stdin) if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    try:
        with contextlib.ExitStack() as stack:
            try:
                ns = _build_parser().parse_args(argv)
            except _Help as exc:
                outputs = [(None, exc.args[0])]
            else:
                outputs = ns.handler(ns, functools.partial(_read_input, stdin=stdin),
                                     lambda: stack.enter_context(_staged()))
            _commit(outputs, stdout)
        return 0
    except (HoldscanError, _UsageError, OSError) as exc:
        if stderr is not None:  # None: the process was started with stderr closed
            with contextlib.suppress(OSError):
                stderr.write(f"error: {exc}\n")
        return 1 if isinstance(exc, HoldscanError) else 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
