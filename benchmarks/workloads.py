"""The benchmark's workloads: inputs made from a seed, one operation, its check.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned and been checked.  The program sees only
the recordings (library calls) or the command-line arguments (CLI calls)
built here; the seed itself never reaches it.

- ``pipeline_1h``: ``holdscan pipeline`` on a 1 h recording at 100 Hz with a
  2 s hold every 300 s.  The CLI text layer (CSV written once, parsed three
  times) is almost all of its time.
- ``library_dense_1h``: the library chain generate -> score -> detect ->
  summarize -> mechanics on a 1 h recording with a 2 s hold every 12 s, with
  no text at all.  Per-segment numeric work dominates; a change to the text
  layer should leave it unchanged.
- ``batch_90s``: many 90 s recordings, one ``holdscan pipeline`` per
  recording, with hold start and length (0.5 to 5.9 s) varying.  Fixed
  per-call cost (argument parsing, config validation) weighs most here, and
  it is the only workload with enough operations for a tail percentile.

Every fifth recording of the ``batch_90s`` stream is noise-free.  At the
parent commit of the benchmark the program fails on most of them, and a
timed workload has to be one on which no operation fails, so the timed loop
runs the noisy recordings and the first ``NOISE_FREE_PROBE`` noise-free ones
are run apart from it (:func:`noise_free_probe`).  Their failures are counted
there, the same for a given seed on every run.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from calibration import calibrate_arrays, calibrate_text, calibrate_text_short
from holdscan import cli, detection, mechanics, mockgen, scoring
from holdscan.errors import HoldscanError

RATE_HZ = 100
# A true hold is found when one detected segment is within this of both of
# its ends (the rule of scripts/run_mock_experiment.py).
HIT_TOLERANCE_S = 0.2
# A detected segment is false when it lies outside every true hold +/- this.
FALSE_MARGIN_S = 0.5

# Noise-free recordings of the batch_90s stream run by noise_free_probe().
NOISE_FREE_PROBE = 55

# Keys every report record carries (the mechanics values may be absent and
# are then listed under "unavailable").
REPORT_KEYS = {"start_s", "end_s", "start_index", "end_index",
               "plateau_pressure_cmh2o", "peep_cmh2o", "note"}


@dataclass(frozen=True)
class Recording:
    """One synthetic recording, described the way the CLI is told about it."""

    rng_seed: int
    duration_s: float
    holds: tuple[tuple[float, float], ...]  # (start_s, duration_s)
    noise_free: bool = False

    @property
    def samples(self) -> int:
        return int(round(self.duration_s * RATE_HZ))

    @property
    def truth(self) -> tuple[tuple[float, float], ...]:
        return tuple(sorted((s, s + d) for s, d in self.holds))

    def cli_args(self) -> list[str]:
        args = ["--seed", str(self.rng_seed), "--duration-s", repr(self.duration_s)]
        for start, dur in self.holds:
            args += ["--hold", f"{start!r}:{dur!r}"]
        if self.noise_free:
            args += ["--noise-sd-flow", "0", "--noise-sd-pressure", "0"]
        return args

    def mock_config(self) -> mockgen.MockConfig:
        noise = {"noise_sd_flow": 0.0, "noise_sd_pressure": 0.0} if self.noise_free else {}
        return mockgen.MockConfig(duration_s=self.duration_s, holds=self.holds,
                                  rng_seed=self.rng_seed, **noise)


@dataclass
class Outcome:
    """What the check of one operation found."""

    ok: bool  # the operation succeeded and its output passed the check
    wrong: bool  # wrong output, or a failure outside the documented error path
    detected: list  # (start_s, end_s) of every detected segment
    records: int = 0  # mechanics records produced
    unavailable: int = 0  # records with at least one mechanics value missing
    note: str = ""


def score_segments(detected, truth) -> tuple[int, int]:
    """(true holds found, detected segments outside every true hold)."""
    detected = sorted(detected)
    starts = [s for s, _ in detected]
    found = 0
    for ts, te in truth:
        lo = bisect.bisect_left(starts, ts - HIT_TOLERANCE_S)
        hi = bisect.bisect_right(starts, ts + HIT_TOLERANCE_S)
        found += any(abs(e - te) <= HIT_TOLERANCE_S for _, e in detected[lo:hi])
    truth_starts = [ts - FALSE_MARGIN_S for ts, _ in truth]
    false = 0
    for s, e in detected:
        # Truths are sorted and disjoint, so only the last one opening before
        # the segment can contain it.
        i = bisect.bisect_right(truth_starts, s) - 1
        false += i < 0 or e > truth[i][1] + FALSE_MARGIN_S
    return found, false


def _spaced_holds(rng, count, period_s, duration_s, earliest_s, latest_s):
    """One hold per period, starting at a random offset within the period."""
    return tuple((period_s * k + round(rng.uniform(earliest_s, latest_s), 2), duration_s)
                 for k in range(count))


def run_stages(rec: Recording, workdir: Path, tracer=None) -> dict:
    """Run generate, score, detect and report as four commands through files.

    With a tracer, each command is recorded as a ``cli.<command>`` span.
    Returns the report text and the sizes of the intermediate files.
    """
    wave, gt, trace, seg, rep = (str(workdir / n) for n in
                                 ("wave.csv", "truth.ndjson", "trace.csv", "seg.ndjson", "report.ndjson"))
    stages = [
        ("generate", ["generate", *rec.cli_args(), "-o", wave, "--ground-truth", gt]),
        ("score", ["score", wave, "-o", trace]),
        ("detect", ["detect", trace, "--waveform", wave, "-o", seg]),
        ("report", ["report", wave, "--segments", seg, "-o", rep]),
    ]
    for name, argv in stages:
        err = io.StringIO()
        with tracer.span(f"cli.{name}", "text") if tracer else contextlib.nullcontext():
            code = cli.run(argv, stdout=io.StringIO(), stderr=err)
        if code != 0:
            raise RuntimeError(f"holdscan {name} exited {code}: {err.getvalue().strip()}")
    return {
        "report": Path(rep).read_text(encoding="utf-8"),
        "csv_bytes": Path(wave).stat().st_size,
        "trace_csv_bytes": Path(trace).stat().st_size,
    }


def _check_report(text: str, rec: Recording) -> tuple[list, int, str]:
    """Parse a report; returns (segments, unavailable count, problem or "")."""
    detected, unavailable = [], 0
    last_end = 0.0
    for line in text.splitlines():
        r = json.loads(line)
        if not REPORT_KEYS <= set(r):
            return detected, unavailable, f"report record lacks {sorted(REPORT_KEYS - set(r))}"
        if not (last_end <= r["start_s"] < r["end_s"] <= rec.duration_s):
            return detected, unavailable, f"segment {r['start_s']}..{r['end_s']} out of order"
        if r["start_index"] != round(r["start_s"] * RATE_HZ):
            return detected, unavailable, "start_index does not match start_s"
        last_end = r["end_s"]
        detected.append((r["start_s"], r["end_s"]))
        unavailable += "unavailable" in r
    return detected, unavailable, ""


class CliWorkload:
    """One ``holdscan pipeline`` call per recording, report to memory.

    The reports on the reference recording must be identical, and after the
    measurement loop the first of them must equal the report of the four
    commands run through files (:meth:`compare_reference`).
    """

    op_span = ("cli.pipeline", "text")
    needs_stage_run = True
    calibrate = staticmethod(calibrate_text)  # the operation is text work

    def __init__(self, recordings, calibrate_during=None):
        self._recordings = recordings
        self.calibrate_during = calibrate_during
        self._reference_rec = next(iter(recordings()))
        self._first_report: str | None = None

    def specs(self):
        return self._recordings()

    def reference_recording(self) -> Recording:
        """The first recording."""
        return self._reference_rec

    def compare_reference(self, stage_report: str) -> str:
        """The problem with the pipeline's reference report, or ""."""
        if self._first_report is not None and self._first_report != stage_report:
            return "pipeline report differs from the four commands run through files"
        return ""

    def run(self, rec: Recording):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(["pipeline", *rec.cli_args()], stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def check(self, rec: Recording, result) -> Outcome:
        code, out, err = result
        if code != 0:
            # The documented failure: exit 1 and one "error:" line on stderr.
            documented = code == 1 and not out and err.startswith("error: ") and err.count("\n") == 1
            return Outcome(ok=False, wrong=not documented, detected=[], note=err.strip())
        detected, unavailable, problem = _check_report(out, rec)
        if not problem and rec == self._reference_rec:
            if self._first_report is None:
                self._first_report = out
            elif out != self._first_report:
                problem = "pipeline report differs between operations"
        return Outcome(ok=not problem, wrong=bool(problem), detected=detected,
                       records=len(detected), unavailable=unavailable, note=problem)


def pipeline_1h(seed: int) -> CliWorkload:
    rng = random.Random(f"pipeline_1h:{seed}")
    rec = Recording(rng_seed=rng.getrandbits(32), duration_s=3600.0,
                    holds=_spaced_holds(rng, 12, 300.0, 2.0, 20.0, 270.0))
    # An operation takes seconds, over which the host's speed changes.
    return CliWorkload(lambda: itertools.repeat(rec), calibrate_during=calibrate_text_short)


def _batch_stream(seed: int):
    """The batch_90s recordings, every fifth of them noise-free."""
    rng = random.Random(f"batch_90s:{seed}")
    for i in itertools.count():
        length = rng.randint(5, 59) / 10
        start = round(rng.uniform(10.0, 85.0 - length), 1)
        yield Recording(rng_seed=rng.getrandbits(32), duration_s=90.0,
                        holds=((start, length),), noise_free=i % 5 == 4)


def batch_90s(seed: int) -> CliWorkload:
    return CliWorkload(lambda: (r for r in _batch_stream(seed) if not r.noise_free))


def noise_free_probe(seed: int) -> list[Outcome]:
    """The outcome of ``holdscan pipeline`` on each of the first noise-free
    recordings of the batch_90s stream; not timed."""
    recs = list(itertools.islice((r for r in _batch_stream(seed) if r.noise_free), NOISE_FREE_PROBE))
    probe = CliWorkload(lambda: iter(recs))
    return [probe.check(rec, probe.run(rec)) for rec in recs]


class LibraryWorkload:
    """The library chain, no text: generate, score, detect, summarize, mechanics.

    Every operation's output must be identical to the first one's.
    """

    op_span = ("library.chain", "numeric")
    needs_stage_run = False
    calibrate = staticmethod(calibrate_arrays)  # mostly elementwise passes over the recording
    calibrate_during = None

    def __init__(self, rec: Recording):
        self._rec = rec
        self._reference: bytes | None = None

    def specs(self):
        return itertools.repeat(self._rec)

    def reference_recording(self) -> Recording:
        return self._rec

    def run(self, rec: Recording):
        w, truth = mockgen.generate_mock_waveform(rec.mock_config())
        trace = scoring.score_series(w)
        summaries = [detection.summarize_segment(w, seg) for seg in detection.detect_holds(trace)]
        return summaries, [_mechanics(w, s) for s in summaries]

    @staticmethod
    def _serialize(result) -> bytes:
        summaries, mech = result
        buf = io.StringIO()
        detection.write_segments_ndjson([detection.segment_record(s) for s in summaries], buf)
        buf.writelines(json.dumps(m) + "\n" for m in mech)
        return buf.getvalue().encode("utf-8")

    def check(self, rec: Recording, result) -> Outcome:
        summaries, mech = result
        out = self._serialize(result)
        if self._reference is None:
            self._reference = out
        same = out == self._reference
        return Outcome(ok=same, wrong=not same,
                       detected=[(s.segment.start_s, s.segment.end_s) for s in summaries],
                       records=len(mech),
                       unavailable=sum(None in m.values() for m in mech),
                       note="" if same else "segment NDJSON differs from the first operation")


def _mechanics(w, summary) -> dict:
    """Mechanics of one segment from the public mechanics helpers."""
    start = summary.segment.start_index
    out = {
        "peak_pressure": mechanics.peak_pressure_before(w, start),
        "peep": mechanics.peep_estimate(w, start),
        "tidal_volume": mechanics.tidal_volume_before(w, start),
        "end_inspiratory_flow": mechanics.last_positive_flow_before(w, start),
        "compliance": None,
        "resistance": None,
    }
    if None in (out["peak_pressure"], out["tidal_volume"], out["end_inspiratory_flow"]):
        return out
    inputs = mechanics.MechanicsInput(plateau_pressure=summary.mean_pressure, **{
        k: out[k] for k in ("peak_pressure", "peep", "tidal_volume", "end_inspiratory_flow")})
    for key, estimate in (("compliance", mechanics.estimate_compliance),
                          ("resistance", mechanics.estimate_resistance)):
        try:
            out[key] = estimate(inputs)
        except HoldscanError:
            pass
    return out


def library_dense_1h(seed: int) -> LibraryWorkload:
    rng = random.Random(f"library_dense_1h:{seed}")
    return LibraryWorkload(Recording(rng_seed=rng.getrandbits(32), duration_s=3600.0,
                                     holds=_spaced_holds(rng, 300, 12.0, 2.0, 1.0, 9.0)))


WORKLOADS = {
    "pipeline_1h": pipeline_1h,
    "library_dense_1h": library_dense_1h,
    "batch_90s": batch_90s,
}
