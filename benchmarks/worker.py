"""Run one workload in this process and print its measurements as one JSON line.

Started by ``run.py``, one process per workload, so that the peak resident
memory it reports belongs to that workload alone.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import holdscan  # noqa: E402  (must come from this checkout's src/)

from calibration import calibration_s, sampled_during  # noqa: E402
from spans import END, KIND, NAME, OP, PARENT, START, Tracer, self_times  # noqa: E402
from workloads import (RATE_HZ, WORKLOADS, Outcome, noise_free_probe, run_stages,  # noqa: E402
                       score_segments)

# After each operation the loop runs the workload's calibration routine for
# at least this share of the operation's time, unless the workload samples
# its calibration during the operation.  The mean operation time is divided
# by the mean calibration time over the run.
CAL_SHARE = 0.15

LAYERS = ("cli", "mockgen", "waveform", "scoring", "detection", "mechanics")
STAGES = ("generate", "score", "detect", "report")
# Span names whose median time per call is reported as <name>_s.
PER_CALL = ("waveform.load_csv", "waveform.to_csv", "waveform.validate",
            "scoring.write_trace_csv", "scoring.load_trace_csv", "scoring.score_series",
            "detection.detect_holds", "detection.write_ndjson", "detection.read_ndjson",
            "mockgen.generate")


def tail_percentile(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest listed percentile with >= 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = -(-n * pct // 100)  # nearest rank, 1-based
        if n - rank >= 10:
            return pct, ordered[int(rank) - 1]
    return None


def run_ops(workload, seconds: float, tracer: Tracer | None) -> tuple[list[dict], float, float]:
    """The closed measurement loop; with a tracer, every other operation is traced.

    A workload with a ``calibrate_during`` routine is calibrated by calls of
    it spread over each operation, whose time is then the operation's less
    theirs; the traced run calibrates after each operation, like the others.
    Returns the operations, the loop's wall time and the time spent calibrating.
    """
    sample = workload.calibrate_during is not None and tracer is None
    ops = []
    cal_spent = 0.0
    start = time.perf_counter()
    ref_rec = workload.reference_recording()
    for i, rec in enumerate(workload.specs()):
        traced = tracer is not None and i % 2 == 1
        calls = sampled_during(workload.calibrate_during) if sample else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with calls as samples:
                if traced:
                    with tracer.recording(i), tracer.span(*workload.op_span):
                        result = workload.run(rec)
                else:
                    result = workload.run(rec)
            elapsed = samples.block_s if sample else time.perf_counter() - t0
            outcome = workload.check(rec, result)
        except Exception as exc:  # counted as a failed, wrong operation; the run goes on
            elapsed = samples.block_s if sample else time.perf_counter() - t0
            traceback.print_exc()
            outcome = Outcome(ok=False, wrong=True, detected=[], note=f"raised {exc!r}")
        found, false = score_segments(outcome.detected, rec.truth)
        if sample:
            cal, spent = statistics.median(samples.times), sum(samples.times)
        else:
            cal, spent = calibration_s(workload.calibrate, CAL_SHARE * elapsed)
        cal_spent += spent
        ops.append({
            "i": i, "s": elapsed, "cal": cal, "traced": traced,
            "ref": rec == ref_rec, "samples": rec.samples,
            "holds": len(rec.holds), "ok": outcome.ok, "wrong": outcome.wrong,
            "found": found, "false": false, "segments": len(outcome.detected),
            "records": outcome.records, "unavailable": outcome.unavailable, "note": outcome.note,
        })
        if time.perf_counter() - start >= seconds:
            return ops, time.perf_counter() - start, cal_spent
    raise AssertionError("workload specs ended")


def end_to_end(ops: list[dict], wall_s: float, cal_spent: float,
               peak_rss_mb: float) -> tuple[dict, float | None]:
    """The end-to-end metrics, and the percentile op_tail_s stands for."""
    times = [o["s"] for o in ops]
    tail = tail_percentile(times)
    hours = sum(o["samples"] for o in ops) / RATE_HZ / 3600.0
    cal_s = statistics.mean(o["cal"] for o in ops)
    samples_per_s = sum(o["samples"] for o in ops if o["ok"]) / (wall_s - cal_spent)
    return {
        "op_p50_s": statistics.median(times),
        "op_mean_cal": statistics.mean(times) / cal_s,
        "op_tail_s": tail[1] if tail else None,
        "op_min_s": min(times),
        "samples_per_s": samples_per_s,
        "samples_per_cal": samples_per_s * cal_s,
        "cal_s": cal_s,
        "peak_rss_mb": peak_rss_mb,
        "hold_recall": sum(o["found"] for o in ops) / sum(o["holds"] for o in ops),
        "false_segments_per_h": sum(o["false"] for o in ops) / hours,
        "failed_ops_ratio": sum(not o["ok"] for o in ops) / len(ops),
    }, tail[0] if tail else None


def per_layer(ops: list[dict], spans: list[list], stage: dict) -> dict:
    """Per-layer metrics from the stage pass, the traced calls and the operations."""
    own = self_times(spans)
    staged = [i for i, s in enumerate(spans) if s[OP] == "stages"]
    stage_dur = {s[NAME]: s[END] - s[START] for s in (spans[i] for i in staged)
                 if s[NAME].startswith("cli.")}
    out = {f"cli.{name}_s": stage_dur[f"cli.{name}"] for name in STAGES}
    out["cli.text_share"] = (sum(own[i] for i in staged if spans[i][KIND] == "text")
                             / sum(stage_dur.values()))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(own[i] for i in staged
                                     if spans[i][NAME].split(".")[0] == layer)
    out["waveform.csv_bytes"] = stage["csv_bytes"]
    out["scoring.trace_csv_bytes"] = stage["trace_csv_bytes"]

    per_call = defaultdict(list)
    for s in spans:
        per_call[s[NAME]].append(s[END] - s[START])
    for name in PER_CALL:
        out[f"{name}_s"] = statistics.median(per_call[name]) if per_call[name] else 0.0
    summarize = per_call["detection.summarize"]
    out["detection.summarize_per_segment_ms"] = 1e3 * statistics.median(summarize) if summarize else 0.0

    traced = [o for o in ops if o["traced"]]
    by_op = defaultdict(list)
    for i, s in enumerate(spans):
        if s[OP] != "stages":
            by_op[s[OP]].append(i)

    def per_op(fn):
        return statistics.median(fn(by_op[o["i"]]) for o in traced) if traced else 0.0

    def total(idx, prefix):
        return sum(spans[i][END] - spans[i][START] for i in idx if spans[i][NAME].startswith(prefix))

    def calls(idx, name):
        return sum(spans[i][NAME] == name for i in idx)

    out["detection.summarize_s"] = per_op(lambda idx: total(idx, "detection.summarize"))
    out["mechanics.report_s"] = per_op(lambda idx: total(idx, "mechanics."))
    out["waveform.load_csv_per_op"] = per_op(lambda idx: calls(idx, "waveform.load_csv"))
    out["waveform.validate_per_op"] = per_op(lambda idx: calls(idx, "waveform.validate"))
    out["op.text_share"] = per_op(
        lambda idx: sum(own[i] for i in idx if spans[i][KIND] == "text")
        / sum(spans[i][END] - spans[i][START] for i in idx if spans[i][PARENT] is None))
    out["trace.spans_per_op"] = per_op(len)

    detected = sum(o["segments"] for o in ops)
    out["detection.precision"] = (detected - sum(o["false"] for o in ops)) / detected if detected else 0.0
    for key, metric in (("segments", "detection.segments"), ("records", "mechanics.records"),
                        ("unavailable", "mechanics.unavailable"), ("samples", "mockgen.samples"),
                        ("holds", "mockgen.holds")):
        out[metric] = statistics.median(o[key] for o in ops)
    untraced = [o["s"] for o in ops if not o["traced"]]
    out["trace.overhead_ratio"] = (statistics.median(o["s"] for o in traced) / statistics.median(untraced) - 1.0
                                   if traced and untraced else 0.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(holdscan.__file__).resolve().parents:
        print(f"holdscan was imported from {holdscan.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    ops, wall_s, cal_spent = run_ops(workload, args.seconds, tracer)
    # Read before the stage pass, so the peak is that of the operations.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The stage pass runs the four commands through files on the reference
    # recording, for the pipeline's reference output and the cli.* spans.
    stage = None
    out_dir = Path(args.out)
    if tracer is not None or workload.needs_stage_run:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            with tracer.recording("stages") if tracer else contextlib.nullcontext():
                stage = run_stages(workload.reference_recording(), Path(tmp), tracer)
    if workload.needs_stage_run:
        problem = workload.compare_reference(stage["report"])
        for o in ops:
            if problem and o["ref"] and o["ok"]:
                o.update(ok=False, wrong=True, note=problem)

    # The traced run also runs the noise-free recordings of batch_90s, so
    # that the program's failures on clean holds show as a per-layer metric.
    probe = noise_free_probe(args.seed) if tracer is not None else []

    result = {
        "attempted": len(ops),
        "failed": sum(not o["ok"] for o in ops),
        "correct": not any(o["wrong"] for o in ops) and not any(o.wrong for o in probe),
        "wall_s": wall_s,
        "recording_samples": ops[0]["samples"],
        # t, flow, pressure and volume as float64
        "recording_array_bytes": ops[0]["samples"] * 4 * 8,
        "recording_csv_bytes": stage["csv_bytes"] if stage else None,
        "failures": sorted({o["note"] for o in ops if not o["ok"]}),
        "op_s": [o["s"] for o in ops],
        "op_cal_s": [o["cal"] for o in ops],
    }
    if tracer is None:
        result["metrics"], result["op_tail_percentile"] = end_to_end(ops, wall_s, cal_spent, peak_rss_mb)
    else:
        result["metrics"] = per_layer(ops, tracer.spans, stage)
        result["metrics"]["detection.noise_free_failed_ratio"] = sum(not o.ok for o in probe) / len(probe)
        result["noise_free_failures"] = sorted({o.note for o in probe if not o.ok})
        spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.ndjson"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
