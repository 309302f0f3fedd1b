"""holdscan benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 benchmarks/run.py --workload pipeline_1h --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --trace 1

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Workloads are described in ``workloads.py``.  The default seed is 1; use
seed 2 to confirm a claimed gain on a seed the change was not tuned on.

For each workload this prints every metric with its unit and the provenance
record, writes both to ``.bench_out/BENCH_<workload>_seed<n>_<mode>.json``
at the root of the checkout, and prints as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
metrics in that line are the ones ``BENCHMARK.json`` lists: its
``end_to_end`` metrics with ``--trace 0``, its ``per_layer`` ones with
``--trace 1``.

Each workload runs in one worker process (``worker.py``), one operation at a
time.  Set-up time is measured here, once per invocation, over fresh
interpreters started half before the workers and half after them: the wall
time from start until ``holdscan.cli`` is imported and has parsed a command
line, which every ``holdscan`` invocation pays.  Each is followed by a fresh
interpreter that only imports numpy, and ``setup_s`` is the median ratio of
the two times, read as seconds on a host where importing numpy takes
NUMPY_IMPORT_REFERENCE_S.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("pipeline_1h", "library_dense_1h", "batch_90s")

# A worker must end within this many seconds; with the set-up runs, a run
# of one workload then ends within 180 s.
WORKER_TIMEOUT_S = 160.0
# The longest measurement that leaves time within WORKER_TIMEOUT_S for the
# stage pass and the last operation.
MAX_SECONDS = 60
SETUP_RUNS = 6  # pairs of interpreters before the workers, and as many after them
# Each child reports the wall time from just before it was started until it
# is set up, so interpreter teardown and the wait for exit are not counted.
SETUP_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[2]); "
                 "import holdscan.cli; holdscan.cli.run(['--help']); "
                 "print(time.time() - float(sys.argv[1]))")
# Set-up of a fresh interpreter is mostly mapping and loading numpy, and on a
# shared host its time moves by up to 1.7x between spells of minutes, which
# calibrate_text() does not track.  The time of a fresh interpreter importing
# numpy alone, started right after, does; holdscan's set-up is divided by it.
NUMPY_SNIPPET = "import sys, time; import numpy; print(time.time() - float(sys.argv[1]))"
# Importing numpy took 0.10 to 0.21 s on the 2-vCPU Xeon host the benchmark
# was built on, depending on the spell; this is a round figure in that range.
NUMPY_IMPORT_REFERENCE_S = 0.13

# Units of the end-to-end metrics that are printed but not listed in
# BENCHMARK.json; the listed ones take their units from there.
EXTRA_UNITS = {
    "setup_raw_s": "s",
    "numpy_import_s": "s",
    "op_p50_s": "s",
    "samples_per_s": "samples/s",
    "samples_per_cal": "samples/cal",
    "cal_s": "s",
    "op_tail_s": "s",
    "op_min_s": "s",
    "false_segments_per_h": "1/h",
    "failed_ops_ratio": "ratio",
}


def time_child(snippet: str) -> float:
    """The time a fresh interpreter running ``snippet`` prints last."""
    argv = [sys.executable, "-c", snippet, repr(time.time()), str(SRC)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=True, timeout=60)
    return float(proc.stdout.splitlines()[-1])  # after the help text


def time_setup(runs: int) -> list[tuple[float, float]]:
    """(holdscan set-up, numpy import) wall times of ``runs`` pairs of fresh interpreters."""
    return [(time_child(SETUP_SNIPPET), time_child(NUMPY_SNIPPET)) for _ in range(runs)]


def git_sha() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, workload: str, result: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "recording_samples": result["recording_samples"],
        "recording_array_bytes": result["recording_array_bytes"],
        "recording_csv_bytes": result["recording_csv_bytes"],
    }


def run_worker(args, workload: str) -> dict | None:
    """The worker's result for one workload; None, with a message, if it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def report(args, workload: str, result: dict, setup: dict[str, float], wanted: list[str],
           units: dict[str, str]) -> int:
    """Print one workload's metrics and result line, and write its record."""
    metrics = setup | result.pop("metrics")

    missing = [name for name in wanted if metrics.get(name) is None]
    if missing:
        print(f"{workload}: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    record = {
        "provenance": provenance(args, workload, result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "failures": result["failures"],
        "op_s": result["op_s"],
        "op_cal_s": result["op_cal_s"],
        "setup_runs_s": result["setup_runs_s"],  # (holdscan set-up, numpy import) pairs
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    if not args.trace:
        record["op_tail"] = {"percentile": result["op_tail_percentile"], "ops": result["attempted"]}
    else:
        record["spans_file"] = result["spans_file"]
        record["noise_free_failures"] = result["noise_free_failures"]
    mode = "trace" if args.trace else "e2e"
    (OUT / f"BENCH_{workload}_seed{args.seed}_{mode}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"== {workload} seed {args.seed} ({mode}): {result['attempted']} ops, "
          f"{result['failed']} failed, output {'correct' if result['correct'] else 'WRONG'}")
    for reason in result["failures"]:
        print(f"   failure: {reason}")
    for reason in record.get("noise_free_failures", []):
        print(f"   noise-free recordings, failure: {reason}")
    for name, m in record["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        extra = ""
        if name == "op_tail_s":
            tail = record["op_tail"]
            extra = (f"  (p{tail['percentile']:g} of {tail['ops']} ops)" if tail["percentile"]
                     else f"  ({tail['ops']} ops: too few for a percentile with 10 beyond it)")
        print(f"   {name:<36} {value:>14} {m['unit']}{extra}")
    print("   provenance " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: record["metrics"][name] for name in wanted},
    }))
    sys.stdout.flush()
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="measurement time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "holdscan" / "cli.py").is_file():
        print(f"no holdscan sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not 1 <= args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be from 1 to {MAX_SECONDS}")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = EXTRA_UNITS | {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT.mkdir(exist_ok=True)
    setup_times = []
    if not args.trace:
        time_setup(1)  # writes the bytecode caches; not counted
        setup_times = time_setup(SETUP_RUNS)
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        results[workload] = run_worker(args, workload)
        if results[workload] is None:
            return 1
    setup = {}
    if not args.trace:
        # Half the set-up runs after the workers, so that a slow spell of a
        # shared host weighs on fewer of them.
        setup_times += time_setup(SETUP_RUNS)
        setup = {"setup_s": NUMPY_IMPORT_REFERENCE_S * statistics.median(t / ref for t, ref in setup_times),
                 "setup_raw_s": statistics.median(t for t, _ in setup_times),
                 "numpy_import_s": statistics.median(ref for _, ref in setup_times)}
    for workload, result in results.items():
        result["setup_runs_s"] = setup_times
        if report(args, workload, result, setup, wanted, units):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
