"""Reproduce the synthetic hold-detection experiment over many seeds.

For each seed: generate the default 90 s recording with one 2 s hold at 45 s,
score it, detect holds, and compare the detected boundaries against ground
truth.  Prints a per-seed table and aggregate hit statistics.

Usage:
    python3 scripts/run_mock_experiment.py --seeds 100
"""

import argparse
import sys
import time

import numpy as np

from holdscan import DetectionConfig, MockConfig, detect_holds, generate_mock_waveform, score_series
from hits import boundary_errors, false_segments, is_exact_hit

DEFAULT_SEEDS = 100
DEFAULT_FIRST_SEED = 1
DEFAULT_TOLERANCE_S = 0.2
DEFAULT_FALSE_MARGIN_S = 0.5


def run_one(seed):
    w, truth = generate_mock_waveform(MockConfig(rng_seed=seed))
    segments = detect_holds(score_series(w), DetectionConfig())
    return segments, truth.hold_segments[0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=DEFAULT_SEEDS,
                    help="number of consecutive seeds to run (default %(default)s)")
    ap.add_argument("--first-seed", type=int, default=DEFAULT_FIRST_SEED,
                    help="first seed (default %(default)s)")
    ap.add_argument("--tolerance-s", type=float, default=DEFAULT_TOLERANCE_S,
                    help="boundary tolerance for an exact hit, seconds (default %(default)s)")
    ap.add_argument("--false-margin-s", type=float, default=DEFAULT_FALSE_MARGIN_S,
                    help="segments outside truth +/- this margin count as false (default %(default)s)")
    ap.add_argument("--quiet", action="store_true", help="suppress the per-seed table")
    args = ap.parse_args(argv)

    exact = 0
    clean = 0
    errors = []
    t0 = time.perf_counter()
    if not args.quiet:
        print(f"{'seed':>6} {'n':>3} {'start_s':>9} {'end_s':>9} {'err_start':>9} {'err_end':>9}")
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        segments, truth = run_one(seed)
        true_start, true_end = truth
        hit = is_exact_hit(segments, truth, args.tolerance_s)
        exact += hit
        clean += not false_segments(segments, truth, args.false_margin_s)
        if hit:
            errors.extend(boundary_errors(segments[0], truth))
        if not args.quiet:
            if segments:
                s = segments[0]
                print(f"{seed:>6} {len(segments):>3} {s.start_s:>9.2f} {s.end_s:>9.2f} "
                      f"{s.start_s - true_start:>9.3f} {s.end_s - true_end:>9.3f}")
            else:
                print(f"{seed:>6} {len(segments):>3} {'-':>9} {'-':>9} {'-':>9} {'-':>9}")
    elapsed = time.perf_counter() - t0

    errs = np.array(errors) if errors else np.array([np.nan])
    print()
    print(f"seeds run            : {args.seeds}")
    print(f"exact hits (+/-{args.tolerance_s} s) : {exact}/{args.seeds}")
    print(f"false-segment-free   : {clean}/{args.seeds}")
    print(f"boundary error mean  : {np.nanmean(errs):.4f} s")
    print(f"boundary error max   : {np.nanmax(errs):.4f} s")
    print(f"elapsed              : {elapsed:.2f} s")
    return 0 if (exact >= 0.95 * args.seeds and clean >= 0.95 * args.seeds) else 1


if __name__ == "__main__":
    sys.exit(main())
