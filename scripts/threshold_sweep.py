"""Sweep the detection on-threshold and tabulate hit quality per setting.

The off-threshold tracks the on-threshold at a fixed hysteresis gap.  For
each threshold the default mock experiment runs over a block of seeds;
the table reports exact-hit rate, false-segment rate, and mean boundary
error, which is how the default of -10 nats was chosen.

Usage:
    python3 scripts/threshold_sweep.py --seeds 30
"""

import argparse
import sys
import time

import numpy as np

from holdscan import DetectionConfig, MockConfig, detect_holds, generate_mock_waveform, score_series
from hits import boundary_errors, false_segments, is_exact_hit

DEFAULT_THRESHOLDS = (-20.0, -18.0, -16.0, -14.0, -12.0, -10.0, -8.0, -6.0, -4.0)
DEFAULT_HYSTERESIS = 4.0
DEFAULT_SEEDS = 30
DEFAULT_FIRST_SEED = 1
DEFAULT_TOLERANCE_S = 0.2
DEFAULT_FALSE_MARGIN_S = 0.5


def sweep_point(on, hysteresis, tolerance_s, false_margin_s, traces):
    cfg = DetectionConfig(log_threshold_on=on, log_threshold_off=on - hysteresis)
    exact = 0
    false_runs = 0
    errors = []
    for trace, truth in traces:
        segments = detect_holds(trace, cfg)
        if is_exact_hit(segments, truth, tolerance_s):
            exact += 1
            errors.extend(boundary_errors(segments[0], truth))
        false_runs += bool(false_segments(segments, truth, false_margin_s))
    mean_err = float(np.mean(errors)) if errors else float("nan")
    return exact, false_runs, mean_err


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--thresholds", type=float, nargs="+", default=list(DEFAULT_THRESHOLDS),
                    help="on-thresholds to sweep, nats (default %(default)s)")
    ap.add_argument("--hysteresis", type=float, default=DEFAULT_HYSTERESIS,
                    help="on-minus-off gap, nats (default %(default)s)")
    ap.add_argument("--seeds", type=int, default=DEFAULT_SEEDS,
                    help="seeds per threshold (default %(default)s)")
    ap.add_argument("--first-seed", type=int, default=DEFAULT_FIRST_SEED,
                    help="first seed (default %(default)s)")
    ap.add_argument("--tolerance-s", type=float, default=DEFAULT_TOLERANCE_S,
                    help="boundary tolerance for an exact hit, seconds (default %(default)s)")
    ap.add_argument("--false-margin-s", type=float, default=DEFAULT_FALSE_MARGIN_S,
                    help="segments outside truth +/- this margin count as false (default %(default)s)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    # score once per seed; the sweep only re-runs the cheap detector
    traces = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        w, truth = generate_mock_waveform(MockConfig(rng_seed=seed))
        traces.append((score_series(w), truth.hold_segments[0]))

    print(f"{'on':>7} {'off':>7} {'exact':>9} {'false_runs':>10} {'mean_err_s':>10}")
    for on in args.thresholds:
        exact, false_runs, mean_err = sweep_point(
            on, args.hysteresis, args.tolerance_s, args.false_margin_s, traces,
        )
        print(f"{on:>7.1f} {on - args.hysteresis:>7.1f} {exact:>6}/{args.seeds:<2} "
              f"{false_runs:>10} {mean_err:>10.4f}")
    print(f"\nelapsed: {time.perf_counter() - t0:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
