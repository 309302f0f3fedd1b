"""Memory checks: the commands do not grow with the recording, and the library chain holds only what it returns.

``generate`` holds one block and ``pipeline`` one block and a few seconds of
samples, not the recording, so the peak RSS of each on a 10 h recording may
exceed that on a 1 h recording by 10% at most.  HOLDSCAN is the command that
runs holdscan, split into words (default: holdscan).

The library chain ``generate_mock_waveform`` -> ``score_series`` ->
``detect_holds`` computes in blocks, so on 1 h and on 10 h its traced peak
(``tracemalloc``, in this process) may be at most the arrays it returns (the
waveform's four channels and the log-scores, 5 floats a sample), one channel
more (``ScoreTrace`` copies its log-scores) and 4 MB.  For example:

    python scripts/memory_checks.py
    PYTHONPATH=src HOLDSCAN="python -m holdscan.cli" python scripts/memory_checks.py

Exits 0 if every check holds, 1 if one does not (or a run fails).
"""

import os
import subprocess
import sys
import tempfile
import tracemalloc

HOLDSCAN = os.environ.get("HOLDSCAN", "holdscan").split()


def peak_mb(argv):
    """Peak RSS of one holdscan run, in its own child process."""
    child = subprocess.Popen([*HOLDSCAN, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss / 1024


def library_peak_mb(seconds):
    """Traced peak of the library chain on a recording, and its bound, in MB."""
    from holdscan import MockConfig, detect_holds, generate_mock_waveform, score_series

    tracemalloc.start()
    w, _ = generate_mock_waveform(MockConfig(duration_s=seconds, holds=((100.0, 2.0),), rng_seed=7))
    trace = score_series(w)
    detect_holds(trace)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1e6, (6 * 8 * len(w) + 4e6) / 1e6


def main():
    grows = False
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (["pipeline", "--sample-rate-hz", "100"], ["generate", "-o", os.path.join(tmp, "w.csv")]):
            one, ten = (peak_mb([*argv, "--seed", "7", "--duration-s", str(seconds), "--hold", "100:2"])
                        for seconds in (3600, 36000))
            print(f"{argv[0]} peak RSS: 1 h {one:.1f} MB, 10 h {ten:.1f} MB")
            grows |= ten > 1.1 * one
    # after the children: a child's peak RSS counts this process's memory at its start
    for seconds in (3600, 36000):
        peak, bound = library_peak_mb(seconds)
        print(f"library chain traced peak: {seconds // 3600} h {peak:.1f} MB (bound {bound:.1f} MB)")
        grows |= peak > bound
    return int(grows)


if __name__ == "__main__":
    sys.exit(main())
