"""Peak-RSS check: generate and pipeline memory do not grow with the recording.

``generate`` holds one block and ``pipeline`` one block and a few seconds of
samples, not the recording, so the peak RSS of each on a 10 h recording may
exceed that on a 1 h recording by 10% at most.  HOLDSCAN is the command that
runs holdscan, split into words (default: holdscan).  For example:

    python scripts/memory_checks.py
    PYTHONPATH=src HOLDSCAN="python -m holdscan.cli" python scripts/memory_checks.py

Exits 0 if neither grows, 1 if one does (or a run fails).
"""

import os
import subprocess
import sys
import tempfile

HOLDSCAN = os.environ.get("HOLDSCAN", "holdscan").split()


def peak_mb(argv):
    """Peak RSS of one holdscan run, in its own child process."""
    child = subprocess.Popen([*HOLDSCAN, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss / 1024


def main():
    grows = False
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (["pipeline", "--sample-rate-hz", "100"], ["generate", "-o", os.path.join(tmp, "w.csv")]):
            one, ten = (peak_mb([*argv, "--seed", "7", "--duration-s", str(seconds), "--hold", "100:2"])
                        for seconds in (3600, 36000))
            print(f"{argv[0]} peak RSS: 1 h {one:.1f} MB, 10 h {ten:.1f} MB")
            grows |= ten > 1.1 * one
    return int(grows)


if __name__ == "__main__":
    sys.exit(main())
