"""The output bytes of ``generate`` and ``pipeline``, pinned by their sha256 digests.

The whole-array oracles of the generator share its kernels (SplitMix64,
Box-Muller), so a change that moves a bit there moves both sides of those
tests alike; these digests do not move with it.  They were recorded from the
code as it was before the generator's kernels and the block pass were
computed in place, and the commands' text never changed since.  The entry
with 50 holds was recorded from the code as it was before the per-hold
statistics (window means, extrema, the PEEP percentile) called numpy's
primitives in place of its wrappers.
"""

import hashlib
import io

import pytest

from holdscan.cli import run

# argv -> digests of: generate's CSV (also what --save-waveform writes),
# pipeline's report on stdout, --save-trace and --save-segments
PINNED = {
    "--seed 7 --duration-s 600 --hold 100:2": (
        "7ee618b7826222c847eafddf2d1c8bf9fbbfbbd6f778a50f54f5f3e5acdf7302",
        "838137deac1cf4d02c3a082e013477ec04e0349086f9bf331b52b60b0744b3c3",
        "7dc8acf6e8d31964f0914525858103bf2708615115b74b3b969e2ac78f1301e2",
        "5c3ade058219d2b7ac9361182b699d9709a70bcb538ccff5d32e5e3fce3878f9",
    ),
    "--seed 11 --duration-s 140 --sample-rate-hz 250 --hold 64.5:2 --hold 130.5:1.5": (
        "dd3d08dad1c0fe805a1832723ea800ae33a6cbc9e4a7b1ab48d4d1a90071144f",
        "85ac6ba4a8ae2024ca7f9b7a73f1b5c646feb0d1e2af777091bb674f35831a84",
        "a98674f92ecd64a5e9d066df2ceb88d40082b61b32742fc1ff049394e6d7a211",
        "a3420a087d6838a66ec625323546178d9400e38da9a8e2dda91346186bc12167",
    ),
    "--seed 13 --duration-s 400 --hold 162:1.82 --hold 163.87:1.5 --hold 167:2 --hold 330:2": (
        "b93bce82cffecaa8bbfad002ec642410a5ec1f2ee45f9d0e35ff8448ceee2c52",
        "2165108432555eabd994d652d7e4e6e73609261b7947aeb10c4cbf0e32e7d8e7",
        "3fec4a74adbbe07735ef9b7a1593e4d6fd7ba2068e933b5e9ad8eff9f4ce7c26",
        "77ee253dc27b309f35b303f2d081f9268624ec38e2b78365737ddcfb8034eadf",
    ),
    # 9-digit timestamps at a rate without a short decimal spacing
    "--seed 5 --duration-s 97 --sample-rate-hz 7.3 --hold 30:3": (
        "ee9a675644d698f77c57eee3f1584b55cc39358ef318cad2923bde1a60ca1ab6",
        "9df0f465e0cae5f26c81e4f66813f6623f6166956b1c8bec6e6abc8877ec9330",
        "37211ca0264e9dbd63364202bcf94796c0329b5a011c40b10c462308133f1d7f",
        "79cb8614f3e5a1c277d1d40555476232aef570c2a90c4a536c17b964fedd106b",
    ),
}
# 50 holds of 2 to 3 s, one every 12 s: the per-hold statistics (means,
# extrema, the PEEP percentile) on many segments
DENSE = "--seed 17 --duration-s 600 " + " ".join(
    f"--hold {12 * k + 5}:{2 + k % 3 * 0.5}" for k in range(50))
PINNED[DENSE] = (
    "1b827b2cbb4fcb068f1ab369e60e07c6bbd836852723727c4c0d5af9262d5c9b",
    "b650cc42c7e64d9c724082e8f31040de350821be2b33b13043d9ab598bc25e1a",
    "1ccdaebb2538a16884e862236b6a4967638126a645ef5a699dc0cb417219c89f",
    "6c6d1f54dd08f33aeeed6c5b3579f77112b6a4fc5672164d4dcc2dffd2102ebb",
)


def _id(gen):
    return "--seed 17 --duration-s 600, 50 holds every 12 s" if gen == DENSE else None


def _stdout(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, stdin=io.StringIO(), stdout=out, stderr=err) == 0, err.getvalue()
    return out.getvalue().encode()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("gen", PINNED, ids=_id)
def test_digests(tmp_path, gen):
    waveform, report, trace, segments = PINNED[gen]
    argv = gen.split()
    assert _sha256(_stdout(["generate", *argv])) == waveform
    saves = {name: tmp_path / name for name in ("w.csv", "t.csv", "s.ndjson")}
    got = _stdout(["pipeline", *argv, "--save-waveform", str(saves["w.csv"]),
                   "--save-trace", str(saves["t.csv"]), "--save-segments", str(saves["s.ndjson"])])
    assert _sha256(got) == report
    assert _sha256(saves["w.csv"].read_bytes()) == waveform
    assert _sha256(saves["t.csv"].read_bytes()) == trace
    assert _sha256(saves["s.ndjson"].read_bytes()) == segments


@pytest.mark.parametrize("gen", PINNED, ids=_id)
def test_report_digest_without_saves(gen):
    # without --save-trace, pipeline scores the values as generated and reads
    # back flow and pressure only near a threshold; the report is the same
    assert _sha256(_stdout(["pipeline", *gen.split()])) == PINNED[gen][1]
