import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import run_mock_experiment  # noqa: E402
import threshold_sweep  # noqa: E402
from hits import false_segments, is_exact_hit  # noqa: E402


def seg(start_s, end_s):
    return SimpleNamespace(start_s=start_s, end_s=end_s)


class TestHits:
    def test_exact_hit_needs_one_segment_within_tolerance(self):
        truth = (45.0, 47.0)
        assert is_exact_hit([seg(45.1, 46.9)], truth, 0.2)
        assert not is_exact_hit([seg(45.3, 47.0)], truth, 0.2)
        assert not is_exact_hit([seg(45.0, 47.0), seg(60.0, 61.0)], truth, 0.2)
        assert not is_exact_hit([], truth, 0.2)

    def test_false_segments_reach_outside_the_margin(self):
        inside, outside = seg(44.5, 47.5), seg(44.4, 46.0)
        assert false_segments([inside, outside], (45.0, 47.0), 0.5) == [outside]


class TestScripts:
    def test_mock_experiment(self, capsys):
        assert run_mock_experiment.main(["--seeds", "3", "--quiet"]) == 0
        assert "exact hits (+/-0.2 s) : 3/3" in capsys.readouterr().out

    def test_threshold_sweep(self, capsys):
        assert threshold_sweep.main(["--seeds", "2", "--thresholds", "-10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["on", "off", "exact", "false_runs", "mean_err_s"]
        rows = [line for line in lines[1:] if line.strip() and not line.startswith("elapsed")]
        assert [row.split()[:3] for row in rows] == [["-10.0", "-14.0", "2/2"]]
