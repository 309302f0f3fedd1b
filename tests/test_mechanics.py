import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_waveform
from holdscan import (
    DegenerateDrivingPressure,
    DegenerateFlow,
    InvalidConfig,
    InvalidRange,
    MechanicsInput,
    MockConfig,
    NonFiniteInput,
    detect_holds,
    estimate_compliance,
    estimate_resistance,
    generate_mock_waveform,
    load_waveform_csv,
    report_hold,
    score_series,
    segment_record,
    summarize_segment,
    waveform_to_csv,
)
from holdscan.cli import run
from holdscan.mechanics import (
    _percentile,
    last_positive_flow_before,
    peak_pressure_before,
    peep_estimate,
    tidal_volume_before,
)


def mk_inputs(plateau=15.0, peak=20.0, peep=5.0, vt=0.5, flow=0.5):
    return MechanicsInput(
        plateau_pressure=plateau,
        peak_pressure=peak,
        peep=peep,
        tidal_volume=vt,
        end_inspiratory_flow=flow,
    )


class TestCompliance:
    def test_textbook_value(self):
        assert estimate_compliance(mk_inputs(vt=0.5, plateau=15.0, peep=5.0)) == 0.05

    def test_plateau_at_peep_rejected(self):
        with pytest.raises(DegenerateDrivingPressure):
            estimate_compliance(mk_inputs(plateau=5.0, peep=5.0))

    def test_plateau_below_peep_rejected(self):
        with pytest.raises(DegenerateDrivingPressure):
            estimate_compliance(mk_inputs(plateau=4.0, peep=5.0))

    def test_non_positive_volume_rejected(self):
        with pytest.raises(InvalidConfig):
            estimate_compliance(mk_inputs(vt=0.0))
        with pytest.raises(InvalidConfig):
            estimate_compliance(mk_inputs(vt=-0.3))

    def test_non_finite_inputs_rejected_at_construction(self):
        with pytest.raises(NonFiniteInput):
            mk_inputs(plateau=float("nan"))
        with pytest.raises(NonFiniteInput):
            mk_inputs(vt=float("inf"))

    # text, None and an integer beyond the float range are no real inputs
    @pytest.mark.parametrize("field, value", [("plateau", "x"), ("peep", None),
                                               pytest.param("vt", 2**1100, id="vt-2**1100")])
    def test_non_real_inputs_rejected_at_construction(self, field, value):
        with pytest.raises(InvalidConfig):
            mk_inputs(**{field: value})

    @settings(max_examples=200)
    @given(
        vt=st.floats(0.05, 2.0),
        plateau=st.floats(6.0, 40.0),
        peep=st.floats(0.0, 5.0),
    )
    def test_doubling_volume_doubles_compliance(self, vt, plateau, peep):
        base = estimate_compliance(mk_inputs(vt=vt, plateau=plateau, peep=peep))
        doubled = estimate_compliance(mk_inputs(vt=2 * vt, plateau=plateau, peep=peep))
        assert doubled == 2 * base  # exact: doubling is an exponent shift

    @settings(max_examples=200)
    @given(
        vt=st.floats(0.05, 2.0),
        plateau=st.floats(6.0, 40.0),
        peep=st.floats(0.0, 5.0),
        shift=st.floats(-50.0, 50.0),
    )
    def test_pressure_shift_invariance(self, vt, plateau, peep, shift):
        base = estimate_compliance(mk_inputs(vt=vt, plateau=plateau, peep=peep))
        moved = estimate_compliance(
            mk_inputs(vt=vt, plateau=plateau + shift, peep=peep + shift)
        )
        assert moved == pytest.approx(base, rel=1e-9)


class TestResistance:
    def test_textbook_value(self):
        assert estimate_resistance(mk_inputs(peak=20.0, plateau=15.0, flow=0.5)) == 10.0

    def test_no_pressure_drop_gives_zero(self):
        assert estimate_resistance(mk_inputs(peak=15.0, plateau=15.0, flow=0.5)) == 0.0

    def test_zero_flow_rejected(self):
        with pytest.raises(DegenerateFlow):
            estimate_resistance(mk_inputs(flow=0.0))

    def test_negative_flow_rejected(self):
        with pytest.raises(DegenerateFlow):
            estimate_resistance(mk_inputs(flow=-0.5))

    @settings(max_examples=200)
    @given(
        peak=st.floats(16.0, 60.0),
        plateau=st.floats(5.0, 15.0),
        flow=st.floats(0.05, 3.0),
    )
    def test_doubling_flow_halves_resistance(self, peak, plateau, flow):
        base = estimate_resistance(mk_inputs(peak=peak, plateau=plateau, flow=flow))
        halved = estimate_resistance(mk_inputs(peak=peak, plateau=plateau, flow=2 * flow))
        assert halved == base / 2


class TestPreHoldHelpers:
    def test_peak_pressure_window(self):
        pressure = np.concatenate([np.full(100, 8.0), np.linspace(10, 20, 100), [15.0]])
        w = make_waveform(np.zeros(201), pressure)
        # window is the 100 samples before index 200: the ramp, peaking at 20
        assert peak_pressure_before(w, 200) == 20.0

    def test_peak_pressure_at_start_is_none(self):
        w = make_waveform(np.zeros(10), np.full(10, 15.0))
        assert peak_pressure_before(w, 0) is None

    def test_window_clamps_to_origin(self):
        pressure = np.array([11.0, 13.0, 12.0])
        w = make_waveform(np.zeros(3), pressure)
        assert peak_pressure_before(w, 2) == 13.0

    def test_last_positive_flow(self):
        flow = np.concatenate([np.full(50, 30.0), [6.0], np.full(49, -20.0)])
        w = make_waveform(flow, np.full(100, 15.0))
        assert last_positive_flow_before(w, 100) == pytest.approx(6.0 / 60.0)

    def test_no_positive_flow_is_none(self):
        w = make_waveform(np.full(100, -20.0), np.full(100, 15.0))
        assert last_positive_flow_before(w, 100) is None

    def test_tidal_volume_uses_volume_channel(self):
        n = 200
        volume = np.concatenate([np.linspace(0.3, 0.0, 50), np.linspace(0.0, 0.45, 150)])
        w = make_waveform(np.zeros(n), np.full(n, 15.0), volume=volume)
        assert tidal_volume_before(w, n - 1) == pytest.approx(0.45, abs=1e-12)

    def test_tidal_volume_integrates_when_channel_missing(self):
        for flow, litres in [
            # 60 L/min for the final second, zero before: 1 L plus the half-step
            # trapezoid contribution of the 0 -> 60 transition sample
            (np.concatenate([np.zeros(100), np.full(101, 60.0)]), 1.005),
            # a ramp from 0 to 60 L/min over 1 s, on which the trapezoid rule is exact
            (60.0 * np.arange(101) / 100.0, 0.5),
        ]:
            w = make_waveform(flow, np.full(len(flow), 15.0))
            assert tidal_volume_before(w, len(flow) - 1) == pytest.approx(litres, abs=1e-9)

    def test_tidal_volume_none_when_falling(self):
        volume = np.linspace(1.0, 0.0, 100)
        w = make_waveform(np.zeros(100), np.full(100, 15.0), volume=volume)
        assert tidal_volume_before(w, 99) is None

    def test_tidal_volume_bad_index(self):
        w = make_waveform(np.zeros(10), np.full(10, 15.0))
        with pytest.raises(InvalidRange):
            tidal_volume_before(w, 10)
        with pytest.raises(InvalidRange):
            tidal_volume_before(w, -1)

    def test_peep_percentile(self):
        pressure = np.arange(101, dtype=np.float64)
        w = make_waveform(np.zeros(101), pressure, rate=20.0)
        # 5 s lookback at 20 Hz covers the whole record inclusive of index
        assert peep_estimate(w, 100) == pytest.approx(10.0, abs=1e-12)

    def test_peep_on_baseline_heavy_window(self):
        pressure = np.concatenate([np.full(90, 5.0), np.full(11, 20.0)])
        w = make_waveform(np.zeros(101), pressure, rate=20.0)
        assert peep_estimate(w, 100) == pytest.approx(5.0, abs=1e-9)

    # peep_estimate's window includes index; the pre-hold windows end before it
    @pytest.mark.parametrize("index", [-1, -5, 10, 60])
    def test_peep_bad_index(self, index):
        w = make_waveform(np.zeros(10), np.arange(10.0))
        with pytest.raises(InvalidRange, match=f"index {index} out of bounds for 10 samples"):
            peep_estimate(w, index)

    @pytest.mark.parametrize("index", [-1, -5, 11, 60])
    def test_peak_pressure_bad_index(self, index):
        w = make_waveform(np.zeros(10), np.arange(10.0))
        with pytest.raises(InvalidRange, match=f"index {index} out of bounds for 10 samples"):
            peak_pressure_before(w, index)
        assert peak_pressure_before(w, 10) == 9.0

    @pytest.mark.parametrize("index", [-1, -5, 11, 60])
    def test_last_positive_flow_bad_index(self, index):
        w = make_waveform(np.full(10, 6.0), np.zeros(10))
        with pytest.raises(InvalidRange, match=f"index {index} out of bounds for 10 samples"):
            last_positive_flow_before(w, index)
        assert last_positive_flow_before(w, 10) == 0.1

    def test_peep_fallback_halves(self):
        # 16 values put the 10th percentile halfway between sorted[1] = -1.7e308
        # and sorted[2] = 1.7e308, whose gap leaves the float range
        pressure = np.array([1.7e308] * 14 + [-1.7e308] * 2)
        w = make_waveform(np.zeros(16), pressure, rate=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = peep_estimate(w, 15)
        with np.errstate(over="ignore"):
            assert not math.isfinite(np.percentile(pressure, 10.0))
        assert _bits(got) == _bits(float(np.percentile(pressure / 2.0, 10.0)) * 2.0)
        assert got == 0.0


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


_ELEMENTS = [
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.sampled_from([1.7e308, -1.7e308]),
    # few distinct values: ties between the neighbours of the percentile
    st.integers(-8, 8).map(lambda k: k / 4),
]


class TestPercentile:
    """``_percentile`` is ``np.percentile`` (method ``linear``) bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(window=st.one_of(
               # one kind of value per window, or all kinds mixed
               *[st.lists(el, min_size=1, max_size=600) for el in _ELEMENTS],
               st.lists(st.one_of(*_ELEMENTS), min_size=1, max_size=600)),
           q=st.sampled_from([0.0, 10.0, 50.0, 100.0]) | st.floats(0.0, 100.0))
    def test_same_bits_as_np_percentile(self, window, q):
        arr = np.array(window)
        with np.errstate(all="ignore"):
            expected = float(np.percentile(arr, q))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _percentile(arr, q)
        assert _bits(got) == _bits(expected)
        assert arr.tobytes() == np.array(window).tobytes()  # the window is left as it was


class TestReportHold:
    def setup_method(self):
        generated, _ = generate_mock_waveform(MockConfig(rng_seed=7))
        self.w = load_waveform_csv(waveform_to_csv(generated))
        seg = detect_holds(score_series(self.w))[0]
        self.record = segment_record(summarize_segment(self.w, seg))

    def test_matches_cli_report(self, tmp_path):
        wave, segs = tmp_path / "w.csv", tmp_path / "s.ndjson"
        wave.write_text(waveform_to_csv(self.w))
        segs.write_text(json.dumps(self.record) + "\n")
        for peep, flags in ((None, []), (4.5, ["--peep", "4.5"])):
            out = io.StringIO()
            assert run(["report", str(wave), "--segments", str(segs), *flags], stdout=out) == 0
            assert out.getvalue() == json.dumps(report_hold(self.w, self.record, peep)) + "\n"

    def test_values(self):
        rec = report_hold(self.w, self.record)
        assert rec["plateau_pressure_cmh2o"] == self.record["mean_pressure"]
        assert rec["compliance_l_per_cmh2o"] == pytest.approx(
            rec["tidal_volume_l"] / (rec["plateau_pressure_cmh2o"] - rec["peep_cmh2o"]), rel=1e-12
        )
        assert "unavailable" not in rec

    def test_segment_outside_waveform(self):
        record = self.record | {"end_index": len(self.w) + 1}
        with pytest.raises(InvalidRange, match="exceeds waveform length"):
            report_hold(self.w, record)

    @pytest.mark.parametrize("peep", [math.nan, math.inf, -math.inf, "5", 10**400])
    def test_peep_must_be_finite(self, peep):
        with pytest.raises(InvalidConfig, match="peep"):
            report_hold(self.w, self.record, peep)

    def test_plateau_is_the_mean_pressure_of_the_hold(self):
        # a record edited by hand does not set the plateau; the waveform does
        for mean_pressure in (99.0, math.nan):
            rec = report_hold(self.w, self.record | {"mean_pressure": mean_pressure})
            assert rec == report_hold(self.w, self.record)


class TestReportAtTheFloatEdge:
    """Inputs whose sums and differences leave the float range give strict JSON and no warning."""

    def test_values_near_the_float_maximum(self):
        rate, big = 100.0, 1.7e308
        n = 1000
        pressure = np.full(n, big)  # the hold at 600: its sum overflows, its mean does not
        # the 10th percentile of the lookback lies between -big and big
        pressure[100:151] = -big
        flow = np.ones(n)
        flow[600:800] = 0.0
        volume = np.where(np.arange(n) % 2, -big, big)  # rises by 2 * big to the hold
        w = make_waveform(flow, pressure, rate=rate, volume=volume)
        record = {"start_s": 6.0, "end_s": 8.0, "start_index": 600, "end_index": 800,
                  "peak_log_score": -1.0, "mean_log_score": -1.0, "mean_pressure": 0.0,
                  "mean_flow": 0.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = report_hold(w, record)
        json.loads(json.dumps(rec), parse_constant=pytest.fail)
        assert rec["plateau_pressure_cmh2o"] == big
        assert math.isfinite(rec["peep_cmh2o"]) and -big <= rec["peep_cmh2o"] <= big
        assert "float range" in rec["unavailable"]["tidal_volume_l"]
        assert "compliance_l_per_cmh2o" not in rec


class SingleCompartmentSim:
    """Forward-Euler single-compartment lung on a 1 kHz grid.

    Constant airway pressure drives flow through resistance R into compliance
    C:  Q = (P_aw - V/C - peep) / R, then V += Q dt.  After the inspiration
    the circuit is held: flow zero, airway pressure reads V/C + peep.
    """

    def __init__(self, r=10.0, c=0.05, peep=0.0, p_aw=15.0, t_insp=1.0, t_hold=0.5, rate=1000.0):
        self.r, self.c, self.peep, self.p_aw = r, c, peep, p_aw
        dt = 1.0 / rate
        n_insp = int(round(t_insp * rate))
        n_hold = int(round(t_hold * rate))
        v = 0.0
        flows = np.empty(n_insp)
        volumes = np.empty(n_insp)
        for i in range(n_insp):
            q = (p_aw - v / c - peep) / r
            flows[i] = q
            volumes[i] = v
            v += q * dt
        self.v_end = v
        self.q_end = flows[-1]
        self.plateau = v / c + peep
        n = n_insp + n_hold
        flow_lpm = np.concatenate([flows * 60.0, np.zeros(n_hold)])
        pressure = np.concatenate([np.full(n_insp, p_aw), np.full(n_hold, self.plateau)])
        self.hold_start = n_insp
        self.waveform = make_waveform(flow_lpm, pressure, rate=rate)


class TestSingleCompartmentOracle:
    def setup_method(self):
        self.sim = SingleCompartmentSim()

    def test_simulation_matches_exponential_solution(self):
        # analytic: V(t) = C dP (1 - exp(-t/RC)); Euler at dt = 1 ms is close
        tau = self.sim.r * self.sim.c
        expected = self.sim.c * self.sim.p_aw * (1.0 - math.exp(-1.0 / tau))
        assert self.sim.v_end == pytest.approx(expected, rel=2e-3)

    def test_direct_estimators_recover_parameters(self):
        inputs = MechanicsInput(
            plateau_pressure=self.sim.plateau,
            peak_pressure=self.sim.p_aw,
            peep=self.sim.peep,
            tidal_volume=self.sim.v_end,
            end_inspiratory_flow=self.sim.q_end,
        )
        # plateau is v/c by construction, so compliance inverts exactly
        assert estimate_compliance(inputs) == pytest.approx(self.sim.c, rel=1e-9)
        # resistance carries one Euler step of bias: (10 - dt/C) / 10
        assert estimate_resistance(inputs) == pytest.approx(self.sim.r, rel=3e-3)

    def test_waveform_helpers_recover_parameters(self):
        w = self.sim.waveform
        idx = self.sim.hold_start
        peak = peak_pressure_before(w, idx)
        flow = last_positive_flow_before(w, idx)
        vt = tidal_volume_before(w, idx)
        assert peak == self.sim.p_aw
        assert flow == pytest.approx(self.sim.q_end, rel=1e-9)
        assert vt == pytest.approx(self.sim.v_end, rel=2e-3)
        inputs = MechanicsInput(
            plateau_pressure=self.sim.plateau,
            peak_pressure=peak,
            peep=self.sim.peep,
            tidal_volume=vt,
            end_inspiratory_flow=flow,
        )
        assert estimate_compliance(inputs) == pytest.approx(self.sim.c, rel=0.05)
        assert estimate_resistance(inputs) == pytest.approx(self.sim.r, rel=0.05)
