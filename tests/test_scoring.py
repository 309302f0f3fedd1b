import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_waveform
from holdscan import (
    HoldscanError,
    InvalidConfig,
    InvalidRange,
    MalformedRow,
    ModelParams,
    NonFiniteInput,
    NonPositiveVariance,
    ScoreTrace,
    Waveform,
    gaussian_pdf,
    load_score_trace_csv,
    log_score_sample,
    score_sample,
    score_series,
    window_log_evidence,
    write_score_trace_csv,
)
from holdscan.mockgen import MockConfig, generate_mock_waveform

# Frozen oracle values, computed with mpmath at 40 decimal digits and rounded
# to the nearest float64.  test_oracle_constants_recompute guards the freeze.
PDF_PEAK = 0.3989422804014327  # 1/sqrt(2*pi)
PDF_ONE_SIGMA = 0.24197072451914334  # exp(-1/2)/sqrt(2*pi)
LOGPDF_PEAK = -0.9189385332046728  # -ln(2*pi)/2
LOGPDF_60 = -1800.9189385332047  # -60^2/2 - ln(2*pi)/2
LOG_Q_PEAK = -1.8378770664093456  # ln(1/(2*pi))
SCORE_PEAK = 0.1892797511079253  # q/(1-q) at q = 1/(2*pi), i.e. 1/(2*pi - 1)
LOG_SCORE_PEAK = -1.664529193694148
LOG_SCORE_60_5 = -1851.8378770664094  # log-density sum; the log1p term vanishes
MAX_LOG_SCORE = 27.63102111592755  # with q clamped at 1 - 1e-12


def test_oracle_constants_recompute():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    two_pi = 2 * mp.pi
    q = 1 / two_pi
    assert float(1 / mp.sqrt(two_pi)) == PDF_PEAK
    assert float(mp.exp(mp.mpf(-1) / 2) / mp.sqrt(two_pi)) == PDF_ONE_SIGMA
    assert float(-mp.log(two_pi) / 2) == LOGPDF_PEAK
    assert float(-mp.mpf(3600) / 2 - mp.log(two_pi) / 2) == LOGPDF_60
    assert float(mp.log(q)) == LOG_Q_PEAK
    assert float(q / (1 - q)) == SCORE_PEAK
    assert float(mp.log(q) - mp.log(1 - q)) == LOG_SCORE_PEAK
    assert float(-mp.mpf(3600) / 2 - mp.mpf(100) / 2 - mp.log(two_pi)) == LOG_SCORE_60_5
    assert float(mp.log(1 - mp.mpf("1e-12")) - mp.log(mp.mpf("1e-12"))) == MAX_LOG_SCORE


def _log_pdf(x, mean, var):
    """ln N(x | mean, var) written out, as log_score_sample sums it per channel."""
    d = x - mean
    return -0.5 * math.log(2.0 * math.pi * var) - (d * d) / (2.0 * var)


class TestGaussianPdf:
    def test_standard_peak(self):
        assert gaussian_pdf(0.0, 0.0, 1.0) == pytest.approx(PDF_PEAK, rel=1e-12)

    def test_peak_at_other_mean(self):
        assert gaussian_pdf(15.0, 15.0, 1.0) == gaussian_pdf(0.0, 0.0, 1.0)

    def test_one_sigma(self):
        assert gaussian_pdf(1.0, 0.0, 1.0) == pytest.approx(PDF_ONE_SIGMA, rel=1e-12)

    def test_underflow_to_zero(self):
        assert gaussian_pdf(60.0, 0.0, 1.0) == 0.0

    def test_huge_deviation_no_overflow_error(self):
        assert gaussian_pdf(1e200, 0.0, 1.0) == 0.0

    def test_errors(self):
        with pytest.raises(NonPositiveVariance):
            gaussian_pdf(0.0, 0.0, 0.0)
        with pytest.raises(NonPositiveVariance):
            gaussian_pdf(0.0, 0.0, -1.0)
        with pytest.raises(NonFiniteInput):
            gaussian_pdf(float("nan"), 0.0, 1.0)
        with pytest.raises(NonFiniteInput):
            gaussian_pdf(0.0, float("inf"), 1.0)

    @settings(max_examples=200)
    @given(
        x=st.floats(-50, 50),
        mean=st.floats(-50, 50),
        var=st.floats(0.01, 100),
    )
    def test_non_negative_and_log_consistent(self, x, mean, var):
        p = gaussian_pdf(x, mean, var)
        assert p >= 0.0
        lp = _log_pdf(x, mean, var)
        if p > 1e-300:
            assert math.log(p) == pytest.approx(lp, rel=1e-12, abs=1e-12)

    def test_log_of_standard_peak(self):
        assert math.log(gaussian_pdf(0.0, 0.0, 1.0)) == pytest.approx(LOGPDF_PEAK, rel=1e-12)

    def test_log_of_peak_at_other_mean(self):
        assert math.log(gaussian_pdf(5.0, 5.0, 1.0)) == pytest.approx(LOGPDF_PEAK, abs=1e-12)


class TestScoreSample:
    def test_operating_point(self):
        assert score_sample(0.0, 15.0) == pytest.approx(SCORE_PEAK, rel=1e-9)

    def test_underflow_region(self):
        assert score_sample(60.0, 5.0) == 0.0

    def test_operating_point_is_argmax(self):
        best = score_sample(0.0, 15.0)
        for f in np.linspace(-8, 8, 100):
            for p in (10.0, 14.0, 15.5, 20.0):
                if f == 0.0 and p == 15.0:
                    continue
                assert score_sample(float(f), p) < best

    def test_monotone_decreasing_in_flow_deviation(self):
        flows = np.linspace(0.0, 8.0, 100)
        scores = [score_sample(float(f), 15.0) for f in flows]
        assert all(a > b for a, b in zip(scores, scores[1:]))
        mirrored = [score_sample(-float(f), 15.0) for f in flows]
        assert all(a > b for a, b in zip(mirrored, mirrored[1:]))

    def test_monotone_decreasing_in_pressure_deviation(self):
        pressures = np.linspace(15.0, 23.0, 100)
        scores = [score_sample(0.0, float(p)) for p in pressures]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_bounded_by_clamped_peak(self):
        # default params: q <= 1/(2*pi) so the bound is the operating point
        rng = np.random.default_rng(5)
        best = score_sample(0.0, 15.0)
        for f, p in rng.uniform(-40, 40, size=(200, 2)):
            assert score_sample(float(f), float(p) + 15.0) <= best

    def test_clamp_engages_for_tiny_variances(self):
        # the ceiling is fuzzy at ~1e-4 relative: float64 stores 1 - 1e-12
        # with up to 2^-54 absolute error, which 1 - q then amplifies
        params = ModelParams(var_flow=1e-4, var_pressure=1e-4)
        s = score_sample(0.0, 15.0, params)
        assert math.isfinite(s)
        assert s == pytest.approx((1.0 - 1e-12) / 1e-12, rel=1.2e-4)
        assert log_score_sample(0.0, 15.0, params) == pytest.approx(
            MAX_LOG_SCORE, abs=1.2e-4
        )

    def test_linear_ranking_survives_constant_factor(self):
        # multiplying every score by a positive constant keeps the argmax and
        # any scaled-threshold decision unchanged
        rng = np.random.default_rng(7)
        pts = rng.uniform(-5, 5, size=(50, 2))
        scores = np.array([score_sample(f, 15.0 + p) for f, p in pts])
        for c in (0.25, 3.0, 117.0):
            scaled = c * scores
            assert np.argmax(scaled) == np.argmax(scores)
            thr = np.median(scores)
            assert np.array_equal(scaled >= c * thr, scores >= thr)


class TestLogScoreSample:
    def test_operating_point(self):
        assert log_score_sample(0.0, 15.0) == pytest.approx(LOG_SCORE_PEAK, rel=1e-12)

    def test_deep_tail_equals_log_density_sum(self):
        got = log_score_sample(60.0, 5.0)
        assert got == pytest.approx(LOG_SCORE_60_5, rel=1e-12)
        # below ln q ~ -40 the correction term is exactly zero in float64
        lq = _log_pdf(60.0, 0.0, 1.0) + _log_pdf(5.0, 15.0, 1.0)
        assert got == lq

    def test_no_underflow(self):
        # the flow term alone is ln N(60 | 0, 1), which underflows linear float64
        assert log_score_sample(60.0, 15.0) == pytest.approx(LOGPDF_60 + LOGPDF_PEAK, rel=1e-12)

    def test_errors(self):
        for field in ("var_flow", "var_pressure"):
            with pytest.raises(NonPositiveVariance, match=f"^{field} must be > 0"):
                log_score_sample(0.0, 15.0, ModelParams(**{field: 0.0}))
        for flow, pressure in ((float("-inf"), 15.0), (0.0, float("nan"))):
            with pytest.raises(NonFiniteInput):
                log_score_sample(flow, pressure)

    def test_negative_infinity_on_square_overflow(self):
        assert log_score_sample(1e200, 15.0) == float("-inf")
        assert score_sample(1e200, 15.0) == 0.0

    @settings(max_examples=300)
    @given(flow=st.floats(-30, 30), pressure=st.floats(-20, 50))
    def test_exp_log_consistency(self, flow, pressure):
        s = score_sample(flow, pressure)
        ls = log_score_sample(flow, pressure)
        if s > 1e-300:
            assert math.exp(ls) == pytest.approx(s, rel=1e-9)

    @settings(max_examples=200)
    @given(
        flow=st.floats(-30, 30),
        pressure=st.floats(-20, 50),
        mu_f=st.floats(-5, 5),
        var_f=st.floats(0.5, 4),
        mu_p=st.floats(5, 25),
        var_p=st.floats(0.5, 4),
    )
    def test_matches_linear_definition(self, flow, pressure, mu_f, var_f, mu_p, var_p):
        params = ModelParams(mu_f, var_f, mu_p, var_p)
        q = gaussian_pdf(flow, mu_f, var_f) * gaussian_pdf(pressure, mu_p, var_p)
        if 1e-300 < q < 0.5:
            assert log_score_sample(flow, pressure, params) == pytest.approx(
                math.log(q / (1 - q)), rel=1e-9
            )


class TestScoreSeries:
    def test_three_identical_samples(self):
        w = make_waveform([0.0, 0.0, 0.0], [15.0, 15.0, 15.0])
        trace = score_series(w)
        assert len(trace) == 3
        assert trace.sample_rate_hz == w.sample_rate_hz
        assert np.allclose(trace.log_scores, LOG_SCORE_PEAK, rtol=1e-12)

    def test_matches_scalar_path(self):
        rng = np.random.default_rng(11)
        flow = rng.uniform(-40, 70, 300)
        pressure = rng.uniform(0, 30, 300)
        trace = score_series(make_waveform(flow, pressure))
        scalar = np.array([log_score_sample(f, p) for f, p in zip(flow, pressure)])
        assert np.allclose(trace.log_scores, scalar, rtol=1e-10, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        flow = rng.uniform(-40, 70, 128)
        pressure = rng.uniform(0, 30, 128)
        perm = rng.permutation(128)
        base = score_series(make_waveform(flow, pressure)).log_scores
        permuted = score_series(make_waveform(flow[perm], pressure[perm])).log_scores
        assert np.array_equal(permuted, base[perm])

    def test_trace_rejects_nan_and_plus_inf(self):
        with pytest.raises(NonFiniteInput):
            ScoreTrace(log_scores=np.array([0.0, np.nan]), sample_rate_hz=100.0)
        with pytest.raises(NonFiniteInput):
            ScoreTrace(log_scores=np.array([0.0, np.inf]), sample_rate_hz=100.0)
        trace = ScoreTrace(log_scores=np.array([0.0, -np.inf]), sample_rate_hz=100.0)
        assert trace.log_scores[1] == -np.inf

    # the rate rule of a waveform: at 5e-324 the spacing 1 / rate overflows
    @pytest.mark.parametrize("rate", [0, -1, math.nan, math.inf, 5e-324, "x", None,
                                      pytest.param(2**1100, id="2**1100")])
    def test_trace_rejects_rate_as_waveform_does(self, rate):
        with pytest.raises(InvalidConfig):
            ScoreTrace(log_scores=np.array([0.0]), sample_rate_hz=rate)
        with pytest.raises(InvalidConfig):
            Waveform(t=[0.0], flow=[0.0], pressure=[15.0], sample_rate_hz=rate)

    @pytest.mark.parametrize("log_scores", [None, ["x"], [0.0, 1j], np.array([0.0, 1j]), [[0.0]]],
                             ids=["none", "text", "complex", "complex-array", "2-d"])
    def test_trace_rejects_bad_log_scores(self, log_scores):
        with pytest.raises(MalformedRow, match="^log_scores must "):
            ScoreTrace(log_scores=log_scores, sample_rate_hz=100.0)


class TestSquareOverflow:
    """A squared deviation that overflows gives -inf, with no warning."""

    PARAMS = ModelParams(var_flow=1e-306)

    def test_score_series(self):
        w = make_waveform([0.0, 1e-150, 60.0], [15.0, 15.0, 15.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = score_series(w, self.PARAMS)
        assert trace.log_scores[2] == -np.inf
        assert np.isfinite(trace.log_scores[:2]).all()
        assert trace.log_scores[2] == log_score_sample(60.0, 15.0, self.PARAMS)

    def test_window_log_evidence(self):
        w = make_waveform([0.0, 60.0], [15.0, 15.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert window_log_evidence(w, 0, 2, self.PARAMS) == -np.inf

    def test_window_sum_leaving_float64(self):
        # each term is finite, their sum is not
        w = make_waveform([13.0, 13.0, 13.0], [15.0, 15.0, 15.0])
        terms = [_log_pdf(13.0, 0.0, 1e-306) + _log_pdf(15.0, 15.0, 1.0)] * 3
        assert all(math.isfinite(v) for v in terms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert window_log_evidence(w, 0, 3, self.PARAMS) == -np.inf


class TestWindowLogEvidence:
    def test_single_sample_at_means(self):
        w = make_waveform([0.0], [15.0])
        got = window_log_evidence(w, 0, 1)
        assert got == pytest.approx(LOG_Q_PEAK, rel=1e-12)

    def test_two_identical_samples_double(self):
        w = make_waveform([3.0, 3.0], [12.0, 12.0])
        single = window_log_evidence(w, 0, 1)
        assert window_log_evidence(w, 0, 2) == 2.0 * single

    def test_empty_window_rejected(self):
        w = make_waveform([0.0, 1.0], [15.0, 15.0])
        with pytest.raises(InvalidRange):
            window_log_evidence(w, 1, 1)
        with pytest.raises(InvalidRange):
            window_log_evidence(w, -1, 2)
        with pytest.raises(InvalidRange):
            window_log_evidence(w, 0, 3)
        with pytest.raises(InvalidRange):
            window_log_evidence(w, 2, 1)

    def test_matches_scalar_density_sums(self):
        w, _ = generate_mock_waveform(MockConfig(duration_s=5.0, holds=(), rng_seed=21))
        direct = math.fsum(
            _log_pdf(f, 0.0, 1.0) + _log_pdf(p, 15.0, 1.0)
            for f, p in zip(w.flow, w.pressure)
        )
        assert window_log_evidence(w, 0, len(w)) == pytest.approx(direct, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_additive_over_splits(self, data):
        w, _ = generate_mock_waveform(MockConfig(duration_s=20.0, holds=(), rng_seed=8))
        n = len(w)
        a = data.draw(st.integers(0, n - 2))
        b = data.draw(st.integers(a + 1, n - 1))
        c = data.draw(st.integers(b + 1, n))
        whole = window_log_evidence(w, a, c)
        parts = window_log_evidence(w, a, b) + window_log_evidence(w, b, c)
        assert whole == pytest.approx(parts, abs=1e-9)


class TestTraceCsv:
    def test_round_trip(self):
        w, _ = generate_mock_waveform(MockConfig(duration_s=2.0, holds=(), rng_seed=4))
        trace = score_series(w)
        import io

        buf = io.StringIO()
        write_score_trace_csv(w.t, trace, buf)
        t2, trace2 = load_score_trace_csv(buf.getvalue())
        assert len(trace2) == len(trace)
        assert trace2.sample_rate_hz == trace.sample_rate_hz
        buf2 = io.StringIO()
        write_score_trace_csv(t2, trace2, buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_linear_column(self):
        w = make_waveform([0.0, 60.0], [15.0, 5.0])
        trace = score_series(w)
        import io

        buf = io.StringIO()
        write_score_trace_csv(w.t, trace, buf, linear=True)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,log_score,score"
        assert lines[2].endswith(",0")  # deep-tail score underflows to zero
        t2, trace2 = load_score_trace_csv(buf.getvalue())
        assert np.allclose(trace2.log_scores[0], trace.log_scores[0], rtol=1e-9)

    def test_minus_inf_survives(self):
        trace = ScoreTrace(log_scores=np.array([-np.inf, -1.0]), sample_rate_hz=100.0)
        import io

        buf = io.StringIO()
        write_score_trace_csv(np.array([0.0, 0.01]), trace, buf)
        assert "-inf" in buf.getvalue()
        _, trace2 = load_score_trace_csv(buf.getvalue())
        assert trace2.log_scores[0] == -np.inf

    @pytest.mark.parametrize("field", ["nan", "inf", "+inf", "Infinity"])
    def test_log_score_must_be_finite_or_minus_inf(self, field):
        with pytest.raises(MalformedRow) as info:
            load_score_trace_csv(f"t,log_score\n0,{field}\n0.01,-1\n")
        assert str(info.value) == f"line 2: log_score must be finite or -inf in '0,{field}'"

    @pytest.mark.parametrize("field", ["-inf", "-Infinity"])
    def test_minus_inf_row_accepted(self, field):
        _, trace = load_score_trace_csv(f"t,log_score\n0,{field}\n0.01,-1\n")
        assert trace.log_scores.tolist() == [-math.inf, -1.0]

    def test_lengths_must_match(self):
        import io

        trace = ScoreTrace(log_scores=np.array([-1.0, -2.0]), sample_rate_hz=100.0)
        with pytest.raises(MalformedRow, match="^t and trace lengths differ$"):
            write_score_trace_csv(np.array([0.0]), trace, io.StringIO())

    def test_non_numeric_score_column_rejected(self):
        text = "t,log_score,score\n0,-1,0.37\n0.01,-1,abc\n"
        with pytest.raises(MalformedRow, match="^line 3: non-numeric field"):
            load_score_trace_csv(text)

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(HoldscanError):
            load_score_trace_csv(b"t,log_score\n0,-1\n0.01,-1\xff\n")
