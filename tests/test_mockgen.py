import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

import holdscan
from holdscan import (
    DetectionConfig,
    InvalidConfig,
    MockConfig,
    NonFiniteInput,
    Waveform,
    detect_holds,
    generate_mock_waveform,
    score_series,
)
from holdscan.mockgen import (
    _BLOCK,
    _COS_TURNS,
    _SIN_TURNS,
    _TURN_STEPS,
    DECAY_RATE,
    MAX_SAMPLES,
    _blocks,
    _breath_phase,
    _cos_turns,
    _hold_mask,
    _splitmix64,
    _standard_normals,
)
from holdscan.waveform import _BlockCheck

MASK64 = (1 << 64) - 1

# First three SplitMix64 outputs for seed 0, as published with the reference
# implementation (Vigna); the generator must reproduce them bit for bit.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def ref_splitmix64(seed, counter):
    """Pure-integer SplitMix64 output for one counter value."""
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def ref_normals(seed, first_counter, count):
    """Scalar-math Box-Muller from the documented counter layout, with the
    exact cos(2 pi u2) rounded once."""
    mp = pytest.importorskip("mpmath")
    out = np.empty(count)
    for i in range(count):
        w0 = ref_splitmix64(seed, first_counter + 2 * i)
        w1 = ref_splitmix64(seed, first_counter + 2 * i + 1)
        u1 = ((w0 >> 11) + 1) * 2.0**-53
        u2 = (w1 >> 11) * 2.0**-53
        out[i] = math.sqrt(-2.0 * math.log(u1)) * float(mp.cospi(2 * mp.mpf(u2)))
    return out


def generate_whole(config):
    """The recording computed over all samples at once; the test oracle."""
    n = int(round(config.duration_s * config.sample_rate_hz))
    if n < 1:
        raise InvalidConfig(
            f"duration {config.duration_s} s at {config.sample_rate_hz} Hz yields no samples"
        )
    rate = config.sample_rate_hz
    t = np.arange(n, dtype=np.float64) / rate

    period = 60.0 / config.respiratory_rate_bpm
    t_insp = period * config.i_to_e_ratio / (1.0 + config.i_to_e_ratio)
    t_exp = period - t_insp
    phase = np.mod(t, period)
    insp = phase < t_insp
    u = phase / t_insp
    v = (phase - t_insp) / t_exp

    peep = config.peep_cmh2o
    peak_p = config.peak_pressure_cmh2o
    with np.errstate(over="ignore"):
        flow = np.where(
            insp,
            config.peak_flow_lpm * np.exp(-DECAY_RATE * u),
            -config.peak_flow_lpm * config.i_to_e_ratio * np.exp(-DECAY_RATE * v),
        )
        pressure = np.where(
            insp,
            peep + (peak_p - peep) * u,
            peep + (peak_p - peep) * np.exp(-DECAY_RATE * v),
        )

    hold_mask = per_hold_mask(t, config.holds)
    flow = np.where(hold_mask, 0.0, flow)
    pressure = np.where(hold_mask, config.plateau_cmh2o, pressure)

    flow = flow + config.noise_sd_flow * _standard_normals(config.rng_seed, 0, n)
    pressure = pressure + config.noise_sd_pressure * _standard_normals(config.rng_seed, 2 * n, n)

    flow_lps = flow / 60.0
    volume = np.empty(n, dtype=np.float64)
    volume[0] = 0.0
    if n > 1:
        steps = np.diff(t) * 0.5 * (flow_lps[1:] + flow_lps[:-1])
        np.cumsum(steps, out=volume[1:])
    return Waveform(t=t, flow=flow, pressure=pressure, sample_rate_hz=rate, volume=volume)


def per_hold_mask(t, holds):
    """One comparison pass per hold: the mask's definition."""
    mask = np.zeros(len(t), dtype=bool)
    for start, dur in holds:
        mask |= (t >= start) & (t < start + dur)
    return mask


@st.composite
def _block_cases(draw):
    """A recording of one block multiple, one sample less or more, with holds over block edges."""
    size = draw(st.sampled_from([1, 7, 1000, _BLOCK]))
    rate = draw(st.sampled_from([3.0, 7.3, 100.0, 250.0]))
    blocks = draw(st.integers(1, 3 if size > 1 else 300))
    n = max(1, size * blocks + draw(st.sampled_from([-1, 0, 1])))
    duration = n / rate  # within an ulp of n samples, so it rounds to n
    holds = []
    for edge in range(size, n, size)[: draw(st.integers(0, 3))]:
        # a hold from just before a block edge to just after it
        start = (edge - draw(st.integers(1, 3))) / rate
        length = draw(st.integers(1, 6)) / rate
        if start >= (sum(holds[-1]) if holds else 0.0) and start + length <= duration:
            holds.append((start, length))
    noise = draw(st.sampled_from([1.0, 0.0]))
    # 1e-300 bpm: a period whose split overflows, so the phase is np.fmod's
    cfg = MockConfig(duration_s=duration, sample_rate_hz=rate, holds=tuple(holds),
                     respiratory_rate_bpm=draw(st.sampled_from([15.0, 14.0, 1e-300])),
                     noise_sd_flow=noise, noise_sd_pressure=noise,
                     rng_seed=draw(st.integers(0, 2**64 - 1) | st.integers(2**64, 2**70)))
    return cfg, size


class TestBlocks:
    """The recording computed block by block against the whole-array oracle."""

    @settings(max_examples=60, deadline=None)
    @given(case=_block_cases())
    def test_matches_whole_array(self, case):
        cfg, size = case
        ref = generate_whole(cfg)
        n = len(ref)
        assert n == int(round(cfg.duration_s * cfg.sample_rate_hz))
        blocks = list(_blocks(cfg, n, size))
        assert [b[0] for b in blocks] == list(range(0, n, size))
        w, truth = generate_mock_waveform(cfg)
        for k, name in enumerate(("t", "flow", "pressure", "volume"), start=1):
            joined = np.concatenate([b[k] for b in blocks])
            assert joined.tobytes() == getattr(ref, name).tobytes()
            assert getattr(w, name).tobytes() == getattr(ref, name).tobytes()
        assert w.sample_rate_hz == ref.sample_rate_hz
        assert truth.hold_segments == tuple(sorted((s, s + d) for s, d in cfg.holds))


class TestGridAtConfiguredRate:
    """The generated grid passes the grid check at the configured rate for any
    n <= MAX_SAMPLES: every step is within 2**-20 of 1 / rate, inside SPACING_RTOL,
    so generate's only error is a non-finite value (which pipeline relies on)."""

    @settings(max_examples=500, deadline=None)
    @given(rate=st.floats(-4.0, 8.0).map(lambda e: 10.0**e),
           n=st.integers(1, MAX_SAMPLES)
           | st.sampled_from([2**k + d for k in range(11, 33) for d in (-1, 0, 1) if 2**k + d <= MAX_SAMPLES]))
    def test_last_steps_pass(self, rate, n):
        # the steps deviate most where the timestamps are largest
        t = np.arange(max(n - 2048, 0), n, dtype=np.float64) / rate
        check = _BlockCheck()
        check.feed(t)
        assert check.raise_first(rate) == rate


class TestSplitMix64:
    def test_seed_zero_reference_vectors(self):
        got = _splitmix64(0, 0, 3)
        assert tuple(int(x) for x in got) == SPLITMIX64_SEED0

    def test_matches_pure_integer_reference(self):
        got = [int(x) for x in _splitmix64(42, 0, 1000)]
        assert got == [ref_splitmix64(42, i) for i in range(1000)]

    def test_counter_offset_is_a_window(self):
        whole = _splitmix64(7, 0, 100)
        tail = _splitmix64(7, 60, 40)
        assert np.array_equal(tail, whole[60:])

    def test_seed_wraps_mod_2_64(self):
        assert np.array_equal(_splitmix64(2**64 + 5, 0, 10), _splitmix64(5, 0, 10))


class TestStandardNormals:
    def test_matches_scalar_reference(self):
        got = _standard_normals(13, 0, 500)
        want = ref_normals(13, 0, 500)
        # numpy's log is dispatched per CPU and may differ from libm's by an
        # ulp, and the cosine is within 1.5 ulp of the exact one
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_offset_counter_stream(self):
        got = _standard_normals(13, 1000, 200)
        want = ref_normals(13, 1000, 200)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_all_finite(self):
        z = _standard_normals(0, 0, 100_000)
        assert np.all(np.isfinite(z))

    def test_moments(self):
        z = _standard_normals(0, 0, 100_000)
        assert abs(float(np.mean(z))) < 0.02
        assert abs(float(np.std(z)) - 1.0) < 0.02


def ulps_from_cos(got, u):
    """``|got - cos(2 pi u)|`` in units in the last place of the exact value."""
    mp = pytest.importorskip("mpmath")
    with mp.workprec(120):
        exact = mp.cospi(2 * mp.mpf(u))
        if exact == 0:
            return 0.0 if got == 0 else math.inf
        _, e = mp.frexp(exact)  # 2**(e-1) <= |exact| < 2**e: the ulp is 2**(e-53)
        return float(abs(mp.mpf(got) - exact) * mp.mpf(2) ** (53 - e))


def turns(words):
    """u on the 2**-53 grid from integers below 2**53."""
    return np.asarray(words, dtype=np.int64) * 2.0**-53


# The kernel over SplitMix64-drawn u, with every dispatched numpy kernel off.
KERNEL_DIGEST = """
import hashlib
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from holdscan.mockgen import _cos_turns, _splitmix64
u = (_splitmix64(23, 0, 10**6) >> np.uint64(11)) * 2.0**-53
print(" ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)))
print(hashlib.sha256(_cos_turns(u, np.empty(len(u), np.int64)).tobytes()).hexdigest())
"""


class TestCosTurns:
    """Box-Muller's cosine of turns against mpmath's ``cos(2 pi u)``."""

    STEP = 2**53 // _TURN_STEPS  # one step of the table, in words

    def test_table_rounds_correctly(self):
        mp = pytest.importorskip("mpmath")
        with mp.workprec(120):
            for m in range(_TURN_STEPS + 1):
                turn = mp.mpf(2 * m) / _TURN_STEPS
                assert _COS_TURNS[m] == float(mp.cospi(turn))
                assert _SIN_TURNS[m] == float(mp.sinpi(turn))

    def test_table_points_round_correctly(self):
        u = turns(np.arange(_TURN_STEPS) * self.STEP)
        got = _cos_turns(u.copy(), np.empty(len(u), np.int64))
        assert max(ulps_from_cos(g, x) for g, x in zip(got.tolist(), u.tolist())) <= 0.5

    def test_quarter_turns_exact(self):
        got = _cos_turns(np.array([0.0, 0.25, 0.5, 0.75]), np.empty(4, np.int64))
        assert got.tolist() == [1.0, 0.0, -1.0, 0.0]

    def test_within_one_and_a_half_ulps(self):
        # the ends of [0, 1), drawn words, and words within two steps of a zero
        # of the cosine, where the result is far below the table's value
        drawn = _splitmix64(19, 0, 10_000) >> np.uint64(11)
        near = np.random.default_rng(19).integers(-2 * self.STEP, 2 * self.STEP, 4_000)
        near[::2] += _TURN_STEPS // 4 * self.STEP
        near[1::2] += 3 * _TURN_STEPS // 4 * self.STEP
        u = np.concatenate((turns([1, 2**53 - 1]), turns(drawn), turns(near)))
        got = _cos_turns(u.copy(), np.empty(len(u), np.int64))
        errors = np.array([ulps_from_cos(g, x) for g, x in zip(got.tolist(), u.tolist())])
        assert got[:2].tolist() == [1.0, 1.0]  # the float nearest to each
        assert errors.max() <= 1.5
        assert np.mean(errors <= 1.0) > 0.99

    def test_slices_of_a_block(self):
        u = turns(_splitmix64(3, 0, 2 * _BLOCK + 5) >> np.uint64(11))
        whole = _cos_turns(u.copy(), np.empty(len(u), np.int64))
        for a in range(0, len(u), _BLOCK):
            part = u[a:a + _BLOCK].copy()
            assert _cos_turns(part, np.empty(len(part), np.int64)).tobytes() == \
                whole[a:a + _BLOCK].tobytes()

    def test_same_bits_without_dispatched_kernels(self):
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__
        except ImportError:  # numpy 1.x
            from numpy.core._multiarray_umath import __cpu_dispatch__
        env = dict(os.environ, PYTHONPATH=str(Path(holdscan.__file__).resolve().parents[1]),
                   NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
        done = subprocess.run([sys.executable, "-c", KERNEL_DIGEST], env=env,
                              capture_output=True, text=True, check=True)
        enabled, digest = done.stdout.split("\n")[:2]
        u = turns(_splitmix64(23, 0, 10**6) >> np.uint64(11))
        here = _cos_turns(u, np.empty(len(u), np.int64))
        assert enabled == ""
        assert digest == hashlib.sha256(here.tobytes()).hexdigest()


@st.composite
def _phase_cases(draw):
    """Sorted t >= 0 and a breath period: the sample times of a grid, or times
    on and one ulp either side of multiples of the period, with quotients from 0
    to past 2**26."""
    period = draw(st.sampled_from([60.0 / 14, 1.5e300])  # 1.5e300: its split overflows
                  | st.floats(0.1, 1000.0).map(lambda bpm: 60.0 / bpm))
    length = draw(st.sampled_from([1, 7, _BLOCK, _BLOCK + 1]))
    if draw(st.booleans()):
        rate = 10.0 ** draw(st.floats(-4.0, 8.0))
        k = draw(st.integers(0, MAX_SAMPLES - length))
        return np.arange(k, k + length, dtype=np.float64) / rate, period
    q = draw(st.integers(0, 2**26 + 2) | st.integers(2**26 - length // 3 - 2, 2**26 + 2))
    base = (q + np.arange(length // 3 + 1)) * period
    t = np.concatenate((np.nextafter(base, 0.0), base, np.nextafter(base, np.inf)))
    return np.sort(t)[:length], period


class TestBreathPhase:
    """The breath phase against np.fmod, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=_phase_cases())
    def test_matches_fmod(self, case):
        t, period = case
        with np.errstate(all="ignore"):
            assert _breath_phase(t, period).tobytes() == np.fmod(t, period).tobytes()


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        w1, g1 = generate_mock_waveform(MockConfig(rng_seed=3))
        w2, g2 = generate_mock_waveform(MockConfig(rng_seed=3))
        assert np.array_equal(w1.t, w2.t)
        assert np.array_equal(w1.flow, w2.flow)
        assert np.array_equal(w1.pressure, w2.pressure)
        assert np.array_equal(w1.volume, w2.volume)
        assert g1 == g2

    def test_distinct_seeds_differ_early(self):
        w1, _ = generate_mock_waveform(MockConfig(rng_seed=3))
        w2, _ = generate_mock_waveform(MockConfig(rng_seed=4))
        assert not np.array_equal(w1.flow[:100], w2.flow[:100])

    def test_noise_reconstruction_from_counters(self):
        # noisy minus noise-free recovers exactly the documented RNG streams:
        # flow noise from counters [0, 2n), pressure noise from [2n, 4n)
        seed = 7
        noisy, _ = generate_mock_waveform(MockConfig(rng_seed=seed))
        clean, _ = generate_mock_waveform(
            MockConfig(rng_seed=seed, noise_sd_flow=0.0, noise_sd_pressure=0.0)
        )
        n = len(noisy)
        assert np.allclose(
            noisy.flow - clean.flow, _standard_normals(seed, 0, n), atol=1e-10
        )
        assert np.allclose(
            noisy.pressure - clean.pressure,
            _standard_normals(seed, 2 * n, n),
            atol=1e-10,
        )


class TestShape:
    def test_default_dimensions(self):
        w, truth = generate_mock_waveform(MockConfig(rng_seed=0))
        assert len(w) == 9000
        assert w.sample_rate_hz == 100.0
        assert w.t[0] == 0.0
        assert w.t[-1] == pytest.approx(89.99, abs=1e-12)
        assert truth.hold_segments == ((45.0, 47.0),)

    def test_volume_channel_present_and_anchored(self):
        w, _ = generate_mock_waveform(MockConfig(rng_seed=0))
        assert w.volume is not None
        assert w.volume[0] == 0.0

    def test_volume_matches_trapezoid_prefixes(self):
        w, _ = generate_mock_waveform(MockConfig(duration_s=10.0, holds=(), rng_seed=5))
        for k in (1, 57, 400, 999):
            assert w.volume[k] == pytest.approx(
                trapezoid(w.flow[: k + 1] / 60.0, w.t[: k + 1]), abs=1e-9
            )

    def test_multiple_holds_in_truth(self):
        cfg = MockConfig(holds=((10.0, 1.0), (45.0, 2.0)), rng_seed=0)
        _, truth = generate_mock_waveform(cfg)
        assert truth.hold_segments == ((10.0, 11.0), (45.0, 47.0))


# hold edges on a sample, between samples, and one hold ending where the next
# begins; at 3 Hz and 7.3 Hz the grid times are not exact decimals
HOLD_SETS = [
    ((10.0, 1.0),),
    ((10.005, 0.993), (20.0049, 0.0002)),
    ((10.0, 1.0), (11.0, 0.5), (11.5, 2.25)),
    ((0.0, 0.01), (0.01, 0.3), (29.0, 1.0)),
    ((1.0 / 3.0, 2.0 / 3.0), (1.0, 1.0 / 7.3), (1.0 + 1.0 / 7.3, 5.0)),
]


class TestHoldMask:
    @pytest.mark.parametrize("rate", [100.0, 250.0, 3.0, 7.3])
    @pytest.mark.parametrize("holds", HOLD_SETS)
    def test_matches_per_hold_comparison(self, rate, holds):
        t = np.arange(int(round(30.0 * rate)), dtype=np.float64) / rate
        assert np.array_equal(_hold_mask(t, holds), per_hold_mask(t, holds))

    @pytest.mark.parametrize("holds", HOLD_SETS)
    def test_generated_waveform_unchanged(self, holds):
        cfg = MockConfig(duration_s=30.0, holds=holds, rng_seed=4)
        w, _ = generate_mock_waveform(cfg)
        with mock.patch("holdscan.mockgen._hold_mask", per_hold_mask):
            ref, _ = generate_mock_waveform(cfg)
        for name in ("t", "flow", "pressure", "volume"):
            assert getattr(w, name).tobytes() == getattr(ref, name).tobytes()


class TestTemplate:
    def test_noise_free_hold_is_exact(self):
        cfg = MockConfig(noise_sd_flow=0.0, noise_sd_pressure=0.0, rng_seed=0)
        w, _ = generate_mock_waveform(cfg)
        mask = (w.t >= 45.0) & (w.t < 47.0)
        assert mask.sum() == 200
        assert np.all(w.flow[mask] == 0.0)
        assert np.all(w.pressure[mask] == 15.0)

    def test_noisy_hold_means_near_targets(self):
        # mean of 200 unit-variance samples; 3/sqrt(200) ~ 0.212
        bound = 3.0 / math.sqrt(200.0)
        for seed in (1, 2, 3):
            w, _ = generate_mock_waveform(MockConfig(rng_seed=seed))
            mask = (w.t >= 45.0) & (w.t < 47.0)
            assert abs(float(np.mean(w.flow[mask]))) < bound
            assert abs(float(np.mean(w.pressure[mask])) - 15.0) < bound

    def test_pressure_spans_peep_to_peak(self):
        cfg = MockConfig(noise_sd_flow=0.0, noise_sd_pressure=0.0, holds=(), rng_seed=0)
        w, _ = generate_mock_waveform(cfg)
        assert float(np.min(w.pressure)) == pytest.approx(5.0, abs=0.2)
        assert float(np.max(w.pressure)) == pytest.approx(20.0, abs=0.2)

    def test_flow_peaks_at_config_values(self):
        cfg = MockConfig(noise_sd_flow=0.0, noise_sd_pressure=0.0, holds=(), rng_seed=0)
        w, _ = generate_mock_waveform(cfg)
        assert float(np.max(w.flow)) == pytest.approx(60.0, abs=1e-9)
        # expiratory amplitude is scaled by the I:E ratio; the first sample
        # of each expiration lands up to one grid step past the phase start
        assert -30.0 <= float(np.min(w.flow)) < -29.6

    def test_inspired_volume_matches_closed_form(self):
        # per-breath inspired volume: peak_flow * t_insp * (1 - e^-3) / 3,
        # converted L/min -> L
        cfg = MockConfig(
            duration_s=12.0, noise_sd_flow=0.0, noise_sd_pressure=0.0, holds=(), rng_seed=0
        )
        w, _ = generate_mock_waveform(cfg)
        t_insp = 4.0 / 3.0
        expected = 60.0 * t_insp * (1.0 - math.exp(-3.0)) / 3.0 / 60.0
        assert float(np.max(w.volume[:400])) == pytest.approx(expected, rel=0.01)

    def test_per_breath_volume_balance(self):
        # template inspired and expired volumes cancel; the residual is
        # trapezoid error at the two flow discontinuities, < 2% of V_T
        cfg = MockConfig(
            duration_s=12.0, noise_sd_flow=0.0, noise_sd_pressure=0.0, holds=(), rng_seed=0
        )
        w, _ = generate_mock_waveform(cfg)
        vt = float(np.max(w.volume[:400]))
        for k in (1, 2):
            assert abs(float(w.volume[k * 400])) < 0.02 * vt * k


class TestConfigValidation:
    def test_hold_outside_duration(self):
        with pytest.raises(InvalidConfig):
            MockConfig(duration_s=30.0, holds=((29.0, 2.0),))

    def test_negative_hold_start(self):
        with pytest.raises(InvalidConfig):
            MockConfig(holds=((-1.0, 2.0),))

    def test_zero_hold_duration(self):
        with pytest.raises(InvalidConfig):
            MockConfig(holds=((10.0, 0.0),))

    def test_overlapping_holds(self):
        with pytest.raises(InvalidConfig):
            MockConfig(holds=((10.0, 3.0), (12.0, 2.0)))

    def test_touching_holds_allowed(self):
        MockConfig(holds=((10.0, 2.0), (12.0, 2.0)))

    def test_unordered_holds_still_checked(self):
        with pytest.raises(InvalidConfig):
            MockConfig(holds=((12.0, 2.0), (10.0, 3.0)))

    def test_bad_holds_shape(self):
        with pytest.raises(InvalidConfig):
            MockConfig(holds=("x",))
        with pytest.raises(InvalidConfig):
            MockConfig(holds=((1.0,),))

    def test_negative_noise_sd(self):
        with pytest.raises(InvalidConfig):
            MockConfig(noise_sd_flow=-1.0)

    def test_non_positive_rate(self):
        with pytest.raises(InvalidConfig):
            MockConfig(sample_rate_hz=0.0)

    def test_non_integer_seed(self):
        with pytest.raises(InvalidConfig):
            MockConfig(rng_seed=1.5)

    def test_zero_sample_duration(self):
        with pytest.raises(InvalidConfig):
            generate_mock_waveform(MockConfig(duration_s=0.001, holds=()))

    def test_zero_noise_allowed(self):
        MockConfig(noise_sd_flow=0.0, noise_sd_pressure=0.0)

    # only counts above the ceiling: each is rejected before anything is allocated
    @pytest.mark.parametrize("duration, rate", [
        (1e308, 10.0),  # the product is not finite
        (1e15, 250.0),
        ((MAX_SAMPLES + 1) / 250.0, 250.0),
        (2.0**40, 1.0),
    ])
    def test_sample_ceiling(self, duration, rate):
        with pytest.raises(InvalidConfig, match=f"more than {MAX_SAMPLES} samples"):
            MockConfig(duration_s=duration, sample_rate_hz=rate, holds=())

    @pytest.mark.parametrize("name", ["duration_s", "sample_rate_hz", "i_to_e_ratio", "noise_sd_flow"])
    @pytest.mark.parametrize("value", ["abc", None, 1j, [1.0], 10**400, -(10**400)])
    def test_value_that_is_no_float(self, name, value):
        with pytest.raises(InvalidConfig, match=name):
            MockConfig(**{name: value})

    @pytest.mark.parametrize("hold", [(10**400, 1.0), (1.0, 10**400), ("a", 1.0)])
    def test_hold_that_is_no_float(self, hold):
        with pytest.raises(InvalidConfig, match="holds must be"):
            MockConfig(holds=(hold,))

    def test_integer_values_allowed(self):
        assert MockConfig(duration_s=10**2, sample_rate_hz=10, holds=((1, 2),)).duration_s == 100


class TestNoWarnings:
    """Values at the edge of the float range give no numpy warning; one that
    leaves it ends in the recording's own error."""

    @pytest.mark.parametrize("changes", [
        {"peak_pressure_cmh2o": 1e308},
        {"i_to_e_ratio": 1e-308},
        {"i_to_e_ratio": 1e308},
        {"peak_flow_lpm": 1e308},
        {"noise_sd_flow": 1e308},
        {"respiratory_rate_bpm": 5e-324},
    ])
    def test_blocks_are_silent(self, changes):
        cfg = MockConfig(duration_s=30.0, holds=((10.0, 2.0),), rng_seed=9, **changes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = list(_blocks(cfg, 3000, 1000))
            try:
                generate_mock_waveform(cfg)
            except NonFiniteInput:
                assert not all(np.isfinite(c).all() for b in blocks for c in b[1:])


class TestSeparation:
    def test_hold_scores_dominate_breathing_scores(self):
        # outside holds and the late-inspiration corner (template flow small
        # and pressure near plateau) virtually all samples score far below
        # the detection band
        for seed in (1, 2, 3, 4, 5):
            cfg = MockConfig(rng_seed=seed)
            w, _ = generate_mock_waveform(cfg)
            trace = score_series(w)
            period = 60.0 / cfg.respiratory_rate_bpm
            t_insp = period * cfg.i_to_e_ratio / (1.0 + cfg.i_to_e_ratio)
            phase = np.mod(w.t, period)
            late_insp = (phase < t_insp) & (phase / t_insp >= 2.0 / 3.0)
            in_hold = (w.t >= 45.0) & (w.t < 47.0)
            outside = ~(late_insp | in_hold)
            frac = float(np.mean(trace.log_scores[outside] < -25.0))
            assert frac >= 0.99


class TestEndToEnd:
    def test_single_hold_recovered(self):
        for seed in (101, 102, 103):
            w, truth = generate_mock_waveform(MockConfig(rng_seed=seed))
            segs = detect_holds(score_series(w), DetectionConfig())
            assert len(segs) == 1
            (start, end), = truth.hold_segments
            assert abs(segs[0].start_s - start) <= 0.2
            assert abs(segs[0].end_s - end) <= 0.2
