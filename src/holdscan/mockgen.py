"""Seeded synthetic ventilator waveforms with ground-truth hold annotations.

The breath template is pressure-control shaped: during inspiration the airway
pressure ramps linearly from PEEP to peak pressure while flow decays
exponentially from its peak toward zero; during expiration pressure relaxes
exponentially back to PEEP and flow is negative, decaying to zero.  The
expiratory flow amplitude is scaled by the I:E ratio so inspired and expired
volumes balance per breath.  A configured hold overrides the template (flow
zero, pressure at plateau) without pausing the breath clock, and white
Gaussian noise is added everywhere on both channels.

Randomness is fully specified: SplitMix64 in counter mode supplies 64-bit
words, the same for a seed on any platform, and Gaussians come from the
Box-Muller transform (cosine branch only, one variate per pair of words).
Flow-noise sample i consumes counters (2i, 2i+1); pressure-noise sample i
consumes counters (2n+2i, 2n+2i+1) for an n-sample waveform.  numpy's exp
and log differ in the last bit between CPUs, so a long recording can differ
in a 9-digit value (README, "Reproducibility").

The recording can be computed in blocks (``_blocks``): every sample goes
through the same operations as over the whole recording, each block draws
its noise from its own samples' counters in the layout above, and the
volume's running sum is carried across blocks, so the bytes do not depend on
the block size.  ``generate`` and ``pipeline`` take blocks of ``_BLOCK``
samples and keep one of them and its temporaries (``pipeline`` also a few
seconds of earlier samples) at a time, so a recording of any length runs in
bounded memory; a config may ask for at most ``MAX_SAMPLES`` samples.
Values beyond the float range become inf or nan without a numpy warning, and
the recording's checks then reject them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, _real
from .waveform import Waveform

# Exponential decay constant shared by inspiratory flow and expiratory
# relaxation, in units of breath-phase fraction: the template falls to
# exp(-3) of its initial amplitude by the end of each phase.
DECAY_RATE = 3.0

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Samples computed per block; a block's temporaries stay in cache.
_BLOCK = 16384

# The most samples a recording may have: 2**32 is about 199 days at 250 Hz.
# ``generate`` and ``pipeline`` stream a recording of any length in bounded
# memory, so the ceiling is what keeps a mistyped duration from running for years.
MAX_SAMPLES = 2**32


@dataclass(frozen=True)
class MockConfig:
    duration_s: float = 90.0
    sample_rate_hz: float = 100.0
    respiratory_rate_bpm: float = 15.0
    i_to_e_ratio: float = 0.5  # inspiration:expiration, 0.5 means 1:2
    peak_flow_lpm: float = 60.0
    peep_cmh2o: float = 5.0
    plateau_cmh2o: float = 15.0
    peak_pressure_cmh2o: float = 20.0
    noise_sd_flow: float = 1.0  # L/min
    noise_sd_pressure: float = 1.0  # cmH2O
    holds: tuple[tuple[float, float], ...] = ((45.0, 2.0),)  # (start_s, duration_s)
    rng_seed: int = 0  # 64-bit; wider ints are reduced mod 2**64

    def __post_init__(self) -> None:
        try:
            object.__setattr__(
                self, "holds", tuple((float(s), float(d)) for s, d in self.holds)
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"holds must be (start_s, duration_s) pairs: {exc}") from None
        positive = (
            "duration_s",
            "sample_rate_hz",
            "respiratory_rate_bpm",
            "i_to_e_ratio",
            "peak_flow_lpm",
            "peep_cmh2o",
            "plateau_cmh2o",
            "peak_pressure_cmh2o",
        )
        for name in positive:
            v = getattr(self, name)
            if not math.isfinite(_real(name, v)) or v <= 0:
                raise InvalidConfig(f"{name} must be positive and finite, got {v}")
        for name in ("noise_sd_flow", "noise_sd_pressure"):
            v = getattr(self, name)
            if not math.isfinite(_real(name, v)) or v < 0:
                raise InvalidConfig(f"{name} must be >= 0 and finite, got {v}")
        if not float(self.duration_s) * float(self.sample_rate_hz) <= MAX_SAMPLES:
            raise InvalidConfig(
                f"duration {self.duration_s} s at {self.sample_rate_hz} Hz gives more than "
                f"{MAX_SAMPLES} samples"
            )
        if not isinstance(self.rng_seed, int):
            raise InvalidConfig(f"rng_seed must be an integer, got {self.rng_seed!r}")
        for start, dur in self.holds:
            if not (math.isfinite(start) and math.isfinite(dur)) or dur <= 0:
                raise InvalidConfig(
                    f"hold ({start}, {dur}) must have a finite start and a positive, finite duration")
            if start < 0 or start + dur > self.duration_s:
                raise InvalidConfig(
                    f"hold ({start}, {dur}) extends outside [0, {self.duration_s}]"
                )
        ordered = sorted(self.holds)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur[0] < prev[0] + prev[1]:
                raise InvalidConfig(f"holds {prev} and {cur} overlap")


@dataclass(frozen=True)
class GroundTruth:
    """True hold intervals as (start_s, end_s), sorted by start."""

    hold_segments: tuple[tuple[float, float], ...]


def _splitmix64(seed: int, first_counter: int, count: int, step: int = 1) -> np.ndarray:
    """SplitMix64 outputs for the ``count`` counters from ``first_counter`` on, ``step`` apart."""
    x = np.arange(first_counter + 1, first_counter + 1 + count * step, step, dtype=np.uint64)
    x *= _GAMMA
    x += np.uint64(seed & _MASK64)  # wraps mod 2**64
    shifted = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=shifted)
    x *= _MIX1
    x ^= np.right_shift(x, np.uint64(27), out=shifted)
    x *= _MIX2
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    return x


def _standard_normals(seed: int, first_counter: int, count: int) -> np.ndarray:
    """Box-Muller cosine variates from consecutive counter pairs.

    u1 is mapped into (0, 1] so the log never sees zero; u2 into [0, 1).
    Each takes the words of its own counters, the first or second of each pair.
    """
    words = _splitmix64(seed, first_counter, count, 2)
    words >>= np.uint64(11)
    u1 = np.add(words, 1.0)  # exact: the words are below 2**53
    u1 *= 2.0**-53
    words = _splitmix64(seed, first_counter + 1, count, 2)
    words >>= np.uint64(11)
    u2 = np.multiply(words, 2.0**-53)
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * math.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def _hold_mask(t: np.ndarray, holds) -> np.ndarray:
    """Samples with ``start <= t < start + duration`` for some hold; ``t`` sorted."""
    mask = np.zeros(len(t), dtype=bool)
    if holds:
        lo = np.searchsorted(t, [start for start, _ in holds], "left")
        hi = np.searchsorted(t, [start + dur for start, dur in holds], "left")
        # a block of a long recording meets few of its holds
        meets = lo < hi
        for a, b in zip(lo[meets].tolist(), hi[meets].tolist()):
            mask[a:b] = True
    return mask


def _sample_count(config: MockConfig) -> int:
    n = int(round(config.duration_s * config.sample_rate_hz))
    if n < 1:
        raise InvalidConfig(
            f"duration {config.duration_s} s at {config.sample_rate_hz} Hz yields no samples"
        )
    return n


def _ground_truth(config: MockConfig) -> GroundTruth:
    return GroundTruth(hold_segments=tuple(sorted((s, s + d) for s, d in config.holds)))


def _blocks(config: MockConfig, n: int, size: int = _BLOCK):
    """``(start, t, flow, pressure, volume)`` for samples ``[start, start + len(t))``.

    Consecutive blocks of at most ``size`` samples cover the ``n``-sample
    recording.  Each sample is computed by the same operations as over the
    whole recording, and the volume's running sum is carried from one block
    to the next, so the blocks hold the whole-recording values bit for bit.
    """
    rate = config.sample_rate_hz
    period = 60.0 / config.respiratory_rate_bpm
    t_insp = period * config.i_to_e_ratio / (1.0 + config.i_to_e_ratio)
    t_exp = period - t_insp
    peep = config.peep_cmh2o
    peak_p = config.peak_pressure_cmh2o
    last = None  # (t, flow in L/s, volume) of the previous block's last sample
    for start in range(0, n, size):
        m = min(size, n - start)
        # values beyond the float range become inf or nan without a warning;
        # the checks of the recording then report the first of them.  The
        # arrays are computed in place, and temporaries freed before the yield.
        with np.errstate(all="ignore"):
            t = np.arange(start, start + m, dtype=np.float64) / rate
            phase = np.fmod(t, period)  # np.mod, for t >= 0
            insp = phase < t_insp
            u = phase / t_insp  # inspiratory phase fraction, valid where insp
            # the sample's own phase fraction: expiratory, or u where insp
            decay = np.subtract(phase, t_insp, out=phase)
            decay /= t_exp
            np.copyto(decay, u, where=insp)
            decay *= -DECAY_RATE
            np.exp(decay, out=decay)
            flow = decay * (-config.peak_flow_lpm * config.i_to_e_ratio)
            np.multiply(decay, config.peak_flow_lpm, out=flow, where=insp)
            pressure = u
            np.copyto(pressure, decay, where=np.logical_not(insp, out=insp))
            pressure *= peak_p - peep
            pressure += peep
            del phase, insp, u, decay
            hold = _hold_mask(t, config.holds)
            np.copyto(flow, 0.0, where=hold)
            np.copyto(pressure, config.plateau_cmh2o, where=hold)
            del hold
            noise = _standard_normals(config.rng_seed, 2 * start, m)
            noise *= config.noise_sd_flow
            flow += noise
            noise = _standard_normals(config.rng_seed, 2 * n + 2 * start, m)
            noise *= config.noise_sd_pressure
            pressure += noise

            # trapezoid steps into each sample; the first sample of the recording has none
            flow_lps = np.divide(flow, 60.0, out=noise)
            volume = np.empty(m)
            np.add(flow_lps[1:], flow_lps[:-1], out=volume[1:])
            half_dt = np.diff(t)
            half_dt *= 0.5
            volume[1:] *= half_dt
            if last is None:
                volume[0] = 0.0
                np.cumsum(volume[1:], out=volume[1:])
            else:
                last_t, last_flow_lps, last_volume = last
                volume[0] = last_volume + (t[0] - last_t) * 0.5 * (flow_lps[0] + last_flow_lps)
                np.cumsum(volume, out=volume)
            last = (t[-1], flow_lps[-1], volume[-1])
            del noise, flow_lps, half_dt
        yield start, t, flow, pressure, volume


def generate_mock_waveform(config: MockConfig = MockConfig()) -> tuple[Waveform, GroundTruth]:
    """Deterministic synthetic recording plus its true hold intervals.

    The volume channel is the cumulative trapezoidal integral of flow
    (L/min converted to L/s), starting at zero.
    """
    n = _sample_count(config)
    # The whole recording is returned, so it is one block here; cache-sized
    # blocks pay off where each is consumed while in cache (``generate``, ``pipeline``).
    _, t, flow, pressure, volume = next(_blocks(config, n, n))
    w = Waveform(t=t, flow=flow, pressure=pressure, sample_rate_hz=config.sample_rate_hz,
                 volume=volume)
    return w, _ground_truth(config)
