"""Seeded synthetic ventilator waveforms with ground-truth hold annotations.

The breath template is pressure-control shaped: during inspiration the airway
pressure ramps linearly from PEEP to peak pressure while flow decays
exponentially from its peak toward zero; during expiration pressure relaxes
exponentially back to PEEP and flow is negative, decaying to zero.  The
expiratory flow amplitude is scaled by the I:E ratio so inspired and expired
volumes balance per breath.  The breath clock is the phase ``fmod(t,
period)``, exact, and computed from basic operations where they give it
(``_breath_phase``).  A configured hold overrides the template (flow
zero, pressure at plateau) without pausing the breath clock, and white
Gaussian noise is added everywhere on both channels.

Randomness is fully specified: SplitMix64 in counter mode supplies 64-bit
words, the same for a seed on any platform, and Gaussians come from the
Box-Muller transform (cosine branch only, one variate per pair of words).
Flow-noise sample i consumes counters (2i, 2i+1); pressure-noise sample i
consumes counters (2n+2i, 2n+2i+1) for an n-sample waveform.  The cosine,
cos(2 pi u2), comes from a table and IEEE-754 basic operations
(``_cos_turns``): the same bits on every CPU and libm, and within 1 ulp of
the exact value for all but about 1 u in 10**4.  numpy's exp (the breath's
decay) and log (of u1) are still dispatched per CPU and can differ in the
last bit, so a long recording can differ in a 9-digit value (README,
"Reproducibility").

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

# Box-Muller's cosine, cos(2 pi u), from a table of N = _TURN_STEPS points a
# turn and short polynomials in IEEE-754 basic operations: the same bits on
# every CPU and libm (``_cos_turns``).
_TURN_STEPS = 1024
# cos(2 pi j / N) for j = 0 .. N/4, correctly rounded; a string, which
# compiles faster than a tuple of float literals
_QUARTER_TURN_COS = """
    1.0 0.9999811752826011 0.9999247018391445 0.9998305817958234 0.9996988186962042
    0.9995294175010931 0.9993223845883495 0.9990777277526454 0.9987954562051724
    0.9984755805732948 0.9981181129001492 0.9977230666441916 0.9972904566786902
    0.9968202992911657 0.996312612182778 0.9957674144676598 0.9951847266721969
    0.9945645707342554 0.9939069700023561 0.9932119492347945 0.99247953459871
    0.9917097536690995 0.99090263542778 0.9900582102622971 0.989176509964781
    0.9882575677307495 0.9873014181578584 0.9863080972445987 0.9852776423889412
    0.984210092386929 0.9831054874312163 0.9819638691095552 0.9807852804032304
    0.9795697656854405 0.9783173707196277 0.9770281426577544 0.9757021300385286
    0.9743393827855759 0.9729399522055602 0.9715038909862518 0.970031253194544
    0.9685220942744173 0.9669764710448521 0.9653944416976894 0.9637760657954398
    0.9621214042690416 0.9604305194155658 0.9587034748958716 0.9569403357322088
    0.9551411683057707 0.9533060403541939 0.9514350209690083 0.9495281805930367
    0.9475855910177411 0.9456073253805213 0.9435934581619604 0.9415440651830208
    0.9394592236021899 0.937339011912575 0.9351835099389476 0.9329927988347388
    0.9307669610789837 0.9285060804732156 0.9262102421383114 0.9238795325112867
    0.9215140393420419 0.9191138516900578 0.9166790599210427 0.9142097557035307
    0.9117060320054299 0.9091679830905224 0.9065957045149153 0.9039892931234433
    0.901348847046022 0.8986744656939538 0.8959662497561851 0.8932243011955153
    0.8904487232447579 0.8876396204028539 0.8847970984309378 0.881921264348355
    0.8790122264286335 0.8760700941954066 0.8730949784182901 0.8700869911087115
    0.8670462455156926 0.8639728561215867 0.8608669386377673 0.8577286100002721
    0.8545579883654005 0.8513551931052652 0.8481203448032972 0.8448535652497071
    0.8415549774368984 0.8382247055548381 0.83486287498638 0.8314696123025452
    0.8280450452577558 0.8245893027850253 0.8211025149911046 0.8175848131515837
    0.8140363297059484 0.8104571982525948 0.8068475535437992 0.8032075314806449
    0.799537269107905 0.7958369046088836 0.7921065773002124 0.7883464276266062
    0.7845565971555752 0.7807372285720945 0.7768884656732324 0.773010453362737
    0.7691033376455796 0.765167265622459 0.7612023854842618 0.7572088465064846
    0.7531867990436125 0.7491363945234594 0.745057785441466 0.7409511253549591
    0.7368165688773699 0.7326542716724128 0.7284643904482252 0.7242470829514669
    0.7200025079613817 0.7157308252838187 0.7114321957452164 0.7071067811865476
    0.7027547444572253 0.6983762494089728 0.693971460889654 0.6895405447370669
    0.6850836677727004 0.680600997795453 0.6760927035753159 0.6715589548470184
    0.6669999223036375 0.6624157775901718 0.6578066932970786 0.6531728429537768
    0.6485144010221124 0.6438315428897915 0.6391244448637757 0.6343932841636455
    0.629638238914927 0.6248594881423863 0.6200572117632892 0.6152315905806268
    0.6103828062763095 0.6055110414043255 0.600616479383869 0.5956993044924334
    0.5907597018588743 0.5857978574564389 0.5808139580957645 0.5758081914178453
    0.5707807458869673 0.5657318107836132 0.560661576197336 0.5555702330196022
    0.5504579729366048 0.5453249884220465 0.5401714727298929 0.5349976198870973
    0.5298036246862947 0.524589682678469 0.5193559901655896 0.5141027441932218
    0.508830142543107 0.5035383837257176 0.49822766697278187 0.49289819222978404
    0.48755016014843594 0.4821837720791228 0.47679923006332214 0.47139673682599764
    0.4659764957679662 0.46053871095824 0.45508358712634384 0.4496113296546066
    0.44412214457042926 0.43861623853852766 0.43309381885315196 0.4275550934302821
    0.4220002707997997 0.4164295600976372 0.41084317105790397 0.40524131400498986
    0.39962419984564684 0.3939920400610481 0.3883450466988263 0.3826834323650898
    0.37700741021641826 0.37131719395183754 0.36561299780477385 0.35989503653498817
    0.3541635254204904 0.34841868024943456 0.3426607173119944 0.33688985339222005
    0.33110630575987643 0.3253102921622629 0.3195020308160157 0.31368174039889146
    0.30784964004153487 0.3020059493192281 0.29615088824362384 0.2902846772544624
    0.2844075372112718 0.2785196893850531 0.272621355449949 0.26671275747489837
    0.2607941179152755 0.25486565960451457 0.24892760574572018 0.2429801799032639
    0.2370236059943672 0.2310581082806711 0.22508391135979283 0.2191012401568698
    0.21311031991609136 0.20711137619221856 0.2011046348420919 0.19509032201612828
    0.18906866414980622 0.18303988795514095 0.17700422041214875 0.17096188876030122
    0.16491312048996992 0.15885814333386145 0.15279718525844344 0.14673047445536175
    0.14065823933284924 0.1345807085071262 0.12849811079379317 0.1224106751992162
    0.11631863091190477 0.11022220729388306 0.10412163387205457 0.0980171403295606
    0.09190895649713272 0.0857973123444399 0.07968243797143013 0.07356456359966743
    0.06744391956366406 0.06132073630220858 0.05519524434968994 0.049067674327418015
    0.04293825693494082 0.03680722294135883 0.030674803176636626
    0.024541228522912288 0.01840672990580482 0.012271538285719925
    0.006135884649154475 0.0
"""
# Taylor coefficients of cos(2 pi r) - 1 and sin(2 pi r): powers of 2 pi over
# factorials, scaled exactly by powers of N for r counted in steps of 1/N turn.
# The linear term's 2 pi is split: 6.28125 has 8 bits, so its product with an
# offset of at most 43 bits is exact.
_SIN_1_HI = 6.28125 / _TURN_STEPS
_SIN_1_LO = 0.001935307179586477 / _TURN_STEPS  # 2 pi - 6.28125
_COS_2 = -19.739208802178716 / _TURN_STEPS**2
_COS_4 = 64.9393940226683 / _TURN_STEPS**4
_SIN_3 = -41.34170224039976 / _TURN_STEPS**3
_SIN_5 = 81.60524927607506 / _TURN_STEPS**5
# Added to 0 <= x <= N, it leaves round-half-even(x) in the low bits.
_ROUND = 1.5 * 2.0**52
# Veltkamp's constant 2**27 + 1: it splits a double into two parts of at most 26 bits.
_SPLIT = 134217729.0

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


def _turn_table() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of ``m / N`` turns for ``m = 0 .. N``, from the quarter turn.

    Negation and reversal are exact, so every entry is correctly rounded,
    and the quarter turns are exactly 0 and +-1.
    """
    quarter = np.array([float(v) for v in _QUARTER_TURN_COS.split()])
    half = np.concatenate((quarter, -quarter[-2::-1]))
    cos = np.concatenate((half, half[-2::-1]))
    n = _TURN_STEPS
    return cos, cos[(np.arange(n + 1) - n // 4) % n]


_COS_TURNS, _SIN_TURNS = _turn_table()


def _cos_turns(u: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``cos(2 pi u)`` in place, for ``u`` in [0, 1) on the 2**-53 grid.

    With ``x = u N``, its nearest step ``m`` and the exact offset ``r = x - m``
    (``|r| <= 1/2``), ``cos(2 pi u) = C + (C (cos(2 pi r / N) - 1) - S sin(2 pi
    r / N))`` for the table's ``C`` and ``S`` at ``m``.  The result is exact at
    the quarter turns, correctly rounded at the table's points, and within 1
    ulp of ``cos(2 pi u)`` but for about 1 in 10**4 drawn ``u``; the largest
    errors, about 1.5 ulp, lie near the zeros, where the result falls well
    below ``C`` (tests/test_mockgen.py).  ``index`` is int64 scratch as long as
    ``u``.  The work runs over slices of at most ``_BLOCK`` samples, so its
    temporaries stay block-sized.
    """
    scratch = np.empty((2, min(len(u), _BLOCK)))
    for start in range(0, len(u), _BLOCK):
        x = u[start:start + _BLOCK]
        m = index[start:start + len(x)]
        r2, sin = scratch[:, :len(x)]
        x *= _TURN_STEPS  # exact
        np.add(x, _ROUND, out=r2)
        np.bitwise_and(r2.view(np.int64), 2 * _TURN_STEPS - 1, out=m)
        r2 -= _ROUND  # m as a float
        x -= r2  # r, exact
        np.multiply(x, x, out=r2)
        np.multiply(r2, _SIN_5, out=sin)  # sin(2 pi r / N)
        sin += _SIN_3
        sin *= r2
        sin += _SIN_1_LO
        sin *= x
        x *= _SIN_1_HI  # exact
        sin += x
        np.multiply(r2, _COS_4, out=x)  # cos(2 pi r / N) - 1
        x += _COS_2
        x *= r2
        sin *= np.take(_SIN_TURNS, m, out=r2, mode="clip")
        x *= np.take(_COS_TURNS, m, out=r2, mode="clip")
        x -= sin
        x += r2
    return u


def _breath_phase(t: np.ndarray, period: float) -> np.ndarray:
    """``np.fmod(t, period)`` bit for bit, for sorted ``t >= +0``, mostly from basic operations.

    With ``q = floor(t / period)`` and ``period = hi + lo`` split by Veltkamp,
    ``q hi``, ``q lo`` and ``t - q hi`` are exact while ``q < 2**26``, so ``r =
    (t - q hi) - q lo`` is ``t - q period`` rounded once: the exact ``fmod``
    where ``q`` is the true quotient, and outside ``[0, period)`` where it is
    one off.  Such samples take ``np.fmod``, as does a slice whose last ``q``
    reaches ``2**26`` and every slice where the split is not finite (a period
    above about 1.3e300).  The work runs over slices of at most ``_BLOCK``
    samples, so its temporaries stay block-sized.
    """
    p = _SPLIT * period
    hi = p - (p - period)
    lo = period - hi
    phase = np.empty_like(t)
    scratch = np.empty(min(len(t), _BLOCK))
    for start in range(0, len(t), _BLOCK):
        x = t[start:start + _BLOCK]
        r, q = phase[start:start + len(x)], scratch[:len(x)]
        np.divide(x, period, out=q)
        np.floor(q, out=q)
        if not (q[-1] < 2**26 and math.isfinite(lo)):  # the last q is the largest
            np.fmod(x, period, out=r)
            continue
        np.multiply(q, hi, out=r)
        np.subtract(x, r, out=r)
        q *= lo
        r -= q
        ok = r >= 0  # false for nan
        ok &= r < period
        if not ok.all():
            j = np.flatnonzero(~ok)
            r[j] = np.fmod(x[j], period)
    return phase


def _standard_normals(seed: int, first_counter: int, count: int) -> np.ndarray:
    """Box-Muller cosine variates from consecutive counter pairs.

    u1 is mapped into (0, 1] so the log never sees zero; u2 into [0, 1).
    Each takes the words of its own counters, the first or second of each pair.
    """
    words = _splitmix64(seed, first_counter + 1, count, 2)
    words >>= np.uint64(11)
    u2 = np.multiply(words, 2.0**-53)
    _cos_turns(u2, words.view(np.int64))  # before u1 is made: fewer arrays at once
    words = _splitmix64(seed, first_counter, count, 2)
    words >>= np.uint64(11)
    u1 = np.add(words, 1.0)  # exact: the words are below 2**53
    u1 *= 2.0**-53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
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
            phase = _breath_phase(t, period)  # np.fmod(t, period), bit for bit
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
