"""Per-sample hold scoring from Gaussian channel likelihoods.

The hold model says flow and pressure are independent white Gaussian noise
around a zero-flow / plateau-pressure operating point.  With per-sample
density product

    q = N(flow | mu_f, var_f) * N(pressure | mu_p, var_p)

the score is the evidence ratio f = q / (1 - q): large when a sample looks
like a hold, vanishing when it looks like anything else.  Scores at ordinary
breathing samples underflow linear float64 (a 60 L/min flow excursion costs
1800 nats), so the log-domain path is the canonical representation and the
linear score is a derived view.

q is clamped to at most 1 - 1e-12 before forming q / (1 - q): the ratio is
only self-consistent as a probability when sigma_f * sigma_p >= 1/(2*pi), and
the clamp keeps the function total for user-supplied small variances.

Prior model weights cancel out of the ratio up to a constant factor, which is
why no prior inputs appear anywhere in this module; shifting all log-scores
and detection thresholds by the same constant leaves detections unchanged
(see the detection module's tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import (
    InvalidRange,
    MalformedRow,
    NonFiniteInput,
    NonPositiveVariance,
    _real,
)
from .waveform import (_READ_BACK_RTOL, Waveform, _channel, _check_rate, _read_table, _write_rows,
                       check_time_grid)

# ln of the density-product ceiling 1 - 1e-12.
LOG_Q_MAX = math.log1p(-1e-12)

_TWO_PI = 2.0 * math.pi

_TRACE_HEADER = ("t", "log_score")
_TRACE_HEADER_LINEAR = ("t", "log_score", "score")


@dataclass(frozen=True)
class ModelParams:
    """Gaussian operating point of the hold model, one channel each."""

    mu_flow: float = 0.0  # L/min
    var_flow: float = 1.0  # (L/min)^2
    mu_pressure: float = 15.0  # cmH2O
    var_pressure: float = 1.0  # (cmH2O)^2

    def __post_init__(self) -> None:
        for name in ("mu_flow", "var_flow", "mu_pressure", "var_pressure"):
            v = getattr(self, name)
            if not math.isfinite(_real(name, v)):
                raise NonFiniteInput(f"{name} must be finite, got {v}")
        if self.var_flow <= 0:
            raise NonPositiveVariance(f"var_flow must be > 0, got {self.var_flow}")
        if self.var_pressure <= 0:
            raise NonPositiveVariance(f"var_pressure must be > 0, got {self.var_pressure}")


@dataclass(frozen=True)
class ScoreTrace:
    """ln f per waveform sample; entries are finite or -inf (score underflow)."""

    log_scores: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        arr = _channel("log_scores", self.log_scores)
        _check_log_scores(arr)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "log_scores", arr)
        _check_rate(self.sample_rate_hz)

    def __len__(self) -> int:
        return len(self.log_scores)


def _check_log_scores(log_scores: np.ndarray) -> None:
    # false only for nan and inf
    if not (log_scores < np.inf).all():
        raise NonFiniteInput("log_scores entries must be finite or -inf")


def _check_finite(**named: float) -> None:
    for name, v in named.items():
        if not math.isfinite(v):
            raise NonFiniteInput(f"{name} must be finite, got {v}")


def _check_variance(variance: float) -> None:
    if not math.isfinite(variance) or variance <= 0:
        raise NonPositiveVariance(f"variance must be > 0 and finite, got {variance}")


def gaussian_pdf(x: float, mean: float, variance: float) -> float:
    """Normal density; may underflow to exactly 0 for extreme x."""
    _check_variance(variance)
    _check_finite(x=x, mean=mean)
    d = x - mean
    # d * d instead of d ** 2: float multiply overflows quietly to inf,
    # which exp() maps to 0, while ** raises OverflowError.
    return math.exp(-(d * d) / (2.0 * variance)) / math.sqrt(_TWO_PI * variance)


def score_sample(flow: float, pressure: float, params: ModelParams = ModelParams()) -> float:
    """Evidence ratio q/(1-q) for one sample, q clamped to 1 - 1e-12."""
    q = gaussian_pdf(flow, params.mu_flow, params.var_flow) * gaussian_pdf(
        pressure, params.mu_pressure, params.var_pressure
    )
    q = min(q, 1.0 - 1e-12)
    return q / (1.0 - q)


def log_score_sample(flow: float, pressure: float, params: ModelParams = ModelParams()) -> float:
    """ln of score_sample, computed without leaving the log domain.

    Uses ln f = ln q - log1p(-q), so that for ln q < -40 the result equals
    ln q to full precision instead of underflowing.  Returns -inf only when
    the squared deviation itself overflows float64.
    """
    lq = 0.0
    for x, mean, variance in ((flow, params.mu_flow, params.var_flow),
                              (pressure, params.mu_pressure, params.var_pressure)):
        _check_variance(variance)
        _check_finite(x=x, mean=mean)
        d = x - mean
        # ln N(x | mean, variance), which never underflows for finite inputs
        lq += -0.5 * math.log(_TWO_PI * variance) - (d * d) / (2.0 * variance)
    lq = min(lq, LOG_Q_MAX)
    return lq - math.log1p(-math.exp(lq))


def _log_density(flow: np.ndarray, pressure: np.ndarray, params: ModelParams) -> np.ndarray:
    """ln q per sample, for the caller to run under the ``np.errstate`` it needs."""
    df = flow - params.mu_flow
    dp = pressure - params.mu_pressure
    return (
        -0.5 * math.log(_TWO_PI * params.var_flow)
        - df * df / (2.0 * params.var_flow)
        - 0.5 * math.log(_TWO_PI * params.var_pressure)
        - dp * dp / (2.0 * params.var_pressure)
    )


def _log_scores_array(flow: np.ndarray, pressure: np.ndarray, params: ModelParams) -> np.ndarray:
    # a squared deviation that overflows makes the log-score -inf, as in
    # log_score_sample; one that meets an infinite variance makes it nan,
    # which the checks of a ScoreTrace reject
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        lq = _log_density(flow, pressure, params)
        np.minimum(lq, LOG_Q_MAX, out=lq)
        # at or below -40, lq - log1p(-exp(lq)) rounds to lq (log_score_sample)
        near = np.flatnonzero(lq > -40.0)
        near_lq = lq[near]
        lq[near] = near_lq - np.log1p(-np.exp(near_lq))
    return lq


def _read_back_band(params: ModelParams, thresholds) -> float:
    """``B`` such that a log-score outside ``[thr - B, thr + B)`` of each finite
    threshold meets it as ``score``'s does; inf where none is proven.

    ``score`` reads back flow and pressure, then the log-score.  The least float
    that reads back to ``thr`` or more lies within ``e`` of it.  Of two log-scores
    on either side of that float, one reaches it, so its squared terms sum to at
    most ``s`` (ln q at ``thr - e``), each deviation to at most ``sqrt(2 var s)``.
    A read-back moves a value by at most ``_READ_BACK_RTOL`` of itself, so ln q
    moves by at most ``dlq`` and the log-score by at most ``dlq`` times the slope
    ``1 / (1 - e^lq)`` (ln q at ``thr + e``; 1e12 at ``LOG_Q_MAX``); ``e`` and terms
    in ``u`` for every rounding are added; ``B`` is inf where any term could overflow.
    The ``e`` in both ln q change ``B`` by < 1e-7 of it, inside its 1.01: no test sees them.
    """
    u = 2.0**-52
    kf, kp = -0.5 * math.log(_TWO_PI * params.var_flow), 0.5 * math.log(_TWO_PI * params.var_pressure)
    tiny = 5e-323 / (2.0 * min(params.var_flow, params.var_pressure))  # below the normal range
    band = 0.0
    for thr in thresholds:
        if not -math.inf < thr < 28.0:  # no log-score exceeds 27.64
            continue
        e = _READ_BACK_RTOL * abs(thr) + 5e-324
        lq = thr - e - math.log1p(math.exp(thr - e)) - 0.01  # ln q where ln f = thr - e, less a margin
        s = max(kf - kp - lq, 0.0) * (1.0 + 1e-9) + 1.0 + tiny
        dlq, big = 0.0, s
        for mu, var in ((params.mu_flow, params.var_flow), (params.mu_pressure, params.var_pressure)):
            d = math.sqrt(2.0 * var * s)
            delta = _READ_BACK_RTOL * (abs(mu) + d) + 5e-324
            dlq += delta * (2.0 * d + delta) / (2.0 * var)
            big += (d + delta) * (d + delta)
        dlq += 64.0 * u * (s + dlq + abs(kf) + abs(kp)) + 4.0 * tiny
        if not (big + dlq) * 4.0 < math.inf:
            return math.inf
        slope = 1.01 / -math.expm1(min(lq + 2.0 * e + 0.02 + dlq, LOG_Q_MAX))
        band = max(band, (slope * dlq + e) * 1.01 + 16.0 * u * slope + 1e-12)
    return band


def score_series(w: Waveform, params: ModelParams = ModelParams()) -> ScoreTrace:
    """Score every sample of a waveform; length is preserved."""
    return ScoreTrace(
        log_scores=_log_scores_array(w.flow, w.pressure, params),
        sample_rate_hz=w.sample_rate_hz,
    )


def window_log_evidence(
    w: Waveform, start_index: int, end_index_exclusive: int, params: ModelParams = ModelParams()
) -> float:
    """Summed log density of both channels over [start, end).

    Exactly-rounded summation (math.fsum) keeps the value additive across
    window splits to within one final rounding.
    """
    n = len(w)
    if not (0 <= start_index < end_index_exclusive <= n):
        raise InvalidRange(
            f"window [{start_index}, {end_index_exclusive}) out of bounds for {n} samples"
        )
    window = slice(start_index, end_index_exclusive)
    with np.errstate(over="ignore"):
        per_sample = _log_density(w.flow[window], w.pressure[window], params)
    # fsum over a list of floats: the same exactly rounded sum, without
    # creating a numpy scalar per element
    try:
        return math.fsum(per_sample.tolist())
    except OverflowError:
        # A partial sum left float64, and it can only have gone down: each
        # sample adds at most ln(1 / (2 pi sqrt(var_f var_p))) < 709.
        return -math.inf


def write_score_trace_csv(t: np.ndarray, trace: ScoreTrace, stream: IO[str], linear: bool = False) -> None:
    """Write ``t,log_score`` rows (plus a linear ``score`` column on request).

    The linear column applies exp() with underflow-to-zero semantics, so it is
    plot-ready but lossy; the log column is the canonical record.
    """
    if len(t) != len(trace):
        raise MalformedRow("t and trace lengths differ")
    ls = trace.log_scores
    if linear:
        with np.errstate(under="ignore", over="ignore"):
            lin = np.exp(ls)
        _write_rows(stream, _TRACE_HEADER_LINEAR, (t, ls, lin))
    else:
        _write_rows(stream, _TRACE_HEADER, (t, ls))


def _trace_row_problem(values: list[float]) -> str | None:
    t, log_score = values[:2]
    if not math.isfinite(t):
        return "non-finite timestamp"
    if math.isnan(log_score) or log_score == math.inf:
        return "log_score must be finite or -inf"
    return None


def load_score_trace_csv(source, expected_rate_hz: float | None = None) -> tuple[np.ndarray, ScoreTrace]:
    """Parse a score CSV back into (t, ScoreTrace).

    Accepts the two- or three-column layout emitted by write_score_trace_csv;
    every field must be numeric, and only ``t`` and ``log_score`` are kept.
    Timestamps must be strictly increasing and uniformly spaced, matching the
    waveform rules.
    """
    _, rows = _read_table(source, (_TRACE_HEADER, _TRACE_HEADER_LINEAR), _trace_row_problem)
    t = rows[:, 0].copy()
    rate = check_time_grid(t, expected_rate_hz)
    return t, ScoreTrace(log_scores=rows[:, 1], sample_rate_hz=rate)
