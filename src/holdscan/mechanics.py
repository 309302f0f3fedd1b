"""Static respiratory mechanics from detected holds.

During an inspiratory hold, flow is zero, so airway pressure equals alveolar
pressure and the textbook single-compartment estimates apply:

    compliance  C = tidal_volume / (plateau_pressure - PEEP)     [L/cmH2O]
    resistance  R = (peak_pressure - plateau_pressure) / flow    [cmH2O/(L/s)]

where flow is the end-inspiratory flow just before the hold.  Everything else
in this module is plumbing to pull those five numbers out of a waveform and a
detected segment, and :func:`report_hold` assembles them into one report
record per hold.  The where-to-read-from choices are heuristics, flagged in
the report output: peak pressure and last positive flow come from a 1.0 s
window before the hold, tidal volume from the volume rise over a 5.0 s
lookback, and PEEP (when not supplied) as numpy's ``linear`` 10th percentile
of the lookback pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateDrivingPressure,
    DegenerateFlow,
    HoldscanError,
    InvalidConfig,
    InvalidRange,
    NonFiniteInput,
    _real,
)
from .detection import _window_mean
from .waveform import Waveform, _check_span

# Pre-hold window for peak pressure and end-inspiratory flow, seconds.
PRE_WINDOW_S = 1.0
# Lookback for tidal volume and the PEEP percentile estimate, seconds.
VOLUME_LOOKBACK_S = 5.0
# Percentile of lookback pressure used as the PEEP estimate.
PEEP_PERCENTILE = 10.0

# Human-readable note attached to every report record.
HEURISTICS_NOTE = (
    f"heuristic inputs: peak pressure and last positive flow from the {PRE_WINDOW_S} s "
    f"window before the hold; tidal volume and PEEP percentile from a {VOLUME_LOOKBACK_S} s lookback"
)


@dataclass(frozen=True)
class MechanicsInput:
    plateau_pressure: float  # cmH2O
    peak_pressure: float  # cmH2O
    peep: float  # cmH2O
    tidal_volume: float  # L
    end_inspiratory_flow: float  # L/s

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(_real(f.name, v)):
                raise NonFiniteInput(f"{f.name} must be finite, got {v}")


def estimate_compliance(inputs: MechanicsInput) -> float:
    """Static compliance; needs a positive driving pressure and tidal volume."""
    if inputs.plateau_pressure <= inputs.peep:
        raise DegenerateDrivingPressure(
            f"plateau pressure {inputs.plateau_pressure} cmH2O does not exceed "
            f"PEEP {inputs.peep} cmH2O"
        )
    if inputs.tidal_volume <= 0:
        raise InvalidConfig(f"tidal_volume must be positive, got {inputs.tidal_volume}")
    return inputs.tidal_volume / (inputs.plateau_pressure - inputs.peep)


def estimate_resistance(inputs: MechanicsInput) -> float:
    """Airway resistance from the peak-to-plateau pressure drop."""
    if inputs.end_inspiratory_flow <= 0:
        raise DegenerateFlow(
            f"end-inspiratory flow must be positive, got {inputs.end_inspiratory_flow} L/s"
        )
    return (inputs.peak_pressure - inputs.plateau_pressure) / inputs.end_inspiratory_flow


def _samples(seconds: float, rate: float) -> int:
    """The number of samples in ``seconds`` at ``rate``, at most 2**62."""
    return int(round(min(seconds * rate, 2.0**62)))


def _check_index(w: Waveform, index: int, last: int) -> None:
    """Refuse an ``index`` outside ``[0, last]``."""
    if not 0 <= index <= last:
        raise InvalidRange(f"index {index} out of bounds for {len(w)} samples")


def _window_before(w: Waveform, index: int) -> slice | None:
    """The pre-hold window before ``index`` (``0 <= index <= len(w)``); None if empty."""
    _check_index(w, index, len(w))
    lo = max(0, index - _samples(PRE_WINDOW_S, w.sample_rate_hz))
    if lo >= index:
        return None
    return slice(lo, index)


def peak_pressure_before(w: Waveform, index: int) -> float | None:
    """Maximum pressure in the window before ``index``; None if empty."""
    sl = _window_before(w, index)
    if sl is None:
        return None
    return float(w.pressure[sl].max())


def last_positive_flow_before(w: Waveform, index: int) -> float | None:
    """Last strictly positive flow in the window, converted to L/s."""
    sl = _window_before(w, index)
    if sl is None:
        return None
    window = w.flow[sl]
    positive = np.flatnonzero(window > 0)
    if len(positive) == 0:
        return None
    return float(window[positive[-1]]) / 60.0


def tidal_volume_before(w: Waveform, index: int) -> float | None:
    """Volume rise from the lookback minimum to ``index``; None if not positive.

    Uses the recorded volume channel when present, otherwise integrates flow
    over the lookback.  The minimum tracks the start of the last inspiration,
    so the rise is the delivered tidal volume.
    """
    _check_index(w, index, len(w) - 1)
    lo = max(0, index - _samples(VOLUME_LOOKBACK_S, w.sample_rate_hz))
    if w.volume is not None:
        vol = w.volume[lo : index + 1]
    else:
        sl = slice(lo, index + 1)
        flow_lps = w.flow[sl] / 60.0
        dt = np.diff(w.t[sl])
        vol = np.concatenate(([0.0], np.cumsum(dt * 0.5 * (flow_lps[1:] + flow_lps[:-1]))))
    rise = float(vol[-1] - vol.min())
    if rise <= 0:
        return None
    return rise


def _percentile(window: np.ndarray, q: float) -> float:
    """``np.percentile(window, q)`` (numpy's ``linear`` method) of a finite,
    non-empty window, bit for bit, without numpy's wrappers.

    The virtual index ``v = (n - 1) * (q / 100)`` falls between the order
    statistics ``i = floor(v)`` and ``i + 1``; from ``v >= n - 1`` on numpy
    reads index -1 for both, with the weight ``v + 1``.  One partition with
    numpy's own kth set ``{0, -1, i, i + 1}`` puts equal values (0.0 and
    -0.0) where numpy puts them, and numpy's two-branch lerp runs in Python
    floats.
    """
    n = len(window)
    v = (n - 1) * (q / 100)
    if v >= n - 1:
        i = j = -1
    else:
        i = math.floor(v)
        j = i + 1
    g = v - i
    part = window.copy()
    part.partition(sorted({0, -1, i, j}))
    a, b = float(part[i]), float(part[j])
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def peep_estimate(w: Waveform, index: int) -> float:
    """The PEEP baseline: numpy's ``linear`` 10th percentile of the pressure
    over the lookback up to and including ``index`` (``0 <= index < len(w)``).

    Where the gap between the two neighbouring values leaves the float range,
    it is the percentile of the halved values, doubled.
    """
    _check_index(w, index, len(w) - 1)
    lo = max(0, index - _samples(VOLUME_LOOKBACK_S, w.sample_rate_hz))
    window = w.pressure[lo : index + 1]
    peep = _percentile(window, PEEP_PERCENTILE)
    if not math.isfinite(peep):
        peep = _percentile(window / 2.0, PEEP_PERCENTILE) * 2.0
    return peep


def _check_peep(peep: float | None) -> float | None:
    """A known PEEP as a float; None stays None (PEEP is then estimated)."""
    if peep is None:
        return None
    value = _real("peep", peep)
    if not math.isfinite(value):
        raise InvalidConfig(f"peep must be finite, got {peep}")
    return value


def report_hold(w: Waveform, record: dict, peep: float | None = None, offset: int = 0) -> dict:
    """Mechanics report of one detected hold.

    ``record`` is a segment record (:func:`holdscan.detection.segment_record`
    or a line of :func:`holdscan.detection.read_segments_ndjson`).  The plateau
    pressure is the mean pressure over the hold, the value the record's
    ``mean_pressure`` holds when ``detect`` wrote it.  PEEP is ``peep`` when
    given (it must be finite), otherwise estimated.  A value that cannot be
    derived, or that leaves the float range, is left out, and the record's
    ``unavailable`` mapping says why.

    ``w`` holds samples ``[offset, offset + len(w))`` of the recording; a
    window from ``max(0, start_index - VOLUME_LOOKBACK_S * rate)`` to the end
    of the hold gives the report of the whole recording.
    """
    start, end = record["start_index"], record["end_index"]
    _check_span(w, start, end, offset)
    if offset > max(0, start - _samples(VOLUME_LOOKBACK_S, w.sample_rate_hz)):
        raise InvalidRange(
            f"waveform samples from {offset} miss the {VOLUME_LOOKBACK_S} s lookback of "
            f"segment [{start}, {end})"
        )
    peep = _check_peep(peep)
    index = start - offset
    with np.errstate(all="ignore"):
        plateau = _window_mean(w.pressure[index : end - offset])
        peak = peak_pressure_before(w, index)
        if peep is None:
            peep = peep_estimate(w, index)
        vt = tidal_volume_before(w, index)
        flow = last_positive_flow_before(w, index)
    out = {
        "start_s": record["start_s"],
        "end_s": record["end_s"],
        "start_index": start,
        "end_index": end,
        "plateau_pressure_cmh2o": plateau,
    }
    reasons: dict[str, str] = {}

    if peak is None:
        reasons["peak_pressure_cmh2o"] = "no samples before the hold"
    else:
        out["peak_pressure_cmh2o"] = peak

    out["peep_cmh2o"] = peep

    if vt is None:
        reasons["tidal_volume_l"] = "no volume rise in the lookback window"
    elif not math.isfinite(vt):
        reasons["tidal_volume_l"] = "the volume rise in the lookback window leaves the float range"
    else:
        out["tidal_volume_l"] = vt

    if flow is None:
        reasons["end_inspiratory_flow_lps"] = "no positive flow in the pre-hold window"
    else:
        out["end_inspiratory_flow_lps"] = flow

    if reasons:
        missing = ", ".join(sorted(reasons))
        reasons["compliance_l_per_cmh2o"] = f"missing inputs: {missing}"
        reasons["resistance_cmh2o_per_lps"] = f"missing inputs: {missing}"
    else:
        inputs = MechanicsInput(
            plateau_pressure=plateau,
            peak_pressure=peak,
            peep=peep,
            tidal_volume=vt,
            end_inspiratory_flow=flow,
        )
        for key, estimate in (("compliance_l_per_cmh2o", estimate_compliance),
                              ("resistance_cmh2o_per_lps", estimate_resistance)):
            try:
                value = estimate(inputs)
            except HoldscanError as exc:
                reasons[key] = str(exc)
                continue
            if math.isfinite(value):
                out[key] = value
            else:
                reasons[key] = "the estimate leaves the float range"

    if reasons:
        out["unavailable"] = reasons
    out["note"] = HEURISTICS_NOTE
    return out
