"""Inspiratory-hold detection and respiratory mechanics for ventilator waveforms.

Typical use:

    from holdscan import (MockConfig, detect_holds, generate_mock_waveform, report_hold,
                          score_series, segment_record, summarize_segment)

    w, truth = generate_mock_waveform(MockConfig(rng_seed=7))
    trace = score_series(w)
    segments = detect_holds(trace)
    reports = [report_hold(w, segment_record(summarize_segment(w, s))) for s in segments]
"""

from .detection import (
    DetectionConfig,
    HoldSegment,
    HoldSummary,
    detect_holds,
    read_segments_ndjson,
    segment_record,
    summarize_segment,
    write_segments_ndjson,
)
from .errors import (
    DegenerateDrivingPressure,
    DegenerateFlow,
    EmptyInput,
    HoldscanError,
    InvalidConfig,
    InvalidRange,
    MalformedRow,
    NonFiniteInput,
    NonMonotonicTime,
    NonPositiveVariance,
    NonUniformSampling,
)
from .mechanics import (
    MechanicsInput,
    estimate_compliance,
    estimate_resistance,
    report_hold,
)
from .mockgen import GroundTruth, MockConfig, generate_mock_waveform
from .scoring import (
    ModelParams,
    ScoreTrace,
    gaussian_pdf,
    load_score_trace_csv,
    log_score_sample,
    score_sample,
    score_series,
    window_log_evidence,
    write_score_trace_csv,
)
from .waveform import (
    Waveform,
    load_waveform_csv,
    validate_waveform,
    waveform_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "DetectionConfig",
    "HoldSegment",
    "HoldSummary",
    "detect_holds",
    "read_segments_ndjson",
    "segment_record",
    "summarize_segment",
    "write_segments_ndjson",
    "DegenerateDrivingPressure",
    "DegenerateFlow",
    "EmptyInput",
    "HoldscanError",
    "InvalidConfig",
    "InvalidRange",
    "MalformedRow",
    "NonFiniteInput",
    "NonMonotonicTime",
    "NonPositiveVariance",
    "NonUniformSampling",
    "MechanicsInput",
    "estimate_compliance",
    "estimate_resistance",
    "report_hold",
    "GroundTruth",
    "MockConfig",
    "generate_mock_waveform",
    "ModelParams",
    "ScoreTrace",
    "gaussian_pdf",
    "load_score_trace_csv",
    "log_score_sample",
    "score_sample",
    "score_series",
    "window_log_evidence",
    "write_score_trace_csv",
    "Waveform",
    "load_waveform_csv",
    "validate_waveform",
    "waveform_to_csv",
    "__version__",
]
