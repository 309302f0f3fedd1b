"""In-memory spans recorded around the public calls of the holdscan modules.

Tracing is done from outside the package: while a :meth:`Tracer.recording`
block is open, every module attribute of ``holdscan.*`` that refers to one of
the traced functions is replaced by a wrapper that records a span, and the
originals are put back when the block closes.  Code outside the block runs
the package unmodified.

A span is ``[name, kind, start, end, parent, op]``: ``name`` is
``<module>.<call>``, ``kind`` is ``"numeric"`` or ``"text"``, ``parent`` is
the index of the enclosing span (or ``None``) and ``op`` identifies the
operation the span belongs to.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# (module, attribute) -> (span name, kind).  The span name's first component
# is the layer the call belongs to.
TRACED_CALLS = {
    ("mockgen", "generate_mock_waveform"): ("mockgen.generate", "numeric"),
    ("waveform", "validate_waveform"): ("waveform.validate", "numeric"),
    ("waveform", "check_time_grid"): ("waveform.check_time_grid", "numeric"),
    ("waveform", "load_waveform_csv"): ("waveform.load_csv", "text"),
    ("waveform", "waveform_to_csv"): ("waveform.to_csv", "text"),
    ("scoring", "score_series"): ("scoring.score_series", "numeric"),
    ("scoring", "write_score_trace_csv"): ("scoring.write_trace_csv", "text"),
    ("scoring", "load_score_trace_csv"): ("scoring.load_trace_csv", "text"),
    ("detection", "detect_holds"): ("detection.detect_holds", "numeric"),
    ("detection", "summarize_segment"): ("detection.summarize", "numeric"),
    ("detection", "write_segments_ndjson"): ("detection.write_ndjson", "text"),
    ("detection", "read_segments_ndjson"): ("detection.read_ndjson", "text"),
    ("mechanics", "peak_pressure_before"): ("mechanics.peak_pressure_before", "numeric"),
    ("mechanics", "last_positive_flow_before"): ("mechanics.last_positive_flow_before", "numeric"),
    ("mechanics", "tidal_volume_before"): ("mechanics.tidal_volume_before", "numeric"),
    ("mechanics", "peep_estimate"): ("mechanics.peep_estimate", "numeric"),
    ("mechanics", "estimate_compliance"): ("mechanics.estimate_compliance", "numeric"),
    ("mechanics", "estimate_resistance"): ("mechanics.estimate_resistance", "numeric"),
}

NAME, KIND, START, END, PARENT, OP = range(6)


class Tracer:
    """Collects spans in memory; :meth:`write` stores them at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, kind: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, kind, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, kind: str):
        """Record one span around the block (inside :meth:`recording`)."""
        idx = self._open(name, kind)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, kind: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, kind)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextlib.contextmanager
    def recording(self, op):
        """Trace every call made inside the block as part of operation ``op``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "holdscan" or n.startswith("holdscan."))]
        for (mod_name, attr), (name, kind) in TRACED_CALLS.items():
            original = getattr(sys.modules[f"holdscan.{mod_name}"], attr)
            wrapper = self._wrap(original, name, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        self._op = op
        try:
            yield
        finally:
            self._op = None
            for module, key, original in reversed(self._patched):
                setattr(module, key, original)
            self._patched.clear()

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, kind, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "kind": kind, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls run one at a time on one thread, so the children of a span are
    disjoint and their durations add up to the time they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own
