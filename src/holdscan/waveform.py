"""Ventilator waveform data model with CSV ingestion and validation.

A recording is a uniformly sampled time series of airflow (L/min) and airway
pressure (cmH2O), optionally with an inspired-volume channel (L).  Channels
are stored as read-only float64 arrays, and building a :class:`Waveform`
checks the invariants every downstream consumer relies on (strictly
increasing timestamps, uniform spacing, finite values).

CSV format: header line ``t,flow,pressure`` or ``t,flow,pressure,volume``,
comma-separated decimal values, UTF-8, LF or CRLF line endings, lines starting
with ``#`` ignored.  Values are written with 9 significant digits, which makes
write -> read -> write byte-stable.

The CSV layer here is shared with the score trace (``scoring``): one row
writer formats whole chunks of rows at once, and one reader parses canonical
text (what the writer emits) with ``np.loadtxt`` and hands anything else to
a line-by-line parser, which is the reference for values and error messages.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import (
    EmptyInput,
    InvalidConfig,
    InvalidRange,
    MalformedRow,
    NonFiniteInput,
    NonMonotonicTime,
    NonUniformSampling,
    _real,
)

# Relative tolerance on |dt - 1/rate|; tighter than any real monitor's jitter.
SPACING_RTOL = 1e-6

# Significant digits used when serializing values to CSV.
CSV_DIGITS = 9

# The channels of a waveform, in the order its checks visit them; also the
# CSV header of a waveform with volume.
_CHANNELS = ("t", "flow", "pressure", "volume")

_HEADER_BASE = _CHANNELS[:3]

# Samples computed per block by the generator (``mockgen``) and by
# ``scoring.score_series``; a block's temporaries stay in cache.
_BLOCK = 16384

# Rows formatted by one string operation in the writer; bounds its temporaries.
# Not _BLOCK: 16384 rows raised generate's peak RSS by about 3 MB, no faster.
_ROWS_PER_CHUNK = 8192

# Every byte the writer emits in data rows of finite values.
_ROW_BYTES = b"0123456789.+-e,\n"


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled recording, checked when built; channels are parallel read-only arrays."""

    t: np.ndarray
    flow: np.ndarray
    pressure: np.ndarray
    sample_rate_hz: float
    volume: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in _CHANNELS:
            arr = getattr(self, name)
            if arr is None and name == "volume":
                continue
            arr = _channel(f"channel {name!r}", arr).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        validate_waveform(self)

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def _checked(cls, t, flow, pressure, sample_rate_hz: float, volume=None) -> Waveform:
        """A waveform of float64 arrays, not copied, that the caller has checked.

        The channels are 1-dimensional, of one length and finite, and a
        :class:`_BlockCheck` has passed them at ``sample_rate_hz``.
        """
        w = object.__new__(cls)
        for name, arr in zip(_CHANNELS, (t, flow, pressure, volume)):
            if arr is not None:
                arr = arr.view()
                arr.flags.writeable = False
            object.__setattr__(w, name, arr)
        object.__setattr__(w, "sample_rate_hz", sample_rate_hz)
        return w


def _channel(label: str, values) -> np.ndarray:
    """``values`` as a 1-D float64 array, not copied; ``label`` names the channel in errors."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting
        raise MalformedRow(f"{label} must be 1-dimensional") from None
    if arr.dtype.kind not in "biuf":
        raise MalformedRow(f"{label} must hold real numbers, got dtype {arr.dtype}")
    if arr.ndim != 1:
        raise MalformedRow(f"{label} must be 1-dimensional")
    return arr.astype(np.float64, copy=False)


def _backward(index: int, before: float, after: float) -> NonMonotonicTime:
    return NonMonotonicTime(
        f"timestamps not strictly increasing at index {index} "
        f"(t={float(before)!r} then t={float(after)!r})"
    )


def _non_finite(name: str, index: int) -> NonFiniteInput:
    return NonFiniteInput(f"channel {name!r} has a non-finite value at index {index}")


def _uneven(nominal: float, dev: float, index: int, before: float, after: float,
            fits: int | None) -> NonUniformSampling:
    hint = f"; the smallest step fits {fits} Hz" if fits is not None else ""
    return NonUniformSampling(
        f"timestamp spacing deviates from {nominal} s by {dev} at index {index} "
        f"(t={before!r} then t={after!r}; allowed {SPACING_RTOL * nominal}{hint})"
    )


def _fitted_rate(step: float) -> int | None:
    """The integer rate whose grid check ``step`` passes, if any."""
    inverse = 1.0 / step
    r = round(inverse) if inverse < math.inf else 0
    return r if r > 0 and abs(step - 1.0 / r) <= SPACING_RTOL * (1.0 / r) else None


def _check_span(w: Waveform, start: int, end: int, offset: int = 0) -> None:
    """Raise unless samples ``[start, end)`` of a recording lie in ``w``,
    which holds its samples from ``offset`` on."""
    if not offset <= start < end <= offset + len(w):
        held = f"samples [{offset}, {offset + len(w)})" if offset else f"length {len(w)}"
        raise InvalidRange(f"segment [{start}, {end}) exceeds waveform {held}")


def _check_rate(rate, name: str = "sample_rate_hz") -> float:
    """``rate`` as a float; refused unless real, positive and finite, with ``1 / rate`` finite."""
    rate = _real(name, rate)
    # a rate whose spacing 1 / rate overflows would pass any grid
    if not (0 < rate < math.inf and 1 / rate < math.inf):
        raise InvalidConfig(
            f"{name} must be positive and finite, with a finite spacing 1 / rate, got {rate}"
        )
    return rate


def validate_waveform(w: Waveform) -> None:
    """Raise a taxonomy error unless all waveform invariants hold."""
    n = len(w.t)
    if n == 0:
        raise EmptyInput("waveform has no samples")
    for name in _CHANNELS[1:]:
        arr = getattr(w, name)
        if arr is not None and len(arr) != n:
            raise MalformedRow(f"channel {name!r} length differs from t")
    check = _BlockCheck()
    check.feed(w.t, w.flow, w.pressure, w.volume)
    # a rate that is no number is refused here, not inferred
    check.raise_first(_check_rate(w.sample_rate_hz))


class _BlockCheck:
    """The one rule for a recording's rate and for the order of its faults.

    :meth:`feed` takes the channels of each consecutive block, ``t`` first
    (a channel may be None, as ``volume`` is when the recording has none);
    the previous block's last timestamp is carried into the grid check.  It
    keeps the first non-finite value of each channel, the first step of
    ``t`` that is not forward, and the smallest and largest step with where
    each first occurs, so the spacing can be judged at any rate afterwards
    and its error can say where; the grid is no longer
    checked once a timestamp is not finite.  :meth:`raise_first` raises the
    first fault of the recording so far and returns its rate.
    """

    def __init__(self) -> None:
        self._pos = 0
        self._first = self._last = math.nan
        self.bad: dict[str, int] = {}  # channel -> index of its first non-finite value
        self.backward: NonMonotonicTime | None = None
        # smallest and largest step, each with its first (index, t before, t after)
        self._lo, self._hi = math.inf, -math.inf
        self._lo_at = self._hi_at = (0, math.nan, math.nan)

    def feed(self, t: np.ndarray, *channels: np.ndarray | None) -> None:
        start, self._pos = self._pos, self._pos + len(t)
        last, self._last = self._last, float(t[-1])
        if start == 0:
            self._first = float(t[0])
        for name, arr in zip(_CHANNELS, (t, *channels)):
            if arr is not None and name not in self.bad and not np.isfinite(arr).all():
                self.bad[name] = start + int(np.flatnonzero(~np.isfinite(arr))[0])
        if "t" in self.bad or self.backward is not None:
            return
        with np.errstate(over="ignore"):  # a step beyond the float range is inf
            dt = np.diff(t)
        if start and not float(t[0]) - last > 0:
            self.backward = _backward(start, last, t[0])
        elif not (dt > 0).all():
            bad = int(np.flatnonzero(dt <= 0)[0])
            self.backward = _backward(start + bad + 1, t[bad], t[bad + 1])
        else:
            # the step into the block first, so that the first of equal steps is kept
            steps = [(start, last, float(t[0]))] if start else []
            if len(dt):
                steps += [(start + i + 1, float(t[i]), float(t[i + 1]))
                          for i in (int(dt.argmin()), int(dt.argmax()))]
            for at in steps:
                step = at[2] - at[1]
                if step < self._lo:
                    self._lo, self._lo_at = step, at
                if step > self._hi:
                    self._hi, self._hi_at = step, at

    def raise_first(self, rate: float | None = None) -> float:
        """Raise the first fault of the recording at ``rate``; return the rate.

        Without ``rate``, the rate is inferred as :func:`check_time_grid`
        infers it, and a grid that has none (a single row, a span too short
        for a finite rate, a timestamp that is not finite) fails first.
        Then: a rate that is not positive and finite, or whose spacing
        ``1 / rate`` overflows; the first non-finite value of the first
        channel that has one; the first step that is not forward; the
        largest deviation of a step from ``1 / rate``.
        """
        if rate is None:
            rate = _span_rate(self._pos, self._first, self._last)
            if rate == math.inf or "t" in self.bad:
                self._raise_grid(math.inf)
        _check_rate(rate)
        for name in _CHANNELS:
            if name in self.bad:
                raise _non_finite(name, self.bad[name])
        self._raise_grid(rate)
        return rate

    def _raise_grid(self, rate: float) -> None:
        """Raise the first fault of the timestamps at ``rate``; where the
        smallest step fits another, integer rate, the error names it."""
        if "t" in self.bad:
            raise _non_finite("t", self.bad["t"])
        if self.backward is not None:
            raise self.backward
        # rounding is monotonic, so this is the largest |step - nominal|; of
        # two steps that deviate as much, the first is named
        nominal = 1.0 / rate
        over, under = self._hi - nominal, nominal - self._lo
        dev, at = max((over, self._hi_at), (under, self._lo_at), key=lambda d: (d[0], -d[1][0]))
        if dev > SPACING_RTOL * nominal:
            fits = _fitted_rate(self._lo)
            raise _uneven(nominal, dev, *at, fits if fits != rate else None)


def _span_rate(count: int, first: float, last: float) -> float:
    """The rate :func:`check_time_grid` infers for ``count`` timestamps from
    ``first`` to ``last``; inf for a span too short to have one."""
    if count == 1:
        raise InvalidConfig("cannot infer sample rate from a single row; pass expected_rate_hz")
    span = float(last) - float(first)
    # a span <= 0 fails the monotonicity check whatever the rate
    rate = (count - 1) / span if span > 0 else 1.0
    if rate != math.inf and round(rate) > 0 and abs(rate - round(rate)) <= SPACING_RTOL * rate:
        rate = float(round(rate))
    return rate


def check_time_grid(t: np.ndarray, expected_rate_hz: float | None = None) -> float:
    """Validate a timestamp grid (finite, strictly increasing, uniform) and return its rate.

    The rate is ``expected_rate_hz`` when given.  Otherwise it is inferred
    from the total span, and snapped to the nearest integer when that lies
    within the uniformity tolerance: any rate in the tolerance band is equally
    consistent with the data, so the canonical representative undoes the tiny
    drift a serialized-and-reparsed grid picks up.  A single timestamp carries
    no spacing information and requires an explicit rate.
    """
    if expected_rate_hz is not None:
        expected_rate_hz = _check_rate(expected_rate_hz, "expected_rate_hz")
    if len(t) == 0:
        raise EmptyInput("no timestamps")
    check = _BlockCheck()
    check.feed(t)
    return check.raise_first(expected_rate_hz)


def _source_text(source: IO | bytes | str) -> str:
    """The whole text of a str, bytes or readable stream source."""
    try:
        data = source.read() if hasattr(source, "read") else source
        if isinstance(data, bytes):
            data = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"input is not UTF-8 text: {exc}") from None
    if not isinstance(data, str):
        raise MalformedRow(f"input must be text, bytes or a stream, not {type(source).__name__}")
    return data


def _parse_lines(lines: list[str], headers, row_problem):
    """Line-by-line CSV parser: ``(header, rows)``, rows as a 2-D float64 array.

    Blank lines and ``#`` lines are skipped; the first other line must be
    one of ``headers``.  Every field of each row is parsed, and
    ``row_problem(values)`` names what is wrong with them, or returns None.
    Every error names the line it was found on.
    """
    header: tuple[str, ...] | None = None
    rows: list[list[float]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            header = tuple(fields)
            if header not in headers:
                raise MalformedRow(f"line {lineno}: unrecognized header {line!r}")
            continue
        if len(fields) != len(header):
            raise MalformedRow(
                f"line {lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise MalformedRow(f"line {lineno}: non-numeric field in {line!r}") from None
        problem = row_problem(values)
        if problem is not None:
            raise MalformedRow(f"line {lineno}: {problem} in {line!r}")
        rows.append(values)
    if header is None or not rows:
        raise EmptyInput("no data rows found")
    return header, np.asarray(rows, dtype=np.float64)


def _fast_table(text: str, headers):
    """``(header, rows)`` of canonical CSV text by ``np.loadtxt``, else None.

    Canonical text is what the writer emits: a known header alone on the
    first line, then rows of finite values made only of ``_ROW_BYTES``.
    On that alphabet ``np.loadtxt`` and the line parser read the same
    numbers; outside it they differ (``np.loadtxt`` takes ``0,1\\x0b,2`` as
    one row, ``str.splitlines`` splits it), so such text, and any text
    ``np.loadtxt`` rejects, is left to the line parser.
    """
    end = text.find("\n")
    first = text[:end]
    header = tuple(first.split(","))
    if end < 0 or header not in headers:
        return None
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    # Only the header's own bytes may survive deleting the row alphabet.
    if data.translate(None, _ROW_BYTES) != first.encode("ascii").translate(None, _ROW_BYTES):
        return None
    with warnings.catch_warnings():
        # An empty body only warns; the line parser reports it as EmptyInput.
        warnings.simplefilter("error")
        try:
            # from the ASCII bytes: a StringIO would hold the text as UCS-4
            rows = np.loadtxt(io.BytesIO(data), dtype=np.float64, delimiter=",",
                              comments=None, skiprows=1, ndmin=2, encoding="ascii")
        except (ValueError, Warning):
            return None
    if rows.shape[1] != len(header) or not np.isfinite(rows).all():
        return None
    return header, rows


def _read_table(source, headers, row_problem):
    """``(header, rows)`` of a CSV source, the one reader of both CSV formats.

    Canonical text goes through :func:`_fast_table`; everything else through
    :func:`_parse_lines` (same arguments), which gives the same values and
    raises the per-line errors.
    """
    text = _source_text(source)
    return _fast_table(text, headers) or _parse_lines(text.splitlines(), headers, row_problem)


def _waveform_row_problem(values: list[float]) -> str | None:
    return None if all(math.isfinite(v) for v in values) else "non-finite value"


def load_waveform_csv(source, expected_rate_hz: float | None = None) -> Waveform:
    """Parse and validate a waveform CSV.

    The sample rate is taken from ``expected_rate_hz`` when given, otherwise
    inferred from the timestamps (which needs at least two rows; see
    :func:`check_time_grid`).  Raises the usual taxonomy errors on malformed
    or inconsistent input.
    """
    _, rows = _read_table(source, (_HEADER_BASE, _CHANNELS), _waveform_row_problem)
    # one contiguous row per channel; the reader has refused non-finite values
    t, flow, pressure, *volume = rows.T.copy()
    rate = check_time_grid(t, expected_rate_hz)
    return Waveform._checked(t, flow, pressure, rate, *volume)


def format_value(v: float) -> str:
    """Serialize one value with the package-wide CSV precision."""
    return format(float(v), f".{CSV_DIGITS}g")


# 10**k for k = 0..22, each exact in float64 (5**22 < 2**53).
_POW10 = np.array([float(10**k) for k in range(23)])

# A read-back moves a value by at most this much of itself: half a unit in its 9th digit, and a rounding.
_READ_BACK_RTOL = 5.01e-9


def _read_back(values) -> np.ndarray:
    """``float(format_value(v))`` for each value, bit for bit, without the text.

    Each ``x`` is scaled by an exact power, ``y = x * 10**k``, with ``k = 8 -
    floor(log10|x|)`` clipped to ``[0, 22]``.  ``m = rint(y)`` is accepted
    where ``1e8 <= |y| < 1e9 + 0.5`` and ``|y - m| < 0.5 - 1e-6``, and gives
    ``m / 10**k``: one rounding of exact operands, the float nearest the
    decimal ``m * 10**-k``, as ``float()`` gives for the text.  This holds
    for any such ``k``: ``y``, one rounding below ``2**30``, is within
    ``2**-24 < 6e-8`` of ``x * 10**k``, so ``m`` is its nearest integer, with
    no tie, and the ``%.9g`` mantissa; at ``m = 1e8`` and ``m = 1e9`` the
    rounding carries across the decade to the same value.  So the ``log10``
    estimate decides only how many values are accepted.  Every other finite
    non-zero value, 1e9 + 0.5 and more among them, goes through the text, in
    one batch; zeros and infinities pass through.  Long arrays are best read
    in blocks.
    """
    x = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 8.0 - np.floor(np.log10(np.abs(x)))  # inf for 0, -inf for inf
        # 0, inf and nan give a y the rule refuses with any power
        p = _POW10.take(k.astype(np.intp), mode="clip")
        y = x * p
        m, a = np.rint(y), np.abs(y)
        ok = (a >= 1e8) & (a < 1e9 + 0.5) & (np.abs(y - m) < 0.5 - 1e-6)
        r = m / p
    if not ok.all():
        j = np.flatnonzero(~ok)
        r[j] = x[j]
        j = j[np.isfinite(r[j]) & (r[j] != 0.0)]
        if len(j):
            text = (f"%.{CSV_DIGITS}g\n" * len(j)) % tuple(x[j].tolist())
            r[j] = [float(v) for v in text.split()]
    return r


def _write_rows(stream: IO[str], header: tuple[str, ...] | None, columns) -> None:
    """Write ``header`` (unless None) and the parallel ``columns`` as CSV rows (LF line endings).

    Each chunk of rows is formatted by one ``%`` over its flattened values,
    which gives the same text as :func:`format_value` on each value.
    """
    if header is not None:
        stream.write(",".join(header) + "\n")
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    row = ",".join([f"%.{CSV_DIGITS}g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), _ROWS_PER_CHUNK):
        block = np.column_stack([c[start : start + _ROWS_PER_CHUNK] for c in columns])
        stream.write((row * len(block)) % tuple(block.ravel().tolist()))


def waveform_to_csv(w: Waveform) -> str:
    """The waveform in the canonical CSV format (LF line endings)."""
    buf = io.StringIO()
    if w.volume is None:
        _write_rows(buf, _HEADER_BASE, (w.t, w.flow, w.pressure))
    else:
        _write_rows(buf, _CHANNELS, (w.t, w.flow, w.pressure, w.volume))
    return buf.getvalue()
