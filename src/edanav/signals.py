"""Time-series primitives for electrodermal activity (EDA) processing.

Provides the `Trace` container used across the package plus the basic
operations the adaptation pipeline is built from:

    * same_rate  -- whether two sampling rates agree
    * NormParams -- min-max scaling to [0, 1]
    * trace_norm -- the min-max scale of one channel over a set of traces
    * tonic_rows -- the tonic (SCL) of each trace of a stack of equal length
    * decompose  -- split EDA into tonic (SCL) and phasic (SCR) components

The tonic estimator is a moving-median followed by a moving-average with
replicate edge padding, both written in numpy (`_moving_median`,
`_moving_mean`) to give the bits of scipy.ndimage's ``median_filter`` and
``uniform_filter1d``; the package imports no scipy, whose ndimage module
alone takes a fresh ``import edanav.cli`` from about 29 to 56 MB RSS.
`tonic_rows` filters a stack of traces [m, n] in one call, each row with
the bits it has on its own, and `decompose` is its one-row case, so the
filter has one implementation. The phasic component is the residual, so
``tonic + phasic`` reconstructs the input exactly.

It also holds the sample CSV format the dataset and trace files share:
`write_samples_csv` spells each value as its ``repr``, computed once per
distinct value of a column, and `read_samples_csv` parses the body with
one `np.loadtxt` call.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateInputError, FileFormatError


class Unit(str, enum.Enum):
    """Physical unit of a trace's samples."""

    MICROSIEMENS = "microsiemens"
    M_PER_S2 = "m_per_s2"
    RAD_PER_S2 = "rad_per_s2"
    NORMALIZED = "normalized"


def same_rate(a: float, b: float) -> bool:
    """Whether two sampling rates agree to a relative 1e-9.

    A rate read back from text or computed from a period may differ from
    the one it stands for in the last bits; every rate check uses this.
    """
    return math.isclose(a, b, rel_tol=1e-9)


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled scalar time series.

    Parameters
    ----------
    samples : array-like
        Sample values, one dimension; copied to a read-only float64 array.
    rate_hz : float
        Sample rate in Hz, > 0.
    unit : Unit
        Unit of the samples.
    """

    samples: np.ndarray
    rate_hz: float
    unit: Unit = Unit.NORMALIZED

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"trace samples must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("trace must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trace samples must be finite")
        if not (self.rate_hz > 0 and np.isfinite(self.rate_hz)):
            raise ValueError(f"rate_hz must be a positive finite number, got {self.rate_hz}")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "rate_hz", float(self.rate_hz))
        object.__setattr__(self, "unit", Unit(self.unit))

    def __eq__(self, other) -> bool:
        """Value equality: the same rate, the same unit and equal samples."""
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.rate_hz == other.rate_hz and self.unit == other.unit
                and np.array_equal(self.samples, other.samples))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        """Time spanned by the samples, (n - 1) / rate."""
        return (self.samples.size - 1) / self.rate_hz


@dataclass(frozen=True)
class NormParams:
    """Min-max scaling parameters; ``vmax > vmin`` so the span is positive."""

    vmin: float
    vmax: float

    def __post_init__(self):
        if not (np.isfinite(self.vmin) and np.isfinite(self.vmax)):
            raise ValueError("normalization bounds must be finite")
        if not self.vmax > self.vmin:
            raise DegenerateInputError(
                f"normalization range is empty: vmin={self.vmin}, vmax={self.vmax}"
            )

    @property
    def span(self) -> float:
        return self.vmax - self.vmin

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.vmin) / self.span


def trace_norm(traces) -> NormParams:
    """Min-max parameters over a collection of traces (one channel)."""
    vmin = min(float(np.min(t.samples)) for t in traces)
    vmax = max(float(np.max(t.samples)) for t in traces)
    if vmax == vmin:
        raise DegenerateInputError("channel is constant across the corpus")
    return NormParams(vmin, vmax)


@dataclass(frozen=True)
class DecompositionConfig:
    """Window lengths (seconds) for the tonic estimator."""

    median_window_s: float = 8.0
    average_window_s: float = 8.0

    def __post_init__(self):
        if not (0 < self.median_window_s < math.inf and 0 < self.average_window_s < math.inf):
            raise ValueError("decomposition windows must be positive and finite")

    def windows(self, n: int, rate_hz: float) -> tuple[int, int]:
        """The odd sample counts of the median and the average window for
        traces of ``n`` samples at ``rate_hz``.

        Raises
        ------
        DegenerateInputError
            If such a trace is shorter than twice the tonic (median) window.
        """
        duration_s = (n - 1) / rate_hz
        if duration_s < 2.0 * self.median_window_s:
            raise DegenerateInputError(
                f"trace duration {duration_s:.2f}s is shorter than twice the "
                f"tonic window ({self.median_window_s}s)"
            )
        return (_odd_window(self.median_window_s, rate_hz),
                _odd_window(self.average_window_s, rate_hz))


@dataclass(frozen=True)
class EdaDecomposition:
    """EDA split into tonic (SCL) and phasic (SCR) parts on one time base."""

    original: Trace
    tonic: Trace
    phasic: Trace

    def __post_init__(self):
        n = len(self.original)
        if len(self.tonic) != n or len(self.phasic) != n:
            raise ValueError("decomposition traces must share length")
        rate = self.original.rate_hz
        if not (same_rate(self.tonic.rate_hz, rate) and same_rate(self.phasic.rate_hz, rate)):
            raise ValueError("decomposition traces must share rate")


def _odd_window(window_s: float, rate_hz: float) -> int:
    w = int(round(window_s * rate_hz))
    w = max(w, 1)
    if w % 2 == 0:
        w += 1
    return w


# One sort of window cores holds at most this many bytes of ranks, or one
# window pair of every row where that alone holds more: a stack whose cores
# hold more (a 40-session, 1-hour, 8 Hz group: about 74 MB; one 900 s, 8 Hz
# row with a 400 s median window: 23 MB) is sorted in blocks of pairs.
_SORT_BYTES = 2**21


def _pad_edges(x: np.ndarray, left: int, right: int) -> np.ndarray:
    """The rows of ``x`` [m, n] with ``left`` copies of their first and
    ``right`` copies of their last sample on either side."""
    return np.concatenate(
        (np.repeat(x[:, :1], left, axis=1), x, np.repeat(x[:, -1:], right, axis=1)), axis=1
    )


def _moving_median(x: np.ndarray, w: int) -> np.ndarray:
    """Median of each odd window ``w`` centred on a sample of each row of
    ``x`` [m, n], edges replicated.

    Each row's samples are ranked once (one argsort, ranks in the smallest
    unsigned type that holds them), and the rank windows are padded with
    h = w // 2 copies of each edge rank, plus one more copy of the last
    when n is odd, so the windows come in pairs. Windows i and i + 1 (i
    even) share the 2h ranks ``p[i + 1 : i + w]``, their core; window i
    adds ``p[i]`` and window i + 1 adds ``p[i + w]``. The median of 2h
    values and one extra is the extra clipped to the values of rank h - 1
    and h, duplicates included, so each core is sorted once for two
    windows. A full `np.sort` of the cores beats `np.partition` at h plus
    a max of the lower half, and a two-kth partition is about ten times
    slower than either. All rows' cores are sorted in blocks of pairs that
    hold at most ``_SORT_BYTES``, or of one pair where that holds more.

    The median rank names a sample, so whatever order ties take the result
    equals scipy's ``median_filter(x, w, mode="nearest")`` (where 0.0 and
    -0.0 tie, either zero may come out), and a row gives the same bits in
    any stack, alone included.
    """
    m, n = x.shape
    h = w // 2
    if h == 0:
        return x.copy()
    rows = np.arange(0, m * n, n)[:, None]  # flat offset of each row
    order = np.argsort(x, axis=-1) + rows
    ranks = np.empty((m, n), np.min_scalar_type(n))
    ranks.ravel()[order] = np.arange(n)
    p = _pad_edges(ranks, h, h + n % 2)
    cores = sliding_window_view(p[:, 1:], 2 * h, axis=-1)[:, ::2]  # [m, pairs, 2h]
    bounds = np.empty((*cores.shape[:2], 2), ranks.dtype)  # ranks h - 1 and h of each core
    block = max(1, _SORT_BYTES // (m * 2 * h * ranks.itemsize))
    for j in range(0, cores.shape[1], block):
        bounds[:, j : j + block] = np.sort(cores[:, j : j + block], axis=-1)[..., h - 1 : h + 1]
    lo, hi = bounds[..., 0], bounds[..., 1]
    middle = np.empty((m, n + n % 2), ranks.dtype)
    np.clip(p[:, :-w:2], lo, hi, out=middle[:, ::2])
    np.clip(p[:, w::2], lo, hi, out=middle[:, 1::2])
    ordered = x.ravel()[order]  # each row's samples in rank order
    return ordered.ravel()[middle[:, :n] + rows]


def _moving_mean(x: np.ndarray, w: int) -> np.ndarray:
    """Mean of each odd window ``w`` centred on a sample of each row of
    ``x`` [m, n], edges replicated.

    scipy's ``uniform_filter1d(x, w, mode="nearest")`` recurrence, bit for
    bit: a running sum that starts at 0.0, adds the first window in order,
    then for each step the difference of the sample entering and the one
    leaving, and each sum divided by w. One `np.add.accumulate` along the
    last axis runs it for every row. A sum that starts at 0.0 never reads
    -0.0, so these bits do not depend on which zero `_moving_median` takes
    from a tie.
    """
    p = _pad_edges(x, w // 2, w // 2)
    steps = (np.zeros((len(x), 1)), p[:, :w], p[:, w:] - p[:, :-w])
    return np.add.accumulate(np.concatenate(steps, axis=1), axis=1)[:, w:] / w


def tonic_rows(eda: np.ndarray, rate_hz: float, cfg: DecompositionConfig) -> np.ndarray:
    """The tonic [m, n] of each row of ``eda`` [m, n], traces at ``rate_hz``.

    A moving-median (``median_window_s``, `_moving_median`) followed by a
    moving-average (``average_window_s``, `_moving_mean`), both over odd
    windows with replicate edge padding, all rows in one call each; the
    median sorts in blocks of at most ``_SORT_BYTES``. Each row's bits do
    not depend on the stack it is in.

    Raises
    ------
    DegenerateInputError
        If the traces are shorter than twice the tonic (median) window.
    """
    w_med, w_avg = cfg.windows(eda.shape[1], rate_hz)
    return _moving_mean(_moving_median(eda, w_med), w_avg)


def decompose(eda: Trace, cfg: DecompositionConfig = DecompositionConfig()) -> EdaDecomposition:
    """Split EDA into tonic and phasic components.

    Tonic is `tonic_rows` of the one trace; phasic is the residual
    ``eda - tonic``. Adding a constant to the input moves only the tonic
    part.

    Raises
    ------
    DegenerateInputError
        If the trace is shorter than twice the tonic (median) window.
    """
    tonic = tonic_rows(eda.samples[None], eda.rate_hz, cfg)[0]
    phasic = eda.samples - tonic
    return EdaDecomposition(
        original=eda,
        tonic=Trace(tonic, eda.rate_hz, eda.unit),
        phasic=Trace(phasic, eda.rate_hz, eda.unit),
    )


# ---------------------------------------------------------------------------
# Sample CSV format: one metadata line, a header, then one row per sample
# (its time, then one value per column). A single trace is written as
#
#   # unit=microsiemens rate_hz=4.0
#   t_s,value
#   0.000000,5.01233
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """Shortest exact decimal representation (round-trips via float())."""
    return repr(float(x))


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same directory.

    `os.replace` then moves it into place, so ``path`` holds its old bytes
    or the new ones, never a part. On any error the temporary file is
    removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@functools.lru_cache(maxsize=8)
def _time_cells(n: int, rate_hz: float) -> tuple[str, ...]:
    """The time column of an n-row file: i / rate_hz spelled ``%.6f``.

    Every file of one length and rate shares it, so a dataset's files
    format it once.
    """
    return tuple("%.6f" % t for t in (np.arange(n) / rate_hz).tolist())


def _value_cells(values) -> list[str]:
    """`format_float` of each value, computed once per distinct bit pattern.

    `np.unique` runs over the int64 view, so -0.0 and 0.0 stay apart.
    """
    bits, inverse = np.unique(np.asarray(values, np.float64).view(np.int64), return_inverse=True)
    distinct = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return distinct[inverse].tolist()


def write_samples_csv(path, meta: dict[str, str], rate_hz: float, columns: dict) -> None:
    """Write ``# key=value ...``, the header ``t_s,<column names>`` and the rows.

    Each row is the time i / rate_hz in ``%.6f`` (`_time_cells`), then each
    column's value as `format_float` spells it. A column's cells are made
    once per distinct value (`_value_cells`), and every row is joined in
    one pass. The file is written with `write_text_atomic`.
    """
    cells = [_value_cells(v) for v in columns.values()]
    rows = map(",".join, zip(_time_cells(len(cells[0]), rate_hz), *cells))
    head = "# " + " ".join(f"{key}={value}" for key, value in meta.items())
    write_text_atomic(path, "\n".join([head, ",".join(["t_s", *columns]), *rows]) + "\n")


# information separators: loadtxt strips them from a cell, float() rejects them
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def parse_items(path, items, noun: str, keys=None) -> dict[str, tuple[str, int]]:
    """{key: (value, line)} of ``items``, (line, "key = value") pairs, stripped.

    Raises FileFormatError for an item without "=" or a repeated key, and
    if ``keys`` is given, for a key not among them or one of them missing;
    ``noun`` names the items in the message.
    """
    out = {}
    for line, item in items:
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise FileFormatError(path, f"malformed {noun} {item!r}, expected 'key = value'", line)
        if keys is not None and key not in keys:
            raise FileFormatError(path, f"unknown {noun} key {key!r}", line)
        if key in out:
            raise FileFormatError(path, f"duplicate {noun} key {key!r}", line)
        out[key] = (value.strip(), line)
    missing = [key for key in keys or () if key not in out]
    if missing:
        raise FileFormatError(path, f"missing {noun} keys: {', '.join(missing)}")
    return out


def read_samples_csv(path, kind: str, unit_keys: tuple[str, ...], names: tuple[str, ...]):
    """Read a file written by `write_samples_csv`.

    The metadata must define ``rate_hz`` and a `Unit` for each of
    ``unit_keys``, and nothing else; the header must be ``t_s`` and ``names``. Returns the
    rate, the units in ``unit_keys`` order and a [len(names), n] array.
    ``kind`` names the file in error messages.

    The body is parsed with one `np.loadtxt` call. The per-line loop
    `_parse_rows` runs only where that parse rejects the body: it reports
    the bad line, or reads what float() accepts and loadtxt does not
    (``1_0``, or any cell of the time column, which the rate implies).
    Lines end only at a newline ("\n", or "\r\n" and a lone "\r", which
    open() reads as "\n"): a form feed, U+001C-U+001E, U+0085 or U+2028/9
    stays inside its line, whose cells are read as float() reads them, and
    a bad one is reported on its own line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the final newline ends the last line
    if len(lines) < 3:
        raise FileFormatError(path, f"{kind} file needs metadata, header, and at least one row")
    if not lines[0].startswith("#"):
        raise FileFormatError(path, "expected metadata line starting with '#'", 1)
    meta = parse_items(path, ((1, token) for token in lines[0][1:].split()), "metadata")
    keys = (*unit_keys, "rate_hz")
    if set(meta) != set(keys):
        raise FileFormatError(path, f"metadata line must define exactly {' and '.join(keys)}", 1)
    units = []
    for key in unit_keys:
        try:
            units.append(Unit(meta[key][0]))
        except ValueError:
            raise FileFormatError(path, f"unknown unit {meta[key][0]!r}", 1) from None
    try:
        rate_hz = float(meta["rate_hz"][0])
    except ValueError:
        raise FileFormatError(path, f"bad rate_hz {meta['rate_hz'][0]!r}", 1) from None
    header = ",".join(["t_s", *names])
    if lines[1] != header:
        raise FileFormatError(path, f"expected header {header!r}, got {lines[1]!r}", 2)
    body = lines[2:]
    clean = not any(c in text for c in _SEPARATORS)
    values = _loadtxt(body, len(names) + 1) if clean else None
    if values is None:
        values = _parse_rows(path, kind, body, len(names))
    return rate_hz, units, values


def _loadtxt(lines: list[str], n_cols: int) -> np.ndarray | None:
    """[n_cols - 1, rows] of ``lines`` without the time column, or None
    where one C parse rejects them or finds another column count."""
    if not any(lines):  # loadtxt warns on a body with no rows
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    return values[:, 1:].T if values.shape[1] == n_cols else None


def _parse_rows(path, kind: str, lines: list[str], n_names: int) -> np.ndarray:
    """`_loadtxt`'s result by a per-line loop with float(); raises
    FileFormatError naming the first bad line (file line 3 is ``lines[0]``)."""
    cells, linenos = [], []
    for lineno, line in enumerate(lines, start=3):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_names + 1:
            raise FileFormatError(
                path, f"expected {n_names + 1} columns, got {len(parts)}", lineno
            )
        cells += parts[1:]  # the time column is implied by the rate
        linenos.append(lineno)
    if not cells:
        raise FileFormatError(path, f"{kind} file contains no samples")
    try:
        values = np.array(cells, dtype=np.float64)  # float() on each cell
    except ValueError:
        for i, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                lineno = linenos[i // n_names]
                raise FileFormatError(path, f"bad {kind} value {cell!r}", lineno) from None
        raise
    return values.reshape(-1, n_names).T


def write_trace_csv(trace: Trace, path) -> None:
    """Write a trace in the sidecar-metadata CSV format."""
    meta = {"unit": trace.unit.value, "rate_hz": format_float(trace.rate_hz)}
    write_samples_csv(path, meta, trace.rate_hz, {"value": trace.samples})


def read_trace_csv(path) -> Trace:
    """Read a trace written by `write_trace_csv`."""
    rate_hz, (unit,), (values,) = read_samples_csv(path, "trace", ("unit",), ("value",))
    try:
        return Trace(values, rate_hz, unit)
    except ValueError as exc:  # a value the trace rejects
        raise FileFormatError(path, str(exc)) from None
