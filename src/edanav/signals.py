"""Time-series primitives for electrodermal activity (EDA) processing.

Provides the `Trace` container used across the package plus the basic
operations the adaptation pipeline is built from:

    * NormParams -- min-max scaling to [0, 1]
    * trace_norm -- the min-max scale of one channel over a set of traces
    * decompose  -- split EDA into tonic (SCL) and phasic (SCR) components

The tonic estimator is a moving-median followed by a moving-average with
replicate edge padding; the phasic component is the residual, so
``tonic + phasic`` reconstructs the input exactly.
"""

from __future__ import annotations

import enum
import functools
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
from scipy.ndimage import median_filter, uniform_filter1d

from .errors import DegenerateInputError, FileFormatError


class Unit(str, enum.Enum):
    """Physical unit of a trace's samples."""

    MICROSIEMENS = "microsiemens"
    M_PER_S2 = "m_per_s2"
    RAD_PER_S2 = "rad_per_s2"
    NORMALIZED = "normalized"


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled scalar time series.

    Parameters
    ----------
    samples : array-like
        Sample values; copied to a read-only float64 array.
    rate_hz : float
        Sample rate in Hz, > 0.
    unit : Unit
        Unit of the samples.
    """

    samples: np.ndarray
    rate_hz: float
    unit: Unit = Unit.NORMALIZED

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.float64, copy=True).ravel()
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

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        """Time spanned by the samples, (n - 1) / rate."""
        return (self.samples.size - 1) / self.rate_hz

    def with_samples(self, samples: np.ndarray, unit: Unit | None = None) -> "Trace":
        """New trace with the same rate, different samples."""
        return Trace(samples, self.rate_hz, self.unit if unit is None else unit)


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
        if self.median_window_s <= 0 or self.average_window_s <= 0:
            raise ValueError("decomposition windows must be positive")


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
        if self.tonic.rate_hz != self.original.rate_hz or self.phasic.rate_hz != self.original.rate_hz:
            raise ValueError("decomposition traces must share rate")


def _odd_window(window_s: float, rate_hz: float) -> int:
    w = int(round(window_s * rate_hz))
    w = max(w, 1)
    if w % 2 == 0:
        w += 1
    return w


def decompose(eda: Trace, cfg: DecompositionConfig = DecompositionConfig()) -> EdaDecomposition:
    """Split EDA into tonic and phasic components.

    Tonic is a moving-median (``median_window_s``) followed by a
    moving-average (``average_window_s``), both with replicate edge padding;
    phasic is the residual ``eda - tonic``. Adding a constant to the input
    moves only the tonic part.

    Raises
    ------
    DegenerateInputError
        If the trace is shorter than twice the tonic (median) window.
    """
    if eda.duration_s < 2.0 * cfg.median_window_s:
        raise DegenerateInputError(
            f"trace duration {eda.duration_s:.2f}s is shorter than twice the "
            f"tonic window ({cfg.median_window_s}s)"
        )
    w_med = _odd_window(cfg.median_window_s, eda.rate_hz)
    w_avg = _odd_window(cfg.average_window_s, eda.rate_hz)
    tonic = median_filter(eda.samples, size=w_med, mode="nearest")
    tonic = uniform_filter1d(tonic, size=w_avg, mode="nearest")
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


def write_samples_csv(path, meta: dict[str, str], rate_hz: float, columns: dict) -> None:
    """Write ``# key=value ...``, the header ``t_s,<column names>`` and the rows.

    The body is one ``%`` format over every row: the time i / rate_hz in
    ``%.6f`` (`_time_cells`) and ``%r``, each value's `format_float`. The
    file is written with `write_text_atomic`.
    """
    values = [np.asarray(v, dtype=np.float64).tolist() for v in columns.values()]
    rows = list(zip(_time_cells(len(values[0]), rate_hz), *values))
    body = ("%s" + ",%r" * len(values) + "\n") * len(rows) % tuple(chain.from_iterable(rows))
    head = "# " + " ".join(f"{key}={value}" for key, value in meta.items())
    write_text_atomic(path, head + "\n" + ",".join(["t_s", *columns]) + "\n" + body)


# information separators: loadtxt strips them from a cell, float() rejects them
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def read_samples_csv(path, kind: str, unit_keys: tuple[str, ...], names: tuple[str, ...]):
    """Read a file written by `write_samples_csv`.

    The metadata must define ``rate_hz`` and a `Unit` for each of
    ``unit_keys``; the header must be ``t_s`` and ``names``. Returns the
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
    meta = {}
    for token in lines[0][1:].split():
        if "=" not in token:
            raise FileFormatError(path, f"malformed metadata token {token!r}", 1)
        key, value = token.split("=", 1)
        meta[key] = value
    keys = (*unit_keys, "rate_hz")
    if any(key not in meta for key in keys):
        raise FileFormatError(path, f"metadata line must define {' and '.join(keys)}", 1)
    units = []
    for key in unit_keys:
        try:
            units.append(Unit(meta[key]))
        except ValueError:
            raise FileFormatError(path, f"unknown unit {meta[key]!r}", 1) from None
    try:
        rate_hz = float(meta["rate_hz"])
    except ValueError:
        raise FileFormatError(path, f"bad rate_hz {meta['rate_hz']!r}", 1) from None
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
    return Trace(values, rate_hz, unit)
