"""Synthetic series generation, price-file ingestion, range normalization,
and the one file reader (`_read_text`), float format and file writer.

Generators draw from numpy's PCG64 via `default_rng`, so a given seed yields
the same stream across runs; that seed-to-stream mapping is the package's
reproducibility contract.
"""

from __future__ import annotations

import csv
import datetime
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, UsageError
from .game import MovementSeries


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded standard-normal innovations for the generators."""

    seed: int = 0

    def draw(self, n: int) -> np.ndarray:
        """The innovations eps_1..eps_n of an n-element series."""
        if n < 1:
            raise UsageError(f"series length must be >= 1, got {n}")
        return np.random.default_rng(self.seed).standard_normal(n)


def _arma(n: int, noise: NoiseSpec, a1: float, a2: float, b: float) -> np.ndarray:
    """x_t = a1 x_{t-1} + a2 x_{t-2} + eps_t + b eps_{t-1} from zero history, the
    recursion of both generators. Python floats hold the doubles numpy scalars
    would, faster."""
    out = []
    prev = prev2 = e_prev = 0.0
    for e in noise.draw(n).tolist():
        x = a1 * prev + a2 * prev2 + e + b * e_prev
        out.append(x)
        prev2, prev, e_prev = prev, x, e
    return np.array(out)


def gen_ar1(n: int, noise: NoiseSpec) -> np.ndarray:
    """First-order autoregression x_t = 0.6 x_{t-1} + eps_t, eps_t ~ N(0, 1).

    Returns x_1..x_n starting from x_0 = 0, with eps_1..eps_n = `noise.draw(n)`.
    """
    return _arma(n, noise, 0.6, 0.0, 0.0)


def gen_arma21(n: int, noise: NoiseSpec) -> np.ndarray:
    """ARMA recursion x_t = 0.6 x_{t-1} + 0.3 x_{t-2} + eps_t - 0.5 eps_{t-1}.

    Starts from x_0 = x_{-1} = 0 and eps_0 = 0, with eps_1..eps_n =
    `noise.draw(n)`.
    """
    return _arma(n, noise, 0.6, 0.3, -0.5)


def normalize(raw: Sequence[float], rule_source: Sequence[float] | None = None) -> MovementSeries:
    """Scale movements by the largest absolute movement of `rule_source`, then clamp.

    With `rule_source` omitted the series is its own reference, so its extreme
    element maps to exactly +/-1. A disjoint reference window can leave values
    outside [-1, 1]; those are clamped to the boundary.
    """
    raw = np.asarray(raw, dtype=float)
    src = raw if rule_source is None else np.asarray(rule_source, dtype=float)
    reference_max = float(np.abs(src).max()) if src.size else 0.0
    if reference_max == 0.0 or not np.isfinite(reference_max):
        raise DataError("normalization reference window has no nonzero movement")
    return MovementSeries(np.clip(raw / reference_max, -1.0, 1.0))


@dataclass
class PriceSeries:
    """Daily closing prices with strictly increasing dates."""

    dates: list[datetime.date]
    closes: np.ndarray

    def __post_init__(self) -> None:
        self.closes = np.asarray(self.closes, dtype=float)
        if len(self.dates) != self.closes.size:
            raise DataError(
                f"{len(self.dates)} dates against {self.closes.size} closes"
            )
        if self.closes.size and not ((self.closes > 0) & np.isfinite(self.closes)).all():
            bad = int(np.flatnonzero(~((self.closes > 0) & np.isfinite(self.closes)))[0])
            raise DataError(
                f"close must be positive and finite, got {self.closes[bad]!r} "
                f"on {self.dates[bad]}"
            )
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise DataError(f"dates must be strictly increasing, got {prev} then {cur}")

    def __len__(self) -> int:
        return int(self.closes.size)


def movements_from_prices(prices: PriceSeries) -> np.ndarray:
    """Raw daily movements: first differences of the closes (length len - 1)."""
    if len(prices) < 2:
        raise UsageError("need at least two closes to form movements")
    return np.diff(prices.closes)


def _parse_rows(path, n_values: int | None = None):
    """Yield (lineno, date, values) rows from a `date,v1,..` CSV, whose
    dates must be strictly increasing.

    Blank lines are skipped, and the first other line may be a header: a line
    whose date field is not an ISO date and whose values are not all numbers;
    without `n_values`, it sets the column count.
    """
    text = _read_text(path, DataError)
    first = True
    last = None
    for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        header_allowed, first = first, False
        if n_values is None:
            n_values = len(row) - 1
            if n_values < 1:
                raise DataError(f"{path}: records need at least one value column")
        if len(row) != 1 + n_values:
            raise DataError(
                f"{path}:{lineno}: expected {1 + n_values} fields, got {len(row)}"
            )
        try:
            day = datetime.date.fromisoformat(row[0].strip())
        except ValueError:
            day = None
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            if header_allowed and day is None:  # header line: no date, non-numeric values
                continue
            raise DataError(f"{path}:{lineno}: non-numeric value in {row!r}") from None
        if day is None:
            raise DataError(f"{path}:{lineno}: bad ISO date {row[0]!r}")
        if last is not None and day <= last:
            raise DataError(
                f"{path}:{lineno}: dates must be strictly increasing, got {day} after {last}"
            )
        last = day
        yield lineno, day, values


def load_prices(path) -> PriceSeries:
    """Read a `date,close` CSV: ISO dates, one record per line, optional header."""
    dates: list[datetime.date] = []
    closes: list[float] = []
    for lineno, day, values in _parse_rows(path, 1):
        close = values[0]
        if not (close > 0 and np.isfinite(close)):
            raise DataError(f"{path}:{lineno}: close must be positive, got {close!r}")
        dates.append(day)
        closes.append(close)
    if not dates:
        raise DataError(f"{path}: no price records found")
    return PriceSeries(dates, np.array(closes))


def load_movement_matrix(path) -> tuple[list[datetime.date], np.ndarray]:
    """Read a multi-asset `date,value_1,...,value_P` movement CSV.

    All values must already lie in [-1, 1]; the column count is fixed by the
    first non-blank line.
    """
    dates: list[datetime.date] = []
    rows: list[list[float]] = []
    for lineno, day, values in _parse_rows(path):
        if not all(abs(v) <= 1.0 for v in values):  # also rejects NaN
            raise DataError(f"{path}:{lineno}: movements must lie in [-1, 1]")
        dates.append(day)
        rows.append(values)
    if not dates:
        raise DataError(f"{path}: no movement records found")
    return dates, np.asarray(rows, dtype=float)


def _read_text(path, error) -> str:
    """The text of the UTF-8 file at `path`, a leading byte-order mark dropped
    and line ends kept. Every file the package reads comes through here; one
    it cannot open or decode raises the caller's `error`, naming the path."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise error(f"{path}: cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _fmt(value: float) -> str:
    # Shortest decimal that round-trips the exact double, so values parsed
    # back from any artifact equal the computed ones bit for bit.
    return repr(float(value))


def _write_lines(path, lines) -> None:
    """`lines` as a UTF-8 file, each ended by a bare newline on every
    platform; creates its directory. Every file the package writes goes
    through here."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


def write_movements(path, dates: Sequence[datetime.date], values: np.ndarray) -> None:
    """Write a movement series as `date,value_1,...` lines (the loaders' format).

    One date per row of `values`; the loaders read the values back exactly.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if len(dates) != len(values):
        raise UsageError(
            f"need one date per movement row, got {len(dates)} dates and {len(values)} rows"
        )
    rows = (",".join([day.isoformat(), *map(_fmt, row)]) for day, row in zip(dates, values))
    _write_lines(path, rows)
