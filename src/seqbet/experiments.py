"""Experiment configuration, grid execution, and artifact emission.

`simulate` runs the selected strategies on generated series, `backtest` on a
price file with date-windowed normalization, `compare` merges the summary
tables of finished runs.

The parent process builds every replicate's normalized series once,
before the output directory is touched. A task is one grid cell with all
its replicates: it runs the cell on those series and returns one
`CellSummary`, which holds the cell's means and each replicate's run (or
the reason it failed). The parent writes the run directory from these
summaries through `rundir.write_run`, in cell order, the manifest last.

Every emitted number is a pure function of the configuration and seed:
replicate and strategy seeds derive from the base seed through numpy
SeedSequence, artifacts are written in a fixed order, and floats are
formatted with a fixed spec, so reruns are byte-identical.
"""

from __future__ import annotations

import bisect
import configparser
import datetime
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    NoiseSpec,
    _fmt,
    _read_text,
    _write_lines,
    gen_ar1,
    gen_arma21,
    load_prices,
    movements_from_prices,
    normalize,
)
from .errors import ConfigError, NumericError, UsageError
from .game import RATIO_CAP, MovementSeries, StrategyRunResult, _check_look_back, _check_warmup, checkpoint_rounds
from .markov import _TOL, MarkovOrder, run_mkv
from .network import AnnealingSchedule, NetworkConfig
# Tasks call the replicate-stack entry points. The one-replicate `run_sosnn`
# and `train` stay importable here because perfbench patches these names.
from .nnbp import NnbpConfig, TrainingDiagnostics, _check_training_length, run_nnbp, train, train_replicates  # noqa: F401
from .rundir import READ_FILES, read_run, write_run
from .sosnn import SosnnConfig, run_sosnn, run_sosnn_replicates  # noqa: F401

STRATEGY_NAMES = ("sosnn", "nnbp", "mkv0", "mkv1", "mkv2")
FAILURE_MARK = "---"

# Fixed role tags for seed derivation; changing these would change every stream.
_ROLE_DATA = 0
_ROLE_SOSNN = 1
_ROLE_NNBP_DATA = 2
_ROLE_NNBP_INIT = 3


def derive_seed(base: int, *parts: int) -> int:
    """Deterministic 64-bit child seed for (base, replicate, role, ...)."""
    seq = np.random.SeedSequence([int(base), *[int(p) for p in parts]])
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class GeneratorData:
    generator: str  # "ar1" | "arma21"


@dataclass(frozen=True)
class BacktestData:
    price_file: Path
    investing: tuple[datetime.date, datetime.date]
    normalization: tuple[datetime.date, datetime.date]
    training: tuple[datetime.date, datetime.date] | None


# One grid cell: its label and the strategy config every replicate runs.
Cell = tuple[str, SosnnConfig | NnbpConfig | MarkovOrder]


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    seed: int
    warmup: int
    replicates: int
    strategies: tuple[str, ...]
    data: GeneratorData | BacktestData
    rounds: int | None  # simulate only
    cells: tuple[Cell, ...]
    training_rounds: int | None  # simulate: length of each NNBP training series
    raw: dict = field(hash=False, compare=False)


def _typed(convert, kind):
    """Parser applying `convert`, whose failure names the expected `kind`."""

    def parse(value):
        try:
            return convert(value)
        except (ValueError, KeyError):
            raise ValueError(f"must be {kind}, got {value!r}") from None

    return parse


_INT = _typed(int, "an integer")
_FLOAT = _typed(float, "a number")
_DATE = _typed(datetime.date.fromisoformat, "an ISO date")
_BOOLEAN = _typed(lambda value: configparser.ConfigParser.BOOLEAN_STATES[value.lower()], "a boolean")


def _at_least(low):
    """Parser of an integer that must be at least `low`."""

    def parse(value):
        number = _INT(value)
        if number < low:
            raise ValueError(f"must be >= {low}, got {number}")
        return number

    return parse


def _one_of(names):
    """Parser of a name, in any case, that must be one of `names`."""

    def parse(value):
        if value.lower() not in names:
            raise ValueError(f"must be one of {', '.join(names)}, got {value!r}")
        return value.lower()

    return parse


def _comma_list(convert):
    """Parser of a nonempty list of distinct items, each read by `convert`."""

    def parse(value):
        items = tuple(convert(v.strip()) for v in value.split(",") if v.strip())
        if not items:
            raise ValueError("must not be empty")
        if len(set(items)) != len(items):
            raise ValueError(f"must not repeat a value, got {value!r}")
        return items

    return parse


class _SectionReader:
    """Typed access to one INI section with unknown-key detection."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = dict(items)
        self.seen: set[str] = set()

    def get(self, key, parse=str, default=None, required=False):
        """`key` read by `parse`, which raises ValueError naming the rule the
        value breaks; `default` when the section does not set it."""
        self.seen.add(key)
        if key not in self.items:
            if required:
                raise ConfigError(f"[{self.name}] is missing required key '{key}'")
            return default
        try:
            return parse(self.items[key].strip())
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key} {exc}") from None

    def given(self, parsers: dict) -> dict:
        """The keys of `parsers` the section sets, parsed; the others are left
        to the defaults of the config dataclass they feed."""
        return {key: self.get(key, parse) for key, parse in parsers.items() if key in self.items}

    def reject_unknown(self):
        unknown = set(self.items) - self.seen
        if unknown:
            raise ConfigError(f"[{self.name}] has unknown keys: {sorted(unknown)}")


@contextmanager
def _section_rules(section: str):
    """Report a rule's usage error as an error of `section`, an INI section or a cell."""
    try:
        yield
    except UsageError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _date_range(section: _SectionReader, name: str, required: bool):
    """The (start, end) dates of `<name>_start` and `<name>_end`, in order,
    or None for an optional range that sets neither."""
    start = section.get(f"{name}_start", _DATE, required=required)
    end = section.get(f"{name}_end", _DATE, required=required)
    if start is None and end is None:
        return None
    if start is None or end is None:
        raise ConfigError(f"[{section.name}] {name}_start and {name}_end must be given together")
    if end < start:
        raise ConfigError(f"[{section.name}] {name} range ends before it starts")
    return start, end


def _strategy_section(parser, strategies, name) -> _SectionReader | None:
    if name not in strategies:
        if name in parser:
            raise ConfigError(f"[{name}] section present but strategy not selected")
        return None
    if name not in parser:
        raise ConfigError(f"strategy {name} selected but [{name}] section is missing")
    return _SectionReader(name, parser[name])


def parse_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Read and validate a declarative experiment file (INI key-value format)
    and build the strategy config of every grid cell."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(_read_text(path, ConfigError), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    known_sections = {"experiment", "data", "sosnn", "nnbp"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "experiment" not in parser or "data" not in parser:
        raise ConfigError("config needs [experiment] and [data] sections")

    if seed_override is not None:  # read, and recorded, as the INI's own seed
        parser["experiment"]["seed"] = str(seed_override)
    exp = _SectionReader("experiment", parser["experiment"])
    mode = exp.get("mode", _one_of(("simulate", "backtest")), required=True)
    seed = exp.get("seed", _at_least(0))
    if seed is None:
        raise ConfigError("a seed is required ([experiment] seed or --seed)")
    warmup = exp.get("warmup", _INT, 20)
    with _section_rules("experiment"):
        _check_warmup(warmup)
    replicates = exp.get("replicates", _at_least(1), 1)
    strategies = exp.get("strategies", _comma_list(_one_of(STRATEGY_NAMES)), required=True)
    grid: dict[str, list[Cell]] = {
        name: [(name, MarkovOrder(int(name[-1])))] for name in strategies if name.startswith("mkv")
    }

    rounds = None
    data = _SectionReader("data", parser["data"])
    if mode == "simulate":
        rounds = exp.get("rounds", _at_least(1), 300)
        generator = data.get("generator", _one_of(("ar1", "arma21")), required=True)
        data_spec: GeneratorData | BacktestData = GeneratorData(generator)
    else:
        price_file = data.get("price_file", required=True)
        data_spec = BacktestData(
            (path.parent / price_file).resolve(),
            _date_range(data, "investing", required=True),
            _date_range(data, "normalization", required=True),
            _date_range(data, "training", required=False),
        )
    exp.reject_unknown()
    data.reject_unknown()

    sec = _strategy_section(parser, strategies, "sosnn")
    if sec is not None:
        input_counts = sec.get("input_counts", _comma_list(_INT), required=True)
        hidden_counts = sec.get("hidden_counts", _comma_list(_INT), required=True)
        schedule = sec.given({"initial_rate": _FLOAT, "decay_steps": _FLOAT})
        settings = sec.given({
            "weight_tolerance": _FLOAT, "max_iterations": _INT,
            "init_scale": _FLOAT, "warm_start": _BOOLEAN,
        })
        sec.reject_unknown()
        with _section_rules("sosnn"):
            schedule = AnnealingSchedule(**schedule)
            grid["sosnn"] = [
                (
                    f"sosnn_{lin}x{hid}",
                    SosnnConfig(
                        NetworkConfig(lin, hid), schedule, warmup=warmup, **settings
                    ),
                )
                for lin in input_counts
                for hid in hidden_counts
            ]

    training_rounds = None
    sec = _strategy_section(parser, strategies, "nnbp")
    if sec is not None:
        input_count = sec.get("input_count", _INT, required=True)
        hidden_count = sec.get("hidden_count", _INT, required=True)
        settings = sec.given({
            "learning_rate": _FLOAT, "error_threshold": _FLOAT,
            "max_steps": _INT, "init_scale": _FLOAT,
        })
        if mode == "backtest" and "training_rounds" in sec.items:
            raise ConfigError(
                "[nnbp] training_rounds applies to simulate mode only; "
                "a backtest trains on its training date range"
            )
        training_rounds = sec.get("training_rounds", _at_least(1), 300)
        sec.reject_unknown()
        with _section_rules("nnbp"):
            nnbp = NnbpConfig(NetworkConfig(input_count, hidden_count), **settings)
        grid["nnbp"] = [(f"nnbp_{input_count}x{hidden_count}", nnbp)]
        if mode == "backtest":
            if data_spec.training is None:
                raise ConfigError("[data] nnbp needs a training date range in backtest mode")
            (t0, t1), (i0, i1) = data_spec.training, data_spec.investing
            if not (t1 < i0 or i1 < t0):
                raise ConfigError("[data] training and investing ranges must be disjoint")

    cells = tuple(cell for name in strategies for cell in grid[name])
    for label, cell in cells:
        # Rounds of history a bet reads: the sign context or the input window.
        with _section_rules(label):
            _check_look_back(cell.order if isinstance(cell, MarkovOrder) else cell.net.input_count, warmup)

    raw = {name: dict(parser[name]) for name in parser.sections()}
    return ExperimentConfig(
        mode=mode,
        seed=seed,
        warmup=warmup,
        replicates=replicates,
        strategies=strategies,
        data=data_spec,
        rounds=rounds,
        cells=cells,
        training_rounds=training_rounds,
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Tasks


@dataclass
class TaskSpec:
    """Everything one worker needs to run one cell over all its replicates:
    per replicate, its strategy config and its normalized series."""

    label: str
    warmup: int
    configs: list[SosnnConfig | NnbpConfig | MarkovOrder]
    series: list[MovementSeries]
    training: list[MovementSeries] | None  # nnbp only


# Per replicate: its run with its NNBP training diagnostics (None for the
# other strategies), or the reason it failed.
Replicate = tuple[StrategyRunResult, TrainingDiagnostics | None] | str


@dataclass
class CellSummary:
    """One cell over all its replicates, as its task returns it.

    The cell is ok when every replicate is, else it carries the first
    replicate's failure. Its means are taken per replicate first, then over
    the replicates in order; `seconds` is the task's wall time.
    """

    label: str
    ok: bool
    reason: str
    means: dict[int, float]
    mean_iterations: float | None
    converged_fraction: float | None
    training_error: float | None
    seconds: float
    replicates: list[Replicate] = field(repr=False)


def _mean(values: list[float]) -> float | None:
    return float(np.mean(values)) if values else None


def _run_task(spec: TaskSpec) -> CellSummary:
    """Run one cell over all its replicates and summarize it.

    A SOSNN refit that turns non-finite fails only its own replicate, and
    with it the cell. Any other error stops the whole run.
    """
    start = time.monotonic()
    config = spec.configs[0]
    if isinstance(config, SosnnConfig):
        runs = run_sosnn_replicates(spec.series, spec.configs)
        replicates = [str(run) if isinstance(run, NumericError) else (run, None) for run in runs]
    elif isinstance(config, NnbpConfig):
        fits = train_replicates(spec.training, spec.configs)
        replicates = [(run_nnbp(w, s, spec.warmup), diag) for (w, diag), s in zip(fits, spec.series)]
    else:
        replicates = [(run_mkv(s, config, spec.warmup), None) for s in spec.series]
    failed = [r for r in replicates if isinstance(r, str)]
    if failed:
        seconds = time.monotonic() - start
        return CellSummary(spec.label, False, failed[0], {}, None, None, None, seconds, replicates)
    runs = [run for run, _ in replicates]
    refits = [run.diagnostics for run in runs if run.diagnostics is not None]
    return CellSummary(
        spec.label, True, "",
        {c: _mean([run.checkpoints[c] for run in runs]) for c in runs[0].checkpoints},
        _mean([_mean([d.iterations for d in ds]) for ds in refits]),
        _mean([_mean([d.converged for d in ds]) for ds in refits]),
        _mean([diag.final_error for _, diag in replicates if diag is not None]),
        time.monotonic() - start,
        replicates,
    )


def _execute(specs: list[TaskSpec], jobs: int) -> list[CellSummary]:
    """Each spec's cell, in spec order. The first error a cell raises stops
    the run: the cells still running finish, and no later cell starts."""
    if jobs <= 1 or len(specs) <= 1:
        return [_run_task(spec) for spec in specs]
    # Imported here so that a --jobs 1 run never loads multiprocessing.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    # The pool forks all its workers at the first submit; one per cell is
    # enough. A cell is submitted only when a worker is free: the pool would
    # start every cell in its queue, also after one has failed.
    workers = min(jobs, len(specs))
    futures, running = [], set()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for spec in specs:
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    future.result()  # raises the error of a failed cell
            futures.append(pool.submit(_run_task, spec))
            running.add(futures[-1])
        return [future.result() for future in futures]


# ---------------------------------------------------------------------------
# Ranked tables and the run report


@dataclass
class TableRow:
    """One row of a ranked table: its label columns, whether it finished, and
    its log capital at each checkpoint (none when it failed), flag and note."""

    labels: tuple[str, ...]
    ok: bool
    values: dict[int, float]
    flag: str = ""
    note: str = ""


@dataclass
class RankedTable:
    """Rows of log capital at each checkpoint, ranked at the final one; a
    failed row shows FAILURE_MARK for every value."""

    label_headers: tuple[str, ...]
    checkpoints: list[int]
    rows: list[TableRow]

    def _lines(self, value_header: str, fmt) -> list[list[str]]:
        """The header and one line per row, every value formatted by `fmt`."""
        marks = self.checkpoints
        lines = [[*self.label_headers, *(f"{value_header}{c}" for c in marks), "flag", "note"]]
        for row in self.rows:
            values = (fmt(row.values[c]) if row.ok else FAILURE_MARK for c in marks)
            lines.append([*row.labels, *values, row.flag, row.note])
        return lines

    def render(self) -> str:
        """Left-aligned text columns two spaces apart, trailing blanks
        stripped, values to three decimals."""
        lines = self._lines("logK@", "{:.3f}".format)
        widths = [max(map(len, column)) for column in zip(*lines)]
        return "".join("  ".join(map(str.ljust, line, widths)).rstrip() + "\n" for line in lines)

    def csv(self) -> str:
        """Comma-separated, values as in every other artifact."""
        return "".join(",".join(line) + "\n" for line in self._lines("logK_", _fmt))


def _ranked(label_headers, checkpoints, rows: list[TableRow]) -> RankedTable:
    """The table of `rows` with the best ('*') and second best ('**') ok row
    flagged by value at the final checkpoint; ties go to the earlier row."""
    finals = sorted((-row.values[checkpoints[-1]], i) for i, row in enumerate(rows) if row.ok)
    for (_, i), flag in zip(finals, ("*", "**")):
        rows[i].flag = flag
    return RankedTable(label_headers, checkpoints, rows)


@dataclass
class RunReport:
    """In-memory view of a finished run; timings never reach the artifacts."""

    out_dir: Path
    checkpoints: list[int]
    cells: list[CellSummary]

    @property
    def total_seconds(self) -> float:
        return sum(c.seconds for c in self.cells)

    @property
    def table(self) -> RankedTable:
        """The cells ranked, with a failed cell's reason as its note, as
        `summary.txt` shows them."""
        rows = [
            TableRow((c.label,), c.ok, c.means, note="" if c.ok else f"failed: {c.reason}")
            for c in self.cells
        ]
        return _ranked(("cell",), self.checkpoints, rows)

    def cell(self, label: str) -> CellSummary:
        for c in self.cells:
            if c.label == label:
                return c
        raise KeyError(label)


def _manifest(config: ExperimentConfig) -> dict:
    """What `manifest.json` records of the run besides its checkpoints."""
    warm_start = next((c.warm_start for _, c in config.cells if isinstance(c, SosnnConfig)), None)
    return {
        "tool": "seqbet",
        "version": __version__,
        "mode": config.mode,
        "seed": config.seed,
        "warmup": config.warmup,
        "replicates": config.replicates,
        "cells": [label for label, _ in config.cells],
        "config": config.raw,
        "strategy_notes": {
            "sosnn": {
                "warm_start": warm_start,
                "warmup_betting": "warmup rounds bet 0",
            },
            "nnbp": {"learning_rate_schedule": "constant"},
            "markov": {"optimizer": f"slope bisection on [{-RATIO_CAP}, {RATIO_CAP}], tol {_TOL}"},
        },
    }


# ---------------------------------------------------------------------------
# Commands


def _check_out(directory: Path, what: str) -> None:
    """Reject a `directory` that cannot hold `what`: it, or its first existing parent, is no directory."""
    existing = next(p for p in (directory, *directory.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"cannot write {what} into {directory}: {existing} is not a directory")


def _check_mode(config: ExperimentConfig, command: str) -> None:
    if config.mode != command:
        raise ConfigError(f"config declares mode '{config.mode}' but the command is '{command}'")


def run_simulate(config: ExperimentConfig, out_dir, jobs: int = 1) -> RunReport:
    """Generate data per replicate, run every selected strategy, emit artifacts."""
    _check_mode(config, "simulate")
    return _run(config, Path(out_dir), jobs, *_generated_series(config))


def _generated_series(config: ExperimentConfig):
    """Per replicate, the normalized series it bets on and, for nnbp, the
    one it trains on, each generated once from its derived data seed.

    A series `normalize` rejects (all zero) raises DataError for the run.
    """
    gen = gen_ar1 if config.data.generator == "ar1" else gen_arma21

    def generated(length, role):
        return [
            normalize(gen(length, NoiseSpec(seed=derive_seed(config.seed, r, role))))
            for r in range(config.replicates)
        ]

    training = None
    if "nnbp" in config.strategies:
        training = generated(config.training_rounds, _ROLE_NNBP_DATA)
    return generated(config.warmup + config.rounds, _ROLE_DATA), training


def _backtest_series(config: ExperimentConfig):
    """The normalized warmup+investing series, its movement dates, and the
    normalized training series (nnbp only)."""
    spec = config.data
    prices = load_prices(spec.price_file)
    raw = movements_from_prices(prices)
    dates = prices.dates[1:]  # movement n belongs to the later day

    def window(bounds, name):
        lo, hi = bisect.bisect_left(dates, bounds[0]), bisect.bisect_right(dates, bounds[1])
        if lo >= hi:
            raise ConfigError(f"[data] {name} range selects no movements")
        return lo, hi

    n_lo, n_hi = window(spec.normalization, "normalization")
    i_lo, i_hi = window(spec.investing, "investing")
    if i_lo < config.warmup:
        raise ConfigError(
            f"[data] only {i_lo} movements precede the investing range; warmup needs {config.warmup}"
        )
    # A flat normalization window (constant prices) raises DataError.
    reference = raw[n_lo:n_hi]
    invest = normalize(raw[i_lo - config.warmup : i_hi], rule_source=reference)
    invest_dates = dates[i_lo - config.warmup : i_hi]
    training = None
    if "nnbp" in config.strategies:
        t_lo, t_hi = window(spec.training, "training")
        training = normalize(raw[t_lo:t_hi], rule_source=reference)
    return invest, invest_dates, training


def run_backtest(config: ExperimentConfig, out_dir, jobs: int = 1) -> RunReport:
    """Normalize price movements by the reference window, then run strategies."""
    _check_mode(config, "backtest")
    invest, invest_dates, training = _backtest_series(config)
    if training is not None:
        training = [training] * config.replicates
    return _run(config, Path(out_dir), jobs, [invest] * config.replicates, training, invest_dates)


def _task_specs(config, series, training) -> list[TaskSpec]:
    """One TaskSpec per cell, holding every replicate's series and its
    config seeded from the base seed, listed in submission order. NNBP's
    rule on its training length is checked here, before any cell runs.

    `training` holds the series each nnbp replicate trains on. Cells are
    submitted longest first, so the pool does not end on one long task:
    NNBP (the most steps per cell), then SOSNN from the largest network
    down, then MKV. The order never reaches the artifacts, which are
    written in cell order.
    """
    ranked, reps = [], range(config.replicates)
    for label, cell in config.cells:
        cell_training = None
        if isinstance(cell, NnbpConfig):
            with _section_rules(label):
                _check_training_length(len(training[0]), cell.net.input_count)
            rank, cell_training = (0, 0), training
            configs = [replace(cell, seed=derive_seed(config.seed, r, _ROLE_NNBP_INIT)) for r in reps]
        elif isinstance(cell, SosnnConfig):
            lin, hid = cell.net.input_count, cell.net.hidden_count
            rank = (1, -hid * (lin + 1))
            configs = [replace(cell, seed=derive_seed(config.seed, r, _ROLE_SOSNN, lin, hid)) for r in reps]
        else:
            rank, configs = (2, 0), [cell] * config.replicates
        ranked.append((rank, TaskSpec(label, config.warmup, configs, series, cell_training)))
    return [spec for _, spec in sorted(ranked, key=lambda pair: pair[0])]


def _run(config: ExperimentConfig, out_dir: Path, jobs: int, series, training, dates=None) -> RunReport:
    """Run every cell on the per-replicate `series` (and the nnbp replicates'
    `training` series), then write the run directory, with a backtest's
    movement `dates` and its series.

    Every input rule is checked before the first cell starts, and `out_dir`
    is touched only after the last one ends."""
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    _check_out(out_dir, "the run")
    checkpoints = checkpoint_rounds(len(series[0]) - config.warmup)
    done = {cell.label: cell for cell in _execute(_task_specs(config, series, training), jobs)}
    report = RunReport(out_dir, checkpoints, [done[label] for label, _ in config.cells])
    write_run(report, _manifest(config), None if dates is None else (dates, series[0].values))
    return report


# ---------------------------------------------------------------------------
# compare


def run_compare(run_dirs, out_path=None) -> RankedTable:
    """Merge the summary tables of several runs, which must share their
    checkpoints, into one table ranked at the final checkpoint (failed cells
    are shown but never ranked), noting each ok row that ties another there;
    written as CSV to `out_path` if given."""
    dirs = [Path(d) for d in run_dirs]
    if len(dirs) < 1:
        raise UsageError("compare needs at least one run directory")
    if out_path is not None:
        out_path = Path(out_path)
        _check_out(out_path.parent, out_path.name)
        read = {(d / name).resolve() for d in dirs for name in READ_FILES}
        if out_path.is_dir() or out_path.resolve() in read:
            raise UsageError(f"cannot write the table into {out_path}: it is a directory or a file compare reads")
    checkpoints = None
    rows: list[TableRow] = []
    for d in dirs:
        marks, summary = read_run(d)
        checkpoints = checkpoints or marks  # read_run lists at least one
        if marks != checkpoints:
            raise UsageError(f"incompatible checkpoints: {d.name} has {marks}, expected {checkpoints}")
        rows += [TableRow((d.name, cell), ok, values) for cell, ok, values in summary]
    final = checkpoints[-1]
    counts = Counter(row.values[final] for row in rows if row.ok)
    for row in rows:
        if row.ok and counts[row.values[final]] > 1:
            row.note = "tie"
    table = _ranked(("run", "cell"), checkpoints, rows)
    if out_path is not None:
        _write_lines(out_path, table.csv().splitlines())
    return table
