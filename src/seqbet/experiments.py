"""Experiment configuration, grid execution, and artifact emission.

`simulate` runs the selected strategies on generated series, `backtest` on a
price file with date-windowed normalization, `compare` merges the summary
tables of finished runs. Every emitted number is a pure function of the
configuration and seed: replicate and strategy seeds derive from the base
seed through numpy SeedSequence, tasks are written in a fixed order, and
floats are formatted with a fixed spec, so reruns are byte-identical.
"""

from __future__ import annotations

import configparser
import datetime
import json
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    NoiseSpec,
    gen_ar1,
    gen_arma21,
    load_prices,
    movements_from_prices,
    normalize,
    write_movements,
)
from .errors import ConfigError, SeqbetError, UsageError
from .game import MovementSeries, checkpoint_rounds
from .markov import MarkovOrder, run_mkv
from .network import AnnealingSchedule, NetworkConfig
# Tasks call the replicate-stack entry points. The one-replicate `run_sosnn`
# and `train` stay importable here because perfbench patches these names.
from .nnbp import NnbpConfig, run_nnbp, train, train_replicates  # noqa: F401
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
    training: tuple[datetime.date, datetime.date] | None = None


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
    rounds: int | None = None
    cells: tuple[Cell, ...] = ()
    training_rounds: int | None = None  # simulate: length of each NNBP training series
    raw: dict = field(default_factory=dict, hash=False, compare=False)


def _typed(convert, kind):
    """Parser applying `convert`, whose failure names the expected `kind`."""

    def parse(value):
        try:
            return convert(value)
        except ValueError:
            raise ValueError(f"must be {kind}, got {value!r}") from None

    return parse


def _boolean(value):
    low = value.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"must be a boolean, got {value!r}")


def _comma_list(convert, kind):
    def parse(value):
        try:
            items = tuple(convert(v.strip()) for v in value.split(",") if v.strip())
        except ValueError:
            raise ValueError(f"must be a comma list of {kind}") from None
        if not items:
            raise ValueError("must not be empty")
        return items

    return parse


_INT = _typed(int, "an integer")
_FLOAT = _typed(float, "a number")
_DATE = _typed(datetime.date.fromisoformat, "an ISO date")
_INT_LIST = _comma_list(int, "integers")
_NAME_LIST = _comma_list(str.lower, "names")


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
    """Report a config dataclass's own validation as an error of `section`."""
    try:
        yield
    except UsageError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


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
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    known_sections = {"experiment", "data", "sosnn", "nnbp"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "experiment" not in parser or "data" not in parser:
        raise ConfigError("config needs [experiment] and [data] sections")

    exp = _SectionReader("experiment", parser["experiment"])
    mode = exp.get("mode", required=True).lower()
    if mode not in ("simulate", "backtest"):
        raise ConfigError(f"mode must be 'simulate' or 'backtest', got {mode!r}")
    seed = seed_override if seed_override is not None else exp.get("seed", _INT)
    exp.seen.add("seed")
    if seed is None:
        raise ConfigError("a seed is required ([experiment] seed or --seed)")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    warmup = exp.get("warmup", _INT, 20)
    if warmup < 0:
        raise ConfigError("warmup must be nonnegative")
    replicates = exp.get("replicates", _INT, 1)
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    strategies = exp.get("strategies", _NAME_LIST, required=True)
    for name in strategies:
        if name not in STRATEGY_NAMES:
            raise ConfigError(
                f"unknown strategy {name!r}; choose from {', '.join(STRATEGY_NAMES)}"
            )
    if len(set(strategies)) != len(strategies):
        raise ConfigError("strategies must not repeat")
    grid: dict[str, list[Cell]] = {}
    for name in strategies:
        if name.startswith("mkv"):
            if int(name[-1]) > warmup:
                raise ConfigError(
                    f"{name} needs a warmup of at least {name[-1]}, got {warmup}"
                )
            grid[name] = [(name, MarkovOrder(int(name[-1])))]

    rounds = None
    data = _SectionReader("data", parser["data"])
    if mode == "simulate":
        rounds = exp.get("rounds", _INT, 300)
        if rounds < 2:
            raise ConfigError("rounds must be >= 2")
        generator = data.get("generator", required=True).lower()
        if generator not in ("ar1", "arma21"):
            raise ConfigError(f"generator must be 'ar1' or 'arma21', got {generator!r}")
        data_spec: GeneratorData | BacktestData = GeneratorData(generator)
    else:
        price_file = data.get("price_file", required=True)
        resolved = (path.parent / price_file).resolve()
        investing = (
            data.get("investing_start", _DATE, required=True),
            data.get("investing_end", _DATE, required=True),
        )
        normalization = (
            data.get("normalization_start", _DATE, required=True),
            data.get("normalization_end", _DATE, required=True),
        )
        training = None
        t_start = data.get("training_start", _DATE)
        t_end = data.get("training_end", _DATE)
        if (t_start is None) != (t_end is None):
            raise ConfigError("training_start and training_end must be given together")
        if t_start is not None:
            training = (t_start, t_end)
        for label, (start, end) in (
            ("investing", investing),
            ("normalization", normalization),
            *((("training", training),) if training else ()),
        ):
            if end < start:
                raise ConfigError(f"{label} range ends before it starts")
        data_spec = BacktestData(resolved, investing, normalization, training)
    exp.reject_unknown()
    data.reject_unknown()

    sec = _strategy_section(parser, strategies, "sosnn")
    if sec is not None:
        input_counts = sec.get("input_counts", _INT_LIST, required=True)
        hidden_counts = sec.get("hidden_counts", _INT_LIST, required=True)
        schedule = sec.given({"initial_rate": _FLOAT, "decay_steps": _FLOAT})
        settings = sec.given({
            "weight_tolerance": _FLOAT, "max_iterations": _INT,
            "init_scale": _FLOAT, "warm_start": _boolean,
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
        if max(input_counts) > warmup:
            raise ConfigError(
                f"[sosnn] largest input window {max(input_counts)} "
                f"exceeds the warmup of {warmup}"
            )

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
        training_rounds = sec.get("training_rounds", _INT, 300)
        sec.reject_unknown()
        with _section_rules("nnbp"):
            nnbp = NnbpConfig(NetworkConfig(input_count, hidden_count), **settings)
        grid["nnbp"] = [(f"nnbp_{input_count}x{hidden_count}", nnbp)]
        if input_count > warmup:
            raise ConfigError(
                f"[nnbp] input window {input_count} exceeds the warmup of {warmup}"
            )
        if mode == "simulate" and training_rounds <= input_count:
            raise ConfigError("[nnbp] training_rounds must exceed input_count")
        if mode == "backtest":
            if data_spec.training is None:
                raise ConfigError("nnbp needs a training date range in backtest mode")
            t0, t1 = data_spec.training
            i0, i1 = data_spec.investing
            if not (t1 < i0 or i1 < t0):
                raise ConfigError("training and investing ranges must be disjoint")

    raw = {name: dict(parser[name]) for name in parser.sections()}
    return ExperimentConfig(
        mode=mode,
        seed=seed,
        warmup=warmup,
        replicates=replicates,
        strategies=strategies,
        data=data_spec,
        rounds=rounds,
        cells=tuple(cell for name in strategies for cell in grid[name]),
        training_rounds=training_rounds,
        raw=raw,
    )


# ---------------------------------------------------------------------------
# Tasks


@dataclass
class TaskSpec:
    """Everything one worker needs to run one cell over all its replicates.

    `configs` and `series` hold one entry per replicate. A series is either
    a normalized array (backtest) or the recipe (generator, length, seed)
    the worker generates it from (simulate).
    """

    label: str
    warmup: int
    configs: list[SosnnConfig | NnbpConfig | MarkovOrder]
    series: list[np.ndarray | tuple[str, int, int]]
    training: list[np.ndarray | tuple[str, int, int]] | None = None  # nnbp only


@dataclass
class TaskResult:
    """One (cell, replicate) outcome; `seconds` is the replicate's equal
    share of its cell task's wall time."""

    label: str
    replicate: int
    ok: bool
    reason: str = ""
    ratios: np.ndarray | None = None
    log_capital_path: np.ndarray | None = None
    checkpoints: dict[int, float] | None = None
    mean_iterations: float | None = None
    converged_fraction: float | None = None
    training_error: float | None = None
    error_per_epoch: list[float] | None = None
    per_day_error: np.ndarray | None = None
    seconds: float = 0.0


def _series(series, label: str) -> MovementSeries:
    if isinstance(series, np.ndarray):
        return MovementSeries(series, label=label)
    generator, length, seed = series
    gen = gen_ar1 if generator == "ar1" else gen_arma21
    return normalize(gen(length, NoiseSpec(seed=seed)), label=f"{generator} {label}")


def _run_cell(spec: TaskSpec) -> list:
    """Per replicate, its run and the extra TaskResult fields, or the
    `SeqbetError` that failed it."""
    movements = [_series(s, f"rep{r}") for r, s in enumerate(spec.series)]
    config = spec.configs[0]
    if isinstance(config, SosnnConfig):
        outcomes = []
        for run in run_sosnn_replicates(movements, spec.configs):
            if isinstance(run, SeqbetError):
                outcomes.append(run)
                continue
            iters = [d.iterations for d in run.diagnostics]
            conv = [d.converged for d in run.diagnostics]
            outcomes.append((run, dict(
                mean_iterations=float(np.mean(iters)) if iters else 0.0,
                converged_fraction=float(np.mean(conv)) if conv else 1.0,
            )))
        return outcomes
    if isinstance(config, NnbpConfig):
        training = [_series(s, f"training rep{r}") for r, s in enumerate(spec.training)]
        fits = train_replicates(training, spec.configs)

        def play(r):
            weights, diag = fits[r]
            return run_nnbp(weights, movements[r], spec.warmup), dict(
                training_error=diag.final_error,
                error_per_epoch=diag.error_per_epoch,
                per_day_error=diag.per_day_error,
            )
    else:

        def play(r):
            return run_mkv(movements[r], config, spec.warmup), {}

    outcomes = []
    for r in range(len(movements)):
        try:
            outcomes.append(play(r))
        except SeqbetError as exc:
            outcomes.append(exc)
    return outcomes


def _run_task(spec: TaskSpec) -> list[TaskResult]:
    """Run one cell over all its replicates; one TaskResult per replicate.

    A failure that hits the whole cell (bad data, an invalid config) fails
    every replicate with the same reason; one inside a replicate's own run,
    such as a SOSNN refit that turns non-finite, fails only that replicate.
    """
    start = time.monotonic()
    try:
        outcomes = _run_cell(spec)
    except SeqbetError as exc:
        outcomes = [exc] * len(spec.configs)
    results = []
    for r, outcome in enumerate(outcomes):
        if isinstance(outcome, SeqbetError):
            results.append(TaskResult(spec.label, r, False, reason=str(outcome)))
            continue
        run, extra = outcome
        results.append(TaskResult(
            spec.label, r, True,
            ratios=run.ratios, log_capital_path=run.log_capital_path,
            checkpoints=run.checkpoints, **extra,
        ))
    share = (time.monotonic() - start) / len(results)
    for result in results:
        result.seconds = share
    return results


def _execute(specs: list[TaskSpec], jobs: int) -> list[TaskResult]:
    if jobs <= 1 or len(specs) <= 1:
        cells = [_run_task(spec) for spec in specs]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_run_task, specs, chunksize=1))
    return [result for cell in cells for result in cell]


# ---------------------------------------------------------------------------
# Artifact writing


@dataclass
class CellSummary:
    label: str
    ok: bool
    reason: str
    means: dict[int, float]
    mean_iterations: float | None
    converged_fraction: float | None
    training_error: float | None
    seconds: float


@dataclass
class RunReport:
    """In-memory view of a finished run; timings never reach the artifacts."""

    out_dir: Path
    checkpoints: list[int]
    cells: list[CellSummary]

    @property
    def total_seconds(self) -> float:
        return sum(c.seconds for c in self.cells)

    def cell(self, label: str) -> CellSummary:
        for c in self.cells:
            if c.label == label:
                return c
        raise KeyError(label)


def _fmt(value: float) -> str:
    # Shortest decimal that round-trips the exact double, so values parsed
    # back from any artifact equal the computed ones bit for bit.
    return repr(float(value))


def _write_series(out_dir: Path, result: TaskResult) -> None:
    series_dir = out_dir / "series"
    series_dir.mkdir(parents=True, exist_ok=True)
    path = series_dir / f"{result.label}__rep{result.replicate}.csv"
    lines = ["round,alpha,log_capital"]
    for i, (alpha, logk) in enumerate(zip(result.ratios, result.log_capital_path), start=1):
        lines.append(f"{i},{_fmt(alpha)},{_fmt(logk)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_nnbp_diagnostics(out_dir: Path, result: TaskResult) -> None:
    diag_dir = out_dir / "diagnostics"
    diag_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result.label}__rep{result.replicate}"
    lines = ["epoch,training_error"]
    lines += [f"{i},{_fmt(e)}" for i, e in enumerate(result.error_per_epoch, start=1)]
    (diag_dir / f"{stem}__epochs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines = ["day,error"]
    lines += [f"{i},{_fmt(e)}" for i, e in enumerate(result.per_day_error, start=1)]
    (diag_dir / f"{stem}__days.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _summarize_cells(
    cells: tuple[Cell, ...],
    results: dict[tuple[str, int], TaskResult],
    replicates: int,
    checkpoints: list[int],
) -> list[CellSummary]:
    summaries = []
    for label, _ in cells:
        cell_results = [results[(label, r)] for r in range(replicates)]
        seconds = sum(r.seconds for r in cell_results)
        failed = [r for r in cell_results if not r.ok]
        if failed:
            reason = failed[0].reason
            summaries.append(CellSummary(label, False, reason, {}, None, None, None, seconds))
            continue
        means = {
            c: float(np.mean([r.checkpoints[c] for r in cell_results])) for c in checkpoints
        }
        iters = [r.mean_iterations for r in cell_results if r.mean_iterations is not None]
        convs = [r.converged_fraction for r in cell_results if r.converged_fraction is not None]
        errs = [r.training_error for r in cell_results if r.training_error is not None]
        summaries.append(
            CellSummary(
                label, True, "",
                means,
                float(np.mean(iters)) if iters else None,
                float(np.mean(convs)) if convs else None,
                float(np.mean(errs)) if errs else None,
                seconds,
            )
        )
    return summaries


def _write_tables(
    out_dir: Path,
    summaries: list[CellSummary],
    results: dict[tuple[str, int], TaskResult],
    replicates: int,
    checkpoints: list[int],
) -> None:
    # Per-replicate checkpoint values, exactly as in the series files.
    lines = ["cell,replicate,checkpoint,log_capital"]
    for summary in summaries:
        for r in range(replicates):
            result = results[(summary.label, r)]
            if result.ok:
                for c in checkpoints:
                    lines.append(f"{summary.label},{r},{c},{_fmt(result.checkpoints[c])}")
    (out_dir / "replicates.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    header = ["cell", "status", "reason"]
    header += [f"logK_{c}" for c in checkpoints]
    header += ["mean_iterations", "converged_fraction", "training_error"]
    lines = [",".join(header)]
    for s in summaries:
        row = [s.label, "ok" if s.ok else "failed", s.reason.replace(",", ";")]
        row += [_fmt(s.means[c]) if s.ok else "" for c in checkpoints]
        row.append(_fmt(s.mean_iterations) if s.mean_iterations is not None else "")
        row.append(_fmt(s.converged_fraction) if s.converged_fraction is not None else "")
        row.append(_fmt(s.training_error) if s.training_error is not None else "")
        lines.append(",".join(row))
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    (out_dir / "summary.txt").write_text(
        render_table(summaries, checkpoints), encoding="utf-8"
    )


def _rank_flags(values: list[tuple[int, float]]) -> dict[int, str]:
    """Flags for the best ('*') and second best ('**') row index by value;
    ties go to the earlier row."""
    flags: dict[int, str] = {}
    ordered = sorted(values, key=lambda pair: (-pair[1], pair[0]))
    if ordered:
        flags[ordered[0][0]] = "*"
    if len(ordered) > 1:
        flags[ordered[1][0]] = "**"
    return flags


def render_table(summaries: list[CellSummary], checkpoints: list[int]) -> str:
    """Aligned text rendering with best / second-best marks at the final mark."""
    final = checkpoints[-1] if checkpoints else None
    ranked = [(i, s.means[final]) for i, s in enumerate(summaries) if s.ok]
    flags = _rank_flags(ranked) if final is not None else {}
    headers = ["cell"] + [f"logK@{c}" for c in checkpoints] + ["flag", "note"]
    rows = []
    for i, s in enumerate(summaries):
        cells = [s.label]
        cells += [f"{s.means[c]:.3f}" if s.ok else FAILURE_MARK for c in checkpoints]
        cells.append(flags.get(i, ""))
        cells.append("" if s.ok else f"failed: {s.reason}")
        rows.append(cells)
    return _render_columns(headers, rows)


def _render_columns(headers: list[str], rows: list[list[str]]) -> str:
    """Left-aligned text columns two spaces apart, trailing blanks stripped."""
    widths = [max([len(h), *(len(r[j]) for r in rows)]) for j, h in enumerate(headers)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in [headers, *rows]]
    return "\n".join(lines) + "\n"


def _write_manifest(out_dir: Path, config: ExperimentConfig, checkpoints) -> None:
    warm_start = next((c.warm_start for _, c in config.cells if isinstance(c, SosnnConfig)), None)
    manifest = {
        "tool": "seqbet",
        "version": __version__,
        "mode": config.mode,
        "seed": config.seed,
        "warmup": config.warmup,
        "replicates": config.replicates,
        "checkpoints": list(checkpoints),
        "cells": [label for label, _ in config.cells],
        "config": config.raw,
        "strategy_notes": {
            "sosnn": {
                "warm_start": warm_start,
                "warmup_betting": "warmup rounds bet 0",
            },
            "nnbp": {"learning_rate_schedule": "constant"},
            "markov": {"optimizer": "slope bisection on [-0.999, 0.999], tol 1e-10"},
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Commands


def _clear_artifacts(out_dir: Path) -> None:
    """Create `out_dir` and remove the per-cell and movement artifacts of an
    earlier run, which the new one might not overwrite. The tables and the
    manifest are rewritten; nothing else in the directory is touched."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("series", "diagnostics"):
        if (out_dir / name).is_dir():
            shutil.rmtree(out_dir / name)
    (out_dir / "movements.csv").unlink(missing_ok=True)


def run_simulate(config: ExperimentConfig, out_dir, jobs: int = 1) -> RunReport:
    """Generate data per replicate, run every selected strategy, emit artifacts."""
    if config.mode != "simulate":
        raise UsageError(f"run_simulate got a {config.mode!r} config")
    out_dir = Path(out_dir)
    _clear_artifacts(out_dir)
    checkpoints = checkpoint_rounds(config.rounds)
    results = _execute(_task_specs(config), jobs)
    return _finish_run(config, out_dir, checkpoints, results)


def _backtest_series(config: ExperimentConfig):
    """Normalized warmup+investing series, training series, and movement dates."""
    spec = config.data
    prices = load_prices(spec.price_file)
    raw = movements_from_prices(prices)
    dates = prices.dates[1:]  # movement n belongs to the later day

    def window(bounds):
        lo = next((i for i, d in enumerate(dates) if d >= bounds[0]), len(dates))
        hi = next((i for i, d in enumerate(dates) if d > bounds[1]), len(dates))
        return lo, hi

    n_lo, n_hi = window(spec.normalization)
    if n_lo >= n_hi:
        raise ConfigError("normalization range selects no movements")
    i_lo, i_hi = window(spec.investing)
    if i_lo >= i_hi:
        raise ConfigError("investing range selects no movements")
    if i_lo < config.warmup:
        raise ConfigError(
            f"only {i_lo} movements precede the investing range; warmup needs {config.warmup}"
        )
    # A flat normalization window (constant prices) raises DataError.
    reference = raw[n_lo:n_hi]
    invest = normalize(raw[i_lo - config.warmup : i_hi], rule_source=reference).values
    invest_dates = dates[i_lo - config.warmup : i_hi]
    training = None
    if "nnbp" in config.strategies:
        t_lo, t_hi = window(spec.training)
        if t_lo >= t_hi:
            raise ConfigError("training range selects no movements")
        training = normalize(raw[t_lo:t_hi], rule_source=reference).values
    betting_rounds = i_hi - i_lo
    return invest, invest_dates, training, betting_rounds


def run_backtest(config: ExperimentConfig, out_dir, jobs: int = 1) -> RunReport:
    """Normalize price movements by the reference window, then run strategies."""
    if config.mode != "backtest":
        raise UsageError(f"run_backtest got a {config.mode!r} config")
    invest, invest_dates, training, betting_rounds = _backtest_series(config)
    out_dir = Path(out_dir)
    _clear_artifacts(out_dir)
    checkpoints = checkpoint_rounds(betting_rounds)
    results = _execute(_task_specs(config, invest, training), jobs)
    write_movements(out_dir / "movements.csv", invest_dates, invest)
    return _finish_run(config, out_dir, checkpoints, results)


def _task_specs(config, movements=None, training=None) -> list[TaskSpec]:
    """One TaskSpec per cell, holding every replicate, seeded from the base
    seed and listed in submission order.

    A backtest passes its shared normalized `movements` and, for nnbp, the
    `training` movements; without them every replicate's series is
    generated from its derived data seed. Cells are submitted longest first,
    so the pool does not end on one long task: NNBP (the most steps per
    cell), then SOSNN from the largest network down, then MKV. The order
    never reaches the artifacts, which are written by (cell, replicate).
    """
    specs = []
    for label, strategy in config.cells:
        configs, series, training_series = [], [], None
        for r in range(config.replicates):
            if movements is None:
                length = config.warmup + config.rounds
                series.append((config.data.generator, length, derive_seed(config.seed, r, _ROLE_DATA)))
            else:
                series.append(movements)
            if isinstance(strategy, SosnnConfig):
                net = strategy.net
                seed = derive_seed(config.seed, r, _ROLE_SOSNN, net.input_count, net.hidden_count)
                configs.append(replace(strategy, seed=seed))
            elif isinstance(strategy, NnbpConfig):
                configs.append(replace(strategy, seed=derive_seed(config.seed, r, _ROLE_NNBP_INIT)))
                training_series = training_series or []
                if movements is None:
                    seed = derive_seed(config.seed, r, _ROLE_NNBP_DATA)
                    training_series.append((config.data.generator, config.training_rounds, seed))
                else:
                    training_series.append(training)
            else:
                configs.append(strategy)
        specs.append(TaskSpec(label, config.warmup, configs, series, training_series))
    return sorted(specs, key=_submission_rank)


def _submission_rank(spec: TaskSpec) -> tuple[int, int]:
    config = spec.configs[0]
    if isinstance(config, NnbpConfig):
        return (0, 0)
    if isinstance(config, SosnnConfig):
        return (1, -config.net.hidden_count * (config.net.input_count + 1))
    return (2, 0)


def _finish_run(config, out_dir, checkpoints, results) -> RunReport:
    results = {(res.label, res.replicate): res for res in results}
    for label, _ in config.cells:
        for r in range(config.replicates):
            result = results[(label, r)]
            if result.ok:
                _write_series(out_dir, result)
                if result.error_per_epoch is not None:
                    _write_nnbp_diagnostics(out_dir, result)
    summaries = _summarize_cells(config.cells, results, config.replicates, checkpoints)
    _write_tables(out_dir, summaries, results, config.replicates, checkpoints)
    _write_manifest(out_dir, config, checkpoints)
    return RunReport(out_dir=out_dir, checkpoints=list(checkpoints), cells=summaries)


# ---------------------------------------------------------------------------
# compare


@dataclass
class CompareRow:
    run: str
    cell: str
    ok: bool
    values: dict[int, float]
    flag: str = ""
    note: str = ""


def run_compare(run_dirs, out_path=None) -> list[CompareRow]:
    """Merge the summary tables of several runs; flag best and second best
    at the final checkpoint (failed cells are shown but never ranked)."""
    dirs = [Path(d) for d in run_dirs]
    if len(dirs) < 1:
        raise UsageError("compare needs at least one run directory")
    checkpoints = None
    rows: list[CompareRow] = []
    for d in dirs:
        manifest_path = d / "manifest.json"
        summary_path = d / "summary.csv"
        if not manifest_path.is_file() or not summary_path.is_file():
            raise UsageError(f"{d} does not contain a finished run")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        marks = list(manifest["checkpoints"])
        if checkpoints is None:
            checkpoints = marks
        elif marks != checkpoints:
            raise UsageError(
                f"incompatible checkpoints: {d.name} has {marks}, expected {checkpoints}"
            )
        header, *records = summary_path.read_text(encoding="utf-8").strip().split("\n")
        names = header.split(",")
        for record in records:
            fields = dict(zip(names, record.split(",")))
            ok = fields["status"] == "ok"
            values = {c: float(fields[f"logK_{c}"]) for c in checkpoints} if ok else {}
            rows.append(CompareRow(run=d.name, cell=fields["cell"], ok=ok, values=values))
    final = checkpoints[-1]
    ranked = [(i, row.values[final]) for i, row in enumerate(rows) if row.ok]
    flags = _rank_flags(ranked)
    for i, row in enumerate(rows):
        row.flag = flags.get(i, "")
    by_value: dict[float, list[int]] = {}
    for i, value in ranked:
        by_value.setdefault(value, []).append(i)
    for indices in by_value.values():
        if len(indices) > 1:
            for i in indices:
                rows[i].note = "tie"
    if out_path is not None:
        header = ["run", "cell"] + [f"logK_{c}" for c in checkpoints] + ["flag", "note"]
        lines = [",".join(header)]
        for row in rows:
            record = [row.run, row.cell]
            record += [_fmt(row.values[c]) if row.ok else FAILURE_MARK for c in checkpoints]
            record += [row.flag, row.note]
            lines.append(",".join(record))
        Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def render_compare(rows: list[CompareRow], checkpoints: list[int]) -> str:
    headers = ["run", "cell"] + [f"logK@{c}" for c in checkpoints] + ["flag", "note"]
    table = []
    for row in rows:
        cells = [row.run, row.cell]
        cells += [f"{row.values[c]:.3f}" if row.ok else FAILURE_MARK for c in checkpoints]
        cells += [row.flag, row.note]
        table.append(cells)
    return _render_columns(headers, table)
