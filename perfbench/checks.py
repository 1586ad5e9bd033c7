"""Correctness gate over the artifacts of one job.

For every (cell, replicate) task it recomputes the game identity: the logged
capital must equal the running sum of log1p(alpha * x) over the movement
series, rebuilt here from the seed (simulate), the price file (backtest) or
the movement panel (portfolio), and every bet must satisfy |alpha| <= 0.999
(portfolio: every ratio, and total exposure below 1). At the default seed the
final log capital of each pinned task must match reference.json. Each task
that is missing, failed in the program, or fails a check counts as failed.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Workload, build_panel

RATIO_CAP = 1.0 - 1e-3
IDENTITY_TOL = 1e-9  # absolute, on log capital
REFERENCE_TOL = 1e-8
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class CheckResult:
    tasks: int = 0
    failures: list[str] = field(default_factory=list)
    final_log_k: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    @property
    def failed(self) -> int:
        return len({f.split(":")[0] for f in self.failures})


def _identity(task: str, alphas, log_k, moves, result: CheckResult, portfolio=False) -> None:
    if len(log_k) != len(moves):
        result.failures.append(f"{task}: {len(log_k)} rounds against {len(moves)} movements")
        return
    running = 0.0
    for i, (alpha, x, logged) in enumerate(zip(alphas, moves, log_k.tolist()), start=1):
        alpha = np.atleast_1d(alpha)
        if np.abs(alpha).max() > RATIO_CAP or (portfolio and np.abs(alpha).sum() >= 1.0):
            result.failures.append(f"{task}: round {i} bets {alpha.tolist()} beyond the cap")
            return
        running += math.log1p(float(alpha @ np.atleast_1d(x)))
        if abs(running - logged) > IDENTITY_TOL * max(1.0, abs(running)):
            result.failures.append(
                f"{task}: round {i} logs {logged!r}, the identity gives {running!r}"
            )
            return
    result.final_log_k[task] = float(log_k[-1])


def _read_rows(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array(rows, dtype=float)


def _read_movements(path: Path) -> np.ndarray:
    """Values of a one-asset `date,value` movements file."""
    with open(path, encoding="utf-8") as fh:
        return np.array([float(row[1]) for row in csv.reader(fh) if row], dtype=float)


def backtest_movements(config) -> np.ndarray:
    """Warmup + investing movements by the documented normalization rule."""
    from seqbet.data import load_prices, movements_from_prices

    prices = load_prices(config.data.price_file)
    raw = movements_from_prices(prices)
    dates = prices.dates[1:]

    def index(day: datetime.date, after: bool) -> int:
        return next((i for i, d in enumerate(dates) if (d > day if after else d >= day)), len(dates))

    n_lo, n_hi = index(config.data.normalization[0], False), index(config.data.normalization[1], True)
    i_lo, i_hi = index(config.data.investing[0], False), index(config.data.investing[1], True)
    divisor = float(np.abs(raw[n_lo:n_hi]).max())
    return np.clip(raw[i_lo - config.warmup : i_hi] / divisor, -1.0, 1.0)


def check_run(workload: Workload, seed: int, config, out: Path) -> CheckResult:
    """Check a simulate/backtest artifact directory."""
    from seqbet import data
    from seqbet.experiments import derive_seed

    result = CheckResult()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if workload.kind == "backtest":
        shared = backtest_movements(config)
        written = _read_movements(out / "movements.csv")
        if written.shape != shared.shape or np.abs(written - shared).max() > 1e-9:
            result.failures.append("movements.csv: differs from the normalized price movements")
    for r in range(manifest["replicates"]):
        if workload.kind == "backtest":
            moves = shared
        else:
            gen = data.gen_ar1 if config.data.generator == "ar1" else data.gen_arma21
            raw = gen(config.warmup + config.rounds, data.NoiseSpec(seed=derive_seed(seed, r, 0)))
            moves = data.normalize(raw).values
        for cell in manifest["cells"]:
            task = f"{cell}__rep{r}"
            result.tasks += 1
            path = out / "series" / f"{task}.csv"
            if not path.is_file():
                result.failures.append(f"{task}: no series artifact (task failed)")
                continue
            rows = _read_rows(path)
            if rows[: config.warmup, 1].any():
                result.failures.append(f"{task}: a warmup round bets")
            _identity(task, rows[:, 1], rows[:, 2], moves, result)
    digest = hashlib.sha256()
    for name in ("summary.csv", "replicates.csv"):
        digest.update((out / name).read_bytes())
    result.digest = digest.hexdigest()
    return result


def check_portfolio(workload: Workload, seed: int, out: Path) -> CheckResult:
    from seqbet import data

    result = CheckResult()
    p = workload.panel
    digest = hashlib.sha256()
    for r in range(p["replicates"]):
        task = f"portfolio_{p['input_count']}x{p['hidden_count']}__rep{r}"
        result.tasks += 1
        path = out / f"log_capital__rep{r}.csv"
        if not path.is_file():
            result.failures.append(f"{task}: no log capital artifact")
            continue
        digest.update(path.read_bytes())
        panel = build_panel(data, seed, r, p["length"])[: p["warmup"] + p["rounds"]]
        rows = _read_rows(path)
        _identity(task, rows[:, 1:3], rows[:, 3], panel, result, portfolio=True)
    result.digest = digest.hexdigest()
    return result


def load_reference() -> dict:
    if REFERENCE_FILE.is_file():
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {}


def check_reference(workload: Workload, seed: int, result: CheckResult, reference: dict) -> None:
    """At the default seed, compare final log capital with the pinned values."""
    if seed != DEFAULT_SEED:
        return
    pinned = reference.get("workloads", {}).get(workload.name, {}).get("final_log_k", {})
    for task, value in pinned.items():
        got = result.final_log_k.get(task)
        if got is None or abs(got - value) > REFERENCE_TOL:
            result.failures.append(f"{task}: final log capital {got!r}, pinned {value!r}")
