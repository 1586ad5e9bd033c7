"""Bounded forecasting game: capital accounting and the strategy-agnostic game loop.

Each round Investor bets a fraction alpha_n of current capital, Market reveals a
move x_n in [-1, 1], and capital multiplies by (1 + alpha_n * x_n). Keeping
|alpha_n| < 1 rules out bankruptcy. Capital is tracked in log space only:
`run_game` adds log1p(alpha_n * x_n) per round, which is the one capital
update. `run_game` rejects a ratio outside (-1, 1), and `MovementSeries`
rejects a movement outside [-1, 1], so every update is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, StrategyViolationError, UsageError

# Optimized bets are kept this far inside the open interval (-1, 1): with a
# single-signed history the log-wealth objective has no attainable maximum on
# the open interval, so optimizers work on the closed, slightly shrunken one.
RATIO_MARGIN = 1e-3
RATIO_CAP = 1.0 - RATIO_MARGIN

# Betting-round marks reported in summary tables.
CHECKPOINT_ROUNDS = (100, 200, 300)


def clamp_ratio(alpha: float) -> float:
    """Clamp a betting ratio into [-RATIO_CAP, RATIO_CAP]."""
    return min(max(float(alpha), -RATIO_CAP), RATIO_CAP)


@dataclass
class MovementSeries:
    """Normalized per-round price movements x_n in [-1, 1], the Market's moves."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise UsageError("movement series must be one-dimensional")
        if self.values.size:
            if not np.isfinite(self.values).all():
                raise DomainError("movement series contains non-finite values")
            worst = self.values[np.argmax(np.abs(self.values))]
            if abs(worst) > 1.0:
                raise DomainError(
                    f"market movement must lie in [-1, 1], got {worst!r}"
                )

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass
class OptimizeReport:
    """How one refit ended: its ascent iterations, whether it met the weight
    tolerance before the iteration cap, max|g| at its last step, and the
    best log-wealth objective it reached."""

    iterations: int
    converged: bool
    final_gradient_norm: float
    objective: float


@dataclass
class StrategyRunResult:
    """Per-round betting ratios and the resulting log capital path.

    `ratios[i]` and `log_capital_path[i]` describe round i+1; warmup rounds
    bet 0 so indices stay aligned with the data. A strategy that refits
    before every betting round lists each round's `OptimizeReport` in
    `diagnostics`, in round order.
    """

    ratios: np.ndarray
    log_capital_path: np.ndarray
    warmup: int
    diagnostics: list[OptimizeReport] | None = None

    @property
    def betting_rounds(self) -> int:
        return len(self.log_capital_path) - self.warmup

    @property
    def final_log_capital(self) -> float:
        return float(self.log_capital_path[-1])

    @property
    def checkpoints(self) -> dict[int, float]:
        """Log capital at each of `checkpoint_rounds`, keyed by betting round
        (warmup excluded)."""
        path, warmup = self.log_capital_path, self.warmup
        return {r: float(path[warmup + r - 1]) for r in checkpoint_rounds(self.betting_rounds)}


def checkpoint_rounds(betting_rounds: int) -> list[int]:
    """Standard checkpoint marks that fit, plus the final betting round."""
    marks = [r for r in CHECKPOINT_ROUNDS if r <= betting_rounds]
    if betting_rounds >= 1 and betting_rounds not in marks:
        marks.append(betting_rounds)
    return marks


def run_game(
    strategy: Callable[[int, np.ndarray], float],
    movements: MovementSeries,
    warmup: int = 0,
) -> StrategyRunResult:
    """Play the bounded forecasting game round by round.

    `strategy(n, past)` is called for each round n > warmup with the 1-based
    round index and a read-only view of the movements before round n (all x_k
    with k < n); it returns the betting ratio alpha_n. Rounds 1..warmup bet 0.
    """
    if warmup < 0:
        raise UsageError(f"warmup must be nonnegative, got {warmup}")
    xs = movements.values
    n_rounds = len(xs)
    if n_rounds <= warmup:
        raise UsageError(
            f"series of length {n_rounds} leaves no rounds after a warmup of {warmup}"
        )
    ratios = np.zeros(n_rounds)
    path = np.empty(n_rounds)
    log_k = 0.0
    for i in range(n_rounds):
        n = i + 1
        alpha = 0.0
        if n > warmup:
            alpha = float(strategy(n, xs[: n - 1]))
            if not -1.0 < alpha < 1.0:
                raise StrategyViolationError(
                    f"strategy returned ratio {alpha!r} outside (-1, 1) at round {n}"
                )
        log_k += math.log1p(alpha * xs[i])
        ratios[i] = alpha
        path[i] = log_k
    return StrategyRunResult(ratios=ratios, log_capital_path=path, warmup=warmup)
