"""Bounded forecasting game: its rules and the strategy-agnostic game loop.

Each round Investor bets a fraction alpha_n of current capital, Market reveals a
move x_n in [-1, 1], and capital multiplies by (1 + alpha_n . x_n), with vectors
for P assets. Each rule is written once, here: a movement is finite and lies in
[-1, 1] (`_check_movements`); a warmup of W rounds has W >= 0 (`_check_warmup`),
and, with W < N, rounds W + 1..N of an N-round series bet (`_betting_rounds`),
each reading only the movements before it (`betting_windows`), at most W of them
(`_check_look_back`); a round's total exposure sum|alpha_n| is below 1, which
rules out bankruptcy; log capital adds log1p(alpha_n . x_n) per round, summed
left to right from 0.0. `_play` checks and plays a whole table of bets, for
`run_game`'s single-asset callbacks and the multi-asset strategy alike.
"""

from __future__ import annotations

import itertools
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


def _check_movements(values: np.ndarray) -> float:
    """The peak |x| of a float array of movements, each of which must be
    finite and lie in [-1, 1]; 0.0 for an empty array."""
    peak = np.maximum.reduce(np.abs(values), axis=None, initial=0.0)
    if not peak <= 1.0:  # NaN propagates through the maximum and fails here too
        worst = values.flat[np.flatnonzero(~(np.abs(values) <= 1.0))[0]]
        raise DomainError(f"market movement must be finite and lie in [-1, 1], got {float(worst)!r}")
    return peak


def _check_warmup(warmup: int) -> None:
    """The game's warmup rule: a warmup is a nonnegative number of rounds."""
    if warmup < 0:
        raise UsageError(f"warmup must be nonnegative, got {warmup}")


def _betting_rounds(n_rounds: int, warmup: int) -> range:
    """Rounds warmup + 1..N of an N-round series, the rounds that bet; the
    game's one length rule is 0 <= warmup < N."""
    _check_warmup(warmup)
    if n_rounds <= warmup:
        raise UsageError(
            f"series of length {n_rounds} leaves no rounds after a warmup of {warmup}"
        )
    return range(warmup + 1, n_rounds + 1)


def _check_look_back(look_back: int, warmup: int) -> None:
    """The game's look-back rule: a bet that reads the `look_back` movements
    before its round needs a warmup of at least that many rounds."""
    _check_warmup(warmup)
    if warmup < look_back:
        raise UsageError(f"a look-back of {look_back} rounds does not fit in a warmup of {warmup}")


def betting_windows(values, length: int, warmup: int) -> np.ndarray:
    """The input windows of rounds warmup + 1..N of an N-round series, one
    row per round: row i holds (x_{k-1}, ..., x_{k-length}) for round
    k = warmup + 1 + i, newest first. Empty when N <= warmup."""
    xs = np.asarray(values, dtype=float)
    _check_look_back(length, warmup)
    rounds = np.arange(warmup + 1, xs.size + 1)
    return xs[rounds[:, None] - 2 - np.arange(length)]


@dataclass
class MovementSeries:
    """Normalized per-round price movements x_n in [-1, 1], the Market's moves."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise UsageError("movement series must be one-dimensional")
        _check_movements(self.values)

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
    """Play the bounded forecasting game on one asset.

    `strategy(n, past)` is called for each round n > warmup with the 1-based
    round index and a read-only view of the movements before round n (all x_k
    with k < n); it returns the betting ratio alpha_n. Rounds 1..warmup bet 0.
    A bet never depends on capital, so `_play` plays the collected bets.
    """
    xs = movements.values
    rounds = _betting_rounds(len(xs), warmup)
    past = xs.view()
    past.flags.writeable = False
    bets = [0.0] * warmup
    bets += [float(strategy(n, past[: n - 1])) for n in rounds]
    return _play(np.array(bets), xs, warmup)


def _play(ratios: np.ndarray, moves: np.ndarray, warmup: int) -> StrategyRunResult:
    """The run of a table of bets, length N or N x P like its movements;
    `StrategyViolationError` names the first round whose exposure is not below 1.
    The sum starts from 0.0, so the -0.0 gain of a warmup round over a
    negative movement still starts the path at +0.0."""
    exposure = np.abs(ratios) if ratios.ndim == 1 else np.add.reduce(np.abs(ratios), axis=1)
    bad = np.flatnonzero(~(exposure < 1.0))  # also catches NaN
    if bad.size:
        n, bet = int(bad[0]) + 1, ratios[bad[0]].tolist()
        what = f"ratio {bet!r} outside (-1, 1)" if ratios.ndim == 1 else f"ratios {bet} of total exposure >= 1"
        raise StrategyViolationError(f"strategy returned {what} at round {n}")
    gains = np.vecdot(ratios.reshape(len(moves), -1), moves.reshape(len(moves), -1))
    path = list(itertools.accumulate(map(math.log1p, gains.tolist()), initial=0.0))
    return StrategyRunResult(ratios=ratios, log_capital_path=np.array(path[1:]), warmup=warmup)
