"""Sequentially optimized network betting.

Before each betting round the network weights are re-fit, by annealed
gradient ascent, to maximize the log wealth they would have earned over all
completed post-warmup rounds; the round's bet is the refit network's output
on the latest window. The optimizer returns the best iterate it visited, so
a round's weights never score below their starting point. A refit stops
at the iteration cap or once rate * max|g| falls below the weight tolerance,
which is the same as every applied weight increment falling below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import NumericError, UsageError
from .game import MovementSeries, RoundDiagnostics, StrategyRunResult, clamp_ratio, run_game
from .network import (
    AnnealingSchedule,
    NetworkConfig,
    NetworkWeights,
    _log_wealth,
    _stack_history,
    _wealth_value_and_gradient,
    forward,
    window_matrix,
)


@dataclass
class SosnnConfig:
    """Network shape plus everything that controls the per-round refits."""

    net: NetworkConfig
    schedule: AnnealingSchedule = field(default_factory=AnnealingSchedule)
    weight_tolerance: float = 1e-4
    max_iterations: int = 10_000
    warmup: int = 20
    init_scale: float = 0.1
    seed: int = 0
    warm_start: bool = True

    def __post_init__(self) -> None:
        if self.weight_tolerance <= 0:
            raise UsageError("weight_tolerance must be positive")
        if self.max_iterations < 1:
            raise UsageError("max_iterations must be >= 1")
        if self.warmup < 0:
            raise UsageError("warmup must be nonnegative")
        if self.init_scale <= 0:
            raise UsageError("init_scale must be positive")


@dataclass
class OptimizeReport:
    iterations: int
    converged: bool
    final_gradient_norm: float
    objective: float


def optimize_weights(
    history: Iterable, config: SosnnConfig, init: NetworkWeights
) -> tuple[NetworkWeights, OptimizeReport]:
    """Ascend the log-wealth objective from `init` until the applied weight
    increments all fall below `weight_tolerance` or the iteration cap hits.

    Returns the best-objective iterate visited, which is never worse than
    `init`, together with a convergence report.
    """
    windows, moves = _stack_history(history, config.net.input_count)
    if windows.shape[0] == 0:
        raise UsageError("cannot optimize over an empty history")
    if init.config != config.net:
        raise UsageError(
            f"init weights are {init.config}, config wants {config.net}"
        )
    return _optimize(windows, moves, config, init)


def _optimize(windows, moves, config, init):
    """Refit of one network: the P = 1 case of `_ascend` (moves is K x 1)."""
    w_hidden, w_out, report = _ascend(
        windows, moves, config, init.hidden_weights, init.output_weights[None, :]
    )
    return NetworkWeights(w_hidden, w_out[0]), report


def _ascend(windows, moves, config, w_hidden, w_out):
    """Annealed gradient ascent of log wealth over K rounds and P assets.

    Returns the best hidden (M x L) and output (P x M) weights visited and a
    report. With several assets the raw ratio vector can bankrupt a recorded
    round, where the objective is undefined, so the start is projected to
    solvency and every step is shrunk until it stays solvent. One asset can
    never get there (|f| < 1, |x| <= 1), so neither search runs for P = 1.

    Both weight layers are views of one flat parameter vector, and the
    kernel writes the gradient g into views of one flat buffer. The ascent
    stops once the largest applied increment falls below `weight_tolerance`.
    For one asset that is rate * max|g| < tol, which equals max|rate * g| < tol
    exactly: rounding a product by a positive scalar is monotone and
    symmetric in sign.
    """
    hidden_shape, out_shape = w_hidden.shape, w_out.shape
    split = w_hidden.size

    def views(flat):
        return flat[:split].reshape(hidden_shape), flat[split:].reshape(out_shape)

    theta = np.concatenate((w_hidden.ravel(), w_out.ravel()))
    grad = np.empty_like(theta)
    w_hidden, w_out = views(theta)
    grad_hidden, grad_out = views(grad)
    several_assets = moves.shape[1] > 1
    if several_assets:
        # A warm start fitted before the newest round arrived can bankrupt
        # that round. Shrinking the output layer toward the zero policy,
        # which earns exactly 0, always restores feasibility.
        for _ in range(128):
            if np.isfinite(_log_wealth(windows, moves, w_hidden, w_out)):
                break
            w_out *= 0.5
        else:
            raise NumericError("could not project the initial weights to solvency")
    best_value = -np.inf
    best = theta.copy()
    iterations = 0
    converged = False
    grad_norm = np.nan
    tol = config.weight_tolerance
    for step in range(config.max_iterations):
        value, _, _ = _wealth_value_and_gradient(
            windows, moves, w_hidden, w_out, grad_hidden, grad_out
        )
        grad_norm = np.abs(grad).max()
        if not (math.isfinite(value) and math.isfinite(grad_norm)):
            raise NumericError(
                f"non-finite objective or gradient at ascent step {step}"
            )
        if value > best_value:
            best_value = value
            best = theta.copy()
        rate = config.schedule.rate(step)
        if several_assets:
            increment = rate * grad
            for _ in range(64):
                if np.isfinite(_log_wealth(windows, moves, *views(theta + increment))):
                    break
                increment *= 0.5
            else:
                raise NumericError(f"could not find a solvent ascent step at {step}")
            theta += increment
            largest_increment = np.abs(increment).max()
        else:
            theta += rate * grad
            largest_increment = rate * grad_norm
        iterations = step + 1
        if largest_increment < tol:
            converged = True
            break
    # The loop never scores its last update; one more evaluation settles it.
    value = _log_wealth(windows, moves, w_hidden, w_out)
    if np.isfinite(value) and value > best_value:
        best_value = value
        best = theta
    best_hidden, best_out = views(best)
    return best_hidden, best_out, OptimizeReport(
        iterations, converged, float(grad_norm), best_value
    )


def run_sosnn(movements: MovementSeries, config: SosnnConfig) -> StrategyRunResult:
    """Run the sequentially optimized strategy over a movement series.

    Rounds 1..warmup only feed history. At round n > warmup the optimizer
    re-fits over the pairs (window before k, x_k) for all completed betting
    rounds k, then the network's output on round n's window is the bet.
    With `warm_start` each refit begins at the previous round's weights;
    otherwise every round draws a fresh uniform init from the seeded stream.
    """
    length = config.net.input_count
    warmup = config.warmup
    xs = movements.values
    if warmup < length:
        raise UsageError(
            f"warmup of {warmup} cannot fill an input window of {length}"
        )
    if len(xs) < warmup + 2:
        raise UsageError(
            f"series of length {len(xs)} is shorter than warmup + 2 = {warmup + 2}"
        )
    rng = np.random.default_rng(config.seed)
    weights = NetworkWeights.uniform(config.net, config.init_scale, rng)
    # Row i holds the input window of round warmup + 1 + i.
    windows = window_matrix(xs, length, warmup + 1, len(xs))
    moves = xs[:, None]
    diagnostics: list[RoundDiagnostics] = []

    def bet(n: int, past: np.ndarray) -> float:
        nonlocal weights
        completed = n - 1 - warmup
        if completed > 0:
            init = (
                weights
                if config.warm_start
                else NetworkWeights.uniform(config.net, config.init_scale, rng)
            )
            try:
                weights, report = _optimize(
                    windows[:completed], moves[warmup : n - 1], config, init
                )
            except NumericError as exc:
                raise NumericError(f"round {n}: {exc}") from None
            diagnostics.append(RoundDiagnostics(n, report.iterations, report.converged))
        else:
            diagnostics.append(RoundDiagnostics(n, 0, True))
        return clamp_ratio(forward(windows[n - warmup - 1], weights).output)

    result = run_game(bet, movements, warmup)
    result.diagnostics = diagnostics
    return result
