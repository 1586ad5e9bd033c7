"""Supervised network betting.

The network is trained by per-sample back-propagation against the sign of
each day's movement over a training period, then frozen; through the
investing period the bet is simply the frozen network's output on the
latest window. Training and investing data never mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import UsageError
from .game import MovementSeries, StrategyRunResult, clamp_ratio, run_game
from .network import (
    NetworkConfig,
    NetworkWeights,
    _OUTPUT_CAP,
    _batch_forward,
    _stack_history,
    forward,
    window_matrix,
)


@dataclass
class NnbpConfig:
    """Network shape and the back-propagation training loop controls."""

    net: NetworkConfig
    learning_rate: float = 0.07
    error_threshold: float = 1e-2
    max_steps: int = 600_000
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise UsageError("learning_rate must be positive")
        if self.error_threshold <= 0:
            raise UsageError("error_threshold must be positive")
        if self.max_steps < 1:
            raise UsageError("max_steps must be >= 1")
        if self.init_scale <= 0:
            raise UsageError("init_scale must be positive")


@dataclass
class TrainingDiagnostics:
    """Fit record: errors per cycle, the final per-day errors, and effort."""

    error_per_epoch: list[float]
    final_error: float
    per_day_error: np.ndarray
    steps_used: int
    converged: bool


def sign_target(x: float) -> int:
    """Desired output for a movement: +1 if it rose, -1 if it fell, else 0."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def training_error(weights: NetworkWeights, training: Iterable) -> float:
    """Mean halved squared error over (window, target) pairs: sum((T-y)^2) / 2m."""
    windows, targets = _stack_history(training, weights.hidden_weights.shape[1])
    if not targets.size:
        raise UsageError("training set must not be empty")
    _, out = _batch_forward(windows, weights.hidden_weights, weights.output_weights)
    return float(0.5 * np.mean((targets[:, 0] - out) ** 2))


def _training_pairs(xs: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    if len(xs) < length + 1:
        raise UsageError(
            f"training series of length {len(xs)} cannot fill a window of {length}"
        )
    windows = window_matrix(xs, length, length + 1, len(xs))
    targets = np.array([sign_target(x) for x in xs[length:]], dtype=float)
    return windows, targets


def train(
    training_movements: MovementSeries,
    config: NnbpConfig,
    init: NetworkWeights | None = None,
) -> tuple[NetworkWeights, TrainingDiagnostics]:
    """Fit the network to the sign of each training-day movement.

    Cycles through the m available (window, target) pairs in day order,
    updating after every sample, and records the mean halved squared error
    after each full cycle. Stops once that error drops below the threshold
    or another full cycle would exceed `max_steps`. Non-convergence is
    reported in the diagnostics, not raised.
    """
    xs = training_movements.values
    windows, targets = _training_pairs(xs, config.net.input_count)
    m = len(targets)
    if init is None:
        rng = np.random.default_rng(config.seed)
        weights = NetworkWeights.uniform(config.net, config.init_scale, rng)
    else:
        if init.config != config.net:
            raise UsageError(f"init weights are {init.config}, config wants {config.net}")
        weights = init.copy()
    if not np.isin(targets, (-1.0, 0.0, 1.0)).all():
        raise UsageError("training targets must be -1, 0 or 1")
    target_list = targets.tolist()
    w_hidden = weights.hidden_weights
    w_out = weights.output_weights
    rate = config.learning_rate
    errors: list[float] = []
    steps = 0
    converged = False
    while True:
        # One descent step per sample along `squared_error_gradient`, inlined
        # with the same operation order so the weights match it bit for bit.
        for u, target in zip(windows, target_list):
            hidden_out = np.tanh(w_hidden @ u)
            out = min(max(float(np.tanh(w_out @ hidden_out)), -_OUTPUT_CAP), _OUTPUT_CAP)
            out_delta = -(target - out) * (1.0 - out * out)
            hidden_delta = (out_delta * w_out) * (1.0 - hidden_out * hidden_out)
            w_hidden -= rate * (hidden_delta[:, None] * u)
            w_out -= rate * (out_delta * hidden_out)
        steps += m
        _, out = _batch_forward(windows, weights.hidden_weights, weights.output_weights)
        errors.append(float(0.5 * np.mean((targets - out) ** 2)))
        if errors[-1] < config.error_threshold:
            converged = True
            break
        if steps + m > config.max_steps:
            break
    _, out = _batch_forward(windows, weights.hidden_weights, weights.output_weights)
    per_day = 0.5 * (targets - out) ** 2
    diagnostics = TrainingDiagnostics(
        error_per_epoch=errors,
        final_error=errors[-1],
        per_day_error=per_day,
        steps_used=steps,
        converged=converged,
    )
    return weights, diagnostics


def run_nnbp(
    weights: NetworkWeights, movements: MovementSeries, warmup: int
) -> StrategyRunResult:
    """Bet the frozen network's output through an investing series.

    The weights are copied up front and never updated; rounds 1..warmup only
    provide window history.
    """
    length = weights.hidden_weights.shape[1]
    if warmup < length:
        raise UsageError(
            f"warmup of {warmup} cannot fill an input window of {length}"
        )
    frozen = weights.copy()
    # Row i holds the input window of round warmup + 1 + i.
    windows = window_matrix(movements.values, length, warmup + 1, len(movements))

    def bet(n: int, past: np.ndarray) -> float:
        return clamp_ratio(forward(windows[n - warmup - 1], frozen).output)

    return run_game(bet, movements, warmup)
