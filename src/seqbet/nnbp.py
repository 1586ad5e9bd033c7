"""Supervised network betting.

The network is trained by per-sample back-propagation against the sign of
each day's movement over a training period, then frozen; through the
investing period the bet is simply the frozen network's output on the
latest window. Training and investing data never mix.

Training carries a leading replicate axis R: `train_replicates` steps R
networks, each on its own training series of one shared length, with
stacked `np.matmul` products, so every replicate's weights are
bit-identical to its training alone. Each replicate keeps its own epoch
errors and its own threshold stop. `train` is the R = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import UsageError
from .game import MovementSeries, StrategyRunResult, clamp_ratio, run_game
from .network import (
    NetworkConfig,
    NetworkWeights,
    _OUTPUT_CAP,
    _batch_forward,
    _shared_config,
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
        # `not x > 0` also rejects NaN, which every comparison fails.
        if not self.learning_rate > 0:
            raise UsageError("learning_rate must be positive")
        if not self.error_threshold > 0:
            raise UsageError("error_threshold must be positive")
        if self.max_steps < 1:
            raise UsageError("max_steps must be >= 1")
        if not self.init_scale > 0:
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
    _, out = _batch_forward(
        windows[None], weights.hidden_weights[None].mT, weights.output_weights[None, None].mT
    )
    return float(0.5 * np.mean((targets[:, 0] - out[0, :, 0]) ** 2))


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
    reported in the diagnostics, not raised. Without `init` the weights are
    drawn uniformly from the stream seeded by `config.seed`. This is the
    one-replicate case of `train_replicates`.
    """
    inits = None if init is None else [init]
    return train_replicates([training_movements], [config], inits)[0]


def train_replicates(
    training: Sequence[MovementSeries],
    configs: Sequence[NnbpConfig],
    inits: Sequence[NetworkWeights] | None = None,
) -> list[tuple[NetworkWeights, TrainingDiagnostics]]:
    """Train R networks at once: replicate r fits `training[r]` with
    `configs[r]`, as `train` would on its own, and gets the same bits.

    The series must have one length and the configs may differ only in
    seed. All replicates take the same per-sample steps in lockstep; one
    whose epoch error drops below the threshold stops there, with a shorter
    error record, and leaves the stack.
    """
    config = _shared_config(configs, "nnbp")
    if inits is None:
        inits = [
            NetworkWeights.uniform(config.net, config.init_scale, np.random.default_rng(c.seed))
            for c in configs
        ]
    else:
        inits = [init.copy() for init in inits]
    for init in inits:
        if init.config != config.net:
            raise UsageError(f"init weights are {init.config}, config wants {config.net}")
    if len({len(m) for m in training}) > 1:
        raise UsageError("replicate training series must have one length")
    windows, targets = map(
        np.stack, zip(*(_training_pairs(m.values, config.net.input_count) for m in training))
    )
    if not np.isin(targets, (-1.0, 0.0, 1.0)).all():
        raise UsageError("training targets must be -1, 0 or 1")
    count, m = targets.shape
    hidden_count, input_count = config.net.hidden_count, config.net.input_count
    split = hidden_count * input_count
    theta = np.stack([np.concatenate((w.hidden_weights.ravel(), w.output_weights)) for w in inits])
    rate = config.learning_rate
    cap, floor = _OUTPUT_CAP, -_OUTPUT_CAP
    errors: list[list[float]] = [[] for _ in range(count)]
    fits: list = [None] * count
    rows = list(range(count))
    steps = 0
    rebind = True
    while True:
        if rebind:
            # (Re)bind the views of the active replicates: both layers live in
            # one R x D array theta, and each step's update in one R x D buffer.
            active = len(rows)
            grad = np.empty_like(theta)
            w_hidden = theta[:, :split].reshape(active, hidden_count, input_count)
            w_out = theta[:, split:].reshape(active, 1, hidden_count)
            w_out_col = w_out.mT
            grad_hidden = grad[:, :split].reshape(active, hidden_count, input_count)
            grad_out = grad[:, split:].reshape(active, 1, hidden_count).mT
            delta_flat = np.empty(active)
            out_delta = delta_flat.reshape(active, 1, 1)
            samples = [
                (windows[:, j, :, None], windows[:, j, None, :], targets[:, j].tolist())
                for j in range(m)
            ]
            rebind = False
        # One descent step per sample along `squared_error_gradient`, in its
        # operation order, so every replicate's weights match it bit for bit.
        # The output and its delta are Python floats, as in the scalar step.
        for u_col, u_row, sample_targets in samples:
            hidden_out = np.tanh(w_hidden @ u_col)
            for i, (((out,),), target) in enumerate(
                zip(np.tanh(w_out @ hidden_out).tolist(), sample_targets)
            ):
                out = floor if out < floor else cap if out > cap else out
                delta_flat[i] = -(target - out) * (1.0 - out * out)
            hidden_delta = out_delta * w_out_col
            hidden_delta *= 1.0 - hidden_out * hidden_out
            np.multiply(hidden_delta, u_row, grad_hidden)
            np.multiply(out_delta, hidden_out, grad_out)
            grad *= rate
            theta -= grad
        steps += m
        # One replicate at a time: a stacked pass would hold R x m x M hidden
        # outputs at once, for no gain in an evaluation made once per epoch.
        out = np.concatenate([
            _batch_forward(windows[i : i + 1], w_hidden[i : i + 1].mT, w_out[i : i + 1].mT)[1]
            for i in range(len(rows))
        ])[..., 0]
        epoch_errors = (0.5 * np.mean((targets - out) ** 2, axis=-1)).tolist()
        capped = steps + m > config.max_steps
        stopped = []
        for i, error in enumerate(epoch_errors):
            r = rows[i]
            errors[r].append(error)
            converged = error < config.error_threshold
            if converged or capped:
                weights = inits[r]
                weights.hidden_weights[...] = w_hidden[i]
                weights.output_weights[...] = w_out[i, 0]
                fits[r] = (weights, TrainingDiagnostics(
                    error_per_epoch=errors[r],
                    final_error=error,
                    per_day_error=0.5 * (targets[i] - out[i]) ** 2,
                    steps_used=steps,
                    converged=converged,
                ))
                stopped.append(i)
        if len(stopped) == len(rows):
            return fits
        if stopped:
            kept = [i for i in range(len(rows)) if i not in stopped]
            rows = [rows[i] for i in kept]
            theta, windows, targets = theta[kept], windows[kept], targets[kept]
            rebind = True


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
