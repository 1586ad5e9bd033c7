"""Supervised network betting.

The network is trained by per-sample back-propagation against the sign of
each day's movement over a training period, then frozen; through the
investing period the bet is simply the frozen network's output on the
latest window. Training and investing data never mix.

Training carries a leading replicate axis R: `train_replicates` steps R
networks, each on its own training series of one shared length, with
stacked `np.matmul` products, so every replicate's weights are
bit-identical to its training alone. Each replicate keeps its own epoch
errors and its own threshold stop; a stopped replicate's rows stay in the
stack until the last one stops. `train` is the R = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UsageError
from .game import RATIO_CAP, MovementSeries, StrategyRunResult, betting_windows, run_game
from .network import (
    NetworkConfig,
    NetworkWeights,
    _OUTPUT_CAP,
    _batch_forward,
    _bets,
    _check_history,
    _check_settings,
    _shared_config,
)


@dataclass
class NnbpConfig:
    """Network shape and the back-propagation training loop controls.

    `max_steps` caps the per-sample training steps, except that the first
    full cycle over the training samples always runs: m > `max_steps`
    samples take m steps.
    """

    net: NetworkConfig
    learning_rate: float = 0.07
    error_threshold: float = 1e-2
    max_steps: int = 600_000
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        _check_settings(self, ("learning_rate", "error_threshold", "init_scale"), ("max_steps",))


@dataclass
class TrainingDiagnostics:
    """Fit record: errors per cycle, the final per-day errors, and effort."""

    error_per_epoch: list[float]
    per_day_error: np.ndarray
    steps_used: int
    converged: bool

    @property
    def final_error(self) -> float:
        """The training error after the last epoch."""
        return self.error_per_epoch[-1]


def sign_target(x: float) -> int:
    """Desired output for a movement: +1 if it rose, -1 if it fell, else 0."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def training_error(weights: NetworkWeights, windows, targets) -> float:
    """Mean halved squared error of the outputs on m x L `windows` against
    the m `targets`: sum((T-y)^2) / 2m. Each target is -1, 0 or 1, as
    `sign_target` gives them."""
    try:
        targets = np.asarray(targets, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"training targets must be numeric and of one shape: {exc}") from None
    bad = targets[~np.isin(targets, (-1.0, 0.0, 1.0))]
    if bad.size:
        raise UsageError(f"training target must be -1, 0 or 1, got {bad.flat[0].item()!r}")
    windows, targets = _check_history(windows, targets, weights.hidden_weights.shape[1])
    if not targets.size:
        raise UsageError("training set must not be empty")
    errors, _ = _training_errors(
        windows[None], weights.hidden_weights[None], weights.output_weights[None, None], targets.T
    )
    return float(errors[0])


def _training_errors(windows, w_hidden, w_out, targets) -> tuple[np.ndarray, np.ndarray]:
    """Per replicate, its training error and the halved squared error
    (T - y)^2 / 2 of each of its m samples, from R x m x L windows, R x M x L
    hidden and R x 1 x M output weights, and R x m targets."""
    # One replicate at a time: a stacked pass would hold R x m x M hidden
    # outputs at once, for no gain in an evaluation made once per epoch.
    out = np.concatenate([
        _batch_forward(windows[i : i + 1], w_hidden[i : i + 1].mT, w_out[i : i + 1].mT)[1]
        for i in range(len(windows))
    ])[..., 0]
    residuals = targets - out
    return 0.5 * np.mean(residuals**2, axis=-1), 0.5 * residuals**2


def _check_training_length(size: int, length: int) -> None:
    """NNBP's training rule: a day's sample needs the `length` movements before it."""
    if size <= length:
        raise UsageError(f"training series of length {size} leaves no sample after a window of {length}")


def _training_pairs(xs: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    _check_training_length(len(xs), length)
    # Day k's sample is the window before it and the sign of x_k, from k = L + 1.
    windows = betting_windows(xs, length, length)
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

    The series must be equally long and the configs may differ only in
    seed. All replicates take the same per-sample steps in lockstep; one
    whose epoch error drops below the threshold stops there, with a shorter
    error record; its rows stay in the stack and keep stepping, never read
    again, until the last replicate has stopped. Training stops before a
    cycle that would pass `max_steps`, but never before the first, so the
    step count can exceed the cap when one cycle does.
    """
    config = _shared_config(configs, training, "nnbp")
    if inits is None:
        inits = [
            NetworkWeights.uniform(config.net, config.init_scale, np.random.default_rng(c.seed))
            for c in configs
        ]
    else:
        inits = [init.copy() for init in inits]
    if len(inits) != len(configs):
        raise UsageError(f"{len(configs)} nnbp replicates got {len(inits)} init weights")
    for init in inits:
        if init.config != config.net:
            raise UsageError(f"init weights are {init.config}, config wants {config.net}")
    windows, targets = map(
        np.stack, zip(*(_training_pairs(m.values, config.net.input_count) for m in training))
    )
    count, m = targets.shape
    hidden_count, input_count = config.net.hidden_count, config.net.input_count
    split = hidden_count * input_count
    # Both layers live in one R x D array theta, each step's update in one
    # R x D buffer; every view below is bound once, for the whole run.
    theta = np.stack([np.concatenate((w.hidden_weights.ravel(), w.output_weights)) for w in inits])
    grad = np.empty_like(theta)
    w_hidden = theta[:, :split].reshape(count, hidden_count, input_count)
    w_out = theta[:, split:].reshape(count, 1, hidden_count)
    w_out_col = w_out.mT
    grad_hidden = grad[:, :split].reshape(count, hidden_count, input_count)
    grad_out = grad[:, split:].reshape(count, 1, hidden_count).mT
    delta_flat = np.empty(count)
    out_delta = delta_flat.reshape(count, 1, 1)
    samples = [
        (windows[:, j, :, None], windows[:, j, None, :], targets[:, j].tolist()) for j in range(m)
    ]
    rate = config.learning_rate
    cap, floor = _OUTPUT_CAP, -_OUTPUT_CAP
    errors: list[list[float]] = [[] for _ in range(count)]
    fits: list = [None] * count
    steps = 0
    while None in fits:
        # One descent step per sample along the gradient of (T - y)^2 / 2, in
        # the operation order of the scalar reference `squared_error_gradient`
        # in tests/conftest.py, so every replicate's weights match it bit for
        # bit. The output and its delta are Python floats, as in that step.
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
        epoch_errors, day_errors = _training_errors(windows, w_hidden, w_out, targets)
        capped = steps + m > config.max_steps
        for r, error in enumerate(epoch_errors.tolist()):
            if fits[r] is not None:
                continue  # stopped: its rows step on with the stack, unread
            errors[r].append(error)
            converged = error < config.error_threshold
            if converged or capped:
                weights = inits[r]
                weights.hidden_weights[...] = w_hidden[r]
                weights.output_weights[...] = w_out[r, 0]
                fits[r] = (weights, TrainingDiagnostics(
                    error_per_epoch=errors[r],
                    per_day_error=day_errors[r],
                    steps_used=steps,
                    converged=converged,
                ))
    return fits


def run_nnbp(
    weights: NetworkWeights, movements: MovementSeries, warmup: int
) -> StrategyRunResult:
    """Bet the frozen network's output through an investing series.

    Rounds 1..warmup only provide window history. The bets of all rounds
    come from one `network._bets` pass over their windows, so each bet is
    bit for bit `clamp_ratio(forward(window, weights))`; `run_game` then
    plays them. The weights are only read.
    """
    # Row i holds the input window of round warmup + 1 + i.
    windows = betting_windows(movements.values, weights.hidden_weights.shape[1], warmup)
    out = _bets(weights.hidden_weights, weights.output_weights[None], windows)[:, 0]
    bets = np.clip(out, -RATIO_CAP, RATIO_CAP).tolist()
    return run_game(lambda n, past: bets[n - warmup - 1], movements, warmup)
