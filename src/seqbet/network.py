"""Three-layer tanh network and the two gradients that drive the strategies.

The network maps an input window of past movements through one hidden tanh
layer to tanh outputs, the betting ratios. There are no bias terms. This
module provides the forward pass, the cumulative log-wealth objective and
its analytic gradient (used by the sequential optimizer), the squared
prediction error gradient (used by supervised training), and the
search-then-converge learning-rate schedule.

The objective and its gradient are one batched core over R independent
problems (the replicate axis) of K recorded rounds each: R x K x L windows,
R x K x P movements, R x M x L hidden weights and R x P x M output rows, one
row per asset. Every product is a stacked `np.matmul`, which runs each
replicate's product exactly as the unstacked call would, so replicate r's
numbers do not depend on what else is in the stack. A single problem is the
R = 1 case and a single asset the P = 1 case, so `log_wealth` and the
multi-asset functions in `seqbet.portfolio` evaluate the same arithmetic.
`_evaluate` runs the forward pass and keeps its state, and `_gradient` runs
the backward pass from that state into arrays the caller provides, so the
ascent loop in `seqbet.sosnn` evaluates each point it visits once.

Input windows are most-recent-first: the window feeding round k holds
(x_{k-1}, ..., x_{k-L}).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import UsageError

# Double-precision tanh rounds to exactly +/-1.0 once |I3| exceeds ~19, which
# would let a log-wealth term against a unit movement reach -inf. Nudging the
# output this far inside keeps it strictly inside (-1, 1) for all finite inputs.
OUTPUT_NUDGE = 1e-12
_OUTPUT_CAP = 1.0 - OUTPUT_NUDGE


@dataclass(frozen=True)
class NetworkConfig:
    """Layer sizes: `input_count` window length, `hidden_count` hidden neurons."""

    input_count: int
    hidden_count: int

    def __post_init__(self) -> None:
        if self.input_count < 1 or self.hidden_count < 1:
            raise UsageError(
                f"layer sizes must be >= 1, got {self.input_count}x{self.hidden_count}"
            )


@dataclass
class NetworkWeights:
    """The strategy parameter vector: hidden (M x L) and output (M) weight arrays."""

    hidden_weights: np.ndarray
    output_weights: np.ndarray

    def __post_init__(self) -> None:
        self.hidden_weights = np.asarray(self.hidden_weights, dtype=float)
        self.output_weights = np.asarray(self.output_weights, dtype=float)
        if self.hidden_weights.ndim != 2 or self.output_weights.ndim != 1:
            raise UsageError("weights must be one M x L matrix and one length-M vector")
        if self.hidden_weights.shape[0] != self.output_weights.shape[0]:
            raise UsageError(
                f"hidden rows ({self.hidden_weights.shape[0]}) must match "
                f"output length ({self.output_weights.shape[0]})"
            )
        if not (np.isfinite(self.hidden_weights).all() and np.isfinite(self.output_weights).all()):
            raise UsageError("weights must be finite")

    @property
    def config(self) -> NetworkConfig:
        m, l = self.hidden_weights.shape
        return NetworkConfig(input_count=l, hidden_count=m)

    @classmethod
    def zeros(cls, config: NetworkConfig) -> "NetworkWeights":
        return cls(
            np.zeros((config.hidden_count, config.input_count)),
            np.zeros(config.hidden_count),
        )

    @classmethod
    def uniform(cls, config: NetworkConfig, scale: float, rng: np.random.Generator) -> "NetworkWeights":
        """Entries drawn uniformly from [-scale, scale], hidden layer first."""
        return cls(
            rng.uniform(-scale, scale, (config.hidden_count, config.input_count)),
            rng.uniform(-scale, scale, config.hidden_count),
        )

    def copy(self) -> "NetworkWeights":
        return NetworkWeights(self.hidden_weights.copy(), self.output_weights.copy())


@dataclass
class ForwardTrace:
    """Intermediate quantities of one forward pass, kept for the gradients."""

    hidden_inputs: np.ndarray
    hidden_outputs: np.ndarray
    output_input: float
    output: float


@dataclass
class WeightGradient:
    """Gradient with the per-round chain factors retained for diagnostics.

    `output_deltas[k]` is the scalar factor of round k's output-layer term and
    `hidden_deltas[k]` the per-hidden-neuron factors of its hidden-layer term.
    """

    hidden_weights: np.ndarray
    output_weights: np.ndarray
    output_deltas: np.ndarray
    hidden_deltas: np.ndarray


@dataclass(frozen=True)
class AnnealingSchedule:
    """Search-then-converge decay: rate(s) = initial_rate / (1 + s / decay_steps)."""

    initial_rate: float = 1.0
    decay_steps: float = 5.0

    def __post_init__(self) -> None:
        if not (self.initial_rate > 0 and self.decay_steps > 0):
            raise UsageError("annealing parameters must be strictly positive")

    def rate(self, step: int) -> float:
        if step < 0:
            raise UsageError(f"annealing step must be nonnegative, got {step}")
        return self.initial_rate / (1.0 + step / self.decay_steps)

    def rates(self):
        """rate(0), rate(1), ... as a stream, for a loop that steps through
        them without a call and a check per step; the same numbers."""
        initial, decay = self.initial_rate, self.decay_steps
        step = 0
        while True:
            yield initial / (1.0 + step / decay)
            step += 1


def _shared_config(configs: Sequence, kind: str):
    """The config of a replicate stack, whose members may differ only in seed."""
    if not configs:
        raise UsageError(f"a stack of {kind} replicates needs at least one config")
    first = configs[0]
    if any(replace(c, seed=first.seed) != first for c in configs[1:]):
        raise UsageError(f"{kind} replicates must share every setting but the seed")
    return first


def input_window(values: Sequence[float], k: int, length: int) -> np.ndarray:
    """Window feeding round k: the `length` movements before it, newest first.

    Rounds are 1-based, so this needs k >= length + 1.
    """
    xs = np.asarray(values, dtype=float)
    if k < length + 1:
        raise UsageError(f"round {k} has fewer than {length} preceding movements")
    if k - 1 > xs.size:
        raise UsageError(f"round {k} lies beyond the {xs.size} known movements")
    return xs[k - 1 - length : k - 1][::-1].copy()


def window_matrix(values: np.ndarray, length: int, k_first: int, k_last: int) -> np.ndarray:
    """Stacked input windows for rounds k_first..k_last (one row per round)."""
    xs = np.asarray(values, dtype=float)
    if k_first < length + 1 or k_last - 1 > xs.size:
        raise UsageError(
            f"rounds {k_first}..{k_last} need movements outside the known range"
        )
    if k_last < k_first:
        return np.empty((0, length))
    rounds = np.arange(k_first, k_last + 1)
    return xs[rounds[:, None] - 2 - np.arange(length)[None, :]]


def forward(window: Sequence[float], weights: NetworkWeights) -> ForwardTrace:
    """Evaluate the network on one input window."""
    u = np.asarray(window, dtype=float)
    m, l = weights.hidden_weights.shape
    if u.shape != (l,):
        raise UsageError(f"window of shape {u.shape} fed to a {m}x{l} network")
    hidden_in = weights.hidden_weights @ u
    hidden_out = np.tanh(hidden_in)
    out_in = float(weights.output_weights @ hidden_out)
    out = min(max(float(np.tanh(out_in)), -_OUTPUT_CAP), _OUTPUT_CAP)
    return ForwardTrace(hidden_in, hidden_out, out_in, out)


def _stack_history(
    history: Iterable, input_count: int, asset_count: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """K x L windows and K x P movements from (window, movement) pairs.

    A scalar movement is a one-asset row. Every window must have one length
    and every movement one shape, all entries numeric. Windows must be finite
    and every movement must lie in [-1, 1], which also rejects NaN.
    """
    pairs = list(history)
    if not pairs:
        return np.empty((0, input_count)), np.empty((0, asset_count))
    try:
        windows = np.asarray([np.asarray(w, dtype=float) for w, _ in pairs])
        moves = np.asarray([np.asarray(x, dtype=float) for _, x in pairs])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"history must hold numeric pairs of one shape: {exc}") from None
    if moves.ndim == 1:
        moves = moves[:, None]
    if windows.ndim != 2 or windows.shape[1] != input_count:
        raise UsageError(
            f"history windows of shape {windows.shape} fed to input width {input_count}"
        )
    if moves.shape != (len(pairs), asset_count):
        raise UsageError(
            f"history movements of shape {moves.shape} fed to {asset_count} asset(s)"
        )
    if not np.isfinite(windows).all():
        raise UsageError("history windows must be finite")
    if not (np.abs(moves) <= 1.0).all():
        raise UsageError("history movements must be finite and lie in [-1, 1]")
    return windows, moves


def _batch_forward(windows, w_hidden_t, w_out_t):
    """Hidden outputs (R x K x M) and ratios (R x K x P) for R stacks of K
    windows, from the R x L x M and R x M x P transposes of the weights.

    The output cap is applied in place; for finite input it equals `np.clip`.
    """
    hidden_out = np.tanh(windows @ w_hidden_t)
    out = np.tanh(hidden_out @ w_out_t)
    np.minimum(np.maximum(out, -_OUTPUT_CAP, out=out), _OUTPUT_CAP, out=out)
    return hidden_out, out


def _evaluate(windows, moves, w_hidden_t, w_out_t):
    """Summed log(1 + sum_h f_kh x_kh) over K rounds for each of R replicates,
    and the state `(hidden_out, out, summed)` of the forward pass.

    A value is -inf where a round's gross return is nonpositive, which only
    several assets can reach, so one asset skips that test. The weights come
    as the transposes `_batch_forward` takes, built once by a stepping caller.
    """
    hidden_out, out = _batch_forward(windows, w_hidden_t, w_out_t)
    summed = np.vecdot(out, moves)
    if moves.shape[-1] == 1 or not summed.size or summed.min() > -1.0:
        values = np.add.reduce(np.log1p(summed), axis=-1)
    else:
        solvent = summed.min(axis=-1) > -1.0
        values = np.full(summed.shape[0], -np.inf)
        values[solvent] = np.add.reduce(np.log1p(summed[solvent]), axis=-1)
    return values, (hidden_out, out, summed)


def _gradient(state, windows, moves, w_out, grad_hidden, grad_out):
    """Backward pass from the `_evaluate` state of a solvent point, into the
    caller's arrays `grad_hidden` (R x M x L) and `grad_out` (R x P x M).

    Round k contributes out_delta_kh * hidden_out_k to output row h and
    (sum_h out_delta_kh * w_out_hi) * (1 - hidden_out_ki^2) * window_kj to
    the hidden layer, where out_delta_kh = x_kh / (1 + sum_g f_kg x_kg) * (1 - f_kh^2).
    Returns the R x K x P output and R x K x M hidden deltas.
    """
    hidden_out, out, summed = state
    out_deltas = moves / (1.0 + summed)[..., None] * (1.0 - out * out)
    np.matmul(out_deltas.mT, hidden_out, out=grad_out)
    hidden_deltas = (out_deltas @ w_out) * (1.0 - hidden_out * hidden_out)
    np.matmul(hidden_deltas.mT, windows, out=grad_hidden)
    return out_deltas, hidden_deltas


def _log_wealth(windows, moves, w_hidden, w_out) -> float:
    """The objective of one problem, from unstacked windows, movements and weights."""
    values, _ = _evaluate(windows[None], moves[None], w_hidden[None].mT, w_out[None].mT)
    return float(values[0])


def _single_gradient(windows, moves, w_hidden, w_out):
    """Both gradients of one problem, with the K x P and K x M deltas."""
    windows, moves, w_hidden, w_out = windows[None], moves[None], w_hidden[None], w_out[None]
    grad_hidden, grad_out = np.empty_like(w_hidden), np.empty_like(w_out)
    _, state = _evaluate(windows, moves, w_hidden.mT, w_out.mT)
    out_deltas, hidden_deltas = _gradient(state, windows, moves, w_out, grad_hidden, grad_out)
    return grad_hidden[0], grad_out[0], out_deltas[0], hidden_deltas[0]


def log_wealth(weights: NetworkWeights, history: Iterable) -> float:
    """Cumulative log capital from betting the network output on each recorded round.

    `history` is a sequence of (input window, movement) pairs.
    """
    windows, moves = _stack_history(history, weights.hidden_weights.shape[1])
    return _log_wealth(windows, moves, weights.hidden_weights, weights.output_weights[None])


def log_wealth_gradient(weights: NetworkWeights, history: Iterable) -> WeightGradient:
    """Analytic gradient of `log_wealth` with respect to both weight layers.

    Round k contributes out_delta_k * hidden_out_k to the output layer and
    out_delta_k * w_out_i * (1 - hidden_out_ik^2) * window_kj to the hidden
    layer, where out_delta_k = x_k / (1 + f x_k) * (1 - f^2).
    """
    windows, moves = _stack_history(history, weights.hidden_weights.shape[1])
    grad_hidden, grad_out, out_deltas, hidden_deltas = _single_gradient(
        windows, moves, weights.hidden_weights, weights.output_weights[None, :]
    )
    return WeightGradient(grad_hidden, grad_out[0], out_deltas[:, 0], hidden_deltas)


def squared_error_gradient(
    weights: NetworkWeights, window: Sequence[float], target: float
) -> WeightGradient:
    """Gradient of E = (target - output)^2 / 2 for one sample.

    The descent update subtracts this gradient.
    """
    if target not in (-1, 0, 1):
        raise UsageError(f"target must be one of -1, 0, 1, got {target!r}")
    trace = forward(window, weights)
    u = np.asarray(window, dtype=float)
    out_delta = -(target - trace.output) * (1.0 - trace.output * trace.output)
    grad_out = out_delta * trace.hidden_outputs
    hidden_delta = (
        out_delta * weights.output_weights * (1.0 - trace.hidden_outputs * trace.hidden_outputs)
    )
    grad_hidden = np.outer(hidden_delta, u)
    return WeightGradient(
        grad_hidden, grad_out, np.array([out_delta]), hidden_delta[None, :]
    )
