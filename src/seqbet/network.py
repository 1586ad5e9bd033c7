"""Three-layer tanh network and the log-wealth objective that drives the strategies.

The network maps an input window of past movements through one hidden tanh
layer to tanh outputs, the betting ratios. There are no bias terms. This
module provides the forward pass, the cumulative log-wealth objective and
its analytic gradient (used by the sequential optimizer), and the
search-then-converge learning-rate schedule.

The public objective takes matrices: K x L input windows and K x P
movements (a length-K vector for one asset), scored against
`NetworkWeights` (one output row) or `seqbet.portfolio.PortfolioWeights`
(P rows). Both go through one batched core over R independent problems
(the replicate axis) of K recorded rounds each: R x K x L windows,
R x K x P movements, R x M x L hidden weights and R x P x M output rows.
Every product is a stacked `np.matmul`, which runs each replicate's product
exactly as the unstacked call would, so replicate r's numbers do not depend
on what else is in the stack. `log_wealth` is the R = 1 case, and one
asset the P = 1 case. `_evaluate` runs the forward pass and keeps its
state, and `_gradient` runs the backward pass from that state into arrays
the caller provides, so the ascent loop in `seqbet.sosnn` evaluates each
point it visits once.

Input windows are most-recent-first: the window feeding round k holds
(x_{k-1}, ..., x_{k-L}), as `seqbet.game.betting_windows` builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import UsageError
from .game import _check_movements

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
    """The strategy parameter vector: hidden (M x L) and output (M) weight arrays.

    `OUTPUT_RANK` is the rank of the output weights: 1 here, and 2 (P x M,
    one row per asset) in `seqbet.portfolio.PortfolioWeights`.
    """

    hidden_weights: np.ndarray
    output_weights: np.ndarray

    OUTPUT_RANK = 1

    def __post_init__(self) -> None:
        self.hidden_weights = np.asarray(self.hidden_weights, dtype=float)
        self.output_weights = np.asarray(self.output_weights, dtype=float)
        if self.hidden_weights.ndim != 2 or self.output_weights.ndim != self.OUTPUT_RANK:
            raise UsageError(
                f"weights must be one M x L matrix and one rank-{self.OUTPUT_RANK} output array"
            )
        if self.hidden_weights.shape[0] != self.output_weights.shape[-1]:
            raise UsageError(
                f"hidden rows ({self.hidden_weights.shape[0]}) must match "
                f"output length ({self.output_weights.shape[-1]})"
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

    def copy(self):
        return type(self)(self.hidden_weights.copy(), self.output_weights.copy())


def _check_settings(config, positive=(), counts=()) -> None:
    """Each setting of `config` named in `positive` must be above 0 with a
    finite range [-v, v] (weights are drawn from it), so NaN, inf and any v
    above half the largest double fail; each named in `counts` must be >= 1."""
    for key in positive:
        value = getattr(config, key)
        if not 0 < value <= np.finfo(float).max / 2:
            raise UsageError(f"{key} must be positive and finite, got {value}")
    for key in counts:
        value = getattr(config, key)
        if value < 1:
            raise UsageError(f"{key} must be >= 1, got {value}")


@dataclass(frozen=True)
class AnnealingSchedule:
    """Search-then-converge decay: rate(s) = initial_rate / (1 + s / decay_steps)."""

    initial_rate: float = 1.0
    decay_steps: float = 5.0

    def __post_init__(self) -> None:
        _check_settings(self, ("initial_rate", "decay_steps"))

    def rates(self):
        """The rate of each ascent step s = 0, 1, 2, ..., as the endless
        stream the ascent steps through."""
        initial, decay = self.initial_rate, self.decay_steps
        step = 0
        while True:
            yield initial / (1.0 + step / decay)
            step += 1


def _shared_config(configs: Sequence, series: Sequence, kind: str):
    """The config of a replicate stack, whose members may differ only in
    seed; one config per replicate series, all series equally long."""
    if len(configs) != len(series):
        raise UsageError(f"{len(series)} {kind} replicate series got {len(configs)} configs")
    if not configs:
        raise UsageError(f"a stack of {kind} replicates needs at least one config")
    first = configs[0]
    if any(replace(c, seed=first.seed) != first for c in configs[1:]):
        raise UsageError(f"{kind} replicates must share every setting but the seed")
    lengths = {len(s) for s in series}
    if len(lengths) > 1:
        raise UsageError(f"{kind} replicate series must have one length, got {sorted(lengths)}")
    return first


def _hidden_layer(window: Sequence[float], weights: NetworkWeights) -> np.ndarray:
    """The hidden layer's outputs on one input window, checked against the
    network's input width; every output neuron shares them."""
    u = np.asarray(window, dtype=float)
    m, l = weights.hidden_weights.shape
    if u.shape != (l,):
        raise UsageError(f"window of shape {u.shape} fed to a {m}x{l} network")
    return np.tanh(weights.hidden_weights @ u)


def forward(window: Sequence[float], weights: NetworkWeights) -> float:
    """The network's capped output, its betting ratio, on one input window."""
    out_in = float(weights.output_weights @ _hidden_layer(window, weights))
    return min(max(float(np.tanh(out_in)), -_OUTPUT_CAP), _OUTPUT_CAP)


def _check_history(windows, moves, input_count: int, asset_count: int = 1):
    """K x L windows and K x P movements as float arrays, checked.

    1-D movements are one asset. Every entry must be numeric, the windows
    finite, and every movement in [-1, 1], which also rejects NaN.
    """
    try:
        windows = np.asarray(windows, dtype=float)
        moves = np.asarray(moves, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"history must be numeric and of one shape: {exc}") from None
    if moves.ndim == 1:
        moves = moves[:, None]
    if windows.ndim != 2 or windows.shape[1] != input_count:
        raise UsageError(
            f"history windows of shape {windows.shape} fed to input width {input_count}"
        )
    if moves.shape != (windows.shape[0], asset_count):
        raise UsageError(
            f"history movements of shape {moves.shape} against {windows.shape[0]} "
            f"windows and {asset_count} asset(s)"
        )
    if not np.isfinite(windows).all():
        raise UsageError("history windows must be finite")
    _check_movements(moves)
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
    """
    hidden_out, out, summed = state
    out_deltas = moves / (1.0 + summed)[..., None] * (1.0 - out * out)
    np.matmul(out_deltas.mT, hidden_out, out=grad_out)
    hidden_deltas = (out_deltas @ w_out) * (1.0 - hidden_out * hidden_out)
    np.matmul(hidden_deltas.mT, windows, out=grad_hidden)


def log_wealth(weights, windows, moves) -> float:
    """Cumulative log capital from betting the network's outputs on K recorded rounds.

    `weights` is a `NetworkWeights` (one asset) or a `PortfolioWeights` (P
    assets), `windows` is K x L and `moves` is K x P, or length K for one
    asset. Returns -inf when some round's gross return is nonpositive, which
    only several assets can reach.
    """
    w_out = np.atleast_2d(weights.output_weights)
    windows, moves = _check_history(windows, moves, weights.hidden_weights.shape[1], w_out.shape[0])
    values, _ = _evaluate(windows[None], moves[None], weights.hidden_weights[None].mT, w_out[None].mT)
    return float(values[0])


def log_wealth_gradient(weights, windows, moves) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of `log_wealth` as (hidden, output) arrays in the
    weights' own shapes; see `_gradient` for the terms of each round.

    The point must be solvent: every round's gross return positive.
    """
    w_out = np.atleast_2d(weights.output_weights)[None]
    windows, moves = _check_history(windows, moves, weights.hidden_weights.shape[1], w_out.shape[1])
    windows, moves, w_hidden = windows[None], moves[None], weights.hidden_weights[None]
    grad_hidden, grad_out = np.empty_like(w_hidden), np.empty_like(w_out)
    _, state = _evaluate(windows, moves, w_hidden.mT, w_out.mT)
    _gradient(state, windows, moves, w_out, grad_hidden, grad_out)
    return grad_hidden[0], grad_out[0].reshape(weights.output_weights.shape)
