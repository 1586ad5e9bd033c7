"""Multi-asset extension of the network strategy.

One shared hidden layer feeds P output neurons, one betting ratio per asset,
and capital updates by 1 plus the exposure-weighted sum of the P movements.
A per-output tanh keeps each ratio inside (-1, 1) but not their total
exposure, so ratio vectors are rescaled whenever the sum of their magnitudes
would reach 1; that cap and the multi-output log-wealth gradient are
validated against finite differences in the test suite.

The objective, its gradient and the refit are the network core of
`seqbet.network` and `seqbet.sosnn`, whose single-asset strategy is the
P = 1 case. Only for P > 1 can a ratio vector bankrupt a recorded round, so
only then does the refit search for solvent weights and steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericError, StrategyViolationError, UsageError
from .game import RATIO_MARGIN, StrategyRunResult, _checkpoints
from .network import (
    NetworkConfig,
    _OUTPUT_CAP,
    _log_wealth,
    _single_gradient,
    _stack_history,
    window_matrix,
)
from .sosnn import SosnnConfig, _ascend


@dataclass
class PortfolioWeights:
    """Shared hidden layer (M x L) and one output row (M) per asset (P x M)."""

    hidden_weights: np.ndarray
    output_weights: np.ndarray

    def __post_init__(self) -> None:
        self.hidden_weights = np.asarray(self.hidden_weights, dtype=float)
        self.output_weights = np.asarray(self.output_weights, dtype=float)
        if self.hidden_weights.ndim != 2 or self.output_weights.ndim != 2:
            raise UsageError("portfolio weights must be M x L and P x M matrices")
        if self.hidden_weights.shape[0] != self.output_weights.shape[1]:
            raise UsageError(
                f"hidden rows ({self.hidden_weights.shape[0]}) must match output "
                f"columns ({self.output_weights.shape[1]})"
            )
        if not (np.isfinite(self.hidden_weights).all() and np.isfinite(self.output_weights).all()):
            raise UsageError("weights must be finite")

    @property
    def asset_count(self) -> int:
        return int(self.output_weights.shape[0])

    @classmethod
    def uniform(
        cls, config: NetworkConfig, asset_count: int, scale: float, rng: np.random.Generator
    ) -> "PortfolioWeights":
        """Entries uniform in [-scale, scale]; for one asset the draw order and
        values match the single-asset init on the same stream."""
        return cls(
            rng.uniform(-scale, scale, (config.hidden_count, config.input_count)),
            rng.uniform(-scale, scale, (asset_count, config.hidden_count)),
        )

    def copy(self) -> "PortfolioWeights":
        return PortfolioWeights(self.hidden_weights.copy(), self.output_weights.copy())


def forward_portfolio(window: Sequence[float], weights: PortfolioWeights) -> np.ndarray:
    """Ratio vector for one input window: the hidden layer is evaluated once
    and shared by every output neuron."""
    u = np.asarray(window, dtype=float)
    m, l = weights.hidden_weights.shape
    if u.shape != (l,):
        raise UsageError(f"window of shape {u.shape} fed to a {m}x{l} network")
    hidden_out = np.tanh(weights.hidden_weights @ u)
    out_in = weights.output_weights @ hidden_out
    return np.clip(np.tanh(out_in), -_OUTPUT_CAP, _OUTPUT_CAP)


def rescale_exposure(ratios: Sequence[float], margin: float = RATIO_MARGIN) -> np.ndarray:
    """Scale a ratio vector so the total exposure sum(|ratio|) stays below 1."""
    ratios = np.asarray(ratios, dtype=float)
    exposure = float(np.abs(ratios).sum())
    cap = 1.0 - margin
    if exposure >= cap:
        return ratios * (cap / exposure)
    return ratios.copy()


def capital_step_portfolio(
    capital_prev: float, ratios: Sequence[float], x: Sequence[float]
) -> float:
    """One multi-asset capital update: capital_prev * (1 + sum(ratio_h * x_h))."""
    ratios = np.asarray(ratios, dtype=float)
    x = np.asarray(x, dtype=float)
    if ratios.shape != x.shape or ratios.ndim != 1:
        raise UsageError(
            f"ratio vector {ratios.shape} against movement vector {x.shape}"
        )
    if not (capital_prev > 0 and np.isfinite(capital_prev)):
        raise UsageError(f"capital must be positive and finite, got {capital_prev!r}")
    if not (np.abs(x) <= 1.0).all():
        raise UsageError("movements must be finite and lie in [-1, 1]")
    exposure = float(np.abs(ratios).sum())
    if not exposure < 1.0:
        raise StrategyViolationError(
            f"total exposure {exposure} must stay below 1 to exclude bankruptcy"
        )
    return capital_prev * (1.0 + float(ratios @ x))


def log_wealth_portfolio(weights: PortfolioWeights, history: Iterable) -> float:
    """Cumulative log capital over (window, movement-vector) pairs.

    Returns -inf when some recorded round's gross return is nonpositive: with
    several assets the raw output vector can push the summed exposure past
    the bankruptcy boundary, unlike the single-output case.
    """
    windows, moves = _stack_history(
        history, weights.hidden_weights.shape[1], weights.asset_count
    )
    return _log_wealth(windows, moves, weights.hidden_weights, weights.output_weights)


def log_wealth_gradient_portfolio(
    weights: PortfolioWeights, history: Iterable
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of `log_wealth_portfolio` as (hidden, output) arrays."""
    windows, moves = _stack_history(
        history, weights.hidden_weights.shape[1], weights.asset_count
    )
    grad_hidden, grad_out, _, _ = _single_gradient(
        windows, moves, weights.hidden_weights, weights.output_weights
    )
    return grad_hidden, grad_out


def _optimize_portfolio(windows, moves, config: SosnnConfig, init: PortfolioWeights):
    """One refit: the one-replicate case of `_ascend`."""
    w_hidden, w_out, (report,) = _ascend(
        windows[None], moves[None], config, init.hidden_weights[None], init.output_weights[None]
    )
    if isinstance(report, NumericError):
        raise report
    return PortfolioWeights(w_hidden[0], w_out[0]), report


def run_sosnn_portfolio(
    movements: np.ndarray, config: SosnnConfig, label: str = ""
) -> StrategyRunResult:
    """Sequentially optimized betting over a (rounds x assets) movement panel.

    Mirrors the single-asset run round for round: shared input windows are
    built from the first asset's movements, refits start from the previous
    optimum (or fresh draws), and the ratio vector is exposure-rescaled
    before betting. The result's `ratios` is a (rounds x assets) matrix with
    zero rows through the warmup.
    """
    moves = np.asarray(movements, dtype=float)
    if moves.ndim != 2 or moves.shape[1] < 1:
        raise UsageError("movement panel must be a (rounds x assets) matrix")
    if not (np.abs(moves) <= 1.0).all():
        raise UsageError("movements must be finite and lie in [-1, 1]")
    n_rounds, n_assets = moves.shape
    length = config.net.input_count
    warmup = config.warmup
    if warmup < length:
        raise UsageError(f"warmup of {warmup} cannot fill an input window of {length}")
    if n_rounds < warmup + 2:
        raise UsageError(
            f"panel of {n_rounds} rounds is shorter than warmup + 2 = {warmup + 2}"
        )
    rng = np.random.default_rng(config.seed)
    weights = PortfolioWeights.uniform(config.net, n_assets, config.init_scale, rng)
    windows = window_matrix(moves[:, 0], length, warmup + 1, n_rounds)

    ratios = np.zeros((n_rounds, n_assets))
    path = np.empty(n_rounds)
    log_k = 0.0
    for i in range(n_rounds):
        n = i + 1
        if n > warmup:
            completed = n - 1 - warmup
            if completed > 0:
                init = (
                    weights
                    if config.warm_start
                    else PortfolioWeights.uniform(config.net, n_assets, config.init_scale, rng)
                )
                weights, _ = _optimize_portfolio(
                    windows[:completed], moves[warmup : n - 1], config, init
                )
            bet = rescale_exposure(forward_portfolio(windows[n - warmup - 1], weights))
            ratios[i] = bet
            # math.log1p, as in the game loop, keeps one asset identical to run_sosnn.
            log_k += math.log1p(float(bet @ moves[i]))
        path[i] = log_k
    return StrategyRunResult(ratios, path, warmup, _checkpoints(path, warmup))
