"""Multi-asset extension of the network strategy.

One shared hidden layer feeds P output neurons, one betting ratio per asset,
and capital updates by 1 plus the exposure-weighted sum of the P movements.
A per-output tanh keeps each ratio inside (-1, 1) but not their total
exposure, so ratio vectors are rescaled whenever the sum of their magnitudes
would reach 1. The multi-output log-wealth gradient is validated against
finite differences in the test suite.

`PortfolioWeights` is the network's weights record with one output row per
asset. The objective and its gradient are `seqbet.network.log_wealth` and
`log_wealth_gradient`, and the refit and the round checks are those of
`seqbet.sosnn`; the single-asset strategy is the P = 1 case. Only for
P > 1 can a ratio vector bankrupt a recorded round, so only then does the
refit search for solvent weights and steps. The game's rules are those of
`seqbet.game`: the panel passes the one movement check, and the table of
bets is played by the one bet check and capital update that serve every
single-asset strategy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import UsageError
from .game import (
    RATIO_CAP, OptimizeReport, StrategyRunResult, _betting_rounds, _check_movements, _play,
    betting_windows,
)
from .network import NetworkConfig, NetworkWeights, _OUTPUT_CAP, _bets, _check_window
from .sosnn import SosnnConfig, _refit


class PortfolioWeights(NetworkWeights):
    """Shared hidden layer (M x L) and one output row (M) per asset (P x M)."""

    OUTPUT_RANK = 2

    @classmethod
    def zeros(cls, config: NetworkConfig, asset_count: int) -> "PortfolioWeights":
        return cls(
            np.zeros((config.hidden_count, config.input_count)),
            np.zeros((asset_count, config.hidden_count)),
        )

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


def forward_portfolio(window: Sequence[float], weights: PortfolioWeights) -> np.ndarray:
    """Ratio vector for one checked input window, from the `network._bets`
    pass: the hidden layer is evaluated once and shared by every output neuron."""
    out = _bets(weights.hidden_weights, weights.output_weights, _check_window(window, weights))
    return np.clip(out, -_OUTPUT_CAP, _OUTPUT_CAP)


def rescale_exposure(ratios: Sequence[float]) -> np.ndarray:
    """Scale a ratio vector so the total exposure sum(|ratio|) stays below 1,
    at most RATIO_CAP."""
    ratios = np.asarray(ratios, dtype=float)
    exposure = float(np.abs(ratios).sum())
    if exposure >= RATIO_CAP:
        return ratios * (RATIO_CAP / exposure)
    return ratios.copy()


# One refit, `(windows, moves, config, init) -> (weights, report)`. The round
# loop looks it up here at each call, so a wrapper set here sees every refit.
_optimize_portfolio = _refit


def run_sosnn_portfolio(movements: np.ndarray, config: SosnnConfig) -> StrategyRunResult:
    """Sequentially optimized betting over a (rounds x assets) movement panel.

    Mirrors the single-asset run round for round: shared input windows are
    built from the first asset's movements, refits start from the previous
    optimum (or fresh draws), and the ratio vector is exposure-rescaled
    before betting. A bet never depends on capital, so the bets of all
    rounds are found first and then played by the game's `_play`. The
    result's `ratios` is a (rounds x assets) matrix with zero rows through
    the warmup, and its `diagnostics` list each betting round's
    `OptimizeReport`, as a single-asset run's do.
    """
    moves = np.asarray(movements, dtype=float)
    if moves.ndim != 2 or moves.shape[1] < 1:
        raise UsageError("movement panel must be a (rounds x assets) matrix")
    _check_movements(moves)
    n_rounds, n_assets = moves.shape
    warmup = config.warmup
    windows = betting_windows(moves[:, 0], config.net.input_count, warmup)
    rng = np.random.default_rng(config.seed)
    weights = PortfolioWeights.uniform(config.net, n_assets, config.init_scale, rng)

    ratios = np.zeros((n_rounds, n_assets))
    diagnostics = []
    for n in _betting_rounds(n_rounds, warmup):
        completed = n - 1 - warmup
        if completed > 0:
            init = (
                weights
                if config.warm_start
                else PortfolioWeights.uniform(config.net, n_assets, config.init_scale, rng)
            )
            weights, report = _optimize_portfolio(
                windows[:completed], moves[warmup : n - 1], config, init
            )
        else:  # nothing to fit yet, as in `run_sosnn_replicates`
            report = OptimizeReport(0, True, 0.0, 0.0)
        diagnostics.append(report)
        ratios[n - 1] = rescale_exposure(forward_portfolio(windows[n - warmup - 1], weights))
    result = _play(ratios, moves, warmup)
    result.diagnostics = diagnostics
    return result
