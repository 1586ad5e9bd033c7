"""Betting strategies for the bounded forecasting game.

Investor repeatedly wagers a fraction of current capital on the next move of
a price series bounded in [-1, 1]. This package provides the game loop, a
three-layer tanh network with sequentially re-optimized weights, a
supervised back-prop variant, Markovian proportional betting, AR/ARMA data
generation, a multi-asset extension, and a reproducible experiment CLI.
"""

from .errors import (
    ConfigError,
    DataError,
    DomainError,
    NumericError,
    SeqbetError,
    StrategyViolationError,
    UsageError,
)
from .game import (
    CHECKPOINT_ROUNDS,
    RATIO_CAP,
    RATIO_MARGIN,
    GameState,
    MovementSeries,
    RoundDiagnostics,
    StrategyRunResult,
    capital_step,
    clamp_ratio,
    log_capital,
    run_game,
)
from .network import (
    AnnealingSchedule,
    ForwardTrace,
    NetworkConfig,
    NetworkWeights,
    WeightGradient,
    forward,
    input_window,
    log_wealth,
    log_wealth_gradient,
    squared_error_gradient,
)
from .data import (
    NoiseSpec,
    PriceSeries,
    gen_ar1,
    gen_arma21,
    load_movement_matrix,
    load_prices,
    movements_from_prices,
    normalize,
)
from .markov import MarkovOrder, bucket_index, optimize_bucket, run_mkv
from .sosnn import OptimizeReport, SosnnConfig, optimize_weights, run_sosnn, run_sosnn_replicates
from .nnbp import (
    NnbpConfig,
    TrainingDiagnostics,
    run_nnbp,
    sign_target,
    train,
    train_replicates,
    training_error,
)
from .portfolio import (
    PortfolioWeights,
    capital_step_portfolio,
    forward_portfolio,
    log_wealth_gradient_portfolio,
    log_wealth_portfolio,
    rescale_exposure,
    run_sosnn_portfolio,
)

__version__ = "0.1.0"
