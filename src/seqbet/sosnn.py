"""Sequentially optimized network betting.

Before each betting round the network weights are re-fit, by annealed
gradient ascent, to maximize the log wealth they would have earned over all
completed post-warmup rounds; the round's bet is the refit network's output
on the latest window. The optimizer returns the best iterate it visited, so
a round's weights never score below their starting point. A refit stops
at the iteration cap or once every applied weight increment falls below the
weight tolerance, which is rate * max|g|, halved with any shrunk step, < tol.

Refits carry a leading replicate axis R. The replicates of one grid cell
play the same rounds, so at every round their refits share the history
length K and run as one stacked ascent (`run_sosnn_replicates`). Each
replicate keeps its own stop rule, best iterate, warm start and random
stream, and leaves the stack when it stops. `run_sosnn` is the R = 1 case
of the stack, and `_refit`, the one refit behind `optimize_weights` and the
multi-asset strategy, the R = 1 case of the loop. Every replicate's numbers
are bit-identical to its run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericError, UsageError
from .game import (
    RATIO_CAP, MovementSeries, OptimizeReport, StrategyRunResult, _check_warmup, betting_windows, run_game,
)
from .network import (
    AnnealingSchedule,
    NetworkConfig,
    NetworkWeights,
    _bets,
    _check_history,
    _check_settings,
    _evaluate,
    _gradient,
    _shared_config,
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
        _check_settings(self, ("weight_tolerance", "init_scale"), ("max_iterations",))
        _check_warmup(self.warmup)


def optimize_weights(
    history: Iterable, config: SosnnConfig, init: NetworkWeights
) -> tuple[NetworkWeights, OptimizeReport]:
    """Ascend the log-wealth objective from `init` until the applied weight
    increments all fall below `weight_tolerance` or the iteration cap hits.

    `history` is a sequence of (input window, movement) pairs, stacked into
    matrices once; this is the one public entry point that takes pairs.
    Returns the best-objective iterate visited, which is never worse than
    `init`, together with a convergence report.
    """
    pairs = list(history)
    if not pairs:
        raise UsageError("cannot optimize over an empty history")
    try:
        windows, moves = [w for w, _ in pairs], [x for _, x in pairs]
    except (TypeError, ValueError):
        raise UsageError("history must hold (window, movement) pairs") from None
    windows, moves = _check_history(windows, moves, config.net.input_count)
    if init.output_weights.ndim != 1:
        raise UsageError(
            f"optimize_weights refits one asset; init has {init.output_weights.shape[0]} output rows"
        )
    if init.config != config.net:
        raise UsageError(
            f"init weights are {init.config}, config wants {config.net}"
        )
    return _refit(windows, moves, config, init)


def _refit(windows, moves, config, init):
    """One refit from `init` over K x L windows and K x P movements: the
    one-replicate case of `_ascend`. Returns the best weights, of `init`'s
    own type, and the report, or raises the refit's `NumericError`."""
    w_hidden, w_out, (outcome,) = _ascend(
        windows[None], moves[None], config,
        init.hidden_weights[None], np.atleast_2d(init.output_weights)[None],
    )
    if isinstance(outcome, NumericError):
        raise outcome
    return type(init)(w_hidden[0], w_out[0].reshape(init.output_weights.shape)), outcome


def _ascend(windows, moves, config, w_hidden, w_out):
    """Annealed gradient ascent of log wealth for R replicates at once.

    Replicate r ascends over its own K rounds and P assets: windows[r] is
    K x L, moves[r] K x P, and it starts at hidden weights w_hidden[r]
    (M x L) and output rows w_out[r] (P x M). Returns the best hidden
    (R x M x L) and output (R x P x M) weights each replicate visited, and
    per replicate either its report or the `NumericError` that stopped it.

    With several assets the raw ratio vector can bankrupt a recorded round,
    where the objective is undefined, so the start is projected to solvency
    and every step is shrunk until it stays solvent. One asset can never get
    there (|f| < 1, |x| <= 1), so neither search runs for P = 1.

    The weights of all active replicates are views of one R x D array theta.
    Every point is evaluated once: the evaluation of the start (the
    projection's last) serves step 0, and that of each accepted step (the
    solvency trial, for several assets) serves the next step's gradient, or
    the report of a replicate that stops there. All active replicates step
    together at one rate. A replicate stops once its largest applied
    increment falls below `weight_tolerance`. That increment is tracked as
    rate * max|g|, halved with the step, which equals max|rate * g| exactly:
    rounding a product by a positive scalar is monotone and odd. A stopped
    or failed replicate leaves the active set, so the stack shrinks.
    """
    count = windows.shape[0]
    hidden_shape, out_shape = w_hidden.shape[1:], w_out.shape[1:]
    split = hidden_shape[0] * hidden_shape[1]

    def views(flat):
        rows = flat.shape[0]
        return flat[:, :split].reshape(rows, *hidden_shape), flat[:, split:].reshape(rows, *out_shape)

    def layers(flat):
        """The output rows of a parameter array and the transposes of both layers."""
        hidden, out = views(flat)
        return out, hidden.mT, out.mT

    theta = np.concatenate((w_hidden.reshape(count, split), w_out.reshape(count, -1)), axis=1)
    out, hidden_t, out_t = layers(theta)
    values, state = _evaluate(windows, moves, hidden_t, out_t)
    outcomes: list = [None] * count
    several_assets = moves.shape[2] > 1
    if several_assets:
        # A warm start fitted before the newest round arrived can bankrupt
        # that round. Shrinking the output layer toward the zero policy,
        # which earns exactly 0, always restores feasibility.
        for _ in range(127):
            insolvent = ~np.isfinite(values)
            if not insolvent.any():
                break
            out[insolvent] *= 0.5
            values, state = _evaluate(windows, moves, hidden_t, out_t)
        else:
            for r in np.flatnonzero(~np.isfinite(values)):
                outcomes[r] = NumericError("could not project the initial weights to solvency")
    # Replicate r's best iterate is row best[r][1] of the array best[r][0]:
    # a snapshot of theta, shared by every row that improved in one step.
    start = theta.copy()
    best = [(start, r) for r in range(count)]
    best_values = [-math.inf] * count
    # Row i of the active arrays belongs to replicate rows[i].
    rows, values = list(range(count)), values.tolist()
    norms = [0.0] * count
    grad = np.empty_like(theta)
    grad_hidden, grad_out = views(grad)
    theta_at = (out, hidden_t, out_t)
    # One asset needs no solvency trial, so only several assets get its buffer.
    trial = np.empty_like(theta) if several_assets else None
    trial_at = layers(trial) if several_assets else None
    tol = config.weight_tolerance

    def keep(kept):
        """Narrow every per-row array to the rows `kept`, leaving the old arrays as they are."""
        nonlocal theta, trial, grad, windows, moves, state, rows, values, norms
        nonlocal theta_at, trial_at, grad_hidden, grad_out
        theta, grad = theta[kept], grad[kept]
        windows, moves = windows[kept], moves[kept]
        state = tuple(array[kept] for array in state)
        rows = [rows[i] for i in kept]
        values = [values[i] for i in kept]
        norms = [norms[i] for i in kept]
        theta_at = layers(theta)
        grad_hidden, grad_out = views(grad)
        if several_assets:
            trial = trial[kept]
            trial_at = layers(trial)

    def settle(stopped, iterations, converged):
        """File the reports of the `stopped` rows; the step scored their last update."""
        for i in stopped:
            r, value = rows[i], values[i]
            if isfinite(value) and value > best_values[r]:
                best_values[r] = value
                best[r] = (theta, i)  # `keep` replaces theta; this one stays as is
            outcomes[r] = OptimizeReport(iterations, converged, norms[i], best_values[r])

    isfinite = math.isfinite
    if any(outcomes):
        keep([r for r in rows if outcomes[r] is None])
    for step, rate in zip(range(config.max_iterations), config.schedule.rates()):
        if not rows:
            break
        _gradient(state, windows, moves, theta_at[0], grad_hidden, grad_out)
        norms = np.maximum.reduce(np.abs(grad), axis=1).tolist()
        failed = stopping = False
        snapshot = None
        for i, value in enumerate(values):
            r = rows[i]
            norm = norms[i]
            if rate * norm < tol:
                stopping = True
            if not (isfinite(value) and isfinite(norm)):
                outcomes[r] = NumericError(f"non-finite objective or gradient at ascent step {step}")
                failed = True
                continue
            if value > best_values[r]:
                best_values[r] = value
                if snapshot is None:
                    snapshot = theta.copy()
                best[r] = (snapshot, i)
        if failed:
            keep([i for i, r in enumerate(rows) if outcomes[r] is None])
            if not rows:
                break
        increment = rate * grad
        halved = {}  # replicate r's largest applied increment, where its step was halved
        if several_assets:
            for _ in range(64):
                np.add(theta, increment, out=trial)
                values, state = _evaluate(windows, moves, trial_at[1], trial_at[2])
                values = values.tolist()
                insolvent = [i for i, value in enumerate(values) if not isfinite(value)]
                if not insolvent:
                    break
                increment[insolvent] *= 0.5
                for i in insolvent:
                    r = rows[i]
                    halved[r] = halved.get(r, rate * norms[i]) * 0.5
                    stopping = stopping or halved[r] < tol
            else:
                for i in insolvent:
                    error = f"could not find a solvent ascent step at {step}"
                    outcomes[rows[i]] = NumericError(error)
                keep([i for i in range(len(rows)) if i not in insolvent])
            theta, trial, theta_at, trial_at = trial, theta, trial_at, theta_at
        else:
            theta += increment
            values, state = _evaluate(windows, moves, theta_at[1], theta_at[2])
            values = values.tolist()
        if stopping:
            stopped = [i for i, norm in enumerate(norms) if halved.get(rows[i], rate * norm) < tol]
            settle(stopped, step + 1, True)
            keep([i for i in range(len(rows)) if i not in stopped])
    if rows:
        settle(list(range(len(rows))), config.max_iterations, False)
    best_hidden, best_out = views(np.stack([array[i] for array, i in best]))
    return best_hidden, best_out, outcomes


def run_sosnn_replicates(
    movements: Sequence[MovementSeries], configs: Sequence[SosnnConfig]
) -> list[StrategyRunResult | NumericError]:
    """Run the sequentially optimized strategy on R replicates in lockstep.

    Replicate r bets on `movements[r]` with `configs[r]`; the series must
    be equally long and the configs may differ only in seed. The weights of
    all replicates stay in one R x M x L hidden and one R x 1 x M output
    array; at every round their refits run as one stacked ascent and their
    bets as one `network._bets` pass. A bet never depends on capital, so the
    ratios of all rounds are found first and each replicate then plays them
    through `run_game`. The result of replicate r is bit-identical to
    `run_sosnn(movements[r], configs[r])`; where that would raise
    `NumericError`, the list holds the error instead and the others play on.
    """
    config = _shared_config(configs, movements, "sosnn")
    warmup, n_rounds = config.warmup, len(movements[0])
    windows = np.stack([betting_windows(m.values, config.net.input_count, warmup) for m in movements])
    count = len(configs)
    rngs = [np.random.default_rng(c.seed) for c in configs]

    def draw(r):
        fresh = NetworkWeights.uniform(config.net, config.init_scale, rngs[r])
        return fresh.hidden_weights, fresh.output_weights[None]

    hidden, out = map(np.stack, zip(*map(draw, range(count))))
    moves = np.stack([m.values for m in movements])[:, :, None]
    ratios = np.zeros((count, n_rounds))
    diagnostics: list[list[OptimizeReport]] = [[] for _ in range(count)]
    outcomes: list = [None] * count
    alive = list(range(count))
    for n in range(warmup + 1, n_rounds + 1):
        if not alive:
            break
        completed = n - 1 - warmup
        if completed > 0:
            if not config.warm_start:
                for r in alive:
                    hidden[r], out[r] = draw(r)
            hidden[alive], out[alive], reports = _ascend(
                windows[alive, :completed], moves[alive, warmup : n - 1], config, hidden[alive], out[alive]
            )
            for r, report in zip(list(alive), reports):
                if isinstance(report, NumericError):
                    outcomes[r] = NumericError(f"round {n}: {report}")
                    alive.remove(r)
                else:
                    diagnostics[r].append(report)
        else:
            # No completed round yet: the empty history's objective and
            # gradient are exactly 0, and there is nothing to iterate.
            for r in alive:
                diagnostics[r].append(OptimizeReport(0, True, 0.0, 0.0))
        bets = _bets(hidden[alive], out[alive], windows[alive, n - warmup - 1])
        ratios[alive, n - 1] = np.clip(bets[:, 0], -RATIO_CAP, RATIO_CAP)
    for r in alive:
        bets = ratios[r].tolist()
        outcomes[r] = run_game(lambda n, past, bets=bets: bets[n - 1], movements[r], warmup)
        outcomes[r].diagnostics = diagnostics[r]
    return outcomes


def run_sosnn(movements: MovementSeries, config: SosnnConfig) -> StrategyRunResult:
    """Run the sequentially optimized strategy over a movement series.

    Rounds 1..warmup only feed history. At round n > warmup the optimizer
    re-fits over the pairs (window before k, x_k) for all completed betting
    rounds k, then the network's output on round n's window is the bet.
    With `warm_start` each refit begins at the previous round's weights;
    otherwise every round draws a fresh uniform init from the seeded stream.
    This is the one-replicate case of `run_sosnn_replicates`.
    """
    (outcome,) = run_sosnn_replicates([movements], [config])
    if isinstance(outcome, NumericError):
        raise outcome
    return outcome
