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
stream, and leaves the stack when it stops. `optimize_weights`, `run_sosnn`
and the multi-asset refit are the R = 1 case of the same loop, and every
replicate's numbers are bit-identical to its run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericError, UsageError
from .game import MovementSeries, RoundDiagnostics, StrategyRunResult, clamp_ratio, run_game
from .network import (
    AnnealingSchedule,
    NetworkConfig,
    NetworkWeights,
    _evaluate,
    _gradient,
    _shared_config,
    _stack_history,
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
        # `not x > 0` also rejects NaN, which every comparison fails.
        if not self.weight_tolerance > 0:
            raise UsageError("weight_tolerance must be positive")
        if self.max_iterations < 1:
            raise UsageError("max_iterations must be >= 1")
        if self.warmup < 0:
            raise UsageError("warmup must be nonnegative")
        if not self.init_scale > 0:
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
    w_hidden, w_out, (outcome,) = _ascend(
        windows[None], moves[None], config,
        init.hidden_weights[None], init.output_weights[None, None],
    )
    if isinstance(outcome, NumericError):
        raise outcome
    return NetworkWeights(w_hidden[0], w_out[0, 0]), outcome


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
    trial, grad = np.empty_like(theta), np.empty_like(theta)
    theta_at, trial_at = (out, hidden_t, out_t), layers(trial)
    grad_hidden, grad_out = views(grad)
    tol = config.weight_tolerance

    def keep(kept):
        """Narrow every per-row array to the rows `kept`, leaving the old arrays as they are."""
        nonlocal theta, trial, grad, windows, moves, state, rows, values, norms
        nonlocal theta_at, trial_at, grad_hidden, grad_out
        theta, trial, grad = theta[kept], trial[kept], grad[kept]
        windows, moves = windows[kept], moves[kept]
        state = tuple(array[kept] for array in state)
        rows = [rows[i] for i in kept]
        values = [values[i] for i in kept]
        norms = [norms[i] for i in kept]
        theta_at, trial_at = layers(theta), layers(trial)
        grad_hidden, grad_out = views(grad)

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
    have one length and the configs may differ only in seed. At every round
    the refits of all replicates run as one stacked ascent. A bet never
    depends on capital, so the ratios of all rounds are found first and
    each replicate then plays them through `run_game`. The result of
    replicate r is bit-identical to `run_sosnn(movements[r], configs[r])`;
    where that would raise `NumericError`, the list holds the error instead
    and the other replicates play on.
    """
    config = _shared_config(configs, "sosnn")
    length = config.net.input_count
    warmup = config.warmup
    if warmup < length:
        raise UsageError(
            f"warmup of {warmup} cannot fill an input window of {length}"
        )
    lengths = {len(m) for m in movements}
    if len(lengths) > 1:
        raise UsageError(f"replicate series must have one length, got {sorted(lengths)}")
    n_rounds = lengths.pop()
    if n_rounds < warmup + 2:
        raise UsageError(
            f"series of length {n_rounds} is shorter than warmup + 2 = {warmup + 2}"
        )
    count = len(configs)
    rngs = [np.random.default_rng(c.seed) for c in configs]
    weights = [NetworkWeights.uniform(config.net, config.init_scale, rng) for rng in rngs]
    # Row i of windows[r] holds the input window of round warmup + 1 + i.
    windows = np.stack([window_matrix(m.values, length, warmup + 1, n_rounds) for m in movements])
    moves = np.stack([m.values for m in movements])[:, :, None]
    ratios = np.zeros((count, n_rounds))
    diagnostics: list[list[RoundDiagnostics]] = [[] for _ in range(count)]
    outcomes: list = [None] * count
    alive = list(range(count))
    for n in range(warmup + 1, n_rounds + 1):
        if not alive:
            break
        completed = n - 1 - warmup
        if completed > 0:
            if not config.warm_start:
                for r in alive:
                    weights[r] = NetworkWeights.uniform(config.net, config.init_scale, rngs[r])
            best_hidden, best_out, reports = _ascend(
                windows[alive, :completed], moves[alive, warmup : n - 1], config,
                np.stack([weights[r].hidden_weights for r in alive]),
                np.stack([weights[r].output_weights[None] for r in alive]),
            )
            for i, (r, report) in enumerate(zip(list(alive), reports)):
                if isinstance(report, NumericError):
                    outcomes[r] = NumericError(f"round {n}: {report}")
                    alive.remove(r)
                    continue
                weights[r] = NetworkWeights(best_hidden[i], best_out[i, 0])
                diagnostics[r].append(RoundDiagnostics(n, report.iterations, report.converged))
        else:
            for r in alive:
                diagnostics[r].append(RoundDiagnostics(n, 0, True))
        for r in alive:
            ratios[r, n - 1] = clamp_ratio(forward(windows[r, n - warmup - 1], weights[r]).output)
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
