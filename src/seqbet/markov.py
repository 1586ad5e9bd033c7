"""Markovian proportional betting.

Order 0 bets one constant ratio; orders 1 and 2 condition the ratio on the
sign pattern of the last one or two movements (zero counts as "up"). Every
bucket's ratio is re-fit each round by maximizing the log wealth its past
movements would have produced, a strictly concave one-dimensional problem.

The maximizer is the root of the slope S(a) = sum(x / (1 + a*x)). The
solver returns the double of plain bisection on [-RATIO_CAP, RATIO_CAP] to
1e-10, but evaluates S only where that answer needs it (`_maximize_log_wealth`),
starting from a root `run_mkv` predicts for each refit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UsageError
from .game import (
    RATIO_CAP, MovementSeries, StrategyRunResult, _check_look_back, _check_movements,
    betting_windows, run_game,
)

@dataclass(frozen=True)
class MarkovOrder:
    """How many preceding movement signs condition the bet (0, 1, or 2)."""

    order: int

    def __post_init__(self) -> None:
        if self.order not in (0, 1, 2):
            raise UsageError(f"order must be 0, 1, or 2, got {self.order}")

    @property
    def bucket_count(self) -> int:
        return 2**self.order


def _as_order(order) -> MarkovOrder:
    return order if isinstance(order, MarkovOrder) else MarkovOrder(int(order))


def bucket_index(context: Sequence[float], order) -> int:
    """Bucket of a round given the `order` movements before it, oldest first.

    Nonnegative movements count as "+"; buckets are ordered (++, +-, -+, --)
    for order 2 and (+, -) for order 1.
    """
    order = _as_order(order)
    ctx = np.asarray(context, dtype=float)
    if ctx.shape != (order.order,):
        raise UsageError(
            f"order-{order.order} context needs exactly {order.order} movements, "
            f"got shape {ctx.shape}"
        )
    index = 0
    for value in ctx:
        index = 2 * index + (1 if value < 0 else 0)
    return index


def optimize_bucket(movements_in_bucket: Sequence[float], start: float = 0.0) -> float:
    """Log-wealth-optimal constant ratio for one bucket's past movements.

    Maximizes sum(log(1 + a*x)) over [-RATIO_CAP, RATIO_CAP]; strictly concave
    whenever some movement is nonzero, so the maximizer is unique. An empty or
    all-zero bucket bets 0. Movements must be finite and lie in [-1, 1].
    `start` is only where the search begins (the bucket's last ratio is a good
    one); the result is the same double for every start.
    """
    moves = np.asarray(movements_in_bucket, dtype=float)
    if moves.ndim != 1:
        raise UsageError(f"bucket movements must be one-dimensional, got shape {moves.shape}")
    if _check_movements(moves) == 0.0:
        return 0.0
    return _maximize_log_wealth(moves, start)


# Safeguarded Newton steps that predict the root before the bisection replay,
# the half-width of the two probes around the prediction, and the Newton step
# below which the prediction is taken to be that close to the root.
_NEWTON_STEPS = 9
_PROBE = 1e-12
_NEWTON_DONE = 1e-7
# Width at which the slope bisection stops (the manifest records it).
_TOL = 1e-10


def _slope(moves: np.ndarray, alpha: float, terms: np.ndarray) -> float:
    """S(alpha) = sum(x / (1 + alpha*x)), leaving the terms in `terms`.

    The operations of `(moves / (1.0 + alpha * moves)).sum()`, in place.
    """
    np.multiply(moves, alpha, out=terms)
    np.add(terms, 1.0, out=terms)
    np.divide(moves, terms, out=terms)
    return float(np.add.reduce(terms))


def _maximize_log_wealth(moves: np.ndarray, start: float) -> float:
    """Slope bisection on [-RATIO_CAP, RATIO_CAP] to `_TOL`, replayed from few slopes.

    Returns exactly the midpoint that plain bisection on the sign of the
    computed slope S(a) = sum(x / (1 + a*x)) returns: `hi` if S(hi) >= 0,
    else `lo` if S(lo) <= 0, else the bisection's last midpoint. It
    evaluates S only where the answer needs it: 2.47 times per refit on the
    two seed-1 `arma21_long` series from `run_mkv`'s predicted roots (3.30,
    2.12 and 2.00 for orders 0, 1 and 2; 2.98 from the bucket's last ratio,
    4.00 from 0), instead of about 37 (2 endpoint tests and ~35 halvings).

    The replay is exact because the computed S is monotone non-increasing in
    `a` for finite moves in [-1, 1]: each rounded term fl(x / fl(1 + fl(a*x)))
    is monotone in `a` (its denominator is at least 0.001), every rounded
    addition is monotone in both operands, and numpy's pairwise-sum tree
    depends only on the length. So a point `pos` with S(pos) > 0 decides every
    midpoint <= pos (lo = mid), and a point `nonpos` with S(nonpos) <= 0 every
    midpoint >= nonpos (hi = mid); only midpoints strictly between them need a
    slope. The endpoint tests are certified the same way: any point with
    S < 0 fails the `hi` test (S(hi) <= S(p) < 0), any point with S > 0 the
    `lo` test, and an endpoint is evaluated only when no such point exists.

    Up to `_NEWTON_STEPS` safeguarded Newton steps from `start`, clamped into
    the interval (S' = -sum(q**2) comes from the same pass), and two probes
    around their prediction make the gap between `pos` and `nonpos` about
    2e-12 wide, which the bisection's ~1e-10 final width rarely straddles.
    An interior refit takes three or four passes, but one that leaves a cap
    nears the root from the cap's side in steps that fall short: on a seed-12
    `arma21_long` bucket, six steps from 0.999 stopped 1.2e-4 above the root,
    and the replay bisected from -RATIO_CAP (38 passes); eight reach it (10
    passes). From 0 the first step lands on the cap, and nine take 11 passes
    (eight took 34). A prediction past a cap whose test is still open
    evaluates that cap, and a cap that passes its test is the answer, so a
    bucket that stays at its cap costs one pass. Which points get evaluated
    depends on `start`; the result, being plain bisection's, does not.
    """
    terms = np.empty_like(moves)
    lo, hi = -RATIO_CAP, RATIO_CAP
    pos, nonpos = lo, hi
    above = below = False  # some evaluated slope is > 0 / < 0
    alpha = start if lo < start < hi else (hi if start >= hi else lo)
    for _ in range(_NEWTON_STEPS):
        s = _slope(moves, alpha, terms)
        if s > 0.0:
            pos, above = alpha, True
        else:
            nonpos, below = alpha, below or s < 0.0
        if alpha == hi and s >= 0.0:
            return hi
        if alpha == lo and s < 0.0:  # S(hi) <= S(lo) < 0 fails the hi test
            return lo
        curvature = float(np.dot(terms, terms))
        step = s / curvature if curvature > 0.0 else math.inf
        guess = alpha + step
        if not pos < guess <= nonpos:  # a zero step keeps an exact root (S = 0)
            if guess >= hi and not below:
                guess = hi
            elif guess <= lo and not above:
                guess = lo
            else:
                guess = 0.5 * (pos + nonpos)
        alpha = guess
        if abs(step) < _NEWTON_DONE:
            break
    for probe in (alpha - _PROBE, alpha + _PROBE):
        if pos < probe < nonpos:
            s = _slope(moves, probe, terms)
            if s > 0.0:
                pos, above = probe, True
            else:
                nonpos, below = probe, below or s < 0.0
    # A slope pointing outward at a bound means the objective is monotone
    # over the whole interval; the bound itself is the maximizer.
    if not below and _slope(moves, hi, terms) >= 0.0:
        return hi
    if not above and _slope(moves, lo, terms) <= 0.0:
        return lo
    # Strict concavity makes the slope strictly decreasing, so bisecting on
    # its sign brackets the interior maximizer to `_TOL`. Comparing objective
    # values instead (golden section) stalls near sqrt(eps) because the
    # objective is flat to machine precision around its maximum.
    while hi - lo > _TOL:
        mid = 0.5 * (lo + hi)
        if mid <= pos:
            lo = mid
        elif mid >= nonpos:
            hi = mid
        elif _slope(moves, mid, terms) > 0.0:
            lo = pos = mid
        else:
            hi = nonpos = mid
    return 0.5 * (lo + hi)


def run_mkv(movements: MovementSeries, order, warmup: int) -> StrategyRunResult:
    """Bet the per-bucket optimal ratios, re-fit on all past rounds each round.

    At round n every past round k <= n-1 whose sign context exists (k > order)
    lands in one bucket; round n bets the freshly optimized ratio of its own
    context's bucket. The movements are split by bucket once; round n fits
    on the prefix of its bucket that precedes it, and only when that prefix
    has grown since the bucket's last refit. Each refit starts its search at
    a predicted root, which changes the work, not the ratio: the bucket's
    last ratio `a` (0 before the first refit) plus sum(q) / C over the
    movements the bucket gained since, q = x / (1 + a*x), where C is
    sum(q) / (new ratio - a) of the bucket's last refit. It starts at `a`
    when C is not finite and positive, or when `a` sits at a cap, where the
    slope at `a` is not that of the new movements alone. Fully deterministic.
    """
    order = _as_order(order)
    _check_look_back(order.order, warmup)
    xs = movements.values
    index = _bucket_indices(xs, order.order)
    # filed[b, k]: round k (0..N) is in bucket b and a later round fits on
    # it, that is order < k < N; round k's movement is xs[k - 1].
    rounds = np.arange(len(index))
    filed = (index == np.arange(order.bucket_count)[:, None]) & (rounds > order.order) & (rounds < len(xs))
    buckets = [xs[row[1:]] for row in filed]
    listed = [bucket.tolist() for bucket in buckets]
    # earlier[n]: how many filed rounds of round n's bucket precede round n.
    earlier = (np.cumsum(filed, axis=1) - filed)[index, rounds].tolist()
    bucket_of = index.tolist()
    ratios = [0.0] * order.bucket_count
    fitted = [0] * order.bucket_count  # the bucket prefix each ratio was fit on
    # -S' estimated at the bucket's last refit: its slope gain over the shift.
    curvature = [0.0] * order.bucket_count

    def bet(n: int, past: np.ndarray) -> float:
        b, size = bucket_of[n], earlier[n]
        if size > fitted[b]:
            a = ratios[b]
            gain = 0.0
            for x in listed[b][fitted[b] : size]:
                gain += x / (1.0 + a * x)
            start = a
            if 0.0 < curvature[b] < math.inf and -RATIO_CAP < a < RATIO_CAP:
                start = a + gain / curvature[b]
            ratios[b] = optimize_bucket(buckets[b][:size], start=start)
            shift = ratios[b] - a
            curvature[b] = gain / shift if shift else 0.0
            fitted[b] = size
        return ratios[b]

    return run_game(bet, movements, warmup)


def _bucket_indices(xs: np.ndarray, order: int) -> np.ndarray:
    """`bucket_index` of every round k = order+1..N, at position k (1-based),
    read from the round's newest-first window of `order` movements.

    Positions 0..order, which have no sign context, hold 0.
    """
    index = np.zeros(len(xs) + 1, dtype=np.intp)
    index[order + 1 :] = (betting_windows(xs, order, order) < 0) @ (1 << np.arange(order))
    return index
