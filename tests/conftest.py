"""Shared test helpers: the finite-difference oracle, small data builders,
and the scalar references that the batched code must match bit for bit."""

import numpy as np
import pytest

from seqbet.errors import UsageError
from seqbet.network import NetworkConfig, NetworkWeights, forward


def fd_gradient(func, arrays, h=1e-6):
    """Central finite differences of a scalar function of several arrays.

    Independent oracle for the analytic gradients: each coordinate is
    perturbed by +/-h and the slope (f(x+h) - f(x-h)) / 2h recorded.
    """
    grads = []
    for target_index in range(len(arrays)):
        base = arrays[target_index]
        grad = np.zeros_like(base, dtype=float)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = [a.copy() for a in arrays]
            bumped[target_index][idx] = base[idx] + h
            f_plus = func(*bumped)
            bumped[target_index][idx] = base[idx] - h
            f_minus = func(*bumped)
            grad[idx] = (f_plus - f_minus) / (2.0 * h)
        grads.append(grad)
    return grads


def relative_error(analytic, numeric, floor=1e-10):
    """Coordinate-wise |a - n| / max(|n|, floor)."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    return np.abs(analytic - numeric) / np.maximum(np.abs(numeric), floor)


def random_instance(rng, input_count=None, hidden_count=None, history_len=10):
    """A random small network plus a K x L window matrix and K movements,
    weights uniform in [-0.1, 0.1]; each round's window is drawn before its
    movement."""
    lin = input_count if input_count is not None else int(rng.integers(1, 4))
    hid = hidden_count if hidden_count is not None else int(rng.integers(1, 6))
    config = NetworkConfig(lin, hid)
    weights = NetworkWeights.uniform(config, 0.1, rng)
    windows, moves = np.empty((history_len, lin)), np.empty(history_len)
    for k in range(history_len):
        windows[k] = rng.uniform(-1.0, 1.0, lin)
        moves[k] = rng.uniform(-1.0, 1.0)
    return config, weights, windows, moves


def input_window(values, k, length):
    """Window feeding round k: the `length` movements before it, newest first.

    Rounds are 1-based, so this needs k >= length + 1. The one-round
    reference for `seqbet.game.betting_windows`.
    """
    xs = np.asarray(values, dtype=float)
    if k < length + 1:
        raise UsageError(f"round {k} has fewer than {length} preceding movements")
    if k - 1 > xs.size:
        raise UsageError(f"round {k} lies beyond the {xs.size} known movements")
    return xs[k - 1 - length : k - 1][::-1].copy()


def squared_error_gradient(weights, window, target):
    """Gradient of E = (target - output)^2 / 2 for one sample, as the
    (hidden, output) weight gradients and the scalar output delta.

    The descent update subtracts this gradient. `seqbet.nnbp.train_replicates`
    inlines the same operations, so its steps match this one bit for bit.
    """
    if target not in (-1, 0, 1):
        raise UsageError(f"target must be one of -1, 0, 1, got {target!r}")
    u = np.asarray(window, dtype=float)
    hidden_outputs = np.tanh(weights.hidden_weights @ u)
    output = forward(u, weights)
    out_delta = -(target - output) * (1.0 - output * output)
    grad_out = out_delta * hidden_outputs
    hidden_delta = out_delta * weights.output_weights * (1.0 - hidden_outputs * hidden_outputs)
    grad_hidden = np.outer(hidden_delta, u)
    return grad_hidden, grad_out, out_delta


@pytest.fixture
def rng():
    return np.random.default_rng(20210607)
