"""Spans around the calls into each seqbet module, kept in memory.

The traced worker patches module attributes so every call the program makes
into a layer's public entry point passes through `Tracer.wrap`; nothing in
`src/` changes. A span records its name, start, end and the span that was
open when it began. Per-layer metrics are computed from the spans once the
job has finished, and the spans are written out at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np


def clock() -> float:
    """Monotonic seconds, comparable across processes on one machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail(values) -> tuple[float, float, int]:
    """Highest standard percentile with at least ten samples beyond it.

    Returns (percentile, value, sample count); with fewer than 20 samples the
    median stands in.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return 0.0, 0.0, 0
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            break
    else:
        pct = 50.0
    return pct, float(np.percentile(values, pct)), n


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.notes: dict[str, list] = defaultdict(list)
        self._open: list[int] = []

    def wrap(self, name, fn, observe=None):
        """`fn` recording one span per call; `observe(result, args)` may add notes."""

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self._open.pop()
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def patch(self, module, attr, name, observe=None):
        if hasattr(module, attr):
            setattr(module, attr, self.wrap(name, getattr(module, attr), observe))

    def patch_game(self, module, owner):
        """Wrap `module.run_game` and the strategy callback it is handed."""
        run_game = self.wrap(
            "game.run_game", module.run_game,
            lambda result, args: self.notes["game.rounds"].append(len(result.log_capital_path)),
        )

        def traced_run_game(strategy, movements, warmup=0):
            return run_game(self.wrap(f"{owner}.callback", strategy), movements, warmup)

        module.run_game = traced_run_game

    def install(self) -> None:
        """Patch every layer boundary the workloads cross."""
        from seqbet import data, experiments, markov, nnbp, portfolio, sosnn

        for mod in (sosnn, nnbp, markov):
            self.patch_game(mod, mod.__name__.rsplit(".", 1)[-1])
        self.patch(experiments, "run_sosnn", "sosnn.run", self._note_sosnn)
        self.patch(experiments, "train", "nnbp.train", self._note_train)
        self.patch(experiments, "run_mkv", "markov.run_mkv")
        self.patch(markov, "optimize_bucket", "markov.optimize_bucket")
        self.patch(experiments, "_run_task", "experiments.task")
        for fn in ("run_simulate", "run_backtest"):
            self.patch(experiments, fn, "experiments.run")
        for mod in (data, experiments):
            for fn in ("gen_ar1", "gen_arma21", "normalize", "load_prices",
                       "movements_from_prices", "load_movement_matrix"):
                self.patch(mod, fn, f"data.{fn}")
        self.patch(portfolio, "forward_portfolio", "portfolio.forward")
        self.patch(portfolio, "run_sosnn_portfolio", "portfolio.run")

    def _note_sosnn(self, result, args):
        config = args[1]
        for d in result.diagnostics:
            self.notes["sosnn.refit"].append(
                (d.iterations, d.converged, config.max_iterations)
            )

    def _note_train(self, result, args):
        diag = result[1]
        self.notes["nnbp.train"].append((diag.steps_used, diag.converged))

    # -- metrics -------------------------------------------------------------

    def durations(self, name) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.spans if s[0] == name])

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer metric values and the notes (tail percentiles) behind them."""
        m: dict[str, float] = {}
        info: dict[str, str] = {}

        callbacks = self.durations("sosnn.callback")
        refit_notes = self.notes["sosnn.refit"]
        iters = np.array([n[0] for n in refit_notes], dtype=float)
        is_refit = iters > 0
        refit_ms = callbacks[is_refit] * 1e3 if callbacks.size == iters.size else np.array([])
        iters = iters[is_refit]
        capped = np.array([it >= cap and not conv for it, conv, cap in refit_notes
                           if it > 0], dtype=bool)
        m["sosnn.refits"] = float(iters.size)
        m["sosnn.refit_ms_p50"] = float(np.median(refit_ms)) if refit_ms.size else 0.0
        pct, value, n = tail(refit_ms)
        m["sosnn.refit_ms_tail"] = value
        info["sosnn.refit_ms_tail"] = f"p{pct:g} of {n} refits"
        m["sosnn.iter_us"] = float(refit_ms.sum() * 1e3 / iters.sum()) if iters.sum() else 0.0
        m["sosnn.iters_total"] = float(iters.sum())
        m["sosnn.iters_p50"] = float(np.median(iters)) if iters.size else 0.0
        pct, value, n = tail(iters)
        m["sosnn.iters_tail"] = value
        info["sosnn.iters_tail"] = f"p{pct:g} of {n} refits"
        m["sosnn.capped_frac"] = float(capped.mean()) if capped.size else 0.0

        train_s = self.durations("nnbp.train")
        steps = sum(n[0] for n in self.notes["nnbp.train"])
        m["nnbp.steps"] = float(steps)
        m["nnbp.step_us"] = float(train_s.sum() * 1e6 / steps) if steps else 0.0
        m["nnbp.train_s"] = float(train_s.sum())
        conv = [n[1] for n in self.notes["nnbp.train"]]
        m["nnbp.converged_frac"] = float(np.mean(conv)) if conv else 0.0

        buckets = self.durations("markov.optimize_bucket")
        m["markov.refits"] = float(buckets.size)
        m["markov.refit_us"] = float(buckets.mean() * 1e6) if buckets.size else 0.0
        m["markov.s"] = float(self.durations("markov.run_mkv").sum())

        games = {i for i, s in enumerate(self.spans) if s[0] == "game.run_game"}
        game_total = sum(self.spans[i][2] - self.spans[i][1] for i in games)
        children = sum(s[2] - s[1] for s in self.spans if s[3] in games)
        rounds = sum(self.notes["game.rounds"])
        m["game.rounds"] = float(rounds)
        m["game.self_us_per_round"] = (
            float((game_total - children) * 1e6 / rounds) if rounds else 0.0
        )

        m["data.prepare_s"] = float(sum(
            s[2] - s[1] for s in self.spans
            if s[0].startswith("data.") and (s[3] < 0 or not self.spans[s[3]][0].startswith("data."))
        ))

        intervals = []
        calls = 0
        for run in (s for s in self.spans if s[0] == "portfolio.run"):
            starts = sorted(s[1] for s in self.spans
                            if s[0] == "portfolio.forward" and run[1] <= s[1] <= run[2])
            calls += len(starts)
            intervals += list(np.diff(starts) * 1e3)
        m["portfolio.rounds"] = float(calls)
        m["portfolio.round_ms_p50"] = float(np.median(intervals)) if intervals else 0.0
        pct, value, n = tail(intervals)
        m["portfolio.round_ms_tail"] = value
        info["portfolio.round_ms_tail"] = f"p{pct:g} of {n} rounds"

        tasks = self.durations("experiments.task")
        m["experiments.tasks"] = float(tasks.size)
        m["experiments.task_s_sum"] = float(tasks.sum())
        m["experiments.task_s_max"] = float(tasks.max()) if tasks.size else 0.0
        return m, info

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
