"""One batch job of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR --report FILE
        [--jobs J] [--setup-only] [--trace] [--out DIR]

Set-up (interpreter start, `import seqbet`, `parse_config` or building the
movement panels) ends at the `ready` timestamp; the run call and its
artifacts end at `done`. Both go to the JSON report together with the peak
resident memory of this process and of its pool workers. With `--trace` the
layer boundaries are wrapped in spans, the kernel probe runs after the job,
and the report carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import datetime
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer, clock  # noqa: E402
from workloads import PANEL_START, WORKLOADS, build_panel, panel_seeds  # noqa: E402

KERNEL_HISTORIES = (50, 150, 300)
KERNEL_SHAPES = ((1, 5), (3, 4), (3, 8))
KERNEL_BUDGETS = (40, 240)  # ascent steps; the difference times the pure loop
KERNEL_REPEATS = 3


def kernel_cost(k: int, l: int, m: int) -> tuple[int, int]:
    """Computed floating-point operations and array bytes of one value+gradient
    evaluation over k rounds of an l-input, m-hidden network (cache effects ignored)."""
    flops = 4 * k * m * l + 10 * k * m + 12 * k
    words = 2 * k * l + 8 * k * m + 10 * k + 2 * m * (l + 1)
    return flops, 8 * words


def kernel_probe(series) -> dict[str, float]:
    """Microseconds per ascent iteration of public `optimize_weights` with a
    fixed iteration budget and a tolerance no run reaches."""
    import numpy as np

    from seqbet import NetworkConfig, NetworkWeights, SosnnConfig, optimize_weights

    out = {}
    for k in KERNEL_HISTORIES:
        for l, m in KERNEL_SHAPES:
            history = [(series[i : i + l][::-1], series[i + l]) for i in range(k)]
            net = NetworkConfig(l, m)
            init = NetworkWeights.uniform(net, 0.1, np.random.default_rng(k * 100 + l * 10 + m))
            samples = []
            for _ in range(KERNEL_REPEATS):
                elapsed = []
                for budget in KERNEL_BUDGETS:
                    config = SosnnConfig(net=net, weight_tolerance=1e-300, max_iterations=budget)
                    start = clock()
                    _, report = optimize_weights(history, config, init)
                    elapsed.append(clock() - start)
                    if report.iterations != budget:
                        raise RuntimeError(f"kernel probe K={k} {l}x{m} stopped early")
                samples.append((elapsed[1] - elapsed[0]) / (KERNEL_BUDGETS[1] - KERNEL_BUDGETS[0]))
            out[f"network.iter_us.K{k}.{l}x{m}"] = float(np.median(samples) * 1e6)
    return out


def own_series(workload, seed, config, panels):
    """The workload's own movements, concatenated, as the kernel probe's input."""
    import numpy as np

    from seqbet import data
    from seqbet.experiments import derive_seed

    if workload.kind == "portfolio":
        length = workload.panel["length"]
        return np.concatenate([build_panel(data, seed, r, length)[:, 0] for r in range(len(panels))])
    if workload.kind == "backtest":
        prices = data.load_prices(config.data.price_file)
        raw = data.movements_from_prices(prices)
        return np.clip(raw / np.abs(raw).max(), -1.0, 1.0)
    gen = data.gen_ar1 if config.data.generator == "ar1" else data.gen_arma21
    return np.concatenate([
        data.normalize(gen(config.warmup + config.rounds,
                           data.NoiseSpec(seed=derive_seed(seed, r, 0)))).values
        for r in range(config.replicates)
    ])


def write_portfolio(out: Path, replicate: int, panel, result) -> None:
    from seqbet.data import write_movements

    dates = [PANEL_START + datetime.timedelta(days=i) for i in range(panel.shape[0])]
    write_movements(out / f"movements__rep{replicate}.csv", dates, panel)
    lines = ["round,ratio_1,ratio_2,log_capital"]
    lines += [
        f"{i},{r[0]!r},{r[1]!r},{v!r}"
        for i, (r, v) in enumerate(zip(result.ratios.tolist(), result.log_capital_path.tolist()), 1)
    ]
    (out / f"log_capital__rep{replicate}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    jobs = args.jobs or workload.jobs

    # -- set-up ----------------------------------------------------------------
    from seqbet import data, experiments, portfolio
    from seqbet.network import NetworkConfig
    from seqbet.sosnn import SosnnConfig

    tracer = None
    if args.trace:  # before the panels are built, so their data calls are seen
        tracer = Tracer()
        tracer.install()
    config, panels, configs = None, [], []
    if workload.kind == "portfolio":
        p = workload.panel
        for r in range(p["replicates"]):
            panels.append(build_panel(data, args.seed, r, p["length"])[: p["warmup"] + p["rounds"]])
            configs.append(SosnnConfig(
                net=NetworkConfig(p["input_count"], p["hidden_count"]),
                max_iterations=p["max_iterations"], warmup=p["warmup"],
                seed=panel_seeds(args.seed, r)[2],
            ))
    else:
        config = experiments.parse_config(work / "config.ini")
    ready = clock()
    report = {"ready": ready}

    # -- the run call and its artifacts -----------------------------------------
    if not args.setup_only:
        out = Path(args.out)
        if workload.kind == "portfolio":
            out.mkdir(parents=True, exist_ok=True)
            for r, (panel, cfg) in enumerate(zip(panels, configs)):
                write_portfolio(out, r, panel, portfolio.run_sosnn_portfolio(panel, cfg))
        else:
            runner = experiments.run_simulate if config.mode == "simulate" else experiments.run_backtest
            run = runner(config, out, jobs=jobs)
            report["task_s_sum"] = run.total_seconds
        report["done"] = clock()
        report["wall_s"] = report["done"] - ready
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # Pool workers run side by side, so their peaks add up (an upper bound).
        report["peak_rss_mb"] = (self_kb + (jobs * children_kb if jobs > 1 else 0)) / 1024.0
        if tracer is not None:
            report["per_layer"], report["per_layer_info"] = tracer.metrics()
            tracer.dump(work / "spans.json")
            report["per_layer"].update(kernel_probe(own_series(workload, args.seed, config, panels)))
            report["kernel_cost_computed"] = {
                f"K{k}.{l}x{m}": dict(zip(("flops", "bytes"), kernel_cost(k, l, m)))
                for k in KERNEL_HISTORIES for l, m in KERNEL_SHAPES
            }
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
