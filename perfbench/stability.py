"""Trajectory-stability probe and reference pinning; runs on request only.

    python3 perfbench/stability.py [--seed N] [--workload NAME ...] [--pin]

Runs each workload twice in this process at --jobs 1: once as is, once with
every SOSNN initial weight nudged up by one ulp (np.nextafter). A SOSNN task
(cell, replicate) is trajectory-stable when both runs take the same number
of ascent iterations and end within 1e-9 in log capital. A kernel change
that only reorders floating-point sums acts like such a nudge, so only
stable tasks keep a fixed amount of work and a fixed answer under it.

With --pin (at the default seed) the result is written to reference.json:
the stability table, and the final log capital of every MKV, NNBP and
stable SOSNN task, which checks.py then compares at that seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import REFERENCE_FILE, check_portfolio, check_run  # noqa: E402
from run import provenance  # noqa: E402
from workloads import DEFAULT_SEED, ROOT, WORKLOADS, build_panel, panel_seeds, write_inputs  # noqa: E402

LOG_K_TOL = 1e-9
WORK = ROOT / ".bench_build" / "perfbench" / "stability"


def _nudged(cls):
    class Nudged(cls):
        @classmethod
        def uniform(cls_, *args, **kwargs):
            w = cls.uniform(*args, **kwargs)
            return cls(np.nextafter(w.hidden_weights, np.inf), np.nextafter(w.output_weights, np.inf))

    return Nudged


def run_once(workload, seed: int, out: Path, nudge: bool) -> tuple[dict, dict]:
    """Final log capital per task and ascent iterations per SOSNN task."""
    from seqbet import data, experiments, portfolio, sosnn
    from seqbet.network import NetworkConfig

    iterations: list[int] = []
    saved = {}

    def patch(module, attr, value):
        saved[(module, attr)] = getattr(module, attr)
        setattr(module, attr, value)

    try:
        if nudge:
            patch(sosnn, "NetworkWeights", _nudged(sosnn.NetworkWeights))
            patch(portfolio, "PortfolioWeights", _nudged(portfolio.PortfolioWeights))
        run_sosnn = experiments.run_sosnn

        def counted_sosnn(movements, config):
            result = run_sosnn(movements, config)
            iterations.append(sum(d.iterations for d in result.diagnostics))
            return result

        patch(experiments, "run_sosnn", counted_sosnn)
        optimize = portfolio._optimize_portfolio

        def counted_portfolio(*args):
            weights, report = optimize(*args)
            iterations[-1] += report.iterations
            return weights, report

        patch(portfolio, "_optimize_portfolio", counted_portfolio)

        shutil.rmtree(out, ignore_errors=True)
        if workload.kind == "portfolio":
            from worker import write_portfolio

            p = workload.panel
            out.mkdir(parents=True)
            for r in range(p["replicates"]):
                panel = build_panel(data, seed, r, p["length"])[: p["warmup"] + p["rounds"]]
                config = sosnn.SosnnConfig(
                    net=NetworkConfig(p["input_count"], p["hidden_count"]),
                    max_iterations=p["max_iterations"], warmup=p["warmup"],
                    seed=panel_seeds(seed, r)[2],
                )
                iterations.append(0)
                write_portfolio(out, r, panel, portfolio.run_sosnn_portfolio(panel, config))
            checked = check_portfolio(workload, seed, out)
            labels = sorted(checked.final_log_k)
        else:
            config = experiments.parse_config(out.parent / "config.ini")
            runner = experiments.run_simulate if config.mode == "simulate" else experiments.run_backtest
            runner(config, out, jobs=1)
            checked = check_run(workload, seed, config, out)
            cells = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["cells"]
            labels = [f"{c}__rep{r}" for c in cells if c.startswith("sosnn")
                      for r in range(config.replicates)]
    finally:
        for (module, attr), value in saved.items():
            setattr(module, attr, value)
    if checked.failures:
        raise SystemExit(f"{workload.name}: correctness gate failed: {checked.failures[:3]}")
    return checked.final_log_k, dict(zip(labels, iterations))


def probe(workload, seed: int) -> dict:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    write_inputs(workload, seed, work)
    log_k, iters = run_once(workload, seed, work / "plain", nudge=False)
    log_k_n, iters_n = run_once(workload, seed, work / "nudged", nudge=True)
    shutil.rmtree(work, ignore_errors=True)
    table = {}
    for task, its in iters.items():
        stable = its == iters_n[task] and abs(log_k[task] - log_k_n[task]) <= LOG_K_TOL
        table[task] = {"iterations": [its, iters_n[task]],
                       "final_log_k": [log_k[task], log_k_n[task]], "stable": stable}
    pinned = {task: value for task, value in log_k.items()
              if task not in table or table[task]["stable"]}
    return {"stability": table, "final_log_k": pinned}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--pin", action="store_true", help="write reference.json")
    args = parser.parse_args()
    if args.pin and args.seed != DEFAULT_SEED:
        parser.error(f"references are pinned at the default seed {DEFAULT_SEED}")
    results = {}
    for name in args.workload or sorted(WORKLOADS):
        results[name] = probe(WORKLOADS[name], args.seed)
        for task, row in results[name]["stability"].items():
            verdict = "stable" if row["stable"] else "UNSTABLE"
            print(f"{name:15s} {task:22s} iterations {row['iterations'][0]:>8d} -> "
                  f"{row['iterations'][1]:>8d}  log K {row['final_log_k'][0]: .12f} -> "
                  f"{row['final_log_k'][1]: .12f}  {verdict}")
    if args.pin:
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8")) if REFERENCE_FILE.is_file() else {}
        reference["seed"] = DEFAULT_SEED
        reference["stability_rule"] = (
            "A SOSNN task is stable when one-ulp larger initial weights leave its ascent "
            "iteration count equal and its final log K within 1e-9. Only stable tasks are "
            "pinned: on the others a float-reordering kernel change would alter both the "
            "answer and the amount of work the workload does."
        )
        reference["provenance"] = provenance()
        reference.setdefault("workloads", {}).update(results)
        REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
