"""seqbet benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every batch job runs in a fresh interpreter
(perfbench/worker.py) that waits for its own result: a closed loop with one
client. With --trace 0 the jobs repeat until S seconds are used (at least
three), set-up is also probed on its own several times, and the medians of
setup_s, wall_s, cpu_s and peak_rss_mb are reported. With --trace 1 one
untraced job, one untraced --jobs 1 replay (for workloads that use a pool)
and one traced --jobs 1 replay give the per-layer metrics. Every job's
artifacts pass the correctness gate in checks.py and all jobs of a run must
write byte-identical summary.csv/replicates.csv. The last line of standard
output is the JSON result; a copy with provenance goes to
.bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import clock
from workloads import ROOT, WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
MIN_JOBS = 3
JOB_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def provenance() -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def spawn(args: list[str], work: Path) -> tuple[dict, float, float]:
    """Run one worker; return its report, its start time and its CPU seconds
    (user + sys of the worker and every pool process it waited for)."""
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    with open(work / "worker.err", "w", encoding="utf-8") as err:
        start = clock()
        proc = subprocess.Popen([sys.executable, str(WORKER), *args, "--report", str(report_path)],
                                stdout=subprocess.DEVNULL, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if clock() - start > JOB_TIMEOUT_S:
                proc.kill()
                proc.wait()
                raise BenchError(f"worker exceeded {JOB_TIMEOUT_S:.0f} s")
            time.sleep(0.01)
    if proc.returncode != 0 or not report_path.is_file():
        tail = (work / "worker.err").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(report_path.read_text(encoding="utf-8")), start, usage.ru_utime + usage.ru_stime


class Runner:
    def __init__(self, workload, seed: int, work: Path):
        from checks import load_reference

        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = load_reference()
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.config = None
        if workload.kind != "portfolio":
            from seqbet.experiments import parse_config

            self.config = parse_config(work / "config.ini")

    def base_args(self) -> list[str]:
        return ["--workload", self.workload.name, "--seed", str(self.seed), "--work", str(self.work)]

    def setup_probe(self) -> float:
        report, start, _ = spawn(self.base_args() + ["--setup-only"], self.work)
        return report["ready"] - start

    def job(self, jobs: int | None = None, trace: bool = False) -> dict:
        """One batch job plus the correctness gate over its artifacts."""
        from checks import check_portfolio, check_reference, check_run

        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = self.base_args() + ["--out", str(out)]
        if jobs is not None:
            args += ["--jobs", str(jobs)]
        if trace:
            args.append("--trace")
        report, start, cpu = spawn(args, self.work)
        report["setup_s"] = report["ready"] - start
        report["cpu_s"] = cpu
        try:
            if self.workload.kind == "portfolio":
                checked = check_portfolio(self.workload, self.seed, out)
            else:
                checked = check_run(self.workload, self.seed, self.config, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            raise BenchError(f"artifacts of the job cannot be checked: {exc!r}") from None
        check_reference(self.workload, self.seed, checked, self.reference)
        self.digests.append(checked.digest)
        self.attempted += checked.tasks
        self.failures += [f"job {len(self.digests)}: {f}" for f in checked.failures]
        if checked.digest != self.digests[0]:
            # Same inputs must give byte-identical tables; every task is suspect.
            self.failures.append(f"job {len(self.digests)}: artifact digest differs from job 1")
            self.failed += checked.tasks
        else:
            self.failed += checked.failed
        shutil.rmtree(out, ignore_errors=True)
        return report


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    samples = {name: [] for name in END_TO_END_UNITS}
    for _ in range(SETUP_PROBES):
        samples["setup_s"].append(runner.setup_probe())
    start = clock()
    job_times = []
    while len(job_times) < MIN_JOBS or clock() - start + statistics.median(job_times) <= seconds:
        began = clock()
        report = runner.job()
        job_times.append(clock() - began)
        for name in END_TO_END_UNITS:
            samples[name].append(report[name])
    metrics = {name: {"value": quartiles(v)[1], "unit": END_TO_END_UNITS[name]}
               for name, v in samples.items()}
    return metrics, samples


def measure_traced(runner: Runner) -> tuple[dict, dict]:
    workload = runner.workload
    untraced = runner.job()
    replay = runner.job(jobs=1) if workload.jobs > 1 else untraced
    traced = runner.job(jobs=1, trace=True)
    layer = dict(traced["per_layer"])
    if "task_s_sum" in untraced:
        layer["experiments.idle_frac"] = 1.0 - untraced["task_s_sum"] / (workload.jobs * untraced["wall_s"])
        layer["experiments.overhead_s"] = replay["wall_s"] - replay["task_s_sum"]
    else:  # no experiments layer on this workload
        layer["experiments.idle_frac"] = 0.0
        layer["experiments.overhead_s"] = 0.0
    layer["trace.overhead_frac"] = traced["wall_s"] / replay["wall_s"] - 1.0
    details = {
        "untraced_wall_s": untraced["wall_s"],
        "replay_wall_s": replay["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "tails": traced["per_layer_info"],
        "kernel_cost_computed": traced["kernel_cost_computed"],
    }
    return layer, details


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "seqbet" / "__init__.py").is_file():
        print(f"error: no seqbet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    work = BUILD / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    write_inputs(workload, args.seed, work)
    info = provenance()
    info["loadavg_before"] = os.getloadavg()
    try:
        runner = Runner(workload, args.seed, work)
        if args.trace:
            units = per_layer_units()
            layer, details = measure_traced(runner)
            missing = set(units) - set(layer)
            if missing:
                raise BenchError(f"per-layer metrics not produced: {sorted(missing)}")
            metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
            samples = details
        else:
            metrics, samples = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        spans = work / "spans.json"
        results = BUILD / "results"
        results.mkdir(parents=True, exist_ok=True)
        if spans.is_file():
            spans.replace(results / f"{workload.name}-seed{args.seed}.spans.json")
        shutil.rmtree(work, ignore_errors=True)
    info["loadavg_after"] = os.getloadavg()

    correct = not runner.failures
    print(f"# workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"# python {info['python']}  numpy {info['numpy']}  {info['blas']}  nproc {info['nproc']}  "
          f"threads env {info['threads_env'] or 'unset'}")
    print(f"# loadavg before {info['loadavg_before']}  after {info['loadavg_after']}")
    if args.trace:
        for name, m in metrics.items():
            note = samples["tails"].get(name, "")
            print(f"{name:34s} {m['value']:14.6g} {m['unit']:8s} {note}")
        for shape, cost in samples["kernel_cost_computed"].items():
            print(f"network.cost.{shape:10s} {cost['flops']:>9d} flop  {cost['bytes']:>9d} B per evaluation (computed)")
    else:
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            print(f"{name:12s} {med:10.4f} {END_TO_END_UNITS[name]:3s} median; q1 {q1:.4f} q3 {q3:.4f}; n={len(values)}")
    print(f"failed_frac  {runner.failed / max(runner.attempted, 1):.4f}     "
          f"({runner.failed} of {runner.attempted} tasks; {len(set(runner.digests))} distinct artifact digests)")
    for failure in runner.failures[:20]:
        print(f"# FAILED {failure}")
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    (BUILD / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "samples": samples, "provenance": info}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
