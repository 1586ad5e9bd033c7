"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
        [--seconds S] [--record]

Runs `run.py --trace 0` once per seed and reports, for every end-to-end
metric, the median of the per-run values and the distance between their
first and third quartiles (statistics.quantiles, n=4) as a share of that
median. With --record the figures are stored under "noise" in
reference.json, next to the bound each metric has in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from checks import REFERENCE_FILE
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n} {v[-1]:.4f}" for n, v in values.items()), flush=True)
    noise = {}
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        noise[name] = {"median": med, "iqr_share": (q3 - q1) / med, "bound": bounds[name],
                       "runs": len(v), "seconds": seconds}
        print(f"{name:12s} median {med:10.4f}  iqr/median {(q3 - q1) / med:.4f}  bound {bounds[name]}")
    if args.record:
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8")) if REFERENCE_FILE.is_file() else {}
        reference.setdefault("noise", {})[args.workload] = noise
        REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
