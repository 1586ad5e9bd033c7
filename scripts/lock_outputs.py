#!/usr/bin/env python3
"""Write every benchmark workload's artifacts, the behaviour lock, under one directory.

    python scripts/lock_outputs.py OUT

For each workload of `perfbench/workloads.py` at seeds 1 and 3, one
`perfbench/worker.py --out` run writes its artifacts to
`OUT/<workload>/seed<s>/`. Run it in two checkouts and compare the trees
with `diff -r`: a change that keeps the behaviour leaves them identical.
OUT must be new or empty, so no stale file enters the comparison.
Children get this checkout's `src` first on PYTHONPATH, as in
`scripts/ci.py`; their inputs and reports go to a temporary directory.
The exit status is 0 when every worker succeeds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]

from ci import _run  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SEEDS = (1, 3)


def lock(out: Path) -> int:
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix="seqbet-lock-") as tmp:
                work = Path(tmp)
                write_inputs(workload, seed, work)
                done = _run([sys.executable, ROOT / "perfbench" / "worker.py",
                             "--workload", name, "--seed", seed, "--work", work,
                             "--report", work / "report.json", "--out", out / name / f"seed{seed}"])
            if done.returncode:
                print(f"error: {name} at seed {seed} exited {done.returncode}", file=sys.stderr)
                return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path)
    return lock(parser.parse_args(argv).out.resolve())


if __name__ == "__main__":
    sys.exit(main())
