"""scripts/lock_outputs.py: one worker run per workload and seed, each
writing its artifacts under OUT/<workload>/seed<s>/.

The workload list is cut down to `ar1_grid`, the quickest of the four."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def lock(monkeypatch):
    # The script puts perfbench/ and scripts/ in front of sys.path; the test
    # gets its own copy of the list, restored afterwards.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("lock_outputs", ROOT / "scripts" / "lock_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "WORKLOADS", {"ar1_grid": module.WORKLOADS["ar1_grid"]})
    return module


def test_one_tree_per_workload_and_seed(lock, tmp_path):
    out = tmp_path / "lock"
    assert lock.main([str(out)]) == 0
    assert sorted(p.relative_to(out).as_posix() for p in out.glob("*/*")) == [
        "ar1_grid/seed1", "ar1_grid/seed3",
    ]
    for seed in (1, 3):
        manifest = json.loads((out / f"ar1_grid/seed{seed}/manifest.json").read_text())
        assert manifest["seed"] == seed
        assert (out / f"ar1_grid/seed{seed}/summary.csv").is_file()


def test_refuses_a_tree_it_did_not_write(lock, tmp_path, capsys):
    (tmp_path / "stale.csv").write_text("")
    assert lock.main([str(tmp_path)]) == 1
    assert "is not empty" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["stale.csv"]


def test_failing_worker_exits_1(lock, monkeypatch, tmp_path, capsys):
    # The worker rejects a workload name it does not know.
    monkeypatch.setattr(lock, "WORKLOADS", {"unknown": lock.WORKLOADS["ar1_grid"]})
    assert lock.main([str(tmp_path / "lock")]) == 1
    assert "unknown at seed 1 exited 2" in capsys.readouterr().err
