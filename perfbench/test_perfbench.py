"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout with ``python3 -m pytest perfbench``;
they are not part of the package's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cli_work  # noqa: E402
import run  # noqa: E402
import sim_work  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sim-bigblock": dict(num_txs=300, num_shards=1, num_nodes=8, parallelism=1),
    "cli-chain": dict(cli_work.WORKLOADS["cli-chain"], height=6, accounts=12, setups=1, cold_queries=2),
}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, params in TINY.items():
        module = cli_work if name in cli_work.WORKLOADS else sim_work
        monkeypatch.setitem(module.WORKLOADS, name, params)


def bench(capsys, workload: str, seed: int, trace: int) -> dict:
    assert run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    info = json.loads(lines[-2].removeprefix("info "))
    assert info["seed"] == seed and info["params"] == TINY[workload]
    assert info["load_model"] == "closed loop, one client"
    assert {"nproc", "python", "commit", "samples"} <= set(info)
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(capsys, workload, 5, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in SPEC[key]
        }
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        else:
            assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_every_layer_metric_is_measured_somewhere(capsys):
    """Each per-layer metric reads nonzero on at least one workload."""
    measured = set()
    for workload in WORKLOADS:
        metrics = bench(capsys, workload, 6, 1)["metrics"]
        measured |= {name for name, m in metrics.items() if m["value"]}
    unused = {m["name"] for m in SPEC["per_layer"]} - measured
    # Every transfer changes both accounts it touches, so no workload
    # makes an unchanged write; the ratio is there for one that does.
    assert unused == {"shard_dht.ShardTable.write_account.unchanged_ratio"}, unused


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_one_seed(capsys, workload):
    first, second = (bench(capsys, workload, 7, 1)["metrics"] for _ in range(2))
    counted = [n for n in first if n.endswith((".calls", "disk_bytes_per_tx", "blocks_read"))]
    assert counted
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}


def test_tampered_cli_root_is_counted(capsys, monkeypatch):
    real = cli_work.replay

    def tampered(plan):
        expected = real(plan)
        expected.roots[2] = "00" * 32
        return expected

    monkeypatch.setattr(cli_work, "replay", tampered)
    result = bench(capsys, "cli-chain", 5, 0)
    assert result["failed"] == 1 and not result["correct"]


def test_tampered_sim_root_is_counted(capsys, monkeypatch):
    real = sim_work.run_experiment
    calls = []

    def tampered(config):
        report = real(config)
        calls.append(config)
        if len(calls) == 2:
            report.final_state_root = bytes(32)
        return report

    monkeypatch.setattr(sim_work, "run_experiment", tampered)
    result = bench(capsys, "sim-bigblock", 5, 1)
    assert result["failed"] == 1 and not result["correct"]


def test_same_wrong_root_on_every_call_is_counted(capsys, monkeypatch):
    """A write path that deterministically gives a wrong root fails the
    comparison with the library replay on every call."""
    real = sim_work.run_experiment

    def wrong(config):
        report = real(config)
        report.final_state_root = bytes(32)
        return report

    monkeypatch.setattr(sim_work, "run_experiment", wrong)
    result = bench(capsys, "sim-bigblock", 5, 1)
    assert result["failed"] == 2 and not result["correct"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark it exits nonzero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
