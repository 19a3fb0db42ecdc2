"""Self-test of the end-to-end harness on 4x4 shapes.

Run with ``pytest benchmarks/e2e`` (tier-1 collects ``tests/`` only). Two
full ``--smoke`` passes take about half a minute together.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"] + SPEC["per_layer"]


def smoke(out: Path) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout
    return proc.stdout


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    first, second = base / "first.json", base / "second.json"
    stdout = smoke(first)
    smoke(second)
    return stdout, first, second


def test_names_are_well_formed():
    names = [m["name"] for m in METRICS] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_every_metric_is_printed_with_its_unit(two_runs):
    stdout, first, _ = two_runs
    for m in METRICS:
        pattern = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$"
        assert re.search(pattern, stdout, re.MULTILINE), m["name"]
    assert "failed_ops_ratio" in stdout
    report = json.loads(first.read_text())
    assert set(report["workloads"]) == set(workloads.WORKLOADS)
    for key in ("git", "seed", "host", "nproc"):
        assert key in report["provenance"]
    env = report["workloads"]["metro_8x8_b4"]["env"]
    assert env["pins"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"python", "numpy", "scipy", "openblas"} <= set(env)


def test_exact_counts_repeat(two_runs):
    _, first, second = two_runs
    a, b = (json.loads(p.read_text())["workloads"] for p in (first, second))
    for name in workloads.WORKLOADS:
        exact = a[name]["exact"]
        assert exact == b[name]["exact"], name
        for key in ("dqmc.sweep.proposals", "linalg.flops.total_gflop",
                    "backends.gpu_sim.model_s", "g_rel_err"):
            assert key in exact
    # instrumentation must not perturb the chain, so neither its counts
    assert (a["observed_8x8_b4"]["exact"]["dqmc.sweep.accept_ratio"]
            == a["metro_8x8_b4"]["exact"]["dqmc.sweep.accept_ratio"])


def test_compare_prints_one_row_per_metric_and_workload(two_runs, capsys):
    _, first, second = two_runs
    status = compare.main([str(first), str(second)])
    rows = capsys.readouterr().out
    assert status in (0, 1)  # one-second smoke runs are too short to agree
    for name in workloads.WORKLOADS:
        for m in SPEC["end_to_end"]:
            assert re.search(rf"^{name}\s+{m['name']}\s.*base A", rows, re.MULTILINE)
        assert re.search(rf"^{name}\s+exact counts\s+identical", rows, re.MULTILINE)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.2 for x in steady], True, 0.1)[0] == "worse"
    assert compare.verdict(steady, [x * 0.8 for x in steady], True, 0.1)[0] == "better"
    assert compare.verdict(steady, steady, True, 0.1)[0] == "same"
    assert compare.verdict(steady, [x * 0.8 for x in steady], False, 0.1)[0] == "worse"
    noisy = [100.0, 140.0, 80.0, 120.0, 90.0]
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], True, 0.1)[0] == "unresolved"


def test_failed_check_makes_the_command_fail(monkeypatch, capsys):
    monkeypatch.setitem(workloads.G_REL_ERR_CEILING, "full64", 1e-30)
    status = run.main(["--smoke", "--workload", "metro_8x8_b4", "--seed", "5"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "metro_8x8_b4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
