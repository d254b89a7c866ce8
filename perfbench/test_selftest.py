"""Self-test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_selftest.py

Runs every workload at a tiny size through the same child interpreter and
checks as run.py, shows that each check rejects a corrupted output, that
tracing changes no stdout byte, and that run.py refuses to run outside a
checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import TINY_BATCHES, WORKLOADS  # noqa: E402

REFS = json.loads((HERE / "reference.json").read_text())


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each tiny batch run once untraced and once traced."""
    runner = run.Runner(tmp_path_factory.mktemp("work"), time.monotonic() + 300)
    return {
        name: (runner.child(batch, trace=False), runner.child(batch, trace=True))
        for name, batch in TINY_BATCHES.items()
    }


@pytest.mark.parametrize("name", sorted(TINY_BATCHES))
def test_tiny_workload_passes_its_checks(tiny_runs, name):
    for result in tiny_runs[name]:
        attempted, failed, messages = run.check_batch(
            WORKLOADS[name], TINY_BATCHES[name], result, REFS
        )
        assert attempted >= len(TINY_BATCHES[name])
        assert failed == 0, messages
        assert result["setup_s"] > 0 and result["wall_s"] > 0 and result["peak_rss_mb"] > 0


@pytest.mark.parametrize("name", sorted(TINY_BATCHES))
def test_tracing_changes_no_stdout_byte(tiny_runs, name):
    plain, traced = tiny_runs[name]
    assert [c["stdout"] for c in plain["calls"]] == [c["stdout"] for c in traced["calls"]]


def test_tracer_sees_calls_through_copied_bindings(tiny_runs):
    layers = tiny_runs["factor_large"][1]["layers"]
    calls = len(TINY_BATCHES["factor_large"])
    assert layers["cli.main.calls"] == calls
    # cli, roots and scan call these through `from .x import f` copies
    assert layers["factorize.factor_coxeter.calls"] == calls
    assert layers["roots.certify_tree.calls"] == calls
    assert layers["roots.dominant_root.calls"] >= calls
    assert layers["intpoly.mul.calls"] > 0 and layers["intpoly.sign_at.calls"] > 0
    assert layers["cyclotomic.cyclotomic.misses"] > 0
    assert 0 < layers["factorize.sieve.exact_div_hit_ratio"] <= 1
    scan_layers = tiny_runs["scan"][1]["layers"]
    assert scan_layers["cyclotomic.divides_coxeter.calls"] == 5 * 24
    assert scan_layers["roots.dominant_root.calls"] == 0


def _check_one(name, stdout):
    argv = TINY_BATCHES[name][0]
    return WORKLOADS[name].check(argv, {"rc": 0, "stdout": stdout, "error": None}, REFS)


def test_flipped_tau_digit_fails(tiny_runs):
    out = tiny_runs["precision"][0]["calls"][0]["stdout"]
    lines = out.split("\n")
    arms, tau, limit, gap = lines[1].split(",")
    digit = tau[-7]
    lines[1] = ",".join([arms, tau[:-7] + str((int(digit) + 1) % 10) + tau[-6:], limit, gap])
    attempted, failed, _ = _check_one("precision", "\n".join(lines))
    assert (attempted, failed) == (2, 1)


def test_dropped_cyclotomic_factor_fails(tiny_runs):
    doc = json.loads(tiny_runs["factor_large"][0]["calls"][0]["stdout"])
    assert doc["cyclotomic"], "Phi_3 divides R_T of T(3,4,9)"
    doc["cyclotomic"] = doc["cyclotomic"][1:]
    attempted, failed, _ = _check_one("factor_large", json.dumps(doc))
    assert (attempted, failed) == (1, 1)


def test_altered_csv_row_fails(tiny_runs):
    out = tiny_runs["scan"][0]["calls"][0]["stdout"]
    lines = out.split("\n")
    row = lines[7].split(",")
    row[5] = "0" if row[5] == "1" else "1"
    lines[7] = ",".join(row)
    attempted, failed, _ = _check_one("scan", "\n".join(lines))
    assert (attempted, failed) == (5, 1)


def test_wrong_grid_count_and_exceptions_fail(tiny_runs):
    summary = json.loads(tiny_runs["grid"][0]["calls"][0]["stdout"])
    summary["bridge_pass"] -= 1
    summary["bridge_fail"] += 1
    summary["failures"] = [{"arms": [2, 3, 7], "check": "lambda_tau_bridge"}]
    attempted, failed, _ = _check_one("grid", json.dumps(summary))
    assert attempted > 0 and failed == 1
    for name, batch in TINY_BATCHES.items():
        crashed = {"rc": None, "stdout": "", "error": "Traceback ...\nNonConvergence: x"}
        attempted, failed, _ = WORKLOADS[name].check(batch[0], crashed, REFS)
        assert failed == attempted > 0


def test_run_prints_checked_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
    assert "fail_ratio" in proc.stdout


def test_run_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
