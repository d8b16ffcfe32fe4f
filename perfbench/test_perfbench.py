"""Tests of the benchmark itself, at a tiny batch size.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--trace", str(trace), "--tiny")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = proc.stdout.splitlines()
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(metric["name"] + " ") and
                   line.split()[2] == metric["unit"] for line in printed)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def tiny_session_digests(seed):
    ops = workloads.make_inputs("session", seed, "tiny")
    outputs, _, errors = workloads.run_batch("session", ops)
    assert not errors and not workloads.check_batch("session", ops, outputs)
    return workloads.digests("session", outputs)


def test_recorded_digests_are_compared_and_a_corrupted_one_fails_one_operation(
        tmp_path, monkeypatch, capsys):
    good = tiny_session_digests(7)
    step = workloads.DIGEST_HEX
    flipped = "0" * step if good[3 * step:4 * step] != "0" * step else "1" * step
    bad = good[:3 * step] + flipped + good[4 * step:]
    path = tmp_path / "expected.json"
    monkeypatch.setattr(run, "EXPECTED", str(path))
    for digests, failed_per_run in ((good, 0), (bad, 1)):
        path.write_text(json.dumps({"session:tiny": {"7": digests}}))
        code = run.main(["--workload", "session", "--seed", "7", "--seconds", "1",
                         "--trace", "0", "--tiny"])
        out = capsys.readouterr().out
        assert code == 0
        result = json.loads(out.strip().splitlines()[-1])
        n_runs = result["attempted"] // workloads.SESSION_QUERIES["tiny"]
        assert result["failed"] == failed_per_run * n_runs
        assert result["correct"] is (failed_per_run == 0)
        assert "hashes against the recorded ones" in out


def test_a_failed_suite_counts_in_every_run_not_only_the_checked_one():
    # suite 2 reports FAIL and suite 5 raised; every run, checked or not,
    # reports both
    ops = workloads.make_inputs("verify", 1, "tiny")
    outputs = [SimpleNamespace(passed=n != 2) for n in range(len(ops))]
    outputs[5] = None
    assert workloads.missing_or_failed("verify", outputs) == {2, 5}
    assert workloads.check_batch("verify", ops, outputs) == {2, 5}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "session", "--seed", "1", "--trace", "0",
                     cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_run_is_scaled_to_reference_seconds_by_its_speed_samples():
    # the run's samples were twice the reference time; the second
    # operation's own samples were four times it
    ref = run.REF_SPEED_S
    result = {"speed_s": 2 * ref, "op_speed_s": [2 * ref, 4 * ref], "wall_s": 4.5,
              "setup_s": 0.2, "op_s": [1.0, 3.0], "spans": {"diffops.compose": [7, 0.5]}}
    run.to_reference(result)
    assert result["raw_wall_s"] == 4.5 and result["factor"] == 0.5
    assert (result["wall_s"], result["setup_s"], result["op_s"]) == (1.5, 0.1, [0.5, 0.75])
    assert result["spans"] == {"diffops.compose": [7, 0.25]}
