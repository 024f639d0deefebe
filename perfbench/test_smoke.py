"""Smoke test of the benchmark at tiny sizes, every workload, both modes.

    python3 -m pytest perfbench/test_smoke.py -q

Highland keeps its real size (the dataset is fixed), so one of its ops
still takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "highland-default": {"gammas": [2.0, 3.0], "ops": 2, "trace_ops": 1},
    "bloc-certify": {"n": 60, "ops": 8, "trace_ops": 8, "warm_n": 30},
    "bloc-sweep": {"n": 40, "gammas": [1.5, 3.0], "ops": 2, "trace_ops": 1, "warm_n": 30},
    "large-classify": {"n": 3000, "m": 9000, "p": 8, "ops": 2, "trace_ops": 2, "warm_n": 300},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 3, seconds: float = 1.0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)], sizes=TINY)
    assert code == 0
    detail, summary = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return detail, summary


@pytest.fixture(scope="module", autouse=True)
def _at_root():
    cwd = os.getcwd()
    os.chdir(ROOT)
    yield
    os.chdir(cwd)


@pytest.fixture(scope="module")
def traced():
    return {w: _run(w, 1) for w in workloads.WORKLOADS}


def _assert_metrics(summary: dict, spec: list):
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    detail, summary = _run(workload, 0)
    _assert_metrics(summary, SPEC["end_to_end"])
    assert detail["failed_ratio"] == 0.0
    assert detail["op_tail_samples"] == summary["attempted"]
    assert detail["blas_threads"] == {k: "1" for k in
                                      ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    assert all(v["value"] > 0 for v in summary["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_printed(traced, workload):
    detail, summary = traced[workload]
    _assert_metrics(summary, SPEC["per_layer"])
    assert detail["missing"] == []
    assert summary["metrics"]["trace_overhead_ratio"]["value"] > 0


def test_exact_counts_at_this_commit(traced):
    per = {w: traced[w][0]["per_scenario"] for w in workloads.WORKLOADS}
    assert set(per["highland-default"]["eigh_calls"].values()) == {4}
    plan_kinds = [workloads.CERTIFY_MIX[k % len(workloads.CERTIFY_MIX)] for k in range(8)]
    certify = per["bloc-certify"]["eigh_calls"]
    assert [certify[f"op{k}"] for k in range(8)] == [
        6 if kind == gen.POLARIZING else 3 for kind in plan_kinds]
    sweep = per["bloc-sweep"]["eigh_calls"]
    assert sweep == {f"op0/g{g}": 3 for g in range(2)}
    assert set(per["large-classify"]["components_calls"].values()) == {5}
    assert traced["highland-default"][1]["metrics"]["dynamics.rk4_steps"]["value"] > 100_000


def test_counts_repeat_between_runs(traced):
    again = _run("bloc-sweep", 1)
    for name in ("spectral.eigh_calls", "dynamics.rk4_steps", "signed_graph.components_calls",
                 "fileio.bytes_rendered"):
        assert again[1]["metrics"][name] == traced["bloc-sweep"][1]["metrics"][name]


def test_wrong_expected_verdict_counts_as_failure(tmp_path):
    plan = workloads.build_plan("bloc-certify", 5, tmp_path, ROOT / "src", TINY)
    plan["ops"][0]["expect"]["verdict"] = gen.DIVERGENCE
    plan.update(seconds=1.0, trace=0)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    summary, detail = run.run_timed(plan_path, plan, run._env(ROOT / "src"), time.perf_counter())
    assert summary["correct"] is False
    assert summary["failed"] >= 1 and detail["failed_ratio"] > 0
    assert "verdict" in detail["errors"][0]


def test_refuses_outside_a_checkout(tmp_path, capsys):
    os.chdir(tmp_path)
    try:
        code = run.main(["--workload", "bloc-certify", "--seed", "1", "--seconds", "1"])
    finally:
        os.chdir(ROOT)
    assert code != 0
    assert capsys.readouterr().out == ""
