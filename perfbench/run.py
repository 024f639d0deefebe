"""gqsbnet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bloc-certify --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  It generates the workload's inputs from the seed, starts a
fresh worker process for the workload, and prints, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it holds the details behind those numbers.
With ``--trace 0`` the metrics are end to end, measured untraced; with
``--trace 1`` they are per layer, from a traced run.  See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every process started from here:
# the sweep already runs one pool worker per core, so more BLAS threads
# would oversubscribe the cores.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Set-up is timed this many times per run (each in a fresh worker); the
# median is reported.
SETUPS = 3
WORK_DIR = ".perfbench-work"
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _env(src: Path) -> dict:
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _spawn(plan_path: Path, env: dict):
    """Start a worker and wait for its warm-up; returns it and the set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, seconds


def _finish(proc, command: str, timeout: float) -> str:
    try:
        out, _ = proc.communicate(command + "\n", timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def _tail(times: list) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten ops above it.

    With fewer than twenty ops no such percentile reaches the median, and
    the median is reported as the tail, with percentile 50.
    """
    times = sorted(times)
    rank = len(times) - 10
    if rank >= 1 and 2 * rank >= len(times):
        return times[rank - 1], 100.0 * rank / len(times)
    return statistics.median(times), 50.0


def run_timed(plan_path: Path, plan: dict, env: dict, started: float) -> tuple[dict, dict]:
    setups = []
    for k in range(SETUPS):
        proc, seconds = _spawn(plan_path, env)
        setups.append(seconds)
        if k < SETUPS - 1:
            _finish(proc, "exit", 30.0)
    out = _finish(proc, "run", RUN_LIMIT_S - (time.perf_counter() - started))
    result = json.loads(out.strip().splitlines()[-1])
    recs = result["records"]
    times = [r["t"] for r in recs]
    ok = [r for r in recs if r["ok"]]
    tail, pct = _tail(times)
    cli = plan["warmup"]["kind"] == "cli"
    rss_kb = max(r["rss_kb"] for r in recs) if cli else result["self_rss_kb"]
    failed = len(recs) - len(ok)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "scenarios_per_s": (sum(r["scenarios"] for r in ok) / sum(times), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    detail = {
        "ops": len(recs),
        "op_tail_percentile": pct,
        "op_tail_samples": len(recs),
        "failed_ratio": failed / len(recs),
        "setup_samples_s": setups,
        "peak_rss_of": "CLI child processes (wait4)" if cli else "workload process",
        "errors": [r["error"] for r in recs if not r["ok"]][:3],
    }
    summary = {"correct": failed == 0, "attempted": len(recs), "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return summary, detail


def run_traced(plan_path: Path, env: dict, started: float) -> tuple[dict, dict]:
    proc, _ = _spawn(plan_path, env)
    out = _finish(proc, "run", RUN_LIMIT_S - (time.perf_counter() - started))
    result = json.loads(out.strip().splitlines()[-1])
    summary = {"correct": result["failed"] == 0, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": result.pop("metrics")}
    result["failed_ratio"] = result["failed"] / result["attempted"]
    return summary, result


def main(argv=None, sizes=workloads.FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "gqsbnet" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'gqsbnet'}; run from a checkout root",
              file=sys.stderr)
        return 1
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.build_plan(args.workload, args.seed, work, src, sizes)
        plan.update(seconds=args.seconds, trace=args.trace,
                    spans_out=str(work.parent / f"spans-{args.workload}-{args.seed}.jsonl"))
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        env = _env(src)
        if args.trace:
            summary, detail = run_traced(plan_path, env, started)
        else:
            summary, detail = run_timed(plan_path, plan, env, started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": BLAS_PINS, **detail}
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
