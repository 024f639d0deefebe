"""One workload process: set up, warm up, then run the plan's ops.

Started by ``run.py`` with the plan file as its argument.  After the
warm-up op it prints ``ready`` and waits for one line on stdin: ``run``
starts the closed loop (one client, the next op only after the previous
one is checked), anything else ends the process, so ``run.py`` can time
set-up several times.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def _import_package(src: Path) -> None:
    sys.path.insert(0, str(src))
    import gqsbnet

    if Path(gqsbnet.__file__).resolve().parent != (src / "gqsbnet").resolve():
        raise SystemExit(f"imported gqsbnet from {gqsbnet.__file__}, not from {src}")


def timed_loop(plan: dict, seconds: float, in_process: bool) -> dict:
    """Closed loop over the op list: a new op starts while less than
    ``seconds`` of op time has been spent, so the last one may overrun."""
    import workloads

    work = Path(plan["work"])
    ops = plan["ops"]
    records = []
    spent = 0.0
    while spent < seconds:
        op = ops[len(records) % len(ops)]
        res = workloads.execute(op, work, in_process)
        err = workloads.check(op, res)
        records.append({"t": res.seconds, "ok": err is None, "scenarios": op["scenarios"],
                        "rss_kb": res.rss_kb, "error": err})
        spent += res.seconds
    return {"records": records, "self_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _startup_s(src: Path, samples: int = 5) -> float:
    """Median wall time of a fresh interpreter running ``import gqsbnet``."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gqsbnet"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_run(plan: dict) -> dict:
    """Run the first ``trace_ops`` ops untraced, then again traced.

    Both passes run in this process, CLI ops through ``gqsbnet.cli.main``.
    Sweep ops also replay each gamma through ``run_pipeline``, because the
    sweep's own workers are child processes the tracer cannot see.
    """
    import spans
    import workloads

    work = Path(plan["work"])
    ops = [plan["ops"][k % len(plan["ops"])] for k in range(plan["trace_ops"])]
    tracer = spans.Tracer()
    errors = []
    wall = []
    for traced in (False, True):
        if traced:
            tracer.install()
        total = 0.0
        try:
            for k, op in enumerate(ops):
                tracer.scenario = f"op{k}"
                t0 = time.perf_counter()
                res = workloads.execute(op, work, in_process=True)
                err = workloads.check(op, res)
                if op["kind"] == "cli" and op["argv"][0] == "sweep":
                    for g, gamma in enumerate(op["expect"]["gammas"]):
                        tracer.scenario = f"op{k}/g{g}"
                        replayed = workloads.replay(op, gamma)
                        err = err or replayed
                total += time.perf_counter() - t0
                errors.append(err)
        finally:
            tracer.uninstall()
        wall.append(total)
    spans.write(tracer, Path(plan["spans_out"]))
    metrics = spans.layer_metrics(tracer, lambda scenario: scenario.split("/")[0])
    metrics["cli.startup_s"] = (_startup_s(Path(plan["src"])), "s")
    metrics["trace_overhead_ratio"] = (wall[1] / wall[0], "ratio")
    per_scenario = {}
    for s in tracer.spans:
        if s.name in (spans.EIGH, "signed_graph.connected_components"):
            key = "eigh_calls" if s.name == spans.EIGH else "components_calls"
            per_scenario.setdefault(key, {}).setdefault(s.scenario, 0)
            per_scenario[key][s.scenario] += 1
    failed = [e for e in errors if e]
    return {
        "attempted": len(errors),
        "failed": len(failed),
        "errors": failed[:3],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_scenario": per_scenario,
        "never_called": tracer.never_called(),
        "missing": tracer.missing,
        "trace_ops": len(ops),
        "spans_file": plan["spans_out"],
    }


def main(argv) -> int:
    import workloads

    plan = json.loads(Path(argv[0]).read_text())
    trace_mode = bool(plan["trace"])
    in_process = trace_mode or plan["warmup"]["kind"] != "cli"
    if in_process:
        _import_package(Path(plan["src"]))
    warm = plan["warmup"]
    err = workloads.check(warm, workloads.execute(warm, Path(plan["work"]), in_process))
    if err:
        print(f"warm-up op failed: {err}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    if trace_mode:
        result = traced_run(plan)
    else:
        result = timed_loop(plan, plan["seconds"], in_process)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
