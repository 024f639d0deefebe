"""The four workloads: their inputs, their op lists, and the output checks.

An op is a plain dict so the plan can travel to the worker as JSON.  CLI
ops run the ``gqsbnet`` entry point, in a child process when timed and
through ``gqsbnet.cli.main`` when traced; ``certify`` ops are library
calls.  Each op's output is checked against the oracle in ``gen`` after
its timed interval ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

WORKLOADS = ("highland-default", "bloc-certify", "bloc-sweep", "large-classify")

# Sizes the benchmark runs at.  ``ops`` is the number of distinct inputs
# generated (the timed loop cycles over them); ``trace_ops`` is how many
# of them the traced run replays, fixed so its counts repeat exactly.
FULL = {
    "highland-default": {"gammas": [1.5, 2.0, 2.5, 3.0, 4.0], "ops": 10, "trace_ops": 2},
    "bloc-certify": {"n": 800, "ops": 24, "trace_ops": 8, "warm_n": 100},
    "bloc-sweep": {"n": 500, "gammas": [1.25, 1.5, 2.0, 3.0, 4.0, 6.0], "ops": 12,
                   "trace_ops": 1, "warm_n": 60},
    "large-classify": {"n": 30000, "m": 150000, "p": 8, "ops": 4, "trace_ops": 2,
                       "warm_n": 2000},
}

# One cycle of bloc-certify verdicts: a minority of divergent and
# disconnected networks, so op_p50_s and op_tail_s land on polarizing ops.
CERTIFY_MIX = [gen.POLARIZING, gen.DIVERGENCE, gen.POLARIZING, gen.POLARIZING,
               gen.INCONCLUSIVE, gen.POLARIZING, gen.POLARIZING, gen.POLARIZING]

CLI_BOOT = "from gqsbnet.cli import entry; entry()"
OP_TIMEOUT_S = 60.0


def _save_oracle(path: Path, net: gen.Network, **extra) -> str:
    np.savez(path, i=net.i, j=net.j, w=net.w, side1=net.side1, **extra)
    return str(path)


def _load_oracle(path: str) -> tuple[gen.Network, dict]:
    with np.load(path) as z:
        data = {k: z[k] for k in z.files}
    net = gen.Network(int(data["side1"].size), data["i"], data["j"], data["w"],
                      data["side1"], -1)
    return net, data


def _highland(rng, work: Path, src: Path, size: dict) -> dict:
    net = gen.highland(src / "gqsbnet" / "data" / "highland_tribes.txt")
    oracle = _save_oracle(work / "highland.npz", net)
    expect = {"exit": 0, "verdict": gen.verdict(net)[0], "oracle": oracle, "outcome": True}

    def report(gamma, seed, *extra):
        argv = ["report", "--network", "highland", "--dominant", "0",
                "--gamma", repr(gamma), "--seed", str(seed), *extra]
        return {"kind": "cli", "argv": argv, "scenarios": 1,
                "expect": {**expect, "gamma": gamma}}

    gammas = size["gammas"]
    seeds = rng.integers(0, 2**31, size["ops"])
    ops = [report(gammas[k % len(gammas)], int(s)) for k, s in enumerate(seeds)]
    # The warm-up takes the default step too, over a horizon short enough
    # that it stops after a few thousand steps without converging.
    warm = report(gammas[0], 0, "--tmax", "0.05")
    warm["expect"] = {"exit": 0, "verdict": expect["verdict"], "gamma": gammas[0]}
    return {"warmup": warm, "ops": ops}


def _certify_op(rng, work: Path, tag: str, n: int, kind: str, gamma: float) -> dict:
    net, _ = gen.draw_two_bloc(rng, n, kind)
    path = work / f"{tag}.txt"
    gen.write(net, path)
    x0 = rng.uniform(-1.0, 1.0, n)
    oracle = _save_oracle(work / f"{tag}.npz", net, x0=x0)
    return {"kind": "certify", "network": str(path), "dominant": net.dominant,
            "gamma": gamma, "scenarios": 1,
            "expect": {"verdict": kind, "oracle": oracle, "gamma": gamma}}


def _bloc_certify(rng, work: Path, src: Path, size: dict) -> dict:
    ops = [_certify_op(rng, work, f"net{k}", size["n"], CERTIFY_MIX[k % len(CERTIFY_MIX)],
                       2.0 + 0.5 * (k % 3))
           for k in range(size["ops"])]
    warm = _certify_op(rng, work, "warm", size["warm_n"], gen.POLARIZING, 2.0)
    return {"warmup": warm, "ops": ops}


def _sweep_op(rng, work: Path, tag: str, n: int, gammas) -> dict:
    net, radius = gen.draw_two_bloc(rng, n, gen.POLARIZING)
    path = work / f"{tag}.txt"
    gen.write(net, path)
    # RK4 is stable on the real spectrum up to about 2.78 / radius.
    dt = 1.0 / radius
    out = work / f"{tag}.out"
    argv = ["sweep", "--network", str(path), "--dominant", str(net.dominant),
            "--gammas", ",".join(repr(g) for g in gammas), "--dt", repr(dt),
            "--seed", str(int(rng.integers(0, 2**31))), "--out", str(out)]
    oracle = _save_oracle(work / f"{tag}.npz", net)
    return {"kind": "cli", "argv": argv, "scenarios": len(gammas), "out": str(out),
            "expect": {"exit": 0, "verdict": gen.POLARIZING, "oracle": oracle,
                       "gammas": list(gammas), "outcome": True}}


def _bloc_sweep(rng, work: Path, src: Path, size: dict) -> dict:
    gammas = size["gammas"]
    ops = [_sweep_op(rng, work, f"net{k}", size["n"], gammas) for k in range(size["ops"])]
    warm = _sweep_op(rng, work, "warm", size["warm_n"], gammas[:2])
    return {"warmup": warm, "ops": ops}


def _classify_op(rng, work: Path, tag: str, n: int, m: int, p: int) -> dict:
    net = gen.blocs(rng, n, m, p)
    labels = gen.cooperative_labels(n, net.i, net.j, net.w)
    if labels.max() + 1 != p:
        raise RuntimeError(f"{tag}: generator gave {labels.max() + 1} blocs, wanted {p}")
    path = work / f"{tag}.txt"
    gen.write(net, path)
    # Three or more cooperative components admit several antagonistic
    # splits, which is generalized quasi-balance.
    return {"kind": "cli", "argv": ["classify", "--network", str(path)], "scenarios": 1,
            "expect": {"exit": 0, "classification": "GQSB", "p": p,
                       "bipartition_count": 2 ** (p - 1) - 1}}


def _large_classify(rng, work: Path, src: Path, size: dict) -> dict:
    ops = [_classify_op(rng, work, f"net{k}", size["n"], size["m"], size["p"])
           for k in range(size["ops"])]
    warm = _classify_op(rng, work, "warm", size["warm_n"], 4 * size["warm_n"], size["p"])
    return {"warmup": warm, "ops": ops}


BUILDERS = {
    "highland-default": _highland,
    "bloc-certify": _bloc_certify,
    "bloc-sweep": _bloc_sweep,
    "large-classify": _large_classify,
}


def build_plan(workload: str, seed: int, work: Path, src: Path, sizes=FULL) -> dict:
    """Generate every input of one run and the op list that uses them."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    plan = BUILDERS[workload](rng, work, src, sizes[workload])
    plan.update(workload=workload, seed=seed, src=str(src), work=str(work),
                trace_ops=sizes[workload]["trace_ops"])
    return plan


# ---------------------------------------------------------------- running


@dataclass
class Outcome:
    """What one op left behind: exit code, stdout text, library values."""

    code: int | None = None
    stdout: str = ""
    value: object = None
    rss_kb: int = 0
    error: str | None = None
    seconds: float = 0.0


@contextlib.contextmanager
def _alarm(seconds: float):
    def fire(signum, frame):
        raise TimeoutError(f"op exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _child(argv, work: Path) -> Outcome:
    """Run the CLI entry point in a fresh interpreter.  Its peak RSS comes
    from ``wait4``, so it covers the pool workers the child reaped."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        # its own session, so a timeout can kill the pool workers with it
        proc = subprocess.Popen([sys.executable, "-c", CLI_BOOT, *argv],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                start_new_session=True)
        status, usage = _wait4(proc.pid, OP_TIMEOUT_S)
    # reaped here, so Popen must not wait for it again
    proc.returncode = -9 if status is None else os.waitstatus_to_exitcode(status)
    if status is None:
        return Outcome(error=f"op exceeded {OP_TIMEOUT_S:.0f} s")
    stderr = err_path.read_text().strip()[-400:]
    return Outcome(code=proc.returncode, stdout=out_path.read_text(), rss_kb=usage.ru_maxrss,
                   error=None if proc.returncode in (0, 2) else stderr or "no message")


def _wait4(pid: int, timeout: float):
    deadline = time.monotonic() + timeout
    delay = 0.0005
    while True:
        got, status, usage = os.wait4(pid, os.WNOHANG)
        if got:
            return status, usage
        if time.monotonic() > deadline:
            os.killpg(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            return None, None
        time.sleep(delay)
        delay = min(delay * 2, 0.01)


def _in_process(argv) -> Outcome:
    from gqsbnet import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _alarm(OP_TIMEOUT_S):
        code = cli.main(list(argv))
    stderr = err.getvalue().strip()[-400:]
    return Outcome(code=code, stdout=out.getvalue(),
                   error=None if code in (0, 2) else stderr or "no message")


def _library(op: dict, x0) -> Outcome:
    from gqsbnet import dynamics, fileio, operators, signed_graph, spectral

    with _alarm(OP_TIMEOUT_S):
        g = fileio.load_network(op["network"])
        b = signed_graph.bipartition_from_dominant(g, [op["dominant"]])
        cert = spectral.certify(g, b, op["gamma"])
        final = None
        if cert.verdict.value in (gen.POLARIZING, "Consensus"):
            final = dynamics.predict_final(operators.generalized_laplacian(g, b, op["gamma"]), x0)
        text = fileio.render_json(fileio.certificate_dict(cert))
    return Outcome(value=(text, final))


def execute(op: dict, work: Path, in_process: bool) -> Outcome:
    """Run one op and time it; a failure comes back in ``error``."""
    if op.get("out"):
        shutil.rmtree(op["out"], ignore_errors=True)
    if op["kind"] == "certify":
        with np.load(op["expect"]["oracle"]) as z:
            x0 = z["x0"]
    t0 = time.perf_counter()
    try:
        if op["kind"] == "certify":
            res = _library(op, x0)
        elif in_process:
            res = _in_process(op["argv"])
        else:
            res = _child(op["argv"], work)
    except Exception as exc:  # an op's failure is a measured outcome, not a crash
        res = Outcome(error=f"{type(exc).__name__}: {exc}")
    res.seconds = time.perf_counter() - t0
    return res


# ---------------------------------------------------------------- checks


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def _check_report(doc: dict, expect: dict, gamma: float) -> str | None:
    cert = doc["certificate"]
    if cert["verdict"] != expect["verdict"]:
        return f"verdict {cert['verdict']} != oracle {expect['verdict']}"
    if not expect.get("outcome"):
        return None
    out = doc["outcome"]
    if out is None or out["kind"] != gen.POLARIZING:
        return f"outcome {out and out['kind']} != {gen.POLARIZING}"
    if out["ratio"] is None or not _close(out["ratio"], -gamma, 1e-6):
        return f"outcome ratio {out['ratio']} != -{gamma}"
    net, _ = _load_oracle(expect["oracle"])
    coord = np.where(net.side1, -1.0 / gamma, 1.0)
    mean = float(coord @ np.array(doc["provenance"]["x0"])) / net.n
    if not _close(out["v2_value"], mean, 1e-6, 1e-8):
        return f"gauge-weighted mean {mean} not conserved: side two ends at {out['v2_value']}"
    return None


def _check_final(final, expect: dict) -> str | None:
    net, data = _load_oracle(expect["oracle"])
    gamma = expect["gamma"]
    x0 = data["x0"]
    if final is None:
        return "no predicted final state"
    lap = gen.flow_laplacian(net, gamma)
    scale = np.abs(lap).sum(axis=1).max() * max(1.0, float(np.abs(final).max()))
    if float(np.abs(lap @ final).max()) > 1e-9 * scale:
        return "predicted final state is not stationary: L x != 0"
    coord = np.where(net.side1, -1.0 / gamma, 1.0)
    if not _close(float(coord @ final), float(coord @ x0), 1e-9, 1e-12 * net.n):
        return "predicted final state breaks the gauge-weighted sum"
    v1, v2 = float(final[net.side1].mean()), float(final[~net.side1].mean())
    if not _close(v1, -gamma * v2, 1e-9, 1e-15):
        return f"side means {v1}, {v2} are not in ratio -{gamma}"
    return None


def check(op: dict, res: Outcome) -> str | None:
    """Compare one op's outputs with the oracle; a message on mismatch."""
    if res.error is not None:
        return res.error
    try:
        return _check(op, res)
    except (ValueError, KeyError, TypeError) as exc:  # output that does not parse
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check(op: dict, res: Outcome) -> str | None:
    expect = op["expect"]
    if op["kind"] == "certify":
        text, final = res.value
        doc = json.loads(text)
        if doc["verdict"] != expect["verdict"]:
            return f"verdict {doc['verdict']} != oracle {expect['verdict']}"
        if not _close(doc["gamma"], expect["gamma"], 1e-15):
            return f"certificate gamma {doc['gamma']} != {expect['gamma']}"
        if expect["verdict"] == gen.POLARIZING:
            return _check_final(final, expect)
        return None if final is None else "predicted a final state for a non-polarizing verdict"
    if res.code != expect["exit"]:
        return f"exit code {res.code} != {expect['exit']}"
    if "classification" in expect:
        doc = json.loads(res.stdout)
        for key in ("classification", "p", "bipartition_count"):
            if doc[key] != expect[key]:
                return f"{key} {doc[key]} != {expect[key]}"
        return None
    if "gammas" in expect:
        for gamma in expect["gammas"]:
            tag = format(gamma, "g").replace(".", "p")
            path = Path(op["out"]) / f"report_gamma_{tag}.json"
            if not path.is_file():
                return f"sweep wrote no {path.name}"
            err = _check_report(json.loads(path.read_text()), expect, gamma)
            if err:
                return f"gamma {gamma}: {err}"
        return None
    return _check_report(json.loads(res.stdout), expect, expect["gamma"])


def replay(op: dict, gamma: float) -> str | None:
    """Run one gamma of a sweep op through ``run_pipeline`` in process, as
    the sweep's workers do, so the traced run sees their layers; returns
    the check's message on a mismatch."""
    from gqsbnet import fileio

    arg = dict(zip(op["argv"][1::2], op["argv"][2::2]))
    config = fileio.ScenarioConfig(
        network_path=arg["--network"], dominant_nodes=(int(arg["--dominant"]),),
        gamma=gamma, seed=int(arg["--seed"]), dt=float(arg["--dt"]))
    try:
        text = fileio.report_to_json(fileio.run_pipeline(config))
        err = _check_report(json.loads(text), op["expect"], gamma)
    except Exception as exc:  # a failed replay is a measured outcome, not a crash
        err = f"{type(exc).__name__}: {exc}"
    return f"replayed gamma {gamma}: {err}" if err else None
