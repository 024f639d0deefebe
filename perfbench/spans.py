"""Spans recorded from outside the package, and the per-layer metrics.

The tracer wraps public functions at every module namespace where the
package looks them up (``from .spectral import certify`` binds a second
name in ``dynamics``, ``fileio`` and ``cli``), plus ``SignedGraph``'s
constructor hook and ``numpy.linalg.eigh``.  Spans stay in memory until
the traced ops are done; then they are written out as JSON lines and the
metrics are derived from them.  Nothing in the package changes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

# (module, attribute path) of every wrapped callable; the span is named
# after the module's last part and the attribute.
TRACED = [
    ("gqsbnet.fileio", "loads_network"),
    ("gqsbnet.fileio", "load_network"),
    ("gqsbnet.fileio", "load_highland"),
    ("gqsbnet.fileio", "run_pipeline"),
    ("gqsbnet.fileio", "report_to_json"),
    ("gqsbnet.fileio", "report_dict"),
    ("gqsbnet.fileio", "certificate_dict"),
    ("gqsbnet.fileio", "render_json"),
    ("gqsbnet.fileio", "trajectory_to_csv"),
    ("gqsbnet.fileio", "enumerate_dict"),
    ("gqsbnet.signed_graph", "SignedGraph.__post_init__"),
    ("gqsbnet.signed_graph", "SignedGraph.adjacency"),
    ("gqsbnet.signed_graph", "connected_components"),
    ("gqsbnet.signed_graph", "positive_components"),
    ("gqsbnet.signed_graph", "subgraph_by_sign"),
    ("gqsbnet.signed_graph", "spanning_forest"),
    ("gqsbnet.signed_graph", "incidence_matrix"),
    ("gqsbnet.signed_graph", "classify"),
    ("gqsbnet.signed_graph", "enumerate_gqsb_bipartitions"),
    ("gqsbnet.signed_graph", "is_structurally_balanced"),
    ("gqsbnet.signed_graph", "is_qsb"),
    ("gqsbnet.signed_graph", "bipartition_from_dominant"),
    ("gqsbnet.signed_graph", "validate_gqsb"),
    ("gqsbnet.operators", "generalized_laplacian"),
    ("gqsbnet.operators", "z_transform_network"),
    ("gqsbnet.spectral", "sym_eigen"),
    ("gqsbnet.spectral", "pseudoinverse"),
    ("gqsbnet.spectral", "effective_resistance"),
    ("gqsbnet.spectral", "certify"),
    ("gqsbnet.dynamics", "default_step"),
    ("gqsbnet.dynamics", "integrate"),
    ("gqsbnet.dynamics", "closed_form_state"),
    ("gqsbnet.dynamics", "predict_final"),
    ("gqsbnet.dynamics", "assess"),
    ("gqsbnet.cli", "main"),
    ("numpy.linalg", "eigh"),
]

EIGH = "linalg.eigh"
POOL = "cli.pool"
RENDER = {"fileio.render_json", "fileio.report_to_json", "fileio.trajectory_to_csv",
          "fileio.certificate_dict", "fileio.report_dict"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "scenario", "info")

    def __init__(self, name, start, parent, scenario):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.scenario = scenario
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _digest(a) -> str:
    return hashlib.blake2b(np.ascontiguousarray(a).view(np.uint8), digest_size=16).hexdigest()


def _pre_eigh(args, kwargs):
    a = np.asarray(args[0] if args else kwargs["a"])
    return {"n": a.shape[-1], "digest": _digest(a)}


def _post_integrate(tracer, span, args, kwargs, result):
    bound = inspect.signature(tracer.originals["dynamics.integrate"]).bind(*args, **kwargs)
    dt = bound.arguments.get("dt")
    if dt is None:
        dt = span.info["default_step"]
    span.info["steps"] = int(round(float(result.times[-1]) / float(dt)))
    span.info["n"] = int(result.states.shape[1])
    span.info["termination"] = result.terminated.value


def _post_default_step(tracer, span, args, kwargs, result):
    # the enclosing integrate span needs the step it was given
    if span.parent is not None:
        tracer.spans[span.parent].info["default_step"] = float(result)


def _post_text(tracer, span, args, kwargs, result):
    span.info["bytes"] = len(result.encode())


PRE = {EIGH: _pre_eigh}
POST = {
    "dynamics.integrate": _post_integrate,
    "dynamics.default_step": _post_default_step,
    "signed_graph.SignedGraph.adjacency": lambda t, s, a, k, r: s.info.update(n=r.shape[0]),
    "fileio.loads_network": lambda t, s, a, k, r: s.info.update(edges=r.m),
    "fileio.render_json": _post_text,
    "fileio.report_to_json": _post_text,
    "fileio.trajectory_to_csv": _post_text,
}


class Tracer:
    """Span recorder that patches the package while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.scenario = None
        self.calls: Counter = Counter()
        self.originals: dict = {}
        self.missing: list[str] = []
        self._patches: list = []

    def open(self, name) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.scenario))
        self.stack.append(len(self.spans) - 1)
        self.calls[name] += 1
        return self.stack[-1]

    def close(self, idx) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self.stack.pop()
        return span

    def _wrap(self, orig, name):
        tracer = self
        pre, post = PRE.get(name), POST.get(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]].name == name:
                # direct recursion (render_json) folds into the outer span
                return orig(*args, **kwargs)
            info = pre(args, kwargs) if pre else None
            idx = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                span = tracer.close(idx)
            if info:
                span.info.update(info)
            if post:
                post(tracer, span, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, path in TRACED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, attr = path.rpartition(".")
            name = f"{module_name.rpartition('.')[2]}.{path}"
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                continue
            self.originals[name] = orig
            self.calls[name] += 0
            wrapper = self._wrap(orig, name)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is not None and (mod_name == module_name or mod_name.split(".")[0] == "gqsbnet"):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, wrapper)
        cli = sys.modules.get("gqsbnet.cli")
        if cli is not None and getattr(cli, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
            self._patch(cli, "ProcessPoolExecutor", _traced_pool(self))
            self.calls[POOL] += 0

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def never_called(self) -> list[str]:
        return sorted(name for name, count in self.calls.items() if count == 0)


def _traced_pool(tracer):
    class TracedPool(ProcessPoolExecutor):
        """The sweep's pool, timed from entry to the end of its shutdown."""

        def __enter__(self):
            self._span = tracer.open(POOL)
            return super().__enter__()

        def __exit__(self, *exc):
            started = len(getattr(self, "_processes", None) or {})
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span).info["processes"] = started

    return TracedPool


def write(tracer: Tracer, path: Path) -> None:
    """One JSON line per span, in start order; times are ``perf_counter``
    seconds and ``parent`` is the line number of the enclosing span."""
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "scenario": s.scenario, **s.info}) + "\n")


def layer_metrics(tracer: Tracer, op_of) -> dict:
    """Per-layer totals over every recorded span.

    ``op_of`` maps a span's scenario id to the op it belongs to; distinct
    eigh inputs are counted within one op.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    total = defaultdict(float)
    self_time = defaultdict(float)
    for k, s in enumerate(spans):
        total[s.name] += s.duration
        self_time[s.name] += s.duration - child_time[k]

    def under(k, names) -> bool:
        p = spans[k].parent
        while p is not None:
            if spans[p].name in names:
                return True
            p = spans[p].parent
        return False

    render_s = sum(s.duration for k, s in enumerate(spans) if s.name in RENDER and not under(k, RENDER))
    text = {"fileio.render_json", "fileio.report_to_json", "fileio.trajectory_to_csv"}
    calls = tracer.calls
    integ = [s for s in spans if s.name == "dynamics.integrate"]
    steps = sum(s.info.get("steps", 0) for s in integ)
    eighs = [s for s in spans if s.name == EIGH]
    distinct = defaultdict(set)
    for s in eighs:
        distinct[op_of(s.scenario)].add(s.info["digest"])
    terms = Counter(s.info.get("termination") for s in integ)
    integ_self = self_time["dynamics.integrate"]
    pools = [s for s in spans if s.name == POOL]
    m = {
        "dynamics.rk4_steps": (steps, "count"),
        "dynamics.integrate_s": (total["dynamics.integrate"], "s"),
        "dynamics.steps_per_s": (steps / integ_self if integ_self > 0 else 0.0, "1/s"),
        "dynamics.rk4_flops": (sum(8 * s.info.get("n", 0) ** 2 * s.info.get("steps", 0) for s in integ), "flop"),
        "dynamics.default_step_s": (total["dynamics.default_step"], "s"),
        "dynamics.predict_s": (total["dynamics.predict_final"], "s"),
        "dynamics.assess_s": (total["dynamics.assess"], "s"),
    }
    for term in ("Converged", "MaxTime", "Diverged"):
        m[f"dynamics.termination.{term}"] = (terms[term], "count")
    m.update({
        "spectral.eigh_calls": (len(eighs), "count"),
        "spectral.eigh_s": (total[EIGH], "s"),
        "spectral.eigh_flops": (sum(s.info["n"] ** 3 for s in eighs), "flop"),
        "spectral.eigh_distinct_ratio": (
            sum(len(v) for v in distinct.values()) / len(eighs) if eighs else 0.0, "ratio"),
        "spectral.certify_calls": (calls["spectral.certify"], "count"),
        "spectral.certify_self_s": (self_time["spectral.certify"], "s"),
        "spectral.pinv_s": (total["spectral.pseudoinverse"], "s"),
        "spectral.resistance_s": (total["spectral.effective_resistance"], "s"),
        "operators.bundle_calls": (calls["operators.generalized_laplacian"], "count"),
        "operators.bundle_s": (total["operators.generalized_laplacian"], "s"),
        "signed_graph.adjacency_calls": (calls["signed_graph.SignedGraph.adjacency"], "count"),
        "signed_graph.adjacency_s": (total["signed_graph.SignedGraph.adjacency"], "s"),
        "signed_graph.adjacency_bytes": (
            sum(8 * s.info.get("n", 0) ** 2 for s in spans
                if s.name == "signed_graph.SignedGraph.adjacency"),
            "B"),
        "signed_graph.graph_build_s": (total["signed_graph.SignedGraph.__post_init__"], "s"),
        "signed_graph.components_calls": (calls["signed_graph.connected_components"], "count"),
        "signed_graph.components_s": (total["signed_graph.connected_components"], "s"),
        "signed_graph.classify_s": (total["signed_graph.classify"], "s"),
        "signed_graph.forest_incidence_s": (
            total["signed_graph.spanning_forest"] + total["signed_graph.incidence_matrix"], "s"),
        "fileio.parse_s": (total["fileio.loads_network"], "s"),
        "fileio.edges_parsed": (
            sum(s.info.get("edges", 0) for s in spans if s.name == "fileio.loads_network"), "count"),
        "fileio.render_s": (render_s, "s"),
        "fileio.bytes_rendered": (
            sum(s.info.get("bytes", 0) for k, s in enumerate(spans)
                if s.name in text and not under(k, text)), "B"),
        "fileio.pipeline_self_s": (self_time["fileio.run_pipeline"], "s"),
        "cli.self_s": (self_time["cli.main"], "s"),
        "cli.pool_wait_s": (sum(s.duration for s in pools) if pools else 0.0, "s"),
        "cli.processes_started": (sum(s.info.get("processes", 0) for s in pools), "count"),
    })
    return m
