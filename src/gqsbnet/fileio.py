"""File formats, the bundled dataset, and the end-to-end pipeline.

The edge-list format is plain text: a ``n m`` header, then one ``i j w``
line per edge; ``#`` starts a comment and blank lines are skipped.  Reports
serialize to JSON with a fixed key order and floats at 15 significant
digits, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import OutcomeReport, Trajectory, assess, integrate
from .errors import GqsbError, MissingDataset, ParseError
from .operators import generalized_laplacian
from .signed_graph import (
    Bipartition,
    SignedGraph,
    bipartition_from_dominant,
    classify,
    enumerate_gqsb_bipartitions,
    positive_components,
)
from .spectral import PolarizationCertificate, Verdict, certify

DATA_DIR_ENV = "GQSB_DATA_DIR"
HIGHLAND_FILENAME = "highland_tribes.txt"
HIGHLAND_SENTINEL = "highland"
DEFAULT_HIGHLAND_WEIGHTS = (10.0, -1.0, -10.0)


def _header(fields: list[str], name: str, lineno: int) -> tuple[int, int]:
    if len(fields) != 2:
        raise ParseError("header must be 'n m'", name, lineno)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError("header must hold two integers", name, lineno)
    if n < 0 or m < 0:
        raise ParseError("header counts must be non-negative", name, lineno)
    return n, m


def _loads_by_line(text: str, name: str) -> SignedGraph:
    """The edge-list reader one line at a time: accepts every spelling
    ``int()`` and ``float()`` accept and names the line of the first error."""
    header: tuple[int, int] | None = None
    triples: list[tuple[int, int, float]] = []
    pairs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if header is None:
            header = _header(fields, name, lineno)
            continue
        if len(fields) != 3:
            raise ParseError("edge lines must be 'i j w'", name, lineno)
        try:
            i, j = int(fields[0]), int(fields[1])
            w = float(fields[2])
        except ValueError:
            raise ParseError("edge line must hold two integers and a real", name, lineno)
        n = header[0]
        if i == j:
            raise ParseError(f"self-loop at node {i}", name, lineno)
        if not 0 <= i < n or not 0 <= j < n:
            raise ParseError(f"edge ({i}, {j}) outside 0..{n - 1}", name, lineno)
        if w == 0.0:
            raise ParseError(f"edge ({i}, {j}) has zero weight", name, lineno)
        if not math.isfinite(w):
            raise ParseError(f"edge ({i}, {j}) has non-finite weight {w}", name, lineno)
        key = (min(i, j), max(i, j))
        if key in pairs:
            raise ParseError(f"node pair {key} appears twice", name, lineno)
        pairs.add(key)
        triples.append((i, j, w))
    if header is None:
        raise ParseError("empty input, expected a 'n m' header", name)
    if len(triples) != header[1]:
        raise ParseError(
            f"header promised {header[1]} edges, found {len(triples)}", name
        )
    return SignedGraph.from_edge_list(header[0], triples)


_EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
# Line breaks, after CRLF, that str.splitlines() honours and np.loadtxt
# does not.
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e"
# A line holding more than blanks and a comment.
_DATA_LINE = re.compile(r"^\s*[^#\s]", re.MULTILINE)


def _loads_bulk(text: str, name: str) -> SignedGraph | None:
    """The edge-list reader in bulk: the header line by hand, the body in
    one ``np.loadtxt`` call, the checks in the graph constructor.

    Returns None when ``np.loadtxt`` refuses the body, the edge count is
    off or a check fails; the line reader then decides.  Only ASCII text
    with ``\\n`` line breaks comes here: there the two readers split lines
    and fields alike, while beyond ASCII numpy 2.4's reader has misread
    some characters as digits and crashed the interpreter on others.
    """
    pos, lineno = 0, 1
    while True:
        end = text.find("\n", pos)
        line = text[pos:] if end < 0 else text[pos:end]
        fields = line.split("#", 1)[0].split()
        if fields:
            break
        if end < 0:
            return None
        pos, lineno = end + 1, lineno + 1
    n, m = _header(fields, name, lineno)
    body = "" if end < 0 else text[end + 1:]
    rows = np.zeros(0, _EDGE_ROW)
    if _DATA_LINE.search(body):
        try:
            # numpy before 2.3 reads a float spelling such as "2.0" into an
            # int64 field with only a DeprecationWarning; refuse it instead
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(io.StringIO(body), dtype=_EDGE_ROW, comments="#", ndmin=1)
        except (ValueError, DeprecationWarning):
            return None
    if rows.size != m:
        return None
    try:
        return SignedGraph.from_arrays(n, rows["i"], rows["j"], rows["w"])
    except GqsbError:
        return None


def loads_network(text: str, name: str = "<string>") -> SignedGraph:
    """Parse the edge-list format from a string.

    Raises ParseError with the offending one-based line number.  The body
    is read in bulk; text the bulk reader refuses goes through the line
    reader, which accepts the same spellings as ``int()`` and ``float()``
    and locates errors.
    """
    bulk = text.replace("\r\n", "\n") if "\r" in text else text
    if bulk.isascii() and not any(c in bulk for c in _OTHER_BREAKS):
        g = _loads_bulk(bulk, name)
        if g is not None:
            return g
    return _loads_by_line(text, name)


def load_network(path) -> SignedGraph:
    """Read a network file; I/O failures propagate as OSError."""
    return loads_network(Path(path).read_text(), name=str(path))


def dump_network(g: SignedGraph) -> str:
    """Render a graph back to the edge-list format, round-trip exact."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{i} {j} {w!r}" for i, j, w in g.edges)
    return "\n".join(lines) + "\n"


def highland_path() -> Path:
    """Locate the bundled alliance dataset, honoring the data dir override."""
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        path = Path(override) / HIGHLAND_FILENAME
        if not path.is_file():
            raise MissingDataset(f"no {HIGHLAND_FILENAME} under {override}")
        return path
    path = Path(str(resources.files(__package__).joinpath("data", HIGHLAND_FILENAME)))
    if not path.is_file():
        raise MissingDataset(f"bundled dataset missing at {path}")
    return path


@dataclass(frozen=True)
class ScenarioConfig:
    """One pipeline run: where the network comes from and how it is driven.

    ``network_path`` is a file path, or the sentinel ``"highland"`` for the
    bundled dataset (whose signs are relabeled with ``weights``, ordered as
    cooperative, same-subset antagonistic, cross-subset antagonistic).
    Start state comes from ``x0_path`` when given, otherwise a seeded
    uniform draw in [-1, 1].
    """

    network_path: str
    dominant_nodes: tuple[int, ...]
    gamma: float = 2.0
    weights: tuple[float, float, float] = DEFAULT_HIGHLAND_WEIGHTS
    x0_path: str | None = None
    seed: int = 0
    dt: float | None = None
    t_max: float = 1000.0
    stop_tol: float = 1e-10


def load_highland(config: ScenarioConfig) -> SignedGraph:
    """Load the bundled alliance dataset with scenario weights applied.

    The raw file carries structural signs; cooperative ties take the first
    configured weight, while antagonistic ties split into same-subset and
    cross-subset weights relative to the dominant-group bipartition.
    """
    raw = load_network(highland_path())
    b = bipartition_from_dominant(raw, config.dominant_nodes)
    w_coop, w_intra, w_inter = (float(w) for w in config.weights)
    if not (w_coop > 0 and w_intra < 0 and w_inter < 0):
        raise ValueError("weights must be (positive, negative, negative)")
    side = b.mask()
    within = side[raw.i] == side[raw.j]
    return raw.reweighted(np.where(raw.w > 0, w_coop, np.where(within, w_intra, w_inter)))


def _resolve_network(config: ScenarioConfig) -> tuple[SignedGraph, str, Path]:
    if config.network_path == HIGHLAND_SENTINEL:
        path = highland_path()
        return load_highland(config), f"bundled:{HIGHLAND_FILENAME}", path
    path = Path(config.network_path)
    return load_network(path), str(path), path


def load_state_file(path, n: int) -> np.ndarray:
    """Read a start state: n finite reals, whitespace or comma separated."""
    text = Path(path).read_text()
    fields = text.replace(",", " ").split()
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise ParseError("start state entries must be reals", str(path))
    if len(values) != n:
        raise ParseError(f"expected {n} entries, found {len(values)}", str(path))
    for k, v in enumerate(values, start=1):
        if not math.isfinite(v):
            raise ParseError(f"entry {k} is not finite: {v}", str(path))
    return np.array(values)


def start_state(config: ScenarioConfig, n: int) -> np.ndarray:
    """The scenario's start state: the ``x0_path`` file when given,
    otherwise a uniform draw in [-1, 1] seeded by ``seed``."""
    if config.x0_path is not None:
        return load_state_file(config.x0_path, n)
    return np.random.default_rng(config.seed).uniform(-1.0, 1.0, n)


@dataclass(frozen=True)
class Report:
    """Everything the pipeline derives for one scenario."""

    classification: str
    p: int
    bipartition_count: int
    bipartition: Bipartition
    certificate: PolarizationCertificate
    outcome: OutcomeReport | None
    trajectory: Trajectory | None
    x0: np.ndarray
    provenance: dict


def _bipartition_count(p: int) -> int:
    # each cooperative component goes wholly to one side; mirrors collapse
    return (1 << (p - 1)) - 1 if p >= 2 else 0


def run_sweep(config: ScenarioConfig, gammas) -> Iterator[Report]:
    """One report per coefficient, as ``run_pipeline`` gives it with
    ``config.gamma`` replaced.

    The network is loaded and hashed once.  The gauge partner does not
    depend on the coefficient, so every coefficient reads the one partner
    decomposition that ``spectral.partner_core`` keeps.
    """
    g, label, path = _resolve_network(config)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    b = bipartition_from_dominant(g, config.dominant_nodes)
    p = len(positive_components(g))
    classification = classify(g)
    for gamma in gammas:
        cert = certify(g, b, gamma)
        x0 = start_state(config, g.n)
        traj = None
        outcome = None
        if cert.verdict in (Verdict.ASYMMETRIC_POLARIZATION, Verdict.CONSENSUS,
                            Verdict.NEUTRAL_CONSENSUS):
            traj = integrate(
                generalized_laplacian(g, b, gamma),
                x0,
                dt=config.dt,
                t_max=config.t_max,
                stop_tol=config.stop_tol,
            )
            outcome = assess(traj, b, gamma)
        provenance = {
            "tool": "gqsbnet",
            "version": __version__,
            "network": label,
            "network_sha256": digest,
            "dominant_nodes": list(config.dominant_nodes),
            "gamma": float(gamma),
            "weights": [float(w) for w in config.weights]
            if config.network_path == HIGHLAND_SENTINEL
            else None,
            "x0_path": config.x0_path,
            "seed": None if config.x0_path is not None else config.seed,
            "dt": config.dt,
            "t_max": config.t_max,
            "stop_tol": config.stop_tol,
        }
        yield Report(
            classification=classification,
            p=p,
            bipartition_count=_bipartition_count(p),
            bipartition=b,
            certificate=cert,
            outcome=outcome,
            trajectory=traj,
            x0=x0,
            provenance=provenance,
        )


def run_pipeline(config: ScenarioConfig) -> Report:
    """Load, classify, certify, and (when safe) simulate one scenario.

    Simulation is skipped for Divergence and Inconclusive certificates;
    the report then carries no outcome.  Identical configs and inputs give
    identical reports.
    """
    return next(run_sweep(config, [config.gamma]))


def format_float(x: float) -> str:
    """Fixed 15-significant-digit rendering used across report files."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("reports cannot carry NaN or infinities")
    out = format(float(x), ".15g")
    return "0" if out in ("-0", "-0.0") else out


def _float_row(values) -> str:
    """``format_float`` over a sequence of floats, in bulk."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("reports cannot carry NaN or infinities")
    # + 0.0 turns -0.0 into 0.0, as format_float does
    return ", ".join(["%.15g" % (v + 0.0) for v in arr.tolist()])


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats via format_float."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = ",\n".join(
            f'{inner}"{key}": {render_json(value, indent + 1)}'
            for key, value in obj.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        types = set(map(type, obj))
        if all(issubclass(t, (float, np.floating)) for t in types):
            return "[" + _float_row(obj) + "]"
        if not any(issubclass(t, (dict, list, tuple)) for t in types):
            return "[" + ", ".join(render_json(v, indent + 1) for v in obj) + "]"
        rows = ",\n".join(f"{inner}{render_json(v, indent + 1)}" for v in obj)
        return "[\n" + rows + "\n" + pad + "]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def certificate_dict(cert: PolarizationCertificate) -> dict:
    return {
        "gamma": cert.gamma,
        "connected": cert.connected,
        "verdict": cert.verdict.value,
        "spectrum": list(cert.spectrum),
        "zero_multiplicity": cert.zero_multiplicity,
        "forest_edges": [[i, j, w] for i, j, w in cert.forest_edges],
        "resistance": [list(row) for row in cert.resistance],
        "resistance_min_eig": cert.resistance_min_eig,
        "null_right": list(cert.null_right),
        "null_left": list(cert.null_left),
    }


def outcome_dict(outcome: OutcomeReport | None) -> dict | None:
    if outcome is None:
        return None
    return {
        "kind": outcome.kind.value,
        "v1_value": outcome.v1_value,
        "v2_value": outcome.v2_value,
        "ratio": outcome.ratio,
        "defect": outcome.defect,
    }


def report_dict(report: Report) -> dict:
    prov = dict(report.provenance)
    prov["x0"] = list(report.x0)
    return {
        "classification": report.classification,
        "p": report.p,
        "bipartition_count": report.bipartition_count,
        "bipartition": {
            "v1": sorted(report.bipartition.v1),
            "v2": sorted(report.bipartition.v2),
        },
        "certificate": certificate_dict(report.certificate),
        "outcome": outcome_dict(report.outcome),
        "provenance": prov,
    }


def report_to_json(report: Report) -> str:
    return render_json(report_dict(report)) + "\n"


def trajectory_to_csv(traj: Trajectory, stride: int = 1) -> str:
    """Trajectory samples as CSV with a ``t,x0,...,x{n-1}`` header.

    ``stride`` thins the recorded samples; the final sample always stays.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    n = traj.states.shape[1]
    lines = ["t," + ",".join(f"x{i}" for i in range(n))]
    last = len(traj.times) - 1
    for k in range(0, last + 1):
        if k % stride and k != last:
            continue
        row = traj.states[k]
        lines.append(
            format_float(float(traj.times[k]))
            + ","
            + ",".join(format_float(float(v)) for v in row)
        )
    return "\n".join(lines) + "\n"


def classification_dict(g: SignedGraph) -> dict:
    """Balance class, cooperative component count ``p`` and the number of
    antagonistic bipartitions, counted from ``p`` without listing them."""
    p = len(positive_components(g))
    return {
        "classification": classify(g),
        "p": p,
        "bipartition_count": _bipartition_count(p),
    }


def enumerate_dict(g: SignedGraph) -> dict:
    """Classification summary plus the full bipartition listing."""
    parts = enumerate_gqsb_bipartitions(g)
    return {
        **classification_dict(g),
        "bipartitions": [
            {"v1": sorted(b.v1), "v2": sorted(b.v2)} for b in parts
        ],
    }
