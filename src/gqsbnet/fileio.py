"""File formats, the bundled dataset, and the end-to-end pipeline.

The edge-list format is UTF-8 text: a ``n m`` header, then one ``i j w``
line per edge; ``#`` starts a comment and blank lines are skipped.  Reports
serialize to JSON with a fixed key order and floats at 15 significant
digits, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from ._defaults import T_MAX
from .errors import BadState, GqsbError, MissingDataset, ParseError
from .signed_graph import (
    Bipartition,
    SignedGraph,
    _bipartition_count,
    _cooperative_count,
    _crossing,
    bipartition_from_dominant,
    classify,
    enumerate_gqsb_bipartitions,
)

if TYPE_CHECKING:
    from .dynamics import OutcomeReport, Trajectory
    from .spectral import PolarizationCertificate

# dynamics, operators, spectral and json are imported where they are used,
# so a command that never certifies or integrates never loads them

DATA_DIR_ENV = "GQSB_DATA_DIR"
HIGHLAND_FILENAME = "highland_tribes.txt"
HIGHLAND_SENTINEL = "highland"
DEFAULT_HIGHLAND_WEIGHTS = (10.0, -1.0, -10.0)


def _header(fields: list[str], name: str, lineno: int) -> tuple[int, int]:
    """The header line's counts; no fields means no line held any."""
    if not fields:
        raise ParseError("empty input, expected a 'n m' header", name)
    if len(fields) != 2:
        raise ParseError("header must be 'n m'", name, lineno)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError("header must hold two integers", name, lineno)
    if n < 0 or m < 0:
        raise ParseError("header counts must be non-negative", name, lineno)
    return n, m


def _finish(n: int, m: int | None, edges, line_of, name: str) -> SignedGraph | None:
    """Both readers' last step: the header's ``n`` and three edge columns,
    as read, become the graph through ``SignedGraph.from_arrays``.  The
    first bad edge raises the constructor's error at line
    ``line_of(error.edge)``, then a count other than the header's ``m``,
    then TooLarge (node ids beyond int64).  With ``m`` None, for the edges
    above a line that does not parse, only a bad edge raises."""
    try:
        g = SignedGraph.from_arrays(n, *edges)
    except GqsbError as error:
        if hasattr(error, "edge"):
            raise ParseError(str(error), name, line_of(error.edge))
        if len(edges[2]) == m:
            raise
        g = None
    if m is not None and len(edges[2]) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges[2])}", name)
    return g


def _loads_by_line(text: str, name: str) -> SignedGraph:
    """The edge-list reader one line at a time: accepts every spelling
    ``int()`` and ``float()`` accept and names the line of the first error.

    Each data line's fields become one entry of three columns, which end
    in ``_finish`` as the bulk reader's do; a line that does not convert
    raises after the edges above it, so the first error in file order wins.
    """
    lines = enumerate(text.splitlines(), start=1)
    fields, lineno = [], 0
    for lineno, raw in lines:
        fields = raw.split("#", 1)[0].split()
        if fields:
            break
    n, m = _header(fields, name, lineno)
    i, j, w, at = [], [], [], []
    for lineno, raw in lines:
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            a, b, c = fields
            a, b, c = int(a), int(b), float(c)
        except ValueError:
            _finish(n, None, (i, j, w), at.__getitem__, name)
            raise ParseError("edge line must hold two integers and a real" if len(fields) == 3
                             else "edge lines must be 'i j w'", name, lineno) from None
        i.append(a)
        j.append(b)
        w.append(c)
        at.append(lineno)
    return _finish(n, m, (i, j, w), at.__getitem__, name)


_EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
# Line breaks, besides \n and \r\n, that str.splitlines() honours and
# np.loadtxt does not; a lone \r is found by counting.
_OTHER_BREAKS = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
# A line holding more than blanks and a comment; blanks are the ASCII
# characters str.split() splits on.
_DATA_LINE = re.compile(rb"^[\s\x1c-\x1f]*[^#\s\x1c-\x1f]", re.MULTILINE)


def _loads_bulk(data: bytes, name: str) -> SignedGraph | None:
    """The edge-list reader in bulk: the header line by hand, the body in
    one ``np.loadtxt`` call, the rest in ``_finish``.

    Returns None only when ``np.loadtxt`` refuses the body; the line
    reader then decides.  Only ASCII bytes with ``\\n`` or ``\\r\\n`` line
    breaks come here: there the two readers split lines and fields alike,
    while beyond ASCII numpy 2.4's reader has misread some characters as
    digits and crashed the interpreter on others.  The body is read where
    it lies, through a stream over ``data``.
    """
    first = _DATA_LINE.search(data)
    pos = data.rfind(b"\n", 0, first.end()) + 1 if first else len(data)
    end = data.find(b"\n", pos)
    line = data[pos:] if end < 0 else data[pos:end]
    n, m = _header(line.decode("ascii").split("#", 1)[0].split(), name,
                   data.count(b"\n", 0, pos) + 1)
    rows = np.zeros(0, _EDGE_ROW)
    if end >= 0 and _DATA_LINE.search(data, end + 1):
        body = io.BytesIO(data)
        body.seek(end + 1)
        try:
            # numpy before 2.3 reads a float spelling such as "2.0" into an
            # int64 field with only a DeprecationWarning; refuse it instead
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(body, dtype=_EDGE_ROW, comments="#", ndmin=1)
        except (ValueError, DeprecationWarning):
            return None

    def line_of(k):
        match = next(itertools.islice(_DATA_LINE.finditer(data, end + 1), k, None))
        return data.count(b"\n", 0, match.end()) + 1

    return _finish(n, m, (rows["i"], rows["j"], rows["w"]), line_of, name)


def loads_network(text: str | bytes, name: str = "<string>") -> SignedGraph:
    """Parse the edge-list format from a file's bytes (UTF-8, each
    undecodable byte kept as a lone surrogate) or from a string's.

    Raises ParseError with the offending one-based line number.  One
    UTF-8 byte-order mark at the very start is dropped, as ``utf-8-sig``
    drops it; one anywhere else is a ParseError.  ASCII input with
    ``\\n`` or ``\\r\\n`` line breaks is read in bulk, in place; input the
    bulk reader refuses, and any other input, goes through the line
    reader, which accepts the same spellings as ``int()`` and ``float()``.
    """
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    text = text.removeprefix(b"\xef\xbb\xbf")
    if (text.isascii() and (b"\r" not in text or text.count(b"\r") == text.count(b"\r\n"))
            and not any(c in text for c in _OTHER_BREAKS)):
        g = _loads_bulk(text, name)
        if g is not None:
            return g
    return _loads_by_line(text.decode("utf-8", "surrogateescape"), name)


def load_network(path) -> SignedGraph:
    """Read a network file; I/O failures propagate as OSError."""
    return loads_network(Path(path).read_bytes(), name=str(path))


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
    t_max: float = T_MAX


def load_highland(config: ScenarioConfig) -> SignedGraph:
    """Load the bundled alliance dataset with scenario weights applied.

    The raw file carries structural signs; cooperative ties take the first
    configured weight, while antagonistic ties split into same-subset and
    cross-subset weights relative to the dominant-group bipartition.
    """
    return _weighted_highland(load_network(highland_path()), config)


def _weighted_highland(raw: SignedGraph, config: ScenarioConfig) -> SignedGraph:
    b = bipartition_from_dominant(raw, config.dominant_nodes)
    w_coop, w_intra, w_inter = (float(w) for w in config.weights)
    if not (w_coop > 0 and w_intra < 0 and w_inter < 0):
        raise ValueError("weights must be (positive, negative, negative)")
    cross = _crossing(raw, b)
    return raw.reweighted(np.where(raw.w > 0, w_coop, np.where(cross, w_inter, w_intra)))


def _resolve_network(config: ScenarioConfig) -> tuple[SignedGraph, str, bytes]:
    """The scenario's network, its provenance label, and the bytes it was
    parsed from: the file is read once, so a digest of them describes the
    graph."""
    highland = config.network_path == HIGHLAND_SENTINEL
    path = highland_path() if highland else Path(config.network_path)
    data = path.read_bytes()
    g = loads_network(data, name=str(path))
    if highland:
        return _weighted_highland(g, config), f"bundled:{HIGHLAND_FILENAME}", data
    return g, str(path), data


def load_state_file(path, n: int) -> np.ndarray:
    """Read a start state: n finite reals, whitespace or comma separated,
    in UTF-8 whatever the locale (an undecodable byte is not a real), one
    byte-order mark at the start dropped."""
    text = Path(path).read_bytes().decode("utf-8-sig", "surrogateescape")
    values = []
    for k, field in enumerate(text.replace(",", " ").split(), start=1):
        try:
            values.append(float(field))
        except ValueError:
            raise ParseError(f"entry {k} is not a real: {field!r}", str(path)) from None
    if len(values) != n:
        raise ParseError(f"expected {n} entries, found {len(values)}", str(path))
    for k, v in enumerate(values, start=1):
        if not math.isfinite(v):
            raise ParseError(f"entry {k} is not finite: {v}", str(path))
    return np.array(values)


def start_state(config: ScenarioConfig, n: int) -> np.ndarray:
    """The scenario's start state: the ``x0_path`` file when given,
    otherwise a uniform draw in [-1, 1] seeded by ``seed``, which must be
    a non-negative integer (BadState)."""
    if config.x0_path is not None:
        return load_state_file(config.x0_path, n)
    seed = config.seed
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise BadState(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


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


def run_sweep(config: ScenarioConfig, gammas) -> Iterator[Report]:
    """One report per coefficient, as ``run_pipeline`` gives it with
    ``config.gamma`` replaced.

    The network file is read once, and the bytes parsed are the bytes
    hashed; it and the start state are read before any coefficient is
    checked, and every report shares them read-only.
    The gauge partner does not depend on the coefficient, so every
    certificate reads one partner core (``spectral.partner_core``), and
    every integration one Lanczos basis of the start state on the
    partner (``dynamics._krylov_modes``), built only when the verdict
    lets the flow run; a verdict that does not integrates nothing and
    builds no bundle: ``certify`` has checked the coefficient, and a
    dominant group's split always passes the GQSB check, so a bundle adds
    no check.  The time horizon and a given step are checked before the
    network is loaded; the default step, which needs the partner's
    spectral radius, is taken and its step count checked only where the
    flow is integrated.
    """
    from .dynamics import STOP_TOL, _horizon_steps, assess, integrate
    from .operators import generalized_laplacian
    from .spectral import certify

    _horizon_steps(config.t_max, config.dt)
    g, label, data = _resolve_network(config)
    # imported here, the one place that hashes: OpenSSL costs every other command
    # about 3.5 MB of memory and 4 ms
    import hashlib

    digest = hashlib.sha256(data).hexdigest()
    del data  # the generator's frame would hold the file for the whole sweep
    b = bipartition_from_dominant(g, config.dominant_nodes)
    summary = classification_dict(g)
    x0 = start_state(config, g.n)
    x0.setflags(write=False)
    for gamma in gammas:
        cert = certify(g, b, gamma)
        traj = outcome = None
        if cert.verdict.flows:
            traj = integrate(generalized_laplacian(g, b, gamma), x0, dt=config.dt,
                             t_max=config.t_max)
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
            "stop_tol": STOP_TOL,
        }
        yield Report(
            **summary,
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
    return _float_row([x])


def _float_row(values, sep: str = ", ") -> str:
    """``format_float`` over a sequence of floats, in bulk, joined by
    ``sep``."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("reports cannot carry NaN or infinities")
    # + 0.0 turns -0.0 into 0.0
    return sep.join(["%.15g"] * arr.size) % tuple((arr + 0.0).tolist())


def _json_string(text: str) -> str:
    """``text`` as a JSON string, for keys and values alike; a lone
    surrogate (an undecodable path byte) becomes a \\udcXX escape."""
    if text.isidentifier():  # letters, digits and underscores: nothing to escape
        return f'"{text}"'
    import json

    return json.dumps(text, ensure_ascii=False).encode("utf-8", "backslashreplace").decode()


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats via format_float."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = ",\n".join(
            f'{inner}{_json_string(str(key))}: {render_json(value, indent + 1)}'
            for key, value in obj.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        types = set(map(type, obj))
        if all(issubclass(t, (float, np.floating)) for t in types):
            return "[" + _float_row(obj) + "]"
        if all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in types):
            return "[" + ", ".join(map(str, map(int, obj))) + "]"
        if not any(issubclass(t, (dict, list, tuple)) for t in types):
            return "[" + ", ".join(render_json(v, indent + 1) for v in obj) + "]"
        rows = ",\n".join(f"{inner}{render_json(v, indent + 1)}" for v in obj)
        return "[\n" + rows + "\n" + pad + "]"
    if isinstance(obj, str):
        return _json_string(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


DETAILS = ("summary", "full")


def certificate_dict(cert: PolarizationCertificate, detail: str = "summary") -> dict:
    """The certificate as a document.

    ``"summary"`` gives schema 3: the verdict, the criterion that decided
    it, and the antagonism headroom beside the Inconclusive band's
    half-width, with no array (a headroom that is infinite, with no
    same-side tie, or absent, on a disconnected network, is null).
    ``"full"`` gives the same document followed by ``ties``, each
    same-side tie as ``[i, j, t_e]`` with its own headroom t_e (null where
    nothing was factored or t_e is not finite), and the null vectors; it
    computes nothing the certificate does not hold.
    """
    if detail not in DETAILS:
        raise ValueError(f"detail must be one of {', '.join(DETAILS)}, got {detail!r}")
    t = cert.antagonism_headroom
    doc = {
        "schema": 3,
        "gamma": cert.gamma,
        "verdict": cert.verdict.value,
        "decided_by": cert.decided_by,
        "connected": cert.connected,
        "antagonism_headroom": t if t is not None and t < math.inf else None,
        "headroom_tol": cert.headroom_tol,
        "same_side_ties": cert.same_side_ties,
    }
    if detail == "full":
        doc["ties"] = [[int(i), int(j), float(e) if math.isfinite(e) else None]
                       for (i, j), e in zip(cert.tie_ends, cert.tie_headroom)]
        doc["null_right"] = cert.null_right.tolist()
        doc["null_left"] = cert.null_left.tolist()
    return doc


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


def report_dict(report: Report, detail: str = "summary") -> dict:
    """The report as a document; ``detail`` is ``certificate_dict``'s."""
    prov = dict(report.provenance)
    prov["x0"] = report.x0.tolist()
    return {
        "classification": report.classification,
        "p": report.p,
        "bipartition_count": report.bipartition_count,
        "bipartition": {
            "v1": sorted(report.bipartition.v1),
            "v2": sorted(report.bipartition.v2),
        },
        "certificate": certificate_dict(report.certificate, detail),
        "outcome": outcome_dict(report.outcome),
        "provenance": prov,
    }


def report_to_json(report: Report, detail: str = "summary") -> str:
    return render_json(report_dict(report, detail)) + "\n"


def trajectory_to_csv(traj: Trajectory, stride: int = 1) -> str:
    """Trajectory samples as CSV with a ``t,x0,...,x{n-1}`` header.

    ``stride``, an integer of at least 1 (not a bool), thins the recorded
    samples; the final sample always stays.
    """
    from .dynamics import _is_count

    if not _is_count(stride):
        raise ValueError(f"stride must be an integer of at least 1, got {stride!r}")
    n = traj.states.shape[1]
    lines = ["t," + ",".join(f"x{i}" for i in range(n))]
    last = len(traj.times) - 1
    keep = [k for k in range(last + 1) if k % stride == 0 or k == last]
    rows = np.column_stack([traj.times[keep], traj.states[keep]])
    lines.extend(_float_row(row, ",") for row in rows)
    return "\n".join(lines) + "\n"


def classification_dict(g: SignedGraph) -> dict:
    """Balance class, cooperative component count ``p`` and the number of
    antagonistic bipartitions, counted from ``p`` without listing them."""
    p = _cooperative_count(g)
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
