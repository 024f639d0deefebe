"""Shared test helpers: exhaustive scan oracles and seeded generators.

The scan oracles deliberately avoid the library's component machinery;
they enumerate candidate splits or walk edges directly, so agreement with
the package is a real cross-check and not a tautology.  The edge-list
oracles (line-by-line parser, per-edge graph constructor, union-find) are
the scalar forms of what the package now does with arrays.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from gqsbnet import (
    DIVERGENCE_LIMIT,
    BadGamma,
    BadIndex,
    BadStep,
    Bipartition,
    DuplicateEdge,
    NonFiniteWeight,
    NotGQSB,
    ParseError,
    SelfLoop,
    ZeroWeight,
    PolarizationCertificate,
    SignedGraph,
    Termination,
    Trajectory,
    Verdict,
    connected_components,
    default_step,
    generalized_laplacian,
    effective_resistance,
    partner_laplacian,
    partner_network,
    repelling_laplacian,
    spanning_forest,
    validate_gqsb,
)
from gqsbnet.dynamics import (STOP_TOL, _BLOCK_FLOATS, _horizon_steps, _rk4_factor,
                              _state_vector, _trajectory)
from gqsbnet.fileio import certificate_dict
from gqsbnet.operators import OperatorBundle
from gqsbnet.signed_graph import (NeighborSets, _integer,
                                  positive_components)
from gqsbnet.spectral import _LANCZOS_STEPS, HEADROOM_TOL, PartnerCore


def all_splits(n):
    """Candidate side-one sets with node 0 fixed on side one (kills
    mirror duplicates) and side two non-empty."""
    for bits in range(2 ** (n - 1)):
        v1 = {0}
        for k in range(n - 1):
            if bits >> k & 1:
                v1.add(k + 1)
        if len(v1) < n:
            yield frozenset(v1)


def antagonistic_across(g: SignedGraph, v1) -> bool:
    return all(w < 0 for i, j, w in g.edges if (i in v1) != (j in v1))


def cooperative_within(g: SignedGraph, v1) -> bool:
    return all(w > 0 for i, j, w in g.edges if (i in v1) == (j in v1))


def scan_gqsb(g: SignedGraph):
    """All valid antagonistic splits by exhaustive scan."""
    return [v1 for v1 in all_splits(g.n) if antagonistic_across(g, v1)]


def scan_gqsb_count_fast(g: SignedGraph) -> int:
    """Vectorized count of valid splits: only cooperative edges constrain,
    they must not cross; both sides non-empty; mirrors collapsed."""
    n = g.n
    bits = (np.arange(1 << n, dtype=np.uint32)[:, None] >> np.arange(n)) & 1
    ok = np.ones(bits.shape[0], dtype=bool)
    for i, j, w in g.edges:
        if w > 0:
            ok &= bits[:, i] == bits[:, j]
    sizes = bits.sum(axis=1)
    ok &= (sizes > 0) & (sizes < n)
    return int(ok.sum()) // 2


def _has_positive_path(g: SignedGraph, a: int, b: int) -> bool:
    adj: dict[int, list[int]] = {}
    for i, j, w in g.edges:
        if w > 0:
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
    seen = {a}
    stack = [a]
    while stack:
        v = stack.pop()
        if v == b:
            return True
        for u in adj.get(v, ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return False


def scan_sb(g: SignedGraph):
    """Definition scan for full balance: the antagonistic split must be
    unique and internally cooperative."""
    splits = scan_gqsb(g)
    if len(splits) != 1:
        return None
    v1 = splits[0]
    return v1 if cooperative_within(g, v1) else None


def scan_qsb(g: SignedGraph):
    """Definition scan for quasi balance: unique antagonistic split whose
    same-subset antagonists still share a cooperative path."""
    splits = scan_gqsb(g)
    if len(splits) != 1:
        return None
    v1 = splits[0]
    for i, j, w in g.edges:
        if w < 0 and (i in v1) == (j in v1) and not _has_positive_path(g, i, j):
            return None
    return v1


def brute_chromatic(g: SignedGraph) -> int:
    """Smallest k admitting a proper coloring, by direct enumeration."""
    import itertools

    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    for k in range(2, g.n + 1):
        for coloring in itertools.product(range(k), repeat=g.n):
            if all(coloring[i] != coloring[j] for i, j, _ in g.edges):
                return k
    return g.n


def random_signed_graph(rng, n, density=0.5, neg_prob=0.5):
    """Fully unconstrained signed graph; weights in +-[0.5, 3]."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = float(rng.uniform(0.5, 3.0))
                if rng.random() < neg_prob:
                    w = -w
                edges.append((i, j, w))
    return SignedGraph.from_edge_list(n, edges)


def random_bloc_graph(rng, n, blocs, intra_extra=0.3, cross_density=0.6,
                      intra_neg=0.15):
    """Graph whose cooperative subgraph has exactly ``blocs`` components.

    Each bloc gets a cooperative spanning tree; ties between blocs are
    antagonistic only; extra same-bloc ties may go either way.
    """
    labels = np.empty(n, dtype=int)
    labels[:blocs] = np.arange(blocs)
    if n > blocs:
        labels[blocs:] = rng.integers(0, blocs, n - blocs)
    edges: dict[tuple[int, int], float] = {}
    for k in range(blocs):
        group = [int(v) for v in np.flatnonzero(labels == k)]
        for idx in range(1, len(group)):
            a = group[idx]
            b = group[int(rng.integers(0, idx))]
            edges[(min(a, b), max(a, b))] = float(rng.uniform(0.5, 3.0))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in edges:
                continue
            if labels[i] == labels[j]:
                if rng.random() < intra_extra:
                    w = float(rng.uniform(0.5, 3.0))
                    if rng.random() < intra_neg:
                        w = -w
                    edges[(i, j)] = w
            elif rng.random() < cross_density:
                edges[(i, j)] = -float(rng.uniform(0.5, 3.0))
    g = SignedGraph.from_edge_list(n, [(i, j, w) for (i, j), w in edges.items()])
    return g, labels


def random_gqsb_instance(rng, n_max=10, intra_neg=0.35, lo=1.0, hi=3.0):
    """Connected graph with a designated antagonistic bipartition.

    Cooperative spanning trees inside each side keep it connected once at
    least one cross tie exists; cross ties are antagonistic, extra
    same-side ties are cooperative or antagonistic at ``intra_neg`` odds.
    """
    n = int(rng.integers(4, n_max + 1))
    r = int(rng.integers(1, n))
    edges: dict[tuple[int, int], float] = {}
    for group in (list(range(r)), list(range(r, n))):
        for idx in range(1, len(group)):
            a = group[idx]
            b = group[int(rng.integers(0, idx))]
            edges[(min(a, b), max(a, b))] = float(rng.uniform(lo, hi))
    crossed = False
    for i in range(r):
        for j in range(r, n):
            if rng.random() < 0.5:
                edges[(i, j)] = -float(rng.uniform(lo, hi))
                crossed = True
    if not crossed:
        edges[(0, r)] = -float(rng.uniform(lo, hi))
    for side in ((0, r), (r, n)):
        for i in range(*side):
            for j in range(i + 1, side[1]):
                if (i, j) in edges:
                    continue
                if rng.random() < 0.25:
                    w = float(rng.uniform(lo, hi))
                    if rng.random() < intra_neg:
                        w = -w
                    edges[(i, j)] = w
    g = SignedGraph.from_edge_list(n, [(i, j, w) for (i, j), w in edges.items()])
    return g, Bipartition(n, frozenset(range(r)))


def random_sb_instance(rng, n_max=10):
    """Connected, fully balanced instance: cooperative trees inside each
    side, antagonistic ties across, nothing antagonistic within."""
    n = int(rng.integers(3, n_max + 1))
    r = int(rng.integers(1, n))
    edges: dict[tuple[int, int], float] = {}
    for group in (list(range(r)), list(range(r, n))):
        for idx in range(1, len(group)):
            a = group[idx]
            b = group[int(rng.integers(0, idx))]
            edges[(min(a, b), max(a, b))] = float(rng.uniform(0.5, 3.0))
    crossed = False
    for i in range(r):
        for j in range(r, n):
            if rng.random() < 0.5:
                edges[(i, j)] = -float(rng.uniform(0.5, 3.0))
                crossed = True
    if not crossed:
        edges[(0, r)] = -float(rng.uniform(0.5, 3.0))
    for side in ((0, r), (r, n)):
        for i in range(*side):
            for j in range(i + 1, side[1]):
                if (i, j) not in edges and rng.random() < 0.3:
                    edges[(i, j)] = float(rng.uniform(0.5, 3.0))
    g = SignedGraph.from_edge_list(n, [(i, j, w) for (i, j), w in edges.items()])
    return g, Bipartition(n, frozenset(range(r)))


@dataclass(frozen=True)
class ReferenceBundle:
    """Every operator of a bundle, built at once: what ``OperatorBundle``
    held as fields before it became a (graph, partition, gamma) value."""

    graph: SignedGraph
    partition: Bipartition
    gamma: float
    adjacency: np.ndarray
    degree: np.ndarray
    laplacian: np.ndarray
    scale_gauge: np.ndarray
    sign_gauge: np.ndarray
    coord_gauge: np.ndarray
    z_laplacian: np.ndarray
    permutation: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.graph.n


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not gamma > 0 or not np.isfinite(gamma):
        raise BadGamma(f"dominance coefficient must be in (0, inf), got {gamma}")
    return gamma


def _require_gqsb(g: SignedGraph, b: Bipartition) -> None:
    if not validate_gqsb(g, b):
        raise NotGQSB("a cooperative edge crosses the bipartition")


def _gauge_diagonals(gamma: float, b: Bipartition):
    gamma = _check_gamma(gamma)
    m = b.mask()
    scale = np.where(m, gamma, 1.0)
    sign = np.where(m, -1.0, 1.0)
    return scale, sign, sign / scale


def _conjugated(a: np.ndarray, sign: np.ndarray) -> np.ndarray:
    # Sign-conjugated adjacency: same-subset weights kept signed,
    # cross-subset weights flipped.
    return sign[:, None] * a * sign[None, :]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def reference_bundle(g: SignedGraph, b: Bipartition, gamma: float) -> ReferenceBundle:
    """The eager operator bundle: all five n x n arrays built from one
    sign-conjugated adjacency, the oracle for the lazily built bundle."""
    gamma = _check_gamma(gamma)
    _require_gqsb(g, b)
    a = g.adjacency()
    scale, sign, coord = _gauge_diagonals(gamma, b)
    scaled = scale[:, None] * a / scale[None, :]
    conjugated = _conjugated(a, sign)
    deg = conjugated.sum(axis=1)
    lap = np.diag(deg) - scaled
    z_lap = np.diag(deg) - conjugated
    perm = tuple(sorted(b.v1)) + tuple(sorted(b.v2))
    return ReferenceBundle(
        graph=g,
        partition=b,
        gamma=gamma,
        adjacency=_frozen(scaled),
        degree=_frozen(deg),
        laplacian=_frozen(lap),
        scale_gauge=_frozen(scale),
        sign_gauge=_frozen(sign),
        coord_gauge=_frozen(coord),
        z_laplacian=_frozen(z_lap),
        permutation=perm,
    )


def reference_rk4(bundle, x0, dt=None, t_max=1000.0, stop_tol=1e-10,
                  record_every=None):
    """Step-by-step fixed-step RK4 of x' = -L x, one Python iteration per
    step: the integrator's oracle, with the same arguments, step grid, stop
    rules and recording rule as ``integrate``."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    if dt is None:
        dt = default_step(bundle)
    dt = float(dt)
    if not dt > 0 or not np.isfinite(dt):
        raise BadStep(f"step size must be a positive real, got {dt}")
    # scale down a hair so t_max/dt landing a rounding error above an
    # integer does not buy a whole extra step
    steps = max(1, int(np.ceil((t_max / dt) * (1.0 - 1e-14))))
    if record_every is None:
        record_every = max(1, steps // 2048)
    lap = bundle.laplacian

    times = [0.0]
    states = [x.copy()]
    status = Termination.MAX_TIME
    done = 0
    for k in range(steps):
        velocity = lap @ x
        if float(np.max(np.abs(velocity))) <= stop_tol:
            status = Termination.CONVERGED
            break
        k1 = -dt * velocity
        k2 = -dt * (lap @ (x + 0.5 * k1))
        k3 = -dt * (lap @ (x + 0.5 * k2))
        k4 = -dt * (lap @ (x + k3))
        x = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        done = k + 1
        if float(np.max(np.abs(x))) > DIVERGENCE_LIMIT:
            status = Termination.DIVERGED
            break
        if done % record_every == 0:
            times.append(done * dt)
            states.append(x.copy())
    if times[-1] != done * dt:
        times.append(done * dt)
        states.append(x.copy())
    t_arr = np.array(times)
    s_arr = np.vstack(states)
    t_arr.setflags(write=False)
    s_arr.setflags(write=False)
    return Trajectory(t_arr, s_arr, status)


# ``integrate`` as it was before its norm-bound screen, kept verbatim as the
# screen's oracle: every step of every block is formed in node space.
def reference_block_integrate(
    bundle: OperatorBundle,
    x0,
    dt: float | None = None,
    t_max: float = 1000.0,
    stop_tol: float = STOP_TOL,
    record_every: int | None = None,
) -> Trajectory:
    """Fixed-step fourth-order Runge-Kutta run of x' = -L x.

    Stops when the flow velocity drops below ``stop_tol`` (Converged), the
    state magnitude passes 1e12 or stops being finite (Diverged), or time
    runs out (MaxTime).  States are recorded every ``record_every``
    accepted steps; when it is omitted that is the horizon's step count
    over 2048, rounded down (at least 1), so a run that stops early keeps
    few rows.  The initial and final states are always recorded.

    The flow is gauge-similar to the partner Laplacian V diag(lambda) V^T,
    so k RK4 steps act on the partner's modes as the k-th powers of the
    stability polynomial at -dt * lambda.  Steps are evaluated in blocks
    from those powers, with no per-step loop; the first step of a block
    that meets a stop rule ends the run.  The stationary mode is carried
    exactly and every state is projected back onto the conserved level
    set of the gauge-weighted total.

    Raises BadStep when ``dt`` or ``t_max`` is not a positive real,
    ``stop_tol`` not a non-negative real or ``record_every`` not an
    integer of at least 1, TooLarge when ``t_max / dt`` steps do not
    fit int64 step indices, and BadState when ``x0`` has a NaN or infinite
    entry.
    """
    x = _state_vector(bundle, x0)
    steps = _horizon_steps(t_max, dt)
    stop_tol = float(stop_tol)
    if not 0 <= stop_tol < np.inf:
        raise BadStep(f"stop tolerance must be a non-negative real, got {stop_tol}")
    if record_every is not None and not (isinstance(record_every, (int, np.integer))
                                         and record_every >= 1):
        raise BadStep(f"record_every must be an integer of at least 1, got {record_every}")
    if dt is None:
        dt = default_step(bundle)
        steps = _horizon_steps(t_max, dt)
    dt = float(dt)
    if record_every is None:
        record_every = max(1, steps // 2048)

    lam = bundle.partner.eigenvalues
    vecs = bundle.partner.eigenvectors
    gauge = bundle.coord_gauge
    total = float(gauge @ x)
    normal = gauge / float(gauge @ gauge)
    y = gauge * x
    level = float(y.mean())
    coeff0 = vecs.T @ (y - level)
    if float(np.max(np.abs(((coeff0 * lam) @ vecs.T) / gauge))) <= stop_tol:
        return _trajectory(np.zeros(1), x[None, :].copy(), Termination.CONVERGED)
    with np.errstate(over="ignore"):  # a step this large diverges at once
        factor = _rk4_factor(-dt * lam)
    block = max(1, _BLOCK_FLOATS // bundle.n)

    times = [np.zeros(1)]
    states = [x[None, :]]
    status = Termination.MAX_TIME
    for first in range(1, steps + 1, block):
        k = np.arange(first, min(first + block, steps + 1))
        # rows past a divergence may overflow; the search stops before them
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = factor ** k[:, None] * coeff0
            xs = (coeff @ vecs.T + level) / gauge
            xs -= (xs @ gauge - total)[:, None] * normal
            velocity = ((coeff * lam) @ vecs.T) / gauge
            diverged = ~(np.max(np.abs(xs), axis=1) <= DIVERGENCE_LIMIT)
            settled = (np.max(np.abs(velocity), axis=1) <= stop_tol) & (k < steps)
        stop = diverged | settled
        last = int(np.argmax(stop)) if stop.any() else k.size - 1
        kept = k[: last + 1] % record_every == 0
        kept[last] |= stop[last] or k[last] == steps
        times.append(k[: last + 1][kept] * dt)
        states.append(xs[: last + 1][kept])
        if stop[last]:
            status = Termination.DIVERGED if diverged[last] else Termination.CONVERGED
            break
    return _trajectory(np.concatenate(times), np.vstack(states), status)


def reference_certify(g, b, gamma):
    """Both certificate documents computed afresh, the oracle for
    ``certificate_dict``: the summary's verdict and headroom from
    ``reference_headroom`` (a grounded LU solve of the cooperative Laplacian) and
    connectivity; the full document adds each same-side tie's own headroom
    from ``reference_tie_headroom`` (the pseudoinverse of the Laplacian of
    |w|) and the null vectors."""
    bundle = generalized_laplacian(g, b, gamma)
    connected = len(connected_components(g)) == 1
    ties = sum(1 for i, j, w in g.edges if w < 0 and (i in b.v1) == (j in b.v1))
    t = reference_headroom(g, b) if connected else None
    if not connected:
        verdict, decided_by = Verdict.INCONCLUSIVE, "connectivity"
    elif abs(t - 1.0) <= HEADROOM_TOL:
        verdict, decided_by = Verdict.INCONCLUSIVE, "headroom"
    elif t < 1.0:
        verdict, decided_by = Verdict.DIVERGENCE, "headroom"
    elif gamma == 1.0 and not ties:
        verdict, decided_by = Verdict.CONSENSUS, "plain_split"
    else:
        verdict, decided_by = Verdict.ASYMMETRIC_POLARIZATION, "headroom"
    null_right = np.where(b.mask(), -bundle.gamma, 1.0)
    summary = {
        "schema": 3, "gamma": bundle.gamma, "verdict": verdict.value,
        "decided_by": decided_by, "connected": connected,
        "antagonism_headroom": t if t is not None and t < math.inf else None,
        "headroom_tol": HEADROOM_TOL, "same_side_ties": ties,
    }
    full = {
        **summary, "ties": reference_tie_headroom(g, b),
        "null_right": list(null_right), "null_left": list(bundle.coord_gauge / g.n),
    }
    return {"summary": summary, "full": full}


def reference_tie_headroom(g: SignedGraph, b: Bipartition) -> list:
    """Each same-side antagonistic tie of (g, b), in canonical order, as
    ``[i, j, t_e]``: its own headroom t_e = 1 / (|w_e| R_abs,e) - 1, with
    R_abs,e the diagonal of ``effective_resistance`` (a dense
    pseudoinverse) on the Laplacian of |w|, every weight over the largest
    first.  t_e is None on a disconnected network."""
    side = b.mask()
    ties = tuple((i, j, w) for i, j, w in g.edges if w < 0 and side[i] == side[j])
    if not ties or len(connected_components(g)) > 1:
        return [[i, j, None] for i, j, _ in ties]
    unit = float(np.max(np.abs(g.w)))
    lap = repelling_laplacian(g.reweighted(np.abs(g.w) / unit))
    r = np.diag(effective_resistance(lap, ties))
    return [[i, j, float(1.0 / (-w / unit * r_e) - 1.0)] for (i, j, w), r_e in zip(ties, r)]


def reference_certificate_dict(cert: PolarizationCertificate) -> dict:
    """The full certificate document read off the certificate's fields:
    the summary, each same-side tie as ``[i, j, t_e]`` from ``tie_ends``
    and ``tie_headroom`` (a t_e that is NaN or infinite as None), then
    the null vectors; the oracle for ``certificate_dict(cert, detail="full")``."""
    ties = [[i, j, t if math.isfinite(t) else None]
            for (i, j), t in zip(cert.tie_ends.tolist(), cert.tie_headroom.tolist())]
    return {**certificate_dict(cert), "ties": ties, "null_right": list(cert.null_right),
            "null_left": list(cert.null_left)}


def assert_tie_headroom(got, want, rtol: float = 1e-10):
    """Two tie lists ``[i, j, t_e]`` agree: the same ties in the same
    order, a t_e None in both or in neither, and 1 + t_e = 1 / M_ee within
    ``rtol`` relative (t_e itself is 0 on a bridge)."""
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for (*_, t), (*_, u) in zip(got, want):
        assert (t is None) == (u is None), (t, u)
        assert u is None or abs(t - u) <= rtol * (1.0 + u), (t, u)


def assert_matches_reference(cert: PolarizationCertificate, ref: dict):
    """Compare a certificate's two documents with ``reference_certify``'s.
    The headroom agrees within 1e-10 relative and each tie's t_e as
    ``assert_tie_headroom`` checks; every other entry (verdict,
    criterion, connectivity, counts, tie endpoints, null vectors) is
    exact.  Two algorithms cannot agree on the last digits of a ratio of
    resistances, so those floats are not compared bit for bit."""
    for detail, want in ref.items():
        got = certificate_dict(cert, detail)
        assert list(got) == list(want)
        for key, value in want.items():
            if key == "antagonism_headroom":
                assert (got[key] is None) == (value is None), key
                assert value is None or abs(got[key] - value) <= 1e-10 * abs(value), key
            elif key == "ties":
                assert_tie_headroom(got[key], value)
            else:
                assert got[key] == value, key


def counting_linalg(monkeypatch, skip: str | None = None):
    """Record ``(name, input shape)`` of every numpy.linalg ``eigh``,
    ``eigvalsh``, ``solve``, ``cholesky`` and ``inv`` call from now on,
    except calls made from a function of the module named ``skip`` (say
    ``gqsbnet.dynamics``, whose Lanczos stop rules decompose tridiagonals
    of data-dependent sizes)."""
    calls = []

    def counted(name, fn):
        def call(a, *args, **kwargs):
            if skip is None or sys._getframe(1).f_globals.get("__name__") != skip:
                calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh", "solve", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


RITZ = "ritz"


class Calls(list):
    """Expected numpy.linalg calls, as ``counting_linalg`` records them,
    where an entry ``(RITZ, d)`` stands for the tridiagonal ``eigh`` calls
    of Lanczos on a d x d M: ``("eigh", (k, k))`` for k = 2, 3, ..., K in
    that order, K at most min(d, ``_LANCZOS_STEPS``) and none when K is 1
    (Lanczos settles after a data-dependent number of steps).  A recorded
    list compares equal when it spells the calls out with some such run
    for each entry; sums and repeats stay patterns."""

    __hash__ = None

    def __eq__(self, other):
        got = list(other)
        at = 0
        for name, shape in self:
            if name == RITZ:
                k = 2
                while (at < len(got) and k <= min(shape, _LANCZOS_STEPS)
                       and got[at] == ("eigh", (k, k))):
                    at, k = at + 1, k + 1
            elif at < len(got) and got[at] == (name, shape):
                at += 1
            else:
                return False
        return at == len(got)

    def __ne__(self, other):
        return not self == other

    def __add__(self, other):
        return Calls([*self, *other])

    def __radd__(self, other):
        return Calls([*other, *self])

    def __mul__(self, times):
        return Calls(list(self) * times)

    __rmul__ = __mul__


def core_calls(n, ties, ends):
    """The numpy.linalg calls that build one partner core on a connected
    n-node graph with ``ties`` same-side antagonistic ties between ``ends``
    endpoints, which leave s = min(ends, n - 1) endpoint rows and
    p = n - 1 - s other rows in the grounded L_abs, as a ``Calls``
    pattern: the factor split at the endpoint rows (where p > 0, the
    ``cholesky`` of the leading p x p block and an ``inv`` per 64-row
    diagonal block of it, for the forward substitution of the
    off-diagonal block; then the ``cholesky`` of the s x s Schur
    complement, or of the whole grounded L_abs where p = 0), an ``inv``
    per diagonal block of that factor, which the forward substitutions on
    the s endpoint rows and the back substitution that bounds t*'s
    rounding error share, Lanczos on M (d = min(ties, s) square) with its
    tridiagonal ``eigh`` calls, and the ``cholesky`` of M's shift that
    proves its top Ritz value with an ``inv`` per diagonal block, shared
    by the two substitutions of one step of inverse iteration for M's top
    eigenvector.  No ``eigvalsh`` and no ``solve``.  None without such a
    tie."""
    if not ties:
        return Calls()
    size, s = n - 1, min(ends, n - 1)
    top, side = size - s, min(ties, s)

    def factor(rows):
        return [("cholesky", (rows, rows))] + [
            ("inv", (min(64, rows - lo),) * 2) for lo in range(0, rows, 64)]

    return Calls((factor(top) if top else []) + factor(s) + [(RITZ, side)] + factor(side))


def two_bloc_draw(seed: int, n: int, kind: str) -> tuple[SignedGraph, Bipartition]:
    """``perfbench/gen.py``'s ``two_bloc(np.random.default_rng(seed), n,
    kind)`` as a graph and the bipartition of its dominant node's bloc.
    That is the first draw of ``draw_two_bloc`` with the same arguments,
    the network it keeps when its eigenvalue oracle gives ``kind``; the
    oracle is left out, as its connectivity check needs scipy."""
    gen = sys.modules.get("perfbench_gen")
    if gen is None:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
        spec = importlib.util.spec_from_file_location("perfbench_gen", path)
        gen = sys.modules["perfbench_gen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    net = gen.two_bloc(np.random.default_rng(seed), n, kind)
    g = SignedGraph.from_arrays(net.n, net.i, net.j, net.w)
    return g, Bipartition(net.n, frozenset(np.flatnonzero(net.side1).tolist()))


def tie_endpoints(g: SignedGraph, b: Bipartition) -> int:
    """The number of nodes that some same-side antagonistic tie of (g, b)
    touches, counted edge by edge."""
    return len({v for i, j, w in g.edges if w < 0 and (i in b.v1) == (j in b.v1)
                for v in (i, j)})


def reference_headroom(g: SignedGraph, b: Bipartition) -> float:
    """The antagonism headroom t*, in numpy alone: scaling every same-side
    antagonistic tie by t keeps the flow polarizing for t < t* and makes
    it diverge for t > t* (inf with no such tie).

    The gauge partner flips the cross ties to cooperative, so its
    Laplacian is L+ - L_A: L+ from its positive ties, L_A = B_A W B_A^T
    from the same-side antagonistic ones.  L+ - t L_A is PSD with L+'s
    kernel exactly when t W^1/2 B_A^T L+^+ B_A W^1/2 <= I, so t* is one
    over that matrix's largest eigenvalue.  Each column of B_A sums to
    zero on every component of L+, so the matrix is R^T L+g^-1 R, with
    L+g L+ grounded at the smallest node of each of its components
    (``reference_components``) and R = B_A W^1/2 without those rows,
    solved by numpy's LU, a route ``certify`` does not take.  Assumes
    every antagonistic tie joins two nodes of one component of L+."""
    n, i, j = g.n, g.i, g.j
    side = b.mask()
    w = np.where(side[i] != side[j], -g.w, g.w)
    pos, neg = w > 0, np.flatnonzero(w < 0)
    if not neg.size:
        return math.inf
    plus = np.zeros((n, n))
    np.add.at(plus, (i[pos], j[pos]), -w[pos])
    np.add.at(plus, (j[pos], i[pos]), -w[pos])
    plus[np.diag_indices(n)] = -plus.sum(axis=1)
    coop = zip(i[pos].tolist(), j[pos].tolist(), w[pos].tolist())
    roots = {min(c) for c in reference_components(n, coop)}
    kept = np.array([v for v in range(n) if v not in roots], dtype=np.int64)
    cols = np.arange(neg.size)
    root_w = np.zeros((n, neg.size))
    root_w[i[neg], cols] = np.sqrt(-w[neg])
    root_w[j[neg], cols] = -np.sqrt(-w[neg])
    r = root_w[kept]
    m = r.T @ np.linalg.solve(plus[np.ix_(kept, kept)], r)
    return float(1.0 / np.linalg.eigvalsh(m)[-1])


def dense_two_bloc(n=400, seed=7):
    """Two cooperative blocs, 40 % and 60 % of the nodes, each held
    together by a path of strong cooperative ties; about 5 % of the other
    pairs tied, strongly antagonistic across the blocs and, for 30 % of
    the same-bloc ties, weakly antagonistic inside them."""
    rng = np.random.default_rng(seed)
    side = np.arange(n) < int(0.4 * n)
    i, j = np.triu_indices(n, 1)
    same = side[i] == side[j]
    path = same & (j == i + 1)
    pick = path | (rng.random(i.size) < 0.05)
    i, j, same, path = i[pick], j[pick], same[pick], path[pick]
    w = rng.uniform(5.0, 15.0, i.size)
    w[same & ~path & (rng.random(i.size) < 0.3)] *= -0.05
    w[~same] *= -1.0
    return SignedGraph.from_arrays(n, i, j, w), Bipartition(n, frozenset(np.flatnonzero(side)))


def reference_grounded_gram(g: SignedGraph, b: Bipartition) -> np.ndarray:
    """The headroom's Gram M = Z^T Z formed the plain way: L_abs summed
    with ``np.add.at``, grounded at node 0, scaled by its largest entry,
    and Z = C^-1 B_A W^1/2 by one ``np.linalg.solve`` on the whole
    Cholesky factor C."""
    n, i, j = g.n, g.i, g.j
    side = b.mask()
    tie = (g.w < 0) & (side[i] == side[j])
    lap = np.zeros((n, n))
    np.add.at(lap, (i, j), -np.abs(g.w))
    np.add.at(lap, (j, i), -np.abs(g.w))
    lap[np.diag_indices(n)] = -lap.sum(axis=1)
    unit = float(np.max(np.abs(lap)))
    c = np.linalg.cholesky(lap[1:, 1:] / unit)
    cols = np.arange(int(tie.sum()))
    rhs = np.zeros((n, cols.size))
    root = np.sqrt(-g.w[tie] / unit)
    rhs[i[tie], cols] = root
    rhs[j[tie], cols] = -root
    z = np.linalg.solve(c, rhs[1:])
    return z.T @ z


def partner_forest_gram(g: SignedGraph, b: Bipartition):
    """The partner's antagonistic forest and that forest's resistance Gram
    through the partner Laplacian, by the public functions alone: the
    criterion the headroom replaced, kept as an oracle beside the
    partner's spectrum (``bundle.partner.eigenvalues``)."""
    forest = spanning_forest(partner_network(g, b)).forest_edges
    return forest, effective_resistance(partner_laplacian(g, b), forest)


def reference_forest_gram(pinv, a, b):
    """The forest Gram read off a pseudoinverse as a whole: B^T P B by
    the two column differences, then symmetrized.  The bits the blocked
    pseudoinverse path must keep."""
    x = pinv[a] - pinv[b]
    gram = x[:, a] - x[:, b]
    return (gram + gram.T) / 2.0


def reference_build_core(g: SignedGraph, b: Bipartition) -> PartnerCore:
    """The partner core from outside: connectivity from a union-find,
    the same-side antagonistic ties counted edge by edge, and the headroom
    from ``reference_headroom`` (inf with no such tie, None when
    disconnected)."""
    connected = len(reference_components(g.n, g.edges)) == 1
    ties = sum(1 for i, j, w in g.edges if w < 0 and (i in b.v1) == (j in b.v1))
    t = None
    if connected:
        t = reference_headroom(g, b) if ties else math.inf
    rows = reference_tie_headroom(g, b)
    ends = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2)
    own = np.array([np.nan if row[2] is None else row[2] for row in rows])
    return PartnerCore(b, connected, t, ties, ends, own)


def assert_same_core(got: PartnerCore, want: PartnerCore, rtol: float = 1e-10):
    """Every field equal, the headroom within ``rtol`` relative and each
    tie's own headroom as ``assert_tie_headroom`` checks, NaN (nothing
    factored) in both or in neither."""
    assert got.partition == want.partition
    assert (got.connected, got.same_side_ties) == (want.connected, want.same_side_ties)
    if want.headroom is None or want.headroom == math.inf:
        assert got.headroom == want.headroom
    else:
        assert abs(got.headroom - want.headroom) <= rtol * want.headroom
    assert got.tie_ends.dtype == np.int64

    def listed(core):
        return [[i, j, None if np.isnan(t) else t]
                for (i, j), t in zip(core.tie_ends.tolist(), core.tie_headroom.tolist())]

    assert_tie_headroom(listed(got), listed(want), rtol)


def _reference_id(v):
    k = int(v)
    if not isinstance(v, str) and k != v:
        raise BadIndex(f"node id {v} is not an integer")
    return k


def reference_graph(n, edges):
    """Per-edge graph constructor: the node count through
    ``operator.index``, ``int()`` on each endpoint (which, unless a string,
    must equal it) and ``float()`` on each weight, then the checks in
    order, raising at the first bad edge in input order.  Returns
    ``(n, canonical sorted edge tuple)``."""
    try:
        n = operator.index(n)
    except TypeError:
        raise BadIndex(f"node count must be an integer, got {n!r}") from None
    if n < 0:
        raise BadIndex("node count must be non-negative")
    canonical = []
    seen = set()
    for i, j, w in edges:
        i, j, w = _reference_id(i), _reference_id(j), float(w)
        if i == j:
            raise SelfLoop(f"self-loop at node {i}")
        if i > j:
            i, j = j, i
        if i < 0 or j >= n:
            raise BadIndex(f"edge ({i}, {j}) outside 0..{n - 1}")
        if w == 0.0:
            raise ZeroWeight(f"edge ({i}, {j}) has zero weight")
        if not math.isfinite(w):
            raise NonFiniteWeight(f"edge ({i}, {j}) has non-finite weight {w}")
        if (i, j) in seen:
            raise DuplicateEdge(f"node pair ({i}, {j}) appears twice")
        seen.add((i, j))
        canonical.append((i, j, w))
    canonical.sort()
    return n, tuple(canonical)


def reference_loads_network(text, name="<string>"):
    """Line-by-line edge-list parser, one Python statement per line.
    Returns ``reference_graph``'s ``(n, edges)``."""
    header = None
    triples = []
    pairs = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise ParseError("header must be 'n m'", name, lineno)
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError("header must hold two integers", name, lineno)
            if n < 0 or m < 0:
                raise ParseError("header counts must be non-negative", name, lineno)
            header = (n, m)
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
        key = (min(i, j), max(i, j))
        if not 0 <= i < n or not 0 <= j < n:
            raise ParseError(f"edge {key} outside 0..{n - 1}", name, lineno)
        if w == 0.0:
            raise ParseError(f"edge {key} has zero weight", name, lineno)
        if not math.isfinite(w):
            raise ParseError(f"edge {key} has non-finite weight {w}", name, lineno)
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
    return reference_graph(header[0], triples)


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def reference_components(n, edges):
    """Components joined by the given edges, by union-find, ordered by
    smallest member."""
    uf = UnionFind(n)
    for i, j, _ in edges:
        uf.union(i, j)
    groups = {}
    for v in range(n):
        groups.setdefault(uf.find(v), []).append(v)
    return tuple(sorted((frozenset(ms) for ms in groups.values()), key=min))


def reference_forest(n, edges):
    """Scan the antagonistic edges in the given order with union-find:
    ``(forest, cycle edges)``."""
    uf = UnionFind(n)
    forest, cycles = [], []
    for e in edges:
        if e[2] < 0:
            (forest if uf.union(e[0], e[1]) else cycles).append(e)
    return tuple(forest), tuple(cycles)


def reference_neighbor_sets(g: SignedGraph, b: Bipartition, i: int) -> NeighborSets:
    """``neighbor_sets`` as one Python pass over the edge triples."""
    i = _integer(i, "node id")
    if not 0 <= i < g.n:
        raise BadIndex(f"node {i} outside 0..{g.n - 1}")
    if b.n != g.n:
        raise BadIndex("bipartition and graph disagree on node count")
    coop, intra, inter = set(), set(), set()
    v1 = b.v1
    for u, v, w in g.edges:
        if u != i and v != i:
            continue
        other = v if u == i else u
        if w > 0:
            coop.add(other)
        elif (i in v1) == (other in v1):
            intra.add(other)
        else:
            inter.add(other)
    return NeighborSets(frozenset(coop), frozenset(intra), frozenset(inter))


def reference_condense(g: SignedGraph) -> SignedGraph:
    """``condense_positive_components`` with a node-to-component dict and
    the weight sums in a Python dict, in canonical edge order."""
    comps = positive_components(g)
    index = {}
    for k, comp in enumerate(comps):
        for v in comp:
            index[v] = k
    agg: dict[tuple[int, int], float] = {}
    for i, j, w in g.edges:
        if w >= 0:
            continue
        a, b = index[i], index[j]
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        agg[key] = agg.get(key, 0.0) + w
    edges = tuple((i, j, w) for (i, j), w in sorted(agg.items()))
    return SignedGraph(len(comps), edges)


def exact_partner_laplacian(g: SignedGraph, b: Bipartition) -> list[list[Fraction]]:
    """The gauge partner Laplacian in exact arithmetic: every float weight
    as the rational it is, cross ties sign-flipped, the diagonal summing
    the signed weights."""
    side = b.mask()
    lap = [[Fraction(0)] * g.n for _ in range(g.n)]
    for i, j, w in g.edges:
        w = -Fraction(w) if side[i] != side[j] else Fraction(w)
        lap[i][j] -= w
        lap[j][i] -= w
        lap[i][i] += w
        lap[j][j] += w
    return lap


def exact_charpoly(a: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients c[0..n] of det(x I - a), c[k] at x^k, by
    Faddeev-LeVerrier: M_1 = I, c[n-k] = -tr(a M_k) / k and
    M_{k+1} = a M_k + c[n-k] I."""
    n = len(a)
    c = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        c[n - k] = -sum(am[i][i] for i in range(n)) / k
        m = [[am[i][j] + (c[n - k] if i == j else 0) for j in range(n)] for i in range(n)]
    return c


def _sign_changes(coeffs) -> int:
    signs = [v > 0 for v in coeffs if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def exact_inertia(c) -> tuple[int, int, int]:
    """(negative, zero, positive) root counts of a real-rooted polynomial,
    as a symmetric matrix's characteristic polynomial is: Descartes' rule
    of signs is exact for such polynomials."""
    zero = next(k for k, v in enumerate(c) if v)
    pos = _sign_changes(c)
    return len(c) - 1 - zero - pos, zero, pos


def _exact_solve(a, rhs):
    """x with a x = rhs for a nonsingular square ``a`` and a list of
    right-hand columns (rows of ``rhs``), by Gauss-Jordan elimination in
    Fractions; None when ``a`` is singular."""
    n = len(a)
    rows = [list(a[i]) + [col[i] for col in rhs] for i in range(n)]
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        head = rows[k][k]
        rows[k] = [v / head for v in rows[k]]
        for r in range(n):
            if r != k and rows[r][k]:
                f = rows[r][k]
                rows[r] = [v - f * u for v, u in zip(rows[r], rows[k])]
    return [[rows[i][n + q] for i in range(n)] for q in range(len(rhs))]


def exact_gram_positive_definite(lap, forest) -> bool | None:
    """Whether the forest's resistance Gram B^T L^+ B is positive definite,
    in exact arithmetic, on a connected network: L grounded at node 0
    (each column sums to zero, so L^+ b and the solution of the grounded
    system, zero at the root, differ by a kernel vector every column is
    orthogonal to, and the two Grams agree), then every
    pivot of the Gram's elimination positive.  None when the grounded
    Laplacian is singular (an extra zero in the spectrum)."""
    n = len(lap)
    grounded = [row[1:] for row in lap[1:]]
    cols = []
    for i, j, _ in forest:
        col = [Fraction(0)] * (n - 1)
        if i:
            col[i - 1] += 1
        if j:
            col[j - 1] -= 1
        cols.append(col)
    y = _exact_solve(grounded, cols)
    if y is None:
        return None
    gram = [[sum(u * v for u, v in zip(cq, yp)) for yp in y] for cq in cols]
    for k in range(len(gram)):
        if not gram[k][k] > 0:
            return False
        for r in range(k + 1, len(gram)):
            f = gram[r][k] / gram[k][k]
            gram[r] = [v - f * u for v, u in zip(gram[r], gram[k])]
    return True


def exact_verdict(g: SignedGraph, b: Bipartition) -> Verdict:
    """``certify``'s verdict at a coefficient other than 1, in exact
    arithmetic: Inconclusive on a disconnected network, Divergence with a
    negative partner eigenvalue, asymmetric polarization with a simple
    zero, Inconclusive with more zeros."""
    if len(reference_components(g.n, g.edges)) > 1:
        return Verdict.INCONCLUSIVE
    neg, zero, _ = exact_inertia(exact_charpoly(exact_partner_laplacian(g, b)))
    if neg:
        return Verdict.DIVERGENCE
    return Verdict.ASYMMETRIC_POLARIZATION if zero == 1 else Verdict.INCONCLUSIVE
