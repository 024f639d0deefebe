"""Shared test helpers: exhaustive scan oracles and seeded generators.

The scan oracles deliberately avoid the library's component machinery;
they enumerate candidate splits or walk edges directly, so agreement with
the package is a real cross-check and not a tautology.  The edge-list
oracles (line-by-line parser, per-edge graph constructor, union-find) are
the scalar forms of what the package now does with arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    effective_resistance,
    generalized_laplacian,
    incidence_matrix,
    spanning_forest,
    sym_eigen,
    validate_gqsb,
    z_transform_network,
)


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


def reference_certify(g, b, gamma, zero_tol=None):
    """Certificate computed afresh with three eigendecompositions
    (the partner Laplacian, again inside the pseudoinverse, and the
    resistance matrix) and the full incidence matrix: the oracle for the
    shared partner decomposition.  The resistance matrix counts as
    positive definite above the partner Laplacian's zero tolerance; the
    reported ``resistance_pd_tol`` is 1e-9 times its largest eigenvalue
    magnitude, and ``decided_by`` names the branch below that returned."""
    bundle = generalized_laplacian(g, b, gamma)
    partner = z_transform_network(bundle)
    dec = spanning_forest(partner)
    inc = incidence_matrix(partner, dec)
    nf = len(dec.forest_edges)
    eig = sym_eigen(bundle.z_laplacian, zero_tol)
    tol = eig.zero_tol
    resistance = effective_resistance(
        bundle.z_laplacian, dec.forest_edges, inc.matrix[:, :nf], zero_tol=tol
    )
    if nf:
        res_eigs = sym_eigen(resistance).eigenvalues
        res_min = float(res_eigs[0])
        res_pd_tol = 1e-9 * max(abs(float(x)) for x in res_eigs)
        res_pd = res_min > tol
    else:
        res_min = res_pd_tol = None
        res_pd = True
    connected = len(connected_components(g)) == 1
    w = eig.eigenvalues
    zero_mult = eig.zero_count

    if not connected:
        verdict, decided_by = Verdict.INCONCLUSIVE, "connectivity"
    elif w.size and float(w[0]) < -tol:
        verdict, decided_by = Verdict.DIVERGENCE, "negative_eigenvalue"
    elif zero_mult == 0:
        verdict, decided_by = Verdict.NEUTRAL_CONSENSUS, "zero_multiplicity"
    elif zero_mult == 1 and res_pd:
        v1 = b.v1
        plain_split = gamma == 1.0 and not any(
            w_ < 0 and (i in v1) == (j in v1) for i, j, w_ in g.edges
        )
        verdict = Verdict.CONSENSUS if plain_split else Verdict.ASYMMETRIC_POLARIZATION
        decided_by = "plain_split" if plain_split else "resistance_pd"
    else:
        verdict = Verdict.INCONCLUSIVE
        decided_by = "resistance_pd" if zero_mult == 1 else "zero_multiplicity"

    return PolarizationCertificate(
        connected=connected,
        spectrum=tuple(float(x) for x in w),
        zero_multiplicity=zero_mult,
        gamma=bundle.gamma,
        forest_edges=dec.forest_edges,
        resistance=resistance,
        resistance_min_eig=res_min,
        verdict=verdict,
        null_right=np.where(b.mask(), -bundle.gamma, 1.0),
        null_left=bundle.coord_gauge / g.n,
        decided_by=decided_by,
        zero_tol=tol,
        resistance_pd_tol=res_pd_tol,
    )


def reference_certificate_dict(cert: PolarizationCertificate) -> dict:
    """The certificate document as it was before schema 2: the oracle for
    ``certificate_dict(cert, detail="full")``."""
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


def reference_graph(n, edges):
    """Per-edge graph constructor: ``int()`` and ``float()`` on each
    entry, then the checks in order, raising at the first bad edge in input
    order.  Returns ``(n, canonical sorted edge tuple)``."""
    if n < 0:
        raise BadIndex("node count must be non-negative")
    canonical = []
    seen = set()
    for i, j, w in edges:
        i, j, w = int(i), int(j), float(w)
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
