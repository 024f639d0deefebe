"""Undirected signed weighted networks and their balance structure.

Value types here are immutable: graphs are read-only canonical edge arrays,
bipartitions are frozen node sets.  Classification leans on one structural
fact: any bipartition whose cross-subset ties are all antagonistic must keep
each component of the cooperative (positive-edge) subgraph whole, so the
number of those components drives enumeration, uniqueness, and the balanced
special cases.  Components are found with array passes (min-label hooking
plus pointer jumping), and a graph keeps its cooperative labels once found.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BadIndex,
    BadPartition,
    DuplicateEdge,
    NonFiniteWeight,
    SelfLoop,
    TooLarge,
    ZeroWeight,
)

Edge = tuple[int, int, float]

SB = "SB"
QSB = "QSB"
GQSB = "GQSB"
UNBALANCED = "Unbalanced-signed"


class _Columns(NamedTuple):
    """Edge endpoints and weights as arrays, handed to the constructor in
    place of triples."""

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray


def _edge_error(n: int, i: int, j: int, w: float):
    """The error a single edge raises on its own, checks in their order,
    or None.  Duplicates are the caller's to find."""
    if i == j:
        return SelfLoop(f"self-loop at node {i}")
    if i > j:
        i, j = j, i
    if i < 0 or j >= n:
        return BadIndex(f"edge ({i}, {j}) outside 0..{n - 1}")
    if w == 0.0:
        return ZeroWeight(f"edge ({i}, {j}) has zero weight")
    if not math.isfinite(w):
        return NonFiniteWeight(f"edge ({i}, {j}) has non-finite weight {w}")
    return None


def _duplicate(i: int, j: int) -> DuplicateEdge:
    return DuplicateEdge(f"node pair ({min(i, j)}, {max(i, j)}) appears twice")


def _cast(i, j, w) -> _Columns:
    return _Columns(np.asarray(i, np.int64), np.asarray(j, np.int64), np.asarray(w, np.float64))


def _columns_by_edge(n: int, rows) -> _Columns:
    """Columns of triples whose entries are not all plain numbers: each
    entry goes through ``int()`` or ``float()`` and each edge is checked in
    input order, so a bad entry and a bad edge raise in the order they
    come."""
    seen: set[tuple[int, int]] = set()
    out = []
    for i, j, w in rows:
        i, j, w = int(i), int(j), float(w)
        error = _edge_error(n, i, j, w)
        if error is not None:
            raise error
        key = (min(i, j), max(i, j))
        if key in seen:
            raise _duplicate(i, j)
        seen.add(key)
        out.append((i, j, w))
    try:
        return _cast(*zip(*out)) if out else _cast((), (), ())
    except OverflowError:  # valid only because n itself is beyond int64
        raise TooLarge("node indices must fit in int64") from None


def _edge_columns(n: int, edges) -> _Columns:
    """int64 endpoint and float64 weight columns of the constructor's
    input, in input order: cast in bulk when every entry is a plain
    number, else converted one edge at a time."""
    if isinstance(edges, _Columns):
        cols = tuple(np.asarray(a) for a in edges)
        if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
            raise ValueError("edge arrays must be one-dimensional and of equal length")
        rows = zip(*cols)
    else:
        rows = tuple(edges)
        try:
            regular = bool(rows) and set(map(len, rows)) == {3}
        except TypeError:
            regular = False
        cols = tuple(np.asarray(col) for col in zip(*rows)) if regular else None
    if cols is not None and (np.can_cast(cols[0].dtype, np.int64)
                             and np.can_cast(cols[1].dtype, np.int64)
                             and np.can_cast(cols[2].dtype, np.float64)):
        return _cast(*cols)
    return _columns_by_edge(n, rows)


def _raise_first_bad(n: int, edges: _Columns, bad: np.ndarray):
    """Raise for the first bad edge in input order, counting the later
    copies of a repeated pair as bad, with the error a per-edge check
    gives it."""
    i, j, w = edges
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    order = np.lexsort((hi, lo))  # stable: a repeated pair's copies keep input order
    lo, hi = lo[order], hi[order]
    repeat = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    bad[order[1:][repeat]] = True
    k = int(np.flatnonzero(bad)[0])
    a, b, x = int(i[k]), int(j[k]), float(w[k])
    raise _edge_error(n, a, b, x) or _duplicate(a, b)


def _canonical(n: int, edges: _Columns) -> _Columns:
    """Validated columns in canonical order (``i < j``, sorted by pair).

    The first bad edge in input order raises, with the error and message a
    per-edge check gives it: a self-loop, an endpoint outside the node
    range, a zero or non-finite weight, or a pair seen earlier.
    """
    i, j, w = edges
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    bad = (i == j) | (lo < 0) | (hi >= n) | (w == 0.0) | ~np.isfinite(w)
    if bad.any():
        _raise_first_bad(n, edges, bad)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    if np.any((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])):
        _raise_first_bad(n, edges, bad)
    return _Columns(lo, hi, w[order])


class SignedGraph:
    """Undirected signed graph on nodes ``0 .. n-1``.

    Edges are canonical ``(i, j, w)`` triples with ``i < j`` and ``w`` finite
    and nonzero, stored sorted.  At most one edge per node pair, no
    self-loops.  The constructor normalizes orientation and ordering and
    validates the rest; the first bad edge in input order raises.

    The graph is held as three read-only arrays in canonical order: ``i``
    and ``j`` (int64) and ``w`` (float64).  ``edges`` is the same edge set
    as a tuple of Python triples, built on first use.  Instances are
    immutable, compare equal when ``n`` and the edges are equal, and hash
    accordingly.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def __init__(self, n: int, edges=()):
        object.__setattr__(self, "n", n)
        self.__post_init__(edges)

    # Validation keeps the dataclass hook's name: the benchmark's tracer
    # times graph construction through ``SignedGraph.__post_init__``.
    def __post_init__(self, edges):
        if self.n < 0:
            raise BadIndex("node count must be non-negative")
        self._set_columns(_canonical(self.n, _edge_columns(self.n, edges)))

    def _set_columns(self, edges: _Columns) -> None:
        for name, column in zip(_Columns._fields, edges):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @classmethod
    def from_edge_list(cls, n: int, triples) -> SignedGraph:
        """Build a graph from an iterable of ``(i, j, w)`` triples."""
        return cls(n, tuple(triples))

    @classmethod
    def from_arrays(cls, n: int, i, j, w) -> SignedGraph:
        """Build a graph from endpoint and weight arrays, one entry per
        edge, validated and normalized as triples are."""
        return cls(n, _Columns(i, j, w))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The canonical edges as Python ``(i, j, w)`` triples, built on
        first use."""
        return _triples(self.i, self.j, self.w)

    @property
    def m(self) -> int:
        return int(self.w.size)

    @cached_property
    def cooperative_labels(self) -> np.ndarray:
        """Each node's cooperative component, named by its smallest node.

        Found in one pass over the positive edges on first use and kept, so
        classification, counting and dominant-group bipartitions share it.
        """
        pos = self.w > 0
        labels = _joined(np.arange(self.n), self.i[pos], self.j[pos])
        labels.setflags(write=False)
        return labels

    def reweighted(self, w) -> SignedGraph:
        """The same canonical edges with new weights, one per edge in
        canonical order.  The first zero or non-finite weight raises, with
        the error the constructor gives it."""
        w = np.array(w, np.float64)
        if w.shape != self.w.shape:
            raise ValueError("reweighted needs one weight per edge")
        bad = (w == 0.0) | ~np.isfinite(w)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise _edge_error(self.n, int(self.i[k]), int(self.j[k]), float(w[k]))
        return _trusted(self.n, _Columns(self.i, self.j, w))

    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix with zeros off the edge set."""
        a = np.zeros((self.n, self.n))
        a[self.i, self.j] = self.w
        a[self.j, self.i] = self.w
        return a

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.i, other.i)
                and np.array_equal(self.j, other.j) and np.array_equal(self.w, other.w))

    def __hash__(self):
        # weights are finite and nonzero, so equal weights have equal bytes
        return hash((self.n, self.i.tobytes(), self.j.tobytes(), self.w.tobytes()))

    def __repr__(self):
        return f"SignedGraph(n={self.n!r}, edges={self.edges!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (_trusted, (self.n, _Columns(self.i, self.j, self.w)))


def _trusted(n: int, edges: _Columns) -> SignedGraph:
    """A graph on columns already canonical and valid (a graph's own
    columns, masked or re-weighted), built without checks.  The columns
    are frozen in place, not copied."""
    g = SignedGraph.__new__(SignedGraph)
    object.__setattr__(g, "n", n)
    g._set_columns(edges)
    return g


def _joined(labels: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Labels after joining the two endpoints of every ``(a, b)`` pair.

    ``labels`` names each node's class by its smallest member.  Min-label
    hooking plus pointer jumping: each round hooks the larger of the two
    labels across every unsettled pair onto the smaller, then follows
    pointers until each node points at a class root.  Hooks only go
    downward, so roots stay the smallest members, and a pair settled once
    stays settled.
    """
    labels = labels.copy()
    while a.size:
        la, lb = labels[a], labels[b]
        apart = la != lb
        if not apart.any():
            break
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up
    return labels


def _groups(labels: np.ndarray) -> tuple[frozenset[int], ...]:
    """Node classes of a labelling whose labels are smallest members,
    ordered by smallest member."""
    if labels.size == 0:
        return ()
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    nodes = order.tolist()
    bounds = [0, *cuts.tolist(), len(nodes)]
    return tuple(frozenset(nodes[s:e]) for s, e in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class Bipartition:
    """Split of ``0 .. n-1`` into a dominant subset and the remainder.

    ``v1`` is the dominant side; both sides must be non-empty.
    """

    n: int
    v1: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "v1", frozenset(self.v1))
        if not self.v1 or len(self.v1) >= self.n:
            raise BadPartition("both subsets must be non-empty")
        for v in self.v1:
            if not 0 <= v < self.n:
                raise BadIndex(f"node {v} outside 0..{self.n - 1}")

    @property
    def v2(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.v1

    @property
    def r(self) -> int:
        return len(self.v1)

    def in_v1(self, i: int) -> bool:
        return i in self.v1

    def mask(self) -> np.ndarray:
        """Boolean vector, True on the dominant side."""
        m = np.zeros(self.n, dtype=bool)
        m[list(self.v1)] = True
        return m


@dataclass(frozen=True)
class SignDecomposition:
    """Edge split: cooperative part, antagonistic part, and a spanning
    forest of the antagonistic subgraph with its leftover cycle edges."""

    positive_edges: tuple[Edge, ...]
    negative_edges: tuple[Edge, ...]
    forest_edges: tuple[Edge, ...]
    cycle_edges: tuple[Edge, ...]


@dataclass(frozen=True)
class IncidenceMatrix:
    """Node-edge incidence with one column per edge, +1 at the smaller
    endpoint and -1 at the larger.  Columns follow ``column_edges``."""

    matrix: np.ndarray
    column_edges: tuple[Edge, ...]


@dataclass(frozen=True)
class NeighborSets:
    """Neighbors of one node split by tie type relative to a bipartition."""

    coop: frozenset[int]
    intra_neg: frozenset[int]
    inter_neg: frozenset[int]

    @property
    def all_neighbors(self) -> frozenset[int]:
        return self.coop | self.intra_neg | self.inter_neg


def _triples(i: np.ndarray, j: np.ndarray, w: np.ndarray) -> tuple[Edge, ...]:
    return tuple(zip(i.tolist(), j.tolist(), w.tolist()))


def subgraph_by_sign(g: SignedGraph, sign: int) -> SignedGraph:
    """Spanning subgraph keeping only edges whose weight sign matches."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    keep = g.w > 0 if sign > 0 else g.w < 0
    return _trusted(g.n, _Columns(g.i[keep], g.j[keep], g.w[keep]))


def connected_components(g: SignedGraph) -> tuple[frozenset[int], ...]:
    """Components of the whole graph, ordered by smallest member: the
    cooperative components, joined across antagonistic edges."""
    neg = g.w < 0
    return _groups(_joined(g.cooperative_labels, g.i[neg], g.j[neg]))


def positive_components(g: SignedGraph) -> tuple[frozenset[int], ...]:
    """Components of the cooperative subgraph; isolated nodes count."""
    return _groups(g.cooperative_labels)


def _scan_forest(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which of the edges ``(a[k], b[k])`` a scan in order keeps: edge k
    is kept when no path of earlier edges already joins its ends.

    Borůvka rounds with each edge's rank as its weight: every class picks
    its lowest-ranked edge to another class, and the picks join.  Distinct
    weights make the minimum spanning forest unique, so the rounds keep
    exactly the edges the scan keeps.
    """
    labels = np.arange(n)
    kept = np.zeros(a.size, dtype=bool)
    live = np.arange(a.size)
    while live.size:
        la, lb = labels[a[live]], labels[b[live]]
        apart = la != lb
        live, la, lb = live[apart], la[apart], lb[apart]
        if not live.size:
            break
        lowest = np.full(n, a.size)
        np.minimum.at(lowest, la, live)
        np.minimum.at(lowest, lb, live)
        picked = lowest[lowest < a.size]
        kept[picked] = True
        labels = _joined(labels, a[picked], b[picked])
    return kept


def spanning_forest(g: SignedGraph) -> SignDecomposition:
    """Split edges by sign and forest the antagonistic subgraph.

    Edges are scanned in canonical order, so the forest is deterministic;
    the leftover antagonistic edges each close a cycle in the forest.
    """
    pos = g.w > 0
    i, j, w = g.i[~pos], g.j[~pos], g.w[~pos]
    kept = _scan_forest(g.n, i, j)
    return SignDecomposition(
        _triples(g.i[pos], g.j[pos], g.w[pos]),
        _triples(i, j, w),
        _triples(i[kept], j[kept], w[kept]),
        _triples(i[~kept], j[~kept], w[~kept]),
    )


def incidence_matrix(g: SignedGraph, dec: SignDecomposition) -> IncidenceMatrix:
    """Incidence of the decomposed edge set.

    Column blocks follow the decomposition: forest edges, antagonistic
    cycle edges, then cooperative edges.
    """
    order = dec.forest_edges + dec.cycle_edges + dec.positive_edges
    b = np.zeros((g.n, len(order)))
    for col, (i, j, _) in enumerate(order):
        b[i, col] = 1.0
        b[j, col] = -1.0
    return IncidenceMatrix(b, order)


def validate_gqsb(g: SignedGraph, b: Bipartition) -> bool:
    """True when every cross-subset edge is antagonistic."""
    if b.n != g.n:
        raise BadIndex("bipartition and graph disagree on node count")
    side = b.mask()
    return bool(np.all(g.w[side[g.i] != side[g.j]] < 0))


def _no_antagonism_within(g: SignedGraph, side: np.ndarray) -> bool:
    """True when no antagonistic edge has both ends on one side of the
    boolean node mask ``side``."""
    return not np.any((g.w < 0) & (side[g.i] == side[g.j]))


def is_structurally_balanced(g: SignedGraph) -> Bipartition | None:
    """Detect the fully balanced case: a unique two-faction split with
    cooperative ties inside factions and antagonism across.

    Requires exactly two cooperative components (so the split is unique and
    each faction holds together) and no antagonistic tie inside either.
    Returns the bipartition with node 0's side first, else None.
    """
    comps = positive_components(g)
    if len(comps) != 2 or not _no_antagonism_within(g, g.cooperative_labels == 0):
        return None
    return Bipartition(g.n, comps[0])


def is_qsb(g: SignedGraph) -> Bipartition | None:
    """Detect the quasi-balanced case: a unique antagonistic bipartition
    in which any same-subset antagonists still share a cooperative path.

    Uniqueness holds exactly when the cooperative subgraph has two
    components; each subset is then one component, so a cooperative path
    joins any two of its nodes and the path condition always holds.
    Returns that bipartition or None.
    """
    comps = positive_components(g)
    return Bipartition(g.n, comps[0]) if len(comps) == 2 else None


def enumerate_gqsb_bipartitions(g: SignedGraph) -> tuple[Bipartition, ...]:
    """All bipartitions whose cross-subset edges are antagonistic.

    Each cooperative component goes wholly to one side, and any assignment
    with both sides non-empty qualifies, so with p components there are
    2**(p-1) - 1 of them.  Mirrors are removed by keeping node 0's
    component on side one.  Empty when p < 2.
    """
    comps = positive_components(g)
    p = len(comps)
    if p < 2:
        return ()
    head, rest = comps[0], comps[1:]
    full = (1 << (p - 1)) - 1
    out = []
    for bits in range(full):
        v1 = set(head)
        for k, comp in enumerate(rest):
            if bits >> k & 1:
                v1 |= comp
        out.append(Bipartition(g.n, frozenset(v1)))
    return tuple(out)


def classify(g: SignedGraph) -> str:
    """Label the network SB, QSB, GQSB, or Unbalanced-signed.

    The labels narrow: SB and QSB need a unique antagonistic bipartition
    (two cooperative components; SB also has no antagonism inside either),
    GQSB needs at least one, and the rest admit none at all.
    """
    labels = g.cooperative_labels
    p = int(np.count_nonzero(labels == np.arange(g.n)))
    if p == 2:
        # node 0's component is the one labelled 0
        return SB if _no_antagonism_within(g, labels == 0) else QSB
    return GQSB if p > 2 else UNBALANCED


def neighbor_sets(g: SignedGraph, b: Bipartition, i: int) -> NeighborSets:
    """Split node i's neighbors into cooperative, same-subset antagonistic,
    and cross-subset antagonistic ties."""
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


def condense_positive_components(g: SignedGraph) -> SignedGraph:
    """Shrink each cooperative component to one node, keeping an
    antagonistic edge between two component nodes when any antagonistic
    tie links them; parallel ties aggregate by weight sum."""
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


def chromatic_number(g: SignedGraph, max_nodes: int = 20) -> int:
    """Exact chromatic number of the graph's edge skeleton.

    Backtracking over k-colorings with a new-color symmetry break, checked
    against a greedy upper bound.  Exact search is limited to ``max_nodes``
    nodes; larger inputs raise TooLarge.
    """
    if g.n > max_nodes:
        raise TooLarge(f"exact coloring capped at {max_nodes} nodes, got {g.n}")
    n = g.n
    if n == 0:
        return 0
    if not g.edges:
        return 1
    adj = [set() for _ in range(n)]
    for i, j, _ in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    order = sorted(range(n), key=lambda v: len(adj[v]), reverse=True)

    greedy = {}
    for v in order:
        used = {greedy[u] for u in adj[v] if u in greedy}
        c = 0
        while c in used:
            c += 1
        greedy[v] = c
    best = max(greedy.values()) + 1

    def colorable(k: int) -> bool:
        assign = [-1] * n

        def walk(idx: int, used: int) -> bool:
            if idx == n:
                return True
            v = order[idx]
            banned = {assign[u] for u in adj[v] if assign[u] >= 0}
            for c in range(min(used + 1, k)):
                if c in banned:
                    continue
                assign[v] = c
                if walk(idx + 1, max(used, c + 1)):
                    return True
            assign[v] = -1
            return False

        return walk(0, 0)

    k = 2
    while k < best:
        if colorable(k):
            return k
        k += 1
    return best


def bipartition_from_dominant(g: SignedGraph, dominant) -> Bipartition:
    """Bipartition induced by a dominant node group.

    Side one is the union of the cooperative components touching the given
    nodes, i.e. the group plus everyone tied to it through cooperation.
    Raises BadPartition when the group is empty, out of range, or leaves
    the other side empty, and when the induced split is not purely
    antagonistic across (impossible for component unions, kept as a guard).
    """
    nodes = sorted(set(int(v) for v in dominant))
    if not nodes:
        raise BadPartition("dominant group must name at least one node")
    for v in nodes:
        if not 0 <= v < g.n:
            raise BadPartition(f"dominant node {v} outside 0..{g.n - 1}")
    labels = g.cooperative_labels
    side = np.isin(labels, labels[nodes])
    if side.all():
        raise BadPartition("dominant group and its cooperative allies cover every node")
    b = Bipartition(g.n, frozenset(np.flatnonzero(side).tolist()))
    if not validate_gqsb(g, b):
        raise BadPartition("induced bipartition has a cooperative cross-subset edge")
    return b
