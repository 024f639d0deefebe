"""Undirected signed weighted networks and their balance structure.

Value types here are immutable: graphs are canonical edge tuples,
bipartitions are frozen node sets.  Classification leans on one structural
fact: any bipartition whose cross-subset ties are all antagonistic must keep
each component of the cooperative (positive-edge) subgraph whole, so the
number of those components drives enumeration, uniqueness, and the balanced
special cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SignedGraph:
    """Undirected signed graph on nodes ``0 .. n-1``.

    Edges are canonical ``(i, j, w)`` triples with ``i < j`` and ``w`` finite
    and nonzero, stored sorted.  At most one edge per node pair, no
    self-loops.  The constructor normalizes orientation and ordering and
    validates the rest.
    """

    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise BadIndex("node count must be non-negative")
        canonical = []
        seen = set()
        for i, j, w in self.edges:
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise SelfLoop(f"self-loop at node {i}")
            if i > j:
                i, j = j, i
            if i < 0 or j >= self.n:
                raise BadIndex(f"edge ({i}, {j}) outside 0..{self.n - 1}")
            if w == 0.0:
                raise ZeroWeight(f"edge ({i}, {j}) has zero weight")
            if not math.isfinite(w):
                raise NonFiniteWeight(f"edge ({i}, {j}) has non-finite weight {w}")
            if (i, j) in seen:
                raise DuplicateEdge(f"node pair ({i}, {j}) appears twice")
            seen.add((i, j))
            canonical.append((i, j, w))
        canonical.sort()
        object.__setattr__(self, "edges", tuple(canonical))

    @classmethod
    def from_edge_list(cls, n: int, triples) -> SignedGraph:
        """Build a graph from an iterable of ``(i, j, w)`` triples."""
        return cls(n, tuple(triples))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix with zeros off the edge set."""
        a = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            a[i, j] = w
            a[j, i] = w
        return a


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


class _UnionFind:
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


def subgraph_by_sign(g: SignedGraph, sign: int) -> SignedGraph:
    """Spanning subgraph keeping only edges whose weight sign matches."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    keep = tuple(e for e in g.edges if (e[2] > 0) == (sign > 0))
    return SignedGraph(g.n, keep)


def connected_components(g: SignedGraph) -> tuple[frozenset[int], ...]:
    """Components of the whole graph, ordered by smallest member."""
    uf = _UnionFind(g.n)
    for i, j, _ in g.edges:
        uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(uf.find(v), []).append(v)
    return tuple(sorted((frozenset(ms) for ms in groups.values()), key=min))


def positive_components(g: SignedGraph) -> tuple[frozenset[int], ...]:
    """Components of the cooperative subgraph; isolated nodes count."""
    return connected_components(subgraph_by_sign(g, 1))


def spanning_forest(g: SignedGraph) -> SignDecomposition:
    """Split edges by sign and forest the antagonistic subgraph.

    Edges are scanned in canonical order, so the forest is deterministic;
    the leftover antagonistic edges each close a cycle in the forest.
    """
    pos = tuple(e for e in g.edges if e[2] > 0)
    neg = tuple(e for e in g.edges if e[2] < 0)
    uf = _UnionFind(g.n)
    forest, cycles = [], []
    for e in neg:
        (forest if uf.union(e[0], e[1]) else cycles).append(e)
    return SignDecomposition(pos, neg, tuple(forest), tuple(cycles))


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
    v1 = b.v1
    return all(w < 0 for i, j, w in g.edges if (i in v1) != (j in v1))


def _no_antagonism_within(g: SignedGraph, v1: frozenset[int]) -> bool:
    return not any(w < 0 and (i in v1) == (j in v1) for i, j, w in g.edges)


def is_structurally_balanced(g: SignedGraph) -> Bipartition | None:
    """Detect the fully balanced case: a unique two-faction split with
    cooperative ties inside factions and antagonism across.

    Requires exactly two cooperative components (so the split is unique and
    each faction holds together) and no antagonistic tie inside either.
    Returns the bipartition with node 0's side first, else None.
    """
    comps = positive_components(g)
    if len(comps) != 2 or not _no_antagonism_within(g, comps[0]):
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
    comps = positive_components(g)
    if len(comps) == 2:
        return SB if _no_antagonism_within(g, comps[0]) else QSB
    return GQSB if len(comps) > 2 else UNBALANCED


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
    comps = positive_components(g)
    v1: set[int] = set()
    for comp in comps:
        if comp & set(nodes):
            v1 |= comp
    if len(v1) >= g.n:
        raise BadPartition("dominant group and its cooperative allies cover every node")
    b = Bipartition(g.n, frozenset(v1))
    if not validate_gqsb(g, b):
        raise BadPartition("induced bipartition has a cooperative cross-subset edge")
    return b
