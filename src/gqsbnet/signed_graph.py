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
import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BadIndex,
    BadPartition,
    DuplicateEdge,
    GqsbError,
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

# Most nodes given a dense n x n matrix.  One float64 array is 0.8 GB at
# the cap, the polarizing report peaks at about five of them, and its
# two dense eigensolves take minutes there.
_DENSE_CAP = 10_000


class _Columns(NamedTuple):
    """Edge endpoints and weights as arrays, handed to the constructor in
    place of triples."""

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray


def _cast(i, j, w) -> _Columns:
    return _Columns(np.asarray(i, np.int64), np.asarray(j, np.int64), np.asarray(w, np.float64))


def _node_id(v) -> int:
    """``int(v)``, refusing a value other than a string that it would
    truncate (0.5, say)."""
    k = int(v)
    if not isinstance(v, str) and k != v:
        raise BadIndex(f"node id {v} is not an integer")
    return k


def _integer(v, what: str) -> int:
    """``operator.index(v)``; BadIndex names ``what`` when ``v`` is not
    an integer."""
    try:
        return operator.index(v)
    except TypeError:
        raise BadIndex(f"{what} must be an integer, got {v!r}") from None


def _edge_columns(n: int, edges) -> _Columns:
    """The constructor's input as columns in input order: cast in bulk
    when every entry is a plain number, else each of the caller's entries
    through ``_node_id`` or ``float()``, with Python-int id columns when an
    id is beyond int64.  An entry that does not convert raises after the
    edges above it are judged, so errors come in input order."""
    if isinstance(edges, _Columns):
        cols = tuple(np.asarray(a) for a in edges)
        if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
            raise ValueError("edge arrays must be one-dimensional and of equal length")
        rows = zip(*edges)
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
    converted, failed = [], None
    try:
        for i, j, w in rows:
            converted.append((_node_id(i), _node_id(j), float(w)))
    except Exception as error:  # raised once the edges above it are judged
        failed = error
    i, j, w = zip(*converted) if converted else ((), (), ())
    try:
        edges = _cast(i, j, w)
    except OverflowError:
        edges = _Columns(np.array(i, object), np.array(j, object), np.array(w))
    if failed is not None:
        raise _first_error(n, edges) or failed
    return edges


def _rules(n: int, lo: np.ndarray, hi: np.ndarray, w: np.ndarray):
    """The edge rules in their order: each rule's error, its message (on
    the pair, the weight and n - 1) and its mask of the edges that break
    it, made when the rule is reached."""
    yield SelfLoop, "self-loop at node {0}", lo == hi
    yield BadIndex, "edge ({0}, {1}) outside 0..{3}", (lo < 0) | (hi >= n)
    yield ZeroWeight, "edge ({0}, {1}) has zero weight", w == 0.0
    yield NonFiniteWeight, "edge ({0}, {1}) has non-finite weight {2}", ~np.isfinite(w)


def _first_error(n: int, edges: _Columns) -> GqsbError | None:
    """The first bad edge's error, with its input position as
    ``error.edge``, or None: the earliest edge a rule flags, named by its
    first rule, unless a pair repeats above it (a stable sort by pair
    lists each pair's edges in input order)."""
    i, j, w = edges
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # each rule's first flagged edge (w.size for none); min keeps the first rule of equals
    firsts = [(kind, text, int(mask.argmax()) if mask.any() else w.size)
              for kind, text, mask in _rules(n, lo, hi, w)]
    kind, text, k = min(firsts, key=lambda rule: rule[2])
    order = np.lexsort((hi[:k], lo[:k]))
    same = True
    for column in (lo, hi):
        ranked = column[order]
        same = same & (ranked[1:] == ranked[:-1])
    if same.any():
        kind, text = DuplicateEdge, "node pair ({0}, {1}) appears twice"
        k = int(order[1:][same].min())
    elif k == w.size:
        return None
    error = kind(text.format(lo[k], hi[k], w[k], n - 1))
    error.edge = k
    return error


# The largest node span whose pair keys lo * span + hi, at most
# span**2 - 1, fit in int64.
_KEY_SPAN = math.isqrt(2 ** 63)


def _canonical(n: int, edges: _Columns) -> _Columns:
    """Validated columns in canonical order (``i < j``, sorted by pair).

    The one judge of edges: valid columns cost the rules' masks and one
    sort, and when a mask flags an edge or the sort finds a repeated pair,
    ``_first_error`` names the first bad edge in input order.  Python-int
    columns (an id beyond int64) whose edges are all valid raise TooLarge.
    """
    i, j, w = edges
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    if lo.dtype == object or any(mask.any() for *_, mask in _rules(n, lo, hi, w)):
        raise _first_error(n, edges) or TooLarge("node indices must fit in int64")
    span = int(hi.max(initial=0)) + 1
    if span > _KEY_SPAN:
        # lo * span + hi would overflow int64: sort by the two columns
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        repeat = np.any((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]))
        w = w[order]
    else:
        # one int64 key per pair; the pairs of a valid graph are distinct,
        # so any sort gives the two-column order
        key = lo * span
        key += hi
        del lo, hi
        order = np.argsort(key)
        key = key[order]
        repeat = np.any(key[1:] == key[:-1])
        w = w[order]
        del order
        hi = key % span
        lo = np.floor_divide(key, span, out=key)
    if repeat:
        raise _first_error(n, edges)
    return _Columns(lo, hi, w)


class SignedGraph:
    """Undirected signed graph on nodes ``0 .. n-1``.

    Edges are canonical ``(i, j, w)`` triples with ``i < j`` and ``w`` finite
    and nonzero, stored sorted.  At most one edge per node pair, no
    self-loops.  The constructor normalizes orientation and ordering and
    validates the rest in bulk; the first bad edge in input order raises,
    with its position as ``error.edge``.  The node count must be an
    integer (``operator.index``), and so must each endpoint: a string goes
    through ``int()``, and any other value must equal its ``int()``
    (``2.0`` does, ``0.5`` raises BadIndex).

    The graph is held as three read-only arrays in canonical order: ``i``
    and ``j`` (int64) and ``w`` (float64).  ``edges`` is the same edge set
    as a tuple of Python triples, built on first use.  Instances are
    immutable, compare equal when ``n`` and the edges are equal, and hash
    accordingly.  Values derived from the edges (``edges``,
    ``cooperative_labels``, and for one bipartition the partner that
    ``operators`` keeps: network, Laplacian, eigendecomposition and core)
    are kept on the instance; pickles and copies carry none.
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
        object.__setattr__(self, "n", _integer(self.n, "node count"))
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
        canonical order, judged as the constructor judges its edges: the
        first zero or non-finite weight raises the constructor's error."""
        w = np.array(w, np.float64)
        if w.shape != self.w.shape:
            raise ValueError("reweighted needs one weight per edge")
        return _trusted(self.n, _canonical(self.n, _Columns(self.i, self.j, w)))

    def adjacency(self, order: np.ndarray | None = None) -> np.ndarray:
        """Dense symmetric adjacency matrix with zeros off the edge set;
        with ``order``, a permutation of the nodes, row and column p are
        node ``order[p]``'s.

        Every dense operator starts here, so a graph above ``_DENSE_CAP``
        nodes raises TooLarge before any n x n array is allocated."""
        if self.n > _DENSE_CAP:
            raise TooLarge(f"dense matrices capped at {_DENSE_CAP} nodes, got {self.n}")
        i, j = self.i, self.j
        if order is not None:
            at = np.empty(self.n, dtype=np.int64)
            at[order] = np.arange(self.n)
            i, j = at[i], at[j]
        a = np.zeros((self.n, self.n))
        a[i, j] = self.w
        a[j, i] = self.w
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

    ``v1`` is the dominant side; both sides must be non-empty.  The node
    count and ids must be integers (``operator.index``); they are stored
    as ``int``.
    """

    n: int
    v1: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "node count"))
        try:
            v1 = frozenset(map(operator.index, self.v1))
        except TypeError:
            raise BadIndex(f"node ids must be integers, got {self.v1!r}")
        object.__setattr__(self, "v1", v1)
        for v in self.v1:
            if not 0 <= v < self.n:
                raise BadIndex(f"node {v} outside 0..{self.n - 1}")
        if not self.v1 or len(self.v1) >= self.n:
            raise BadPartition("both subsets must be non-empty")

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

    The antagonistic edges are scanned in canonical order
    (``_scan_forest``), so the forest is deterministic; the leftover
    antagonistic edges each close a cycle in the forest.
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


def _crossing(g: SignedGraph, b: Bipartition) -> np.ndarray:
    """Which edges of g, in canonical order, join the two sides of b."""
    if b.n != g.n:
        raise BadIndex("bipartition and graph disagree on node count")
    side = b.mask()
    return side[g.i] != side[g.j]


def validate_gqsb(g: SignedGraph, b: Bipartition) -> bool:
    """True when every cross-subset edge is antagonistic."""
    return bool(np.all(g.w[_crossing(g, b)] < 0))


def _same_side_ties(g: SignedGraph, side: np.ndarray) -> np.ndarray:
    """Which edges of g, in canonical order, are antagonistic ties with
    both ends on one side of the boolean node mask ``side``."""
    return (g.w < 0) & (side[g.i] == side[g.j])


def is_structurally_balanced(g: SignedGraph) -> Bipartition | None:
    """Detect the fully balanced case: a unique two-faction split with
    cooperative ties inside factions and antagonism across.

    Requires the quasi-balanced split (``is_qsb``) and no antagonistic tie
    inside either faction.  Returns the bipartition with node 0's side
    first, else None.
    """
    b = is_qsb(g)
    if b is None or _same_side_ties(g, b.mask()).any():
        return None
    return b


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


# Most cooperative components whose bipartitions are listed: 2**19 - 1.
_ENUMERATION_CAP = 20


def _bipartition_count(p: int) -> int:
    # each of p cooperative components goes wholly to one side; mirrors collapse
    return (1 << (p - 1)) - 1 if p >= 2 else 0


def enumerate_gqsb_bipartitions(g: SignedGraph) -> tuple[Bipartition, ...]:
    """All bipartitions whose cross-subset edges are antagonistic.

    Each cooperative component goes wholly to one side, and any assignment
    with both sides non-empty qualifies, so with p components there are
    2**(p-1) - 1 of them.  Mirrors are removed by keeping node 0's
    component on side one.  Empty when p < 2.  Raises TooLarge, before
    listing any, when p exceeds 20.
    """
    comps = positive_components(g)
    p = len(comps)
    if p > _ENUMERATION_CAP:
        raise TooLarge(f"{p} cooperative components give too many bipartitions to list")
    return tuple(
        Bipartition(g.n, comps[0].union(*(c for k, c in enumerate(comps[1:]) if bits >> k & 1)))
        for bits in range(_bipartition_count(p)))


def classify(g: SignedGraph) -> str:
    """Label the network SB, QSB, GQSB, or Unbalanced-signed.

    The labels narrow: SB and QSB need a unique antagonistic bipartition
    (two cooperative components; SB also has no antagonism inside either),
    GQSB needs at least one, and the rest admit none at all.
    """
    p = _cooperative_count(g)
    if p == 2:
        # node 0's component is the one labelled 0
        return QSB if _same_side_ties(g, g.cooperative_labels == 0).any() else SB
    return GQSB if p > 2 else UNBALANCED


def _cooperative_count(g: SignedGraph) -> int:
    """p, the number of cooperative components (isolated nodes count):
    the nodes that label their own component."""
    return int(np.count_nonzero(g.cooperative_labels == np.arange(g.n)))


def neighbor_sets(g: SignedGraph, b: Bipartition, i: int) -> NeighborSets:
    """Split node i's neighbors into cooperative, same-subset antagonistic,
    and cross-subset antagonistic ties.  ``i`` must be an integer
    (``operator.index``)."""
    i = _integer(i, "node id")
    if not 0 <= i < g.n:
        raise BadIndex(f"node {i} outside 0..{g.n - 1}")
    cross = _crossing(g, b)
    other = np.where(g.i == i, g.j, g.i)
    at = (g.i == i) | (g.j == i)
    coop = at & (g.w > 0)
    ties = (coop, at & ~coop & ~cross, at & ~coop & cross)
    return NeighborSets(*(frozenset(other[t].tolist()) for t in ties))


def condense_positive_components(g: SignedGraph) -> SignedGraph:
    """Shrink each cooperative component to one node, keeping an
    antagonistic edge between two component nodes when any antagonistic
    tie links them; parallel ties aggregate by weight sum, added in
    canonical edge order."""
    roots, comp = np.unique(g.cooperative_labels, return_inverse=True)
    p = roots.size
    neg = g.w < 0
    a, b = comp[g.i[neg]], comp[g.j[neg]]
    apart = a != b
    lo, hi = np.minimum(a, b)[apart], np.maximum(a, b)[apart]
    keys, slot = np.unique(lo * p + hi, return_inverse=True)
    sums = np.zeros(keys.size)
    with np.errstate(over="ignore"):  # an infinite sum raises NonFiniteWeight below
        np.add.at(sums, slot, g.w[neg][apart])
    return SignedGraph.from_arrays(p, keys // p, keys % p, sums)


# Most nodes chromatic_number searches exactly.
_COLORING_CAP = 20


def chromatic_number(g: SignedGraph) -> int:
    """Exact chromatic number of the graph's edge skeleton.

    Backtracking over k-colorings with a new-color symmetry break, for
    k = 1, 2, ... until one succeeds.  Exact search is limited to 20
    nodes; larger inputs raise TooLarge.
    """
    if g.n > _COLORING_CAP:
        raise TooLarge(f"exact coloring capped at {_COLORING_CAP} nodes, got {g.n}")
    n = g.n
    if n == 0:
        return 0
    adj = [set() for _ in range(n)]
    for i, j in zip(g.i.tolist(), g.j.tolist()):
        adj[i].add(j)
        adj[j].add(i)
    order = sorted(range(n), key=lambda v: len(adj[v]), reverse=True)

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

    k = 1
    while not colorable(k):
        k += 1
    return k


def bipartition_from_dominant(g: SignedGraph, dominant) -> Bipartition:
    """Bipartition induced by a dominant node group.

    Side one is the union of the cooperative components touching the given
    nodes, i.e. the group plus everyone tied to it through cooperation.
    A positive edge joins two nodes of one component, so it never crosses
    the split: the result always passes ``validate_gqsb``.  Raises
    BadPartition when the group is empty, holds a non-integral id, is out
    of range, or leaves the other side empty.
    """
    dominant = list(dominant)
    try:
        nodes = sorted(set(map(operator.index, dominant)))
    except TypeError:
        raise BadPartition(f"dominant nodes must be integers, got {dominant!r}")
    if not nodes:
        raise BadPartition("dominant group must name at least one node")
    for v in nodes:
        if not 0 <= v < g.n:
            raise BadPartition(f"dominant node {v} outside 0..{g.n - 1}")
    labels = g.cooperative_labels
    side = np.isin(labels, labels[nodes])
    if side.all():
        raise BadPartition("dominant group and its cooperative allies cover every node")
    return Bipartition(g.n, frozenset(np.flatnonzero(side).tolist()))
