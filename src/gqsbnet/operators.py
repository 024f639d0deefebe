"""Laplacian operators for signed networks with a dominant subset.

Besides the two classic signed Laplacians (repelling and opposing), this
module builds the dominance-scaled operator family for a bipartition whose
cross-subset ties are all antagonistic.  Perceived cross-subset weights are
amplified by the dominance coefficient in one direction and attenuated in
the other, while the degree term counts same-subset ties as signed and
cross-subset ties with flipped sign.  A diagonal coordinate gauge turns the
resulting flow matrix into a symmetric zero-row-sum Laplacian of a partner
network whose cross-subset ties are cooperative; spectra are computed there,
by the checked symmetric eigensolvers defined here.  The partner's one
full deterministic eigendecomposition is kept in the graph's one
``_Partner``, which every reader that needs no coefficient reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadGamma, DimensionMismatch, NoConvergence, NotGQSB, NotSymmetric, TooLarge
from .signed_graph import Bipartition, SignedGraph, _Columns, _crossing, _trusted, validate_gqsb

_SYMMETRY_RTOL = 1e-12
_RESIDUAL_RTOL = 1e-8
_INVARIANT_RTOL = 1e-12


def _blocks(n: int):
    """Slices of about n/16 rows (or columns) that cover 0..n-1 in order:
    a pass over an n x n matrix one block at a time holds about 1/16 of
    it in temporaries."""
    step = max(32, -(-n // 16))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _max_of(parts) -> float:
    """The largest of the block results ``parts``, 0 with none; a NaN
    among them is kept, so a NaN fails any bound it meets."""
    return float(np.max(np.fromiter(parts, float), initial=0.0))


def _max_abs(m: np.ndarray) -> float:
    """The largest entry magnitude of ``m`` (0 when empty), from two
    reductions that allocate nothing; a NaN entry gives NaN."""
    return abs(float(np.maximum(m.max(initial=0.0), -m.min(initial=0.0))))


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(m + m.T) / 2, formed in the one array it returns."""
    sym = m + m.T
    sym /= 2.0
    return sym


def _row_sums(m: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """The absolute row sums of ``m``, or TooLarge, with no warning, when
    twice one of them is not finite: twice the largest bounds the spectral
    radius of the Laplacian of ``m`` and every entry of ``m + m.T``.
    Summed one row block at a time, each row as a whole.  The refusal
    names the least row that fails, or with ``order`` (row p is node
    ``order[p]``, as ``SignedGraph.adjacency`` lays it out) the least
    such node."""
    sums = np.empty(m.shape[0])
    with np.errstate(over="ignore"):
        for rows in _blocks(m.shape[0]):
            sums[rows] = np.abs(m[rows]).sum(axis=1)
        bad = ~np.isfinite(2.0 * sums)
    if bad.any():
        row = np.argmax(bad) if order is None else order[bad].min()
        raise TooLarge(f"entries too large: twice the absolute sum of row "
                       f"{int(row)} is not finite")
    return sums


def _laplacian_of(a: np.ndarray, diagonal: np.ndarray, out=None) -> np.ndarray:
    """``np.diag(diagonal) - a`` for an adjacency ``a`` (zero diagonal),
    written into ``out`` (``a`` itself, or a new array when None): 0 - a
    writes +0.0 off the edge set, as the difference does, where plain
    negation would write -0.0."""
    lap = np.subtract(0.0, a, out=out)
    np.fill_diagonal(lap, diagonal)
    return lap


def repelling_laplacian(g: SignedGraph) -> np.ndarray:
    """Signed Laplacian whose diagonal sums the signed weights.  Raises
    TooLarge when twice a node's absolute weight sum overflows."""
    a = g.adjacency()
    _row_sums(a)
    return _laplacian_of(a, a.sum(axis=1), out=a)


def opposing_laplacian(g: SignedGraph) -> np.ndarray:
    """Signed Laplacian whose diagonal sums the absolute weights.  Raises
    TooLarge when twice such a sum overflows."""
    a = g.adjacency()
    return _laplacian_of(a, _row_sums(a), out=a)


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not gamma > 0 or not np.isfinite(gamma):
        raise BadGamma(f"dominance coefficient must be in (0, inf), got {gamma}")
    return gamma


def _require_gqsb(g: SignedGraph, b: Bipartition) -> None:
    if not validate_gqsb(g, b):
        raise NotGQSB("a cooperative edge crosses the bipartition")


def _gauge_diagonals(gamma: float, b: Bipartition):
    """Diagonals of the three gauges: scale (gamma on side one, else 1),
    sign (-1 on side one, else 1), and coordinate (sign / scale).

    Raises TooLarge, with no warning, when 1/gamma overflows (gamma below
    about 5.6e-309), so no gauge is formed past the double range."""
    gamma = _check_gamma(gamma)
    with np.errstate(over="ignore"):
        if np.isinf(1.0 / np.float64(gamma)):
            raise TooLarge(f"coordinate gauge past the double range at coefficient {gamma:g}")
    m = b.mask()
    scale = np.where(m, gamma, 1.0)
    sign = np.where(m, -1.0, 1.0)
    return scale, sign, sign / scale


def gauge_matrices(gamma: float, b: Bipartition):
    """The three diagonal gauges as full matrices."""
    scale, sign, coord = _gauge_diagonals(gamma, b)
    return np.diag(scale), np.diag(sign), np.diag(coord)


def generalized_degree(g: SignedGraph, b: Bipartition) -> np.ndarray:
    """Degree matrix of the dominance-scaled flow.

    The partner Laplacian's diagonal, so free of the coefficient: for node
    i it sums the same-subset weights and subtracts the cross-subset ones.
    """
    return np.diag(np.diagonal(partner_laplacian(g, b)))


def generalized_adjacency(g: SignedGraph, b: Bipartition, gamma: float) -> np.ndarray:
    """Perceived adjacency under dominance scaling.

    Same-subset weights are unchanged; ties from side one toward side two
    appear gamma times stronger, the reverse direction gamma times weaker.
    Equals the scale-gauge conjugation of the plain adjacency.
    """
    return generalized_laplacian(g, b, gamma).adjacency


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending and orthonormal eigenvectors in matching
    columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def zero_tol(self) -> float:
        """The threshold at or below which an eigenvalue counts as zero:
        ``default_zero_tol`` of the spectrum."""
        return default_zero_tol(self.eigenvalues)

    @property
    def zero_count(self) -> int:
        return _zero_count(self.eigenvalues)


def default_zero_tol(eigenvalues: np.ndarray) -> float:
    """Scale-free zero threshold: 1e-9 times the spectral radius (0 for an
    empty or all-zero spectrum)."""
    radius = float(np.max(np.abs(eigenvalues))) if np.size(eigenvalues) else 0.0
    return 1e-9 * radius


def _zero_count(eigenvalues: np.ndarray) -> int:
    """How many eigenvalues lie within ``default_zero_tol`` of zero."""
    return int(np.count_nonzero(np.abs(eigenvalues) <= default_zero_tol(eigenvalues)))


def _real_array(value, error: type, what: str) -> np.ndarray:
    """``value`` as a float array, or ``error`` when it does not hold real
    numbers: a complex, non-numeric or ragged input, which a float
    conversion would cut to its real part or refuse with numpy's own
    error."""
    try:
        a = np.asarray(value)
        real = a.dtype.kind in "biuf"
    except (TypeError, ValueError):
        real = False
    if not real:
        raise error(f"{what} must hold real numbers")
    return a.astype(float, copy=False)


def _checked_symmetric(matrix) -> tuple[np.ndarray, float]:
    """The symmetrized input and its largest entry magnitude, after the
    input checks of ``sym_eigen`` and ``sym_eigvals``: real numbers (a
    complex or non-numeric entry is NotSymmetric), square, finite,
    twice each absolute row sum finite (TooLarge), and symmetric within
    1e-12 of the largest entry.

    The checks run in that order, so the first failing check names the
    error wherever its entry sits: finiteness is read off the largest
    magnitude (two reductions), the row sums and symmetry off row blocks.
    An input symmetric bit for bit is returned itself: it equals
    (m + m.T) / 2, since doubling cannot overflow once the row sums pass
    and halving is exact.  Otherwise the result is a symmetrized copy."""
    m = _real_array(matrix, NotSymmetric, "a matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    scale = _max_abs(m)
    if not scale < np.inf:
        raise NotSymmetric("matrix has a NaN or infinite entry")
    _row_sums(m)
    blocks = _blocks(m.shape[0])
    # compared as bits, so that -0.0 facing +0.0 counts as asymmetric
    exact = all(np.array_equal(m[rows].view(np.uint64), m[:, rows].T.view(np.uint64))
                for rows in blocks)
    if exact:
        return m, scale
    skew = _max_of(np.max(np.abs(m[rows] - m[:, rows].T), initial=0.0) for rows in blocks)
    # written so that a NaN fails it
    if not skew <= _SYMMETRY_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")
    return _symmetrized(m), scale


def sym_eigen(matrix: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Deterministic output: eigenvalues ascend and each eigenvector is signed
    so its largest-magnitude entry is positive.  Both contract checks are
    relative, with no floor, so they hold at any scale of the entries.
    Raises NotSymmetric when an entry is NaN or infinite or the input is
    asymmetric beyond 1e-12 of its largest entry, TooLarge when twice an
    absolute row sum overflows, NoConvergence when an eigenpair's residual
    exceeds 1e-8 of the spectral radius.
    """
    sym, scale = _checked_symmetric(matrix)
    values, vectors = np.linalg.eigh(sym)
    # in units of the largest entry, so the norm's squares cannot overflow
    unit = scale or 1.0

    def signed_residual(cols):
        # sign the block's vectors, then take their worst residual norm
        block = vectors[:, cols]
        lead = np.argmax(np.abs(block), axis=0)
        block *= np.where(block[lead, np.arange(lead.size)] < 0, -1.0, 1.0)
        residual = sym @ block
        residual -= block * values[cols]
        residual /= unit
        return np.max(np.linalg.norm(residual, axis=0), initial=0.0)

    worst = _max_of(signed_residual(cols) for cols in _blocks(values.size))
    bound = _RESIDUAL_RTOL * (float(np.max(np.abs(values), initial=0.0)) / unit)
    if not worst <= bound:
        raise NoConvergence(f"eigen residual {worst:.3e} exceeds {bound:.3e}, "
                            "relative to the largest entry")
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(values, vectors)


def sym_eigvals(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, without eigenvectors,
    as a read-only array.

    The input checks are ``sym_eigen``'s.  With no eigenvectors there is no
    residual, so two exact invariants of the spectrum stand in for it,
    both in units of the largest entry so that no square overflows: the
    eigenvalues sum to the trace within 1e-12 * sqrt(n) of the spectral
    radius, and their squares to the squared Frobenius norm within 1e-12
    of it.  Raises NotSymmetric and TooLarge as ``sym_eigen`` does, and
    NoConvergence when an invariant fails (a NaN fails both).  The input
    is not written to.
    """
    sym, scale = _checked_symmetric(matrix)
    values = np.linalg.eigvalsh(sym)
    unit = scale or 1.0
    w = values / unit
    radius = float(np.max(np.abs(w), initial=0.0))
    trace_miss = abs(float(w.sum()) - float((np.diagonal(sym) / unit).sum()))

    def squares(rows):
        part = sym[rows] / unit
        return float(np.vdot(part, part))

    frobenius = sum(squares(rows) for rows in _blocks(sym.shape[0]))
    square_miss = abs(float(w @ w) - frobenius)
    if not trace_miss <= _INVARIANT_RTOL * np.sqrt(w.size) * radius:
        raise NoConvergence(f"eigenvalues miss the trace by {trace_miss:.3e} "
                            "of the largest entry")
    if not square_miss <= _INVARIANT_RTOL * frobenius:
        raise NoConvergence(f"squared eigenvalues miss the squared Frobenius norm by "
                            f"{square_miss:.3e} of the largest entry squared")
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class OperatorBundle:
    """Operator set for one (graph, bipartition, coefficient) triple.

    The three fields are the whole value: bundles on equal inputs compare
    and hash equal.  Every operator is built on first read and kept, as a
    read-only array; gauges are diagonal vectors.  All matrices stay in the
    caller's node order; ``permutation`` lists the dominant side first for
    consumers that want the block layout.
    """

    graph: SignedGraph
    partition: Bipartition
    gamma: float

    @cached_property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def scale_gauge(self) -> np.ndarray:
        return _frozen(_gauge_diagonals(self.gamma, self.partition)[0])

    @cached_property
    def sign_gauge(self) -> np.ndarray:
        return _frozen(_gauge_diagonals(self.gamma, self.partition)[1])

    @cached_property
    def coord_gauge(self) -> np.ndarray:
        return _frozen(_gauge_diagonals(self.gamma, self.partition)[2])

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Perceived adjacency: the scale-gauge conjugate of the plain one,
        scaled in place."""
        scale = self.scale_gauge
        a = self.graph.adjacency()
        a *= scale[:, None]
        a /= scale[None, :]
        return _frozen(a)

    @cached_property
    def degree(self) -> np.ndarray:
        return _frozen(self.z_laplacian.diagonal().copy())

    @cached_property
    def laplacian(self) -> np.ndarray:
        """The flow matrix: degree minus perceived adjacency."""
        return _frozen(_laplacian_of(self.adjacency, self.degree))

    @cached_property
    def z_laplacian(self) -> np.ndarray:
        """The gauge partner Laplacian kept on the graph (``partner_laplacian``)."""
        return _partner(self.graph, self.partition).laplacian

    @cached_property
    def permutation(self) -> tuple[int, ...]:
        return tuple(sorted(self.partition.v1)) + tuple(sorted(self.partition.v2))

    @cached_property
    def partner(self) -> EigenDecomposition:
        """Full eigendecomposition of ``z_laplacian``, which integration and
        the closed form read: the one kept on the graph for this
        bipartition, built on first read and shared by every coefficient."""
        return _partner(self.graph, self.partition).eigen


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def generalized_laplacian(g: SignedGraph, b: Bipartition, gamma: float) -> OperatorBundle:
    """Check the coefficient and the bipartition, and return their bundle.

    The flow matrix is degree minus perceived adjacency.  Conjugating by
    the coordinate gauge removes the coefficient and flips cross-subset
    weights positive, giving a symmetric zero-row-sum matrix; the two share
    their spectrum for every coefficient value.
    """
    gamma = _check_gamma(gamma)
    _require_gqsb(g, b)
    return OperatorBundle(graph=g, partition=b, gamma=gamma)


def partner_laplacian(g: SignedGraph, b: Bipartition) -> np.ndarray:
    """The gauge partner Laplacian on its own, without a coefficient.

    It is the read-only repelling Laplacian of ``partner_network(g, b)``
    kept on ``g``: the array ``z_laplacian`` of every bundle on (g, b) is.
    """
    return _partner(g, b).laplacian


def partner_network(g: SignedGraph, b: Bipartition) -> SignedGraph:
    """The gauge partner as a graph: cross-subset edges flip sign (they
    were antagonistic, so they turn cooperative), same-subset edges stay."""
    # a sign flip keeps every weight finite and nonzero
    return _trusted(g.n, _Columns(g.i, g.j, np.where(_crossing(g, b), -g.w, g.w)))


def z_transform_network(bundle: OperatorBundle) -> SignedGraph:
    """The bundle's gauge partner as a graph, as kept (see ``partner_network``)."""
    return _partner(bundle.graph, bundle.partition).network


class _Partner:
    """What is kept on a graph for one bipartition, since the partner is
    free of the coefficient: the ``partition``, the partner ``network``,
    and built on first read its read-only ``laplacian`` and that
    Laplacian's one ``eigen`` (``sym_eigen``).  ``core`` is the slot
    ``spectral`` fills.  Nothing here refers back to the graph, so what is
    kept on it goes with it."""

    def __init__(self, g: SignedGraph, b: Bipartition):
        self.partition = b
        self.network = partner_network(g, b)
        self.core = None

    @cached_property
    def laplacian(self) -> np.ndarray:
        return _frozen(repelling_laplacian(self.network))

    @cached_property
    def eigen(self) -> EigenDecomposition:
        return sym_eigen(self.laplacian)


def _partner(g: SignedGraph, b: Bipartition) -> _Partner:
    """The partner kept on ``g`` for ``b``, checked and built on first
    ask.  One per graph object: one kept for another bipartition is
    dropped first."""
    kept = vars(g).get("_partner")
    if kept is None or kept.partition != b:
        del kept
        clear_partner_cache(g)
        _require_gqsb(g, b)
        vars(g)["_partner"] = kept = _Partner(g, b)
    return kept


def clear_partner_cache(g: SignedGraph) -> None:
    """Drop what is kept on ``g`` for its partner: the network, the
    Laplacian, its eigendecomposition and the core."""
    vars(g).pop("_partner", None)
