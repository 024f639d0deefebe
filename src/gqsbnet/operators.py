"""Laplacian operators for signed networks with a dominant subset.

Besides the two classic signed Laplacians (repelling and opposing), this
module builds the dominance-scaled operator family for a bipartition whose
cross-subset ties are all antagonistic.  Perceived cross-subset weights are
amplified by the dominance coefficient in one direction and attenuated in
the other, while the degree term counts same-subset ties as signed and
cross-subset ties with flipped sign.  A diagonal coordinate gauge turns the
resulting flow matrix into a symmetric zero-row-sum Laplacian of a partner
network whose cross-subset ties are cooperative; spectra are computed there,
by the deterministic symmetric eigendecomposition defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadGamma,
    BadIndex,
    DimensionMismatch,
    NoConvergence,
    NotGQSB,
    NotSymmetric,
)
from .signed_graph import Bipartition, SignedGraph, validate_gqsb

_SYMMETRY_RTOL = 1e-12
_RESIDUAL_RTOL = 1e-8


def repelling_laplacian(g: SignedGraph) -> np.ndarray:
    """Signed Laplacian whose diagonal sums the signed weights."""
    a = g.adjacency()
    return np.diag(a.sum(axis=1)) - a


def opposing_laplacian(g: SignedGraph) -> np.ndarray:
    """Signed Laplacian whose diagonal sums the absolute weights."""
    a = g.adjacency()
    return np.diag(np.abs(a).sum(axis=1)) - a


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
    sign (-1 on side one, else 1), and coordinate (sign / scale)."""
    gamma = _check_gamma(gamma)
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
    """Eigenvalues ascending, orthonormal eigenvectors in matching columns,
    and the threshold below which an eigenvalue counts as zero."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_tol: float

    @property
    def zero_count(self) -> int:
        return int(np.count_nonzero(np.abs(self.eigenvalues) <= self.zero_tol))


def default_zero_tol(eigenvalues: np.ndarray) -> float:
    """Scale-free zero threshold: 1e-9 times the spectral radius (0 for an
    empty or all-zero spectrum)."""
    radius = float(np.max(np.abs(eigenvalues))) if np.size(eigenvalues) else 0.0
    return 1e-9 * radius


def sym_eigen(matrix: np.ndarray, zero_tol: float | None = None) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Deterministic output: eigenvalues ascend and each eigenvector is signed
    so its largest-magnitude entry is positive.  Raises NotSymmetric when
    the input is asymmetric beyond 1e-12 relative, NoConvergence when the
    solver's residuals miss the contract bound.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    if m.size and float(np.max(np.abs(m - m.T))) > _SYMMETRY_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")
    sym = (m + m.T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    for k in range(vectors.shape[1]):
        lead = int(np.argmax(np.abs(vectors[:, k])))
        if vectors[lead, k] < 0:
            vectors[:, k] = -vectors[:, k]
    bound = _RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    residual = np.linalg.norm(sym @ vectors - vectors * values, axis=0)
    if residual.size and float(residual.max()) > bound:
        raise NoConvergence(f"eigen residual {residual.max():.3e} exceeds {bound:.3e}")
    if zero_tol is None:
        zero_tol = default_zero_tol(values)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(values, vectors, float(zero_tol))


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
        """Perceived adjacency: the scale-gauge conjugate of the plain one."""
        scale = self.scale_gauge
        return _frozen(scale[:, None] * self.graph.adjacency() / scale[None, :])

    @cached_property
    def degree(self) -> np.ndarray:
        return _frozen(self.z_laplacian.diagonal().copy())

    @cached_property
    def laplacian(self) -> np.ndarray:
        """The flow matrix: degree minus perceived adjacency."""
        return _frozen(np.diag(self.degree) - self.adjacency)

    @cached_property
    def z_laplacian(self) -> np.ndarray:
        """The gauge partner Laplacian (see ``partner_laplacian``)."""
        return _frozen(partner_laplacian(self.graph, self.partition))

    @cached_property
    def permutation(self) -> tuple[int, ...]:
        return tuple(sorted(self.partition.v1)) + tuple(sorted(self.partition.v2))

    @cached_property
    def partner(self) -> EigenDecomposition:
        """Decomposition of ``z_laplacian``: the one ``spectral.partner_core``
        keeps for (graph, bipartition) and every coefficient reads."""
        from .spectral import partner_core  # spectral imports this module

        return partner_core(self.graph, self.partition).decomposition


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

    It is the repelling Laplacian of ``partner_network(g, b)``, and equal,
    bit for bit, to ``z_laplacian`` of every bundle on (g, b).
    """
    _require_gqsb(g, b)
    return repelling_laplacian(partner_network(g, b))


def partner_network(g: SignedGraph, b: Bipartition) -> SignedGraph:
    """The gauge partner as a graph: cross-subset edges flip sign (they
    were antagonistic, so they turn cooperative), same-subset edges stay."""
    if b.n != g.n:
        raise BadIndex("bipartition and graph disagree on node count")
    side = b.mask()
    return g.reweighted(np.where(side[g.i] != side[g.j], -g.w, g.w))


def z_transform_network(bundle: OperatorBundle) -> SignedGraph:
    """The bundle's gauge partner as a graph (see ``partner_network``)."""
    return partner_network(bundle.graph, bundle.partition)
