"""Pseudoinverses, effective resistances, and polarization certificates.

The certificate machinery decides, ahead of any simulation, whether the
dominance-scaled flow drives opinions to a split steady state: the gauge
partner Laplacian must be positive semidefinite with a simple zero
eigenvalue, which on a connected network is equivalent to positive
definiteness of the forest resistance matrix built from the pseudoinverse.

The partner Laplacian does not depend on the dominance coefficient, so
everything derived from it holds for every coefficient on one (graph,
bipartition).  That part is computed once and kept in a single-entry memo
(``partner_core``); a certificate adds only the coefficient's verdict and
null vectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .operators import (
    EigenDecomposition,
    _gauge_diagonals,
    partner_laplacian,
    partner_network,
    sym_eigen,
)
from .signed_graph import (
    Bipartition,
    Edge,
    SignDecomposition,
    SignedGraph,
    _no_antagonism_within,
    connected_components,
    incidence_matrix,
    spanning_forest,
)

class Verdict(str, enum.Enum):
    ASYMMETRIC_POLARIZATION = "AsymmetricPolarization"
    NEUTRAL_CONSENSUS = "NeutralConsensus"
    CONSENSUS = "Consensus"
    DIVERGENCE = "Divergence"
    INCONCLUSIVE = "Inconclusive"


def _decomposed(matrix: np.ndarray | EigenDecomposition,
                zero_tol: float | None) -> EigenDecomposition:
    # A decomposition passed in place of its matrix is used as it is, with
    # zero_tol, when given, replacing its threshold.
    if isinstance(matrix, EigenDecomposition):
        return matrix if zero_tol is None else replace(matrix, zero_tol=float(zero_tol))
    return sym_eigen(matrix, zero_tol)


def pseudoinverse(
    matrix: np.ndarray | EigenDecomposition, zero_tol: float | None = None
) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via its spectrum.

    Eigenvalues within ``zero_tol`` of zero are dropped, the rest inverted.
    ``matrix`` may also be the matrix's ``EigenDecomposition``, which
    saves the solve.
    """
    dec = _decomposed(matrix, zero_tol)
    keep = np.abs(dec.eigenvalues) > dec.zero_tol
    v = dec.eigenvectors[:, keep]
    return (v / dec.eigenvalues[keep]) @ v.T


def psd_simple_zero(matrix: np.ndarray, zero_tol: float | None = None) -> bool:
    """True when the symmetric matrix is positive semidefinite with exactly
    one eigenvalue at zero (within tolerance)."""
    dec = sym_eigen(matrix, zero_tol)
    w = dec.eigenvalues
    if w.size and float(w[0]) < -dec.zero_tol:
        return False
    return dec.zero_count == 1


def effective_resistance(
    laplacian: np.ndarray | EigenDecomposition,
    forest: tuple[Edge, ...],
    incidence_block: np.ndarray,
    zero_tol: float | None = None,
) -> np.ndarray:
    """Resistance matrix of the forest edges through the given Laplacian.

    Quadratic form of the pseudoinverse over the forest's incidence
    columns.  ``laplacian`` may also be its ``EigenDecomposition``.  An
    empty forest yields the empty matrix, which downstream checks treat as
    positive definite.
    """
    n = (laplacian.eigenvalues if isinstance(laplacian, EigenDecomposition)
         else laplacian).shape[0]
    block = np.asarray(incidence_block, dtype=float)
    if block.ndim != 2 or block.shape != (n, len(forest)):
        raise DimensionMismatch(
            f"incidence block shape {block.shape} does not match "
            f"{n} nodes x {len(forest)} forest edges"
        )
    if not forest:
        return np.zeros((0, 0))
    pinv = pseudoinverse(laplacian, zero_tol)
    gram = block.T @ pinv @ block
    return (gram + gram.T) / 2.0


@dataclass(frozen=True, eq=False)
class PartnerCore:
    """The coefficient-free part of a certificate for one (graph,
    bipartition, zero_tol).

    ``decomposition`` is the gauge partner Laplacian's; the pseudoinverse
    is taken from it, not from a second solve.  The partner's antagonistic
    forest, its resistance matrix with that matrix's spectrum, and
    connectivity are computed on first use.  Besides the eigenvectors,
    nothing n x n is kept: no operator and no pseudoinverse.
    """

    graph: SignedGraph
    partition: Bipartition
    zero_tol: float | None
    decomposition: EigenDecomposition

    @cached_property
    def connected(self) -> bool:
        return len(connected_components(self.graph)) == 1

    @cached_property
    def forest_edges(self) -> tuple[Edge, ...]:
        return spanning_forest(partner_network(self.graph, self.partition)).forest_edges

    @cached_property
    def resistance(self) -> np.ndarray:
        forest = self.forest_edges
        # incidence of the forest columns alone
        inc = incidence_matrix(self.graph, SignDecomposition((), (), forest, ()))
        r = effective_resistance(self.decomposition, forest, inc.matrix)
        r.setflags(write=False)
        return r

    @cached_property
    def resistance_eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of ``resistance``; empty with no forest."""
        if not self.forest_edges:
            return np.zeros(0)
        return sym_eigen(self.resistance).eigenvalues


# The one kept core; a core for another key replaces it.  Callers read it
# once into a local, so a concurrent replacement costs a recomputation and
# never hands out a core for the wrong key.
_kept: PartnerCore | None = None


def partner_core(
    g: SignedGraph, b: Bipartition, zero_tol: float | None = None
) -> PartnerCore:
    """The coefficient-free part of the certificate for (g, b, zero_tol).

    Kept in a single-entry memo, so certificates, predictions and
    integrations at any number of coefficients on one (graph, bipartition)
    share one eigendecomposition, and the partner Laplacian is built once.
    """
    global _kept
    kept = _kept
    if kept is not None and (kept.graph, kept.partition, kept.zero_tol) == (g, b, zero_tol):
        return kept
    # drop the old core before building the new one, so two never coexist
    kept = _kept = None
    dec = sym_eigen(partner_laplacian(g, b), zero_tol)
    core = _kept = PartnerCore(g, b, zero_tol, dec)
    return core


def clear_partner_cache() -> None:
    """Drop the kept ``partner_core``, freeing its n x n eigenvectors."""
    global _kept
    _kept = None


@dataclass(frozen=True)
class PolarizationCertificate:
    """Spectral verdict on the dominance-scaled flow for one scenario.

    ``spectrum`` is the gauge partner Laplacian's spectrum (shared with the
    flow matrix).  ``resistance`` covers the partner network's antagonistic
    forest; its minimum eigenvalue is None when that forest is empty.
    ``null_right`` and ``null_left`` span the flow's stationary direction
    and conserved functional; in gauge coordinates they are the all-ones
    vector and its 1/n scaling.

    ``decided_by`` names the ``certify`` branch that settled the verdict:
    ``connectivity``, ``negative_eigenvalue``, ``zero_multiplicity``,
    ``resistance_pd`` or ``plain_split``.  ``zero_tol`` is the threshold
    below which a spectrum entry counts as zero, and ``resistance_pd_tol``
    the one above which the resistance Gram's smallest eigenvalue counts as
    positive (None with an empty forest).  The three default to None, for
    certificates built by hand.
    """

    connected: bool
    spectrum: tuple[float, ...]
    zero_multiplicity: int
    gamma: float
    forest_edges: tuple[Edge, ...]
    resistance: np.ndarray
    resistance_min_eig: float | None
    verdict: Verdict
    null_right: np.ndarray
    null_left: np.ndarray
    decided_by: str | None = None
    zero_tol: float | None = None
    resistance_pd_tol: float | None = None


def certify(
    g: SignedGraph,
    b: Bipartition,
    gamma: float,
    zero_tol: float | None = None,
) -> PolarizationCertificate:
    """Classify the long-run behavior of the dominance-scaled flow.

    Asymmetric polarization requires a connected network and a positive
    definite forest resistance matrix, which matches the partner Laplacian
    being positive semidefinite with a simple zero.  A negative eigenvalue
    means divergence.  With coefficient 1 and no same-subset antagonism the
    split is a plain sign-flipped agreement, reported as Consensus.
    Disconnected or spectrally degenerate cases are Inconclusive.
    """
    _, _, coord = _gauge_diagonals(gamma, b)
    gamma = float(gamma)
    core = partner_core(g, b, zero_tol)
    eig = core.decomposition
    tol = eig.zero_tol
    if core.forest_edges:
        res_eigs = core.resistance_eigenvalues
        res_min = float(res_eigs[0])
        # scale-free: relative to the matrix's own largest eigenvalue
        res_pd_tol = 1e-9 * float(np.max(np.abs(res_eigs)))
        res_pd = res_min > res_pd_tol
    else:
        res_min = res_pd_tol = None
        res_pd = True
    connected = core.connected
    w = eig.eigenvalues
    zero_mult = eig.zero_count

    if not connected:
        verdict, decided_by = Verdict.INCONCLUSIVE, "connectivity"
    elif w.size and float(w[0]) < -tol:
        verdict, decided_by = Verdict.DIVERGENCE, "negative_eigenvalue"
    elif zero_mult == 0:
        verdict, decided_by = Verdict.NEUTRAL_CONSENSUS, "zero_multiplicity"
    elif zero_mult == 1 and res_pd:
        # an exact compare: gamma = 1 + 1e-15 already scales the split
        if gamma == 1.0 and _no_antagonism_within(g, b.mask()):
            verdict, decided_by = Verdict.CONSENSUS, "plain_split"
        else:
            verdict, decided_by = Verdict.ASYMMETRIC_POLARIZATION, "resistance_pd"
    elif zero_mult != 1:
        verdict, decided_by = Verdict.INCONCLUSIVE, "zero_multiplicity"
    else:
        verdict, decided_by = Verdict.INCONCLUSIVE, "resistance_pd"

    null_right = np.where(b.mask(), -gamma, 1.0)
    null_left = coord / g.n
    null_right.setflags(write=False)
    return PolarizationCertificate(
        connected=connected,
        spectrum=tuple(float(x) for x in w),
        zero_multiplicity=zero_mult,
        gamma=gamma,
        forest_edges=core.forest_edges,
        resistance=core.resistance,
        resistance_min_eig=res_min,
        verdict=verdict,
        null_right=null_right,
        null_left=null_left,
        decided_by=decided_by,
        zero_tol=tol,
        resistance_pd_tol=res_pd_tol,
    )
