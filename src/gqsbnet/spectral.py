"""Pseudoinverses, effective resistances, and polarization certificates.

The certificate machinery decides, ahead of any simulation, whether the
dominance-scaled flow drives opinions to a split steady state: the gauge
partner Laplacian must be positive semidefinite with a simple zero
eigenvalue, which on a connected network is equivalent to positive
definiteness of the forest resistance matrix built from the pseudoinverse.

The partner Laplacian does not depend on the dominance coefficient, so
everything derived from it holds for every coefficient on one (graph,
bipartition).  That part is computed once and kept on the graph it was
built from (``partner_core``); a certificate adds only the coefficient's
verdict and null vectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .operators import (
    EigenDecomposition,
    _gauge_diagonals,
    default_zero_tol,
    partner_laplacian,
    partner_network,
    sym_eigen,
)
from .signed_graph import (
    Bipartition,
    Edge,
    SignedGraph,
    _no_antagonism_within,
    _node_id,
    connected_components,
    spanning_forest,
)

class Verdict(str, enum.Enum):
    ASYMMETRIC_POLARIZATION = "AsymmetricPolarization"
    NEUTRAL_CONSENSUS = "NeutralConsensus"
    CONSENSUS = "Consensus"
    DIVERGENCE = "Divergence"
    INCONCLUSIVE = "Inconclusive"


def pseudoinverse(matrix: np.ndarray | EigenDecomposition) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via its spectrum.

    Eigenvalues within the decomposition's ``zero_tol`` of zero are
    dropped, the rest inverted.  ``matrix`` may also be the matrix's
    ``EigenDecomposition``, which saves the solve.
    """
    dec = matrix if isinstance(matrix, EigenDecomposition) else sym_eigen(matrix)
    keep = np.abs(dec.eigenvalues) > dec.zero_tol
    v = dec.eigenvectors[:, keep]
    return (v / dec.eigenvalues[keep]) @ v.T


def psd_simple_zero(matrix: np.ndarray) -> bool:
    """True when the symmetric matrix is positive semidefinite with exactly
    one eigenvalue at zero (within tolerance)."""
    dec = sym_eigen(matrix)
    w = dec.eigenvalues
    if w.size and float(w[0]) < -dec.zero_tol:
        return False
    return dec.zero_count == 1


def effective_resistance(
    laplacian: np.ndarray | EigenDecomposition,
    forest: tuple[Edge, ...],
) -> np.ndarray:
    """Resistance matrix of the forest edges through the given Laplacian.

    The Gram B^T P B of the forest's incidence columns B, column k being
    +1 at ``forest[k]``'s first endpoint a_k and -1 at its second b_k,
    read off the pseudoinverse P: entry (k, l) is
    (P[a_k, a_l] - P[b_k, a_l]) - (P[a_k, b_l] - P[b_k, b_l]), which
    rounds as the product with the +-1 block does.  ``laplacian`` may
    also be its ``EigenDecomposition``.  A non-integral endpoint raises
    BadIndex, one outside the Laplacian's nodes DimensionMismatch.
    An empty forest yields the empty matrix, which downstream checks treat
    as positive definite.
    """
    n = (laplacian.eigenvalues if isinstance(laplacian, EigenDecomposition)
         else laplacian).shape[0]
    ends = [(_node_id(i), _node_id(j)) for i, j, _ in forest]
    if not all(0 <= v < n for pair in ends for v in pair):
        raise DimensionMismatch(f"forest endpoint outside the Laplacian's {n} nodes")
    if not ends:
        return np.zeros((0, 0))
    a, b = np.array(ends, dtype=np.int64).T
    pinv = pseudoinverse(laplacian)
    x = pinv[a] - pinv[b]
    gram = x[:, a] - x[:, b]
    return (gram + gram.T) / 2.0


@dataclass(frozen=True, eq=False)
class PartnerCore:
    """The coefficient-free part of a certificate for one (graph,
    bipartition).

    ``decomposition`` is the gauge partner Laplacian's; the pseudoinverse
    is taken from it, not from a second solve.  ``connected`` is the
    graph's connectivity and ``forest_edges`` the partner network's
    antagonistic forest.  The forest's resistance matrix and that
    matrix's spectrum are computed on first use.  Besides the
    eigenvectors, nothing n x n is kept: no operator, no pseudoinverse and
    no graph, so a core kept on its graph goes with it.
    """

    partition: Bipartition
    decomposition: EigenDecomposition
    connected: bool
    forest_edges: tuple[Edge, ...]

    @cached_property
    def resistance(self) -> np.ndarray:
        r = effective_resistance(self.decomposition, self.forest_edges)
        r.setflags(write=False)
        return r

    @cached_property
    def resistance_eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of ``resistance``; empty with no forest."""
        return sym_eigen(self.resistance).eigenvalues


def partner_core(g: SignedGraph, b: Bipartition) -> PartnerCore:
    """The coefficient-free part of the certificate for (g, b).

    Kept on ``g`` itself, one core per graph object, so certificates,
    predictions and integrations at any number of coefficients on one
    (graph, bipartition) share one eigendecomposition, and the partner
    Laplacian is built once.  A core for another bipartition replaces it.
    """
    core = vars(g).get("_partner_core")
    if core is not None and core.partition == b:
        return core
    # drop the old core before building the new one, so two never coexist
    del core
    clear_partner_cache(g)
    dec = sym_eigen(partner_laplacian(g, b))
    forest = spanning_forest(partner_network(g, b)).forest_edges
    core = PartnerCore(b, dec, len(connected_components(g)) == 1, forest)
    vars(g)["_partner_core"] = core
    return core


def clear_partner_cache(g: SignedGraph) -> None:
    """Drop the ``partner_core`` kept on ``g``, freeing its n x n
    eigenvectors."""
    vars(g).pop("_partner_core", None)


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


def certify(g: SignedGraph, b: Bipartition, gamma: float) -> PolarizationCertificate:
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
    core = partner_core(g, b)
    eig = core.decomposition
    tol = eig.zero_tol
    if core.forest_edges:
        res_eigs = core.resistance_eigenvalues
        res_min = float(res_eigs[0])
        # scale-free: relative to the matrix's own largest eigenvalue
        res_pd_tol = default_zero_tol(res_eigs)
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
