"""Pseudoinverses, effective resistances, and polarization certificates.

The certificate machinery decides, ahead of any simulation, whether the
dominance-scaled flow drives opinions to a split steady state: the gauge
partner Laplacian must be positive semidefinite with a simple zero
eigenvalue, which on a connected network is equivalent to positive
definiteness of the forest resistance matrix built from the pseudoinverse.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .operators import generalized_laplacian, sym_eigen, z_transform_network
from .signed_graph import (
    Bipartition,
    Edge,
    SignedGraph,
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


def pseudoinverse(matrix: np.ndarray, zero_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via its spectrum.

    Eigenvalues within ``zero_tol`` of zero are dropped, the rest inverted.
    """
    dec = sym_eigen(matrix, zero_tol)
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
    laplacian: np.ndarray,
    forest: tuple[Edge, ...],
    incidence_block: np.ndarray,
    zero_tol: float | None = None,
) -> np.ndarray:
    """Resistance matrix of the forest edges through the given Laplacian.

    Quadratic form of the pseudoinverse over the forest's incidence
    columns.  An empty forest yields the empty matrix, which downstream
    checks treat as positive definite.
    """
    block = np.asarray(incidence_block, dtype=float)
    if block.ndim != 2 or block.shape != (laplacian.shape[0], len(forest)):
        raise DimensionMismatch(
            f"incidence block shape {block.shape} does not match "
            f"{laplacian.shape[0]} nodes x {len(forest)} forest edges"
        )
    if not forest:
        return np.zeros((0, 0))
    pinv = pseudoinverse(laplacian, zero_tol)
    gram = block.T @ pinv @ block
    return (gram + gram.T) / 2.0


@dataclass(frozen=True)
class PolarizationCertificate:
    """Spectral verdict on the dominance-scaled flow for one scenario.

    ``spectrum`` is the gauge partner Laplacian's spectrum (shared with the
    flow matrix).  ``resistance`` covers the partner network's antagonistic
    forest; its minimum eigenvalue is None when that forest is empty.
    ``null_right`` and ``null_left`` span the flow's stationary direction
    and conserved functional; in gauge coordinates they are the all-ones
    vector and its 1/n scaling.
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
        res_min = float(sym_eigen(resistance).eigenvalues[0])
        res_pd = res_min > tol
    else:
        res_min = None
        res_pd = True
    connected = len(connected_components(g)) == 1
    w = eig.eigenvalues
    zero_mult = eig.zero_count

    if not connected:
        verdict = Verdict.INCONCLUSIVE
    elif w.size and float(w[0]) < -tol:
        verdict = Verdict.DIVERGENCE
    elif zero_mult == 0:
        verdict = Verdict.NEUTRAL_CONSENSUS
    elif zero_mult == 1 and res_pd:
        v1 = b.v1
        plain_split = gamma == 1.0 and not any(
            w_ < 0 and (i in v1) == (j in v1) for i, j, w_ in g.edges
        )
        verdict = Verdict.CONSENSUS if plain_split else Verdict.ASYMMETRIC_POLARIZATION
    else:
        verdict = Verdict.INCONCLUSIVE

    null_right = np.where(b.mask(), -bundle.gamma, 1.0)
    null_left = bundle.coord_gauge / g.n
    null_right.setflags(write=False)
    resistance.setflags(write=False)
    return PolarizationCertificate(
        connected=connected,
        spectrum=tuple(float(x) for x in w),
        zero_multiplicity=zero_mult,
        gamma=bundle.gamma,
        forest_edges=dec.forest_edges,
        resistance=resistance,
        resistance_min_eig=res_min,
        verdict=verdict,
        null_right=null_right,
        null_left=null_left,
    )
