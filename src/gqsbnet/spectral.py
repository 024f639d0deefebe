"""Pseudoinverses, effective resistances, and polarization certificates.

The certificate machinery decides, ahead of any simulation, whether the
dominance-scaled flow drives opinions to a split steady state: the gauge
partner Laplacian must be positive semidefinite with a simple zero
eigenvalue, which on a connected network is equivalent to positive
definiteness of the forest resistance matrix.  Both are read from
eigenvalues: the partner spectrum from ``sym_eigvals`` (or off the kept
eigendecomposition, where one was made first), and the resistance matrix
from one linear solve with the Laplacian grounded at a node of each
component, so a certificate computes no eigenvector and no pseudoinverse.

The partner Laplacian does not depend on the dominance coefficient, so
everything derived from it holds for every coefficient on one (graph,
bipartition).  That part is computed once (``partner_core``) and kept in
the partner that ``operators`` keeps on the graph; a certificate adds only
the coefficient's verdict and null vectors.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .operators import (
    EigenDecomposition,
    _gauge_diagonals,
    _blocks,
    _frozen,
    _max_abs,
    _partner,
    _symmetrized,
    _zero_count,
    clear_partner_cache,  # re-exported
    default_zero_tol,
    sym_eigen,
    sym_eigvals,
)
from .signed_graph import (
    Bipartition,
    Edge,
    SignedGraph,
    _antagonistic_forest,
    _no_antagonism_within,
    _node_id,
    _triples,
    connected_components,
)

class Verdict(str, enum.Enum):
    ASYMMETRIC_POLARIZATION = "AsymmetricPolarization"
    NEUTRAL_CONSENSUS = "NeutralConsensus"
    CONSENSUS = "Consensus"
    DIVERGENCE = "Divergence"
    INCONCLUSIVE = "Inconclusive"

    @property
    def flows(self) -> bool:
        """Whether the flow settles under this verdict, so that it may be
        integrated or its limit predicted: the one list of such verdicts."""
        return self in (Verdict.ASYMMETRIC_POLARIZATION, Verdict.CONSENSUS)


def pseudoinverse(matrix: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix via its spectrum.

    Eigenvalues within the decomposition's ``zero_tol`` of zero are
    dropped, the rest inverted; an entry past the double range is TooLarge.
    """
    return _pinv(sym_eigen(matrix))


def _pinv(dec: EigenDecomposition) -> np.ndarray:
    keep = np.abs(dec.eigenvalues) > dec.zero_tol
    v = dec.eigenvectors[:, keep]
    with np.errstate(over="ignore", invalid="ignore"):
        p = (v / dec.eigenvalues[keep]) @ v.T
    return _in_range(p, "pseudoinverse")


def _in_range(m: np.ndarray, what: str) -> np.ndarray:
    """``m``, or TooLarge when an entry is infinite or NaN."""
    if not _max_abs(m) < np.inf:
        raise TooLarge(f"{what} entries leave the double range")
    return m


def psd_simple_zero(matrix: np.ndarray) -> bool:
    """True when the symmetric matrix is positive semidefinite with exactly
    one eigenvalue at zero (within tolerance)."""
    return _spectrum_fault(sym_eigvals(matrix)) is None


def _spectrum_fault(w: np.ndarray) -> str | None:
    """The spectrum test: None when the ascending spectrum ``w`` has no
    entry below -``default_zero_tol`` and exactly one within it of zero,
    else the part that fails, ``negative_eigenvalue`` or
    ``zero_multiplicity``."""
    if w.size and float(w[0]) < -default_zero_tol(w):
        return "negative_eigenvalue"
    return None if _zero_count(w) == 1 else "zero_multiplicity"


def effective_resistance(laplacian: np.ndarray, forest: tuple[Edge, ...]) -> np.ndarray:
    """Resistance matrix of the forest edges through the given Laplacian.

    The Gram B^T P B of the forest's incidence columns B, column k being
    +1 at ``forest[k]``'s first endpoint a_k and -1 at its second b_k,
    read off the pseudoinverse P (see ``_pinv_solution``).  A non-integral
    endpoint raises BadIndex, one outside the Laplacian's nodes
    DimensionMismatch, an entry past the double range TooLarge.  An empty
    forest yields the empty matrix, which downstream checks treat as
    positive definite.
    """
    n = laplacian.shape[0]
    ends = [(_node_id(i), _node_id(j)) for i, j, _ in forest]
    if not all(0 <= v < n for pair in ends for v in pair):
        raise DimensionMismatch(f"forest endpoint outside the Laplacian's {n} nodes")
    if not ends:
        return np.zeros((0, 0))
    a, b = np.array(ends, dtype=np.int64).T
    return _solution_gram(*_pinv_solution(sym_eigen(laplacian), a, b))


def _pinv_solution(dec: EigenDecomposition, a: np.ndarray, b: np.ndarray):
    """``_grounded_solution``'s result off the pseudoinverse P of ``dec``:
    (P[a] - P[b]).T in unit 1, whose ``_solution_gram`` has the bits of
    B^T P B by column differences, as IEEE addition commutes."""
    p = _pinv(dec)
    with np.errstate(over="ignore", invalid="ignore"):
        return (p[a] - p[b]).T, a, b, 1.0


def _grounded_solution(laplacian: np.ndarray, components, first: np.ndarray,
                       second: np.ndarray):
    """The grounded solve behind the resistance matrix B^T L^+ B of the
    incidence columns B, column k +1 at ``first[k]`` and -1 at
    ``second[k]`` (two nodes of one component), which equals
    B_g^T L_g^-1 B_g: L_g is L with the smallest node of each component
    deleted, B_g is B without those rows.  Returns the solution y of
    L_g y = B_g in units of L's largest entry, each column's two rows of
    y (the roots share the spare row ``len(y)``) and that unit;
    ``_solution_gram`` forms the Gram from them.

    Why it holds: L is symmetric with L 1_C = 0 on each component C, and
    its kernel is spanned by those indicators alone.  Each column b of B
    sums to zero on every component, so it is orthogonal to the kernel
    and L^+ b is a solution of L y = b.  Let y solve L_g y_g = b_g and be
    zero at the deleted roots.  Then (L y)_i = b_i at every other node,
    and at the root r of C, (L y)_r = -sum over the rest of C of (L y)_i
    = b_r, because 1_C^T L y = 0 and 1_C^T b = 0.  So L y = b, y differs
    from L^+ b by a kernel vector, which every column of B is orthogonal
    to, and b'^T L^+ b = b'^T y = b_g'^T L_g^-1 b_g.  The same argument
    with b = 0 shows that L_g y_g = 0 puts y in the kernel with zeros at
    the roots, so y = 0 and L_g is nonsingular.

    The units keep the solve from over- or underflowing at any scale of
    the weights.  Beside L, one grounded copy and one right-hand side are
    held while the solve runs, and both are dropped on return.  L is only
    read.  Nothing here warns: a singular L_g raises LinAlgError, which
    only a spectrum with more zeros than components allows.
    """
    n = laplacian.shape[0]
    keep = np.ones(n, dtype=bool)
    keep[[min(c) for c in components]] = False
    size = int(np.count_nonzero(keep))
    # each node's row in the grounded system; the roots share the spare row
    row = np.where(keep, np.cumsum(keep) - 1, size)
    unit = _max_abs(laplacian)
    grounded = laplacian[np.ix_(keep, keep)]
    grounded /= unit
    a, b = row[first], row[second]
    cols = np.arange(a.size)
    rhs = np.zeros((size + 1, a.size))
    rhs[a, cols] = 1.0
    rhs[b, cols] = -1.0
    return np.linalg.solve(grounded, rhs[:size]), a, b, unit


def _solution_gram(y: np.ndarray, a: np.ndarray, b: np.ndarray, unit: float) -> np.ndarray:
    """Every resistance Gram: rows ``a`` minus rows ``b`` of a solution y
    of L y = B (zero at the spare row ``len(y)``), by row blocks, over
    ``unit``, symmetrized.  Overflow and invalid operations are ignored,
    and a result past the double range raises TooLarge (resistances above
    1.8e308), so nothing warns."""
    size = y.shape[0]

    def x(nodes):
        # the rows of y at these grounded rows, zero at the roots' spare row
        rows = y[np.minimum(nodes, size - 1)]
        rows[nodes == size] = 0.0
        return rows

    gram = np.empty((a.size, a.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(a.size):
            np.subtract(x(a[block]), x(b[block]), out=gram[block])
        gram /= unit
        gram = _symmetrized(gram)
    return _in_range(gram, "resistance Gram")


@dataclass(frozen=True, eq=False)
class PartnerCore:
    """The coefficient-free part of a certificate for one (graph,
    bipartition), computed once.

    ``eigenvalues`` is the gauge partner Laplacian's ascending spectrum,
    ``connected`` the graph's connectivity and ``forest_edges`` the
    partner network's antagonistic forest.  ``resistance`` is that
    forest's resistance matrix and ``resistance_eigenvalues`` its
    ascending spectrum, both empty with no forest.  Nothing n x n is kept
    and no graph, so a core kept on its graph goes with it.
    """

    partition: Bipartition
    eigenvalues: np.ndarray
    connected: bool
    forest_edges: tuple[Edge, ...]
    resistance: np.ndarray
    resistance_eigenvalues: np.ndarray


def _positive_definite(spectrum: np.ndarray) -> bool:
    """The Gram test: whether an ascending resistance spectrum counts as
    positive definite, every entry above ``default_zero_tol`` of it.  The
    empty spectrum of an empty forest passes."""
    return bool(np.all(spectrum > default_zero_tol(spectrum)))


def partner_core(g: SignedGraph, b: Bipartition, *, integrating: bool = False) -> PartnerCore:
    """The coefficient-free part of the certificate for (g, b): the
    partner's spectrum, and the forest's resistance Gram and that Gram's
    spectrum.

    Kept in the partner kept on ``g`` (one per graph object, see
    ``operators._partner``), so certificates and predictions at any
    number of coefficients on one (graph, bipartition) share one spectrum
    and one resistance matrix; a core for another bipartition replaces it.
    Building it computes no eigenvector, except when the spectrum has
    more zeros than the graph has components (see ``_grounded_solution``):
    then the Gram comes off the pseudoinverse of the partner's one
    eigendecomposition, which integration reads too.

    The two halves do not depend on each other.  So the Gram's half
    (``gram`` of the grounded solve) runs on a thread of its own,
    or here when none can be started, while the partner's spectrum is
    read here: ``eigvalsh``, or the spectrum kept already
    (``default_step``, ``spectrum --dominant`` or a kept ``eigen`` made
    it).  Each LAPACK call runs as it would alone, and the Gram's half
    signals nothing in any error state, so every bit and error is as when
    the halves run one after the other; the thread is joined before this
    returns or raises.  An error from the spectrum comes first.  The
    Gram's value, or its error, is read only when the spectrum has as
    many zeros as the graph has components.  Running at once costs one
    n x n array at the peak: ``eigvalsh``'s copy of L lives beside the
    solve's copies.  With no forest the Gram is empty, and no thread is
    started and nothing solved.  Below about 1e-308 a build raises
    TooLarge.

    ``integrating`` (a command that integrates every flowing verdict) runs
    the Gram's half here first instead, and then makes the partner's
    ``eigen``, whose eigenvalues are the spectrum when none is kept, only
    when the network is connected and that Gram passes the Gram test:
    ``certify`` calls a verdict flowing only then, and only then is the
    flow integrated.  Otherwise the spectrum is ``eigvalsh``'s.  The
    errors are read as above, so they are the same on both routes.
    """
    partner = _partner(g, b)
    if partner.core is not None:
        return partner.core
    components = connected_components(g)
    (i, j, weight), kept = _antagonistic_forest(partner.network)
    first, second = i[kept], j[kept]
    forest = _triples(first, second, weight[kept])
    value, error, thread = (_frozen(np.zeros((0, 0))), np.zeros(0)), None, None

    def gram(solve, *args):
        # ``_solution_gram`` of ``solve(*args)``, read-only, and its spectrum
        # into ``value``, or the error into ``error``; underflow is ignored
        # and the Gram refuses overflow, so nothing here signals in any
        # error state and it may run on a thread of its own
        nonlocal value, error
        try:
            with np.errstate(under="ignore"):
                resistance = _frozen(_solution_gram(*solve(*args)))
                value = resistance, sym_eigvals(resistance)
        except Exception as exc:  # MemoryError included
            error = exc

    grounded = (_grounded_solution, partner.laplacian, components, first, second)
    if forest and not integrating:
        thread = threading.Thread(target=gram, args=grounded, name="gqsbnet-grounded-solve")
        try:
            thread.start()
        except RuntimeError:  # no thread to be had
            thread = None
    if forest and thread is None:
        gram(*grounded)
    if integrating and len(components) == 1 and error is None and _positive_definite(value[1]):
        partner.eigen  # the integrator's decomposition, kept with the spectrum
    try:
        w = partner.eigenvalues
    finally:
        if thread is not None:
            thread.join()
    if forest and _zero_count(w) != len(components):
        value = error = None  # an extra zero: the grounded system is singular
        gram(_pinv_solution, partner.eigen, first, second)
    if error is not None:
        raise error
    partner.core = PartnerCore(partner.partition, w, len(components) == 1, forest, *value)
    return partner.core


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
    Disconnected or spectrally degenerate cases are Inconclusive.  The
    spectrum test (``_spectrum_fault``) and the Gram test
    (``_positive_definite``) are the ones ``psd_simple_zero`` and the
    core's integrating route read, and ``Verdict.flows`` says which
    verdicts let the flow run.

    The spectrum is the one kept on ``g``: ``eigvalsh``'s on a cold
    graph, but the eigendecomposition's where one was made first (by
    ``integrate``, ``OperatorBundle.partner`` or ``run_sweep``).  The two
    differ in their last bits, so on one graph object the ``spectrum``
    and ``zero_tol``, and a verdict or zero count within rounding of a
    tolerance, depend on what ran before; the forest and the Gram do not,
    as long as the zero count does not.
    """
    scale, sign, coord = _gauge_diagonals(gamma, b)
    gamma = float(gamma)
    core = partner_core(g, b)
    w = core.eigenvalues
    res_eigs = core.resistance_eigenvalues
    fault = _spectrum_fault(w)
    if not core.connected:
        verdict, decided_by = Verdict.INCONCLUSIVE, "connectivity"
    elif fault == "negative_eigenvalue":
        verdict, decided_by = Verdict.DIVERGENCE, fault
    elif fault is not None:
        verdict, decided_by = Verdict.INCONCLUSIVE, fault
    elif not _positive_definite(res_eigs):
        verdict, decided_by = Verdict.INCONCLUSIVE, "resistance_pd"
    # an exact compare: gamma = 1 + 1e-15 already scales the split
    elif gamma == 1.0 and _no_antagonism_within(g, b.mask()):
        verdict, decided_by = Verdict.CONSENSUS, "plain_split"
    else:
        verdict, decided_by = Verdict.ASYMMETRIC_POLARIZATION, "resistance_pd"
    return PolarizationCertificate(
        connected=core.connected,
        spectrum=tuple(float(x) for x in w),
        zero_multiplicity=_zero_count(w),
        gamma=gamma,
        forest_edges=core.forest_edges,
        resistance=core.resistance,
        resistance_min_eig=float(res_eigs[0]) if res_eigs.size else None,
        verdict=verdict,
        null_right=_frozen(sign * scale),
        null_left=_frozen(coord / g.n),
        decided_by=decided_by,
        zero_tol=default_zero_tol(w),
        # scale-free: relative to the Gram's own largest eigenvalue
        resistance_pd_tol=default_zero_tol(res_eigs) if res_eigs.size else None,
    )
