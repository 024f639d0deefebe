"""Pseudoinverses, effective resistances, and polarization certificates.

The certificate machinery decides, ahead of any simulation, whether the
dominance-scaled flow drives opinions to a split steady state: the gauge
partner Laplacian L must be positive semidefinite with a simple zero
eigenvalue.  On a connected network that is one number, the antagonism
headroom t*.  Write L = L_abs - 2 L_A, where L_abs is the Laplacian of
the absolute weights, which no bipartition changes, and L_A = B_A W B_A^T
comes from the same-side antagonistic ties, the only antagonism the gauge
leaves.  Scaling those ties by t keeps L positive semidefinite with a
simple zero exactly for t < t*, and t* = 1 / lambda_max(M) - 1 with
M = W^1/2 B_A^T L_abs^+ B_A W^1/2 (Zelazo and Buerger, CDC 2014, for one
tie; Chen, Khong and Georgiou, ACC 2016, for many).  So a certificate
factors L_abs once, by Cholesky, and computes no spectrum of L, nor of
M: lambda_max(M) is the top Ritz value of Lanczos, proved by one more
Cholesky factor, of M's shift just above it (Rump, BIT 46, 2006), and
only where that proof fails does M's full spectrum decide.

The headroom does not depend on the dominance coefficient, so it is
computed once per (graph, bipartition) (``partner_core``) and kept in the
partner that ``operators`` keeps on the graph; a certificate adds only the
coefficient's verdict and null vectors.  The same factor gives each tie's
own headroom t_e = 1 / M_ee - 1, which the full certificate document
prints; t* <= min t_e, since lambda_max(M) is at least M's largest
diagonal entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .operators import (
    EigenDecomposition,
    _gauge_diagonals,
    _blocks,
    _checked_symmetric,
    _frozen,
    _laplacian_of,
    _max_abs,
    _partner,
    _row_sums,
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
    _node_id,
    _same_side_ties,
    connected_components,
)

# The Inconclusive band's floor: a headroom within this of 1 decides
# nothing (tests/test_boundary.py gives the measured error it covers);
# ``_headroom`` widens it where t*'s rounding bound is wider.
HEADROOM_TOL = 2e-9
# Rows of each diagonal block of the triangular solves.
_PANEL = 64
# Lanczos on M stops once its top Ritz value's residual estimate is this
# share of it (``dynamics.default_step``'s, once both extreme ones are),
# and gives up after this many steps.
_RITZ_TOL = 1e-12
_LANCZOS_STEPS = 128
# Processed vectors ``lanczos_steps`` first sets rows aside for, before it
# doubles them.
_BASIS_ROWS = 64
# The proof's relative shift above the top Ritz value (``_proof``).
_PROOF_SHIFT = 1e-10
_EPS = float(np.finfo(float).eps)


class Verdict(str, enum.Enum):
    ASYMMETRIC_POLARIZATION = "AsymmetricPolarization"
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
    one eigenvalue at zero, both within ``default_zero_tol``."""
    w = sym_eigvals(matrix)
    return not (w.size and float(w[0]) < -default_zero_tol(w)) and _zero_count(w) == 1


def effective_resistance(laplacian: np.ndarray, forest: tuple[Edge, ...]) -> np.ndarray:
    """Resistance matrix of the forest edges through the given Laplacian.

    The Gram B^T P B of the forest's incidence columns B, column k being
    +1 at ``forest[k]``'s first endpoint and -1 at its second, read off the
    pseudoinverse P (see ``_forest_gram``).  The Laplacian is checked as
    ``sym_eigen`` checks it; then a non-integral endpoint raises BadIndex,
    one outside the Laplacian's nodes DimensionMismatch, an entry past the
    double range TooLarge.  An empty forest yields the empty matrix.
    """
    ends = [(_node_id(i), _node_id(j)) for i, j, _ in forest]
    dec = sym_eigen(laplacian)
    n = dec.eigenvalues.size
    if not all(0 <= v < n for pair in ends for v in pair):
        raise DimensionMismatch(f"forest endpoint outside the Laplacian's {n} nodes")
    if not ends:
        return np.zeros((0, 0))
    return _forest_gram(dec, *np.array(ends, dtype=np.int64).T)


def _forest_gram(dec: EigenDecomposition, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """B^T P B off the pseudoinverse P of ``dec``, for the incidence
    columns +1 at ``a`` and -1 at ``b``: the column differences of P, then
    their rows ``a`` minus rows ``b`` by row blocks, symmetrized (the bits
    of the whole product, as IEEE addition commutes).  Overflow is ignored
    and a result past the double range raises TooLarge (resistances above
    1.8e308), so nothing warns."""
    y = _pinv(dec)
    gram = np.empty((a.size, a.size))
    with np.errstate(over="ignore", invalid="ignore"):
        y = (y[a] - y[b]).T
        for block in _blocks(a.size):
            np.subtract(y[a[block]], y[b[block]], out=gram[block])
        gram = _symmetrized(gram)
    return _in_range(gram, "resistance Gram")


def _inverses(c: np.ndarray) -> list[np.ndarray]:
    """The inverse of each ``_PANEL``-row diagonal block of the
    lower-triangular ``c``, by ``np.linalg.inv`` (numpy has no triangular
    solve), formed once for every substitution through ``c``: each costs
    about a hundred single-vector substitutions through its block."""
    return [np.linalg.inv(c[lo:lo + _PANEL, lo:lo + _PANEL]) for lo in range(0, c.shape[0], _PANEL)]


def _forward(c: np.ndarray, inverses: list[np.ndarray], rhs: np.ndarray,
             back: bool = False) -> np.ndarray:
    """The solution y of the lower-triangular c y = rhs, or with ``back``
    of c^T y = rhs, written over ``rhs``: each ``_PANEL``-row diagonal
    block after one GEMM with the rows solved before it, by that block's
    inverse from ``_inverses(c)`` (transposed with ``back``) and one more
    GEMM (``np.linalg.solve`` against many columns costs several times
    the product)."""
    t = c.T if back else c
    blocks = list(zip(range(0, c.shape[0], _PANEL), inverses))
    for lo, inverse in reversed(blocks) if back else blocks:
        rows, done = slice(lo, lo + _PANEL), slice(lo + _PANEL, None) if back else slice(0, lo)
        rhs[rows] -= t[rows, done] @ rhs[done]
        rhs[rows] = (inverse.T if back else inverse) @ rhs[rows]
    return rhs


def _split_factor(grounded: np.ndarray, top: int):
    """The Cholesky factor of ``grounded`` split at row ``top``: C11 of
    the leading block with its ``_inverses``, C21^T = C11^-1 B solved
    over a copy of the upper off-diagonal block B, and C22 of the Schur
    complement D - C21 C21^T, formed by one GEMM beside D, so
    ``grounded`` is left as it was.  None where either factor fails or
    has a pivot within (rows) eps of zero, the rounding bound of a pivot
    of a matrix whose entries are at most 1: there rounding all but
    disconnects the network, whether a factor exists turns on the sign
    of rounding, which the split and the whole factorization round
    differently, and the caller factors the whole block, as it did
    before the split."""
    off = grounded[:top, top:].copy()
    try:
        lead = np.linalg.cholesky(grounded[:top, :top])
        inverses = _inverses(lead)
        _forward(lead, inverses, off)
        schur = off.T @ off
        np.subtract(grounded[top:, top:], schur, out=schur)
        tail = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return None
    floor = np.sqrt(grounded.shape[0] * _EPS)
    if not min(lead.diagonal().min(), tail.diagonal().min()) > floor:
        return None
    return lead, inverses, off, tail


def lanczos_steps(product, start: np.ndarray, cap: int):
    """Lanczos on the symmetric operator ``product`` (a callable
    v -> A v) from ``start``: one vector, or b of them as rows, which
    makes it band Lanczos (Ruhe, Math. Comp. 33, 1979), whose basis spans
    the block Krylov space of all of them.  Full reorthogonalization
    (Gram-Schmidt twice against every vector so far); at most ``cap``
    vectors are processed, and at most the start's length.

    A generator: after vector k (from 0) is processed it yields
    ``(t, tail, basis, last)``, with p = k + 1: t, the p x p projection
    Q^T A Q on the processed vectors Q (``basis``, one per row), whose
    eigenpairs are the Ritz pairs (theta, and S^T Q for the vectors S),
    in band storage, p x (b + 1) with t[i, d] its entry (i, i + d)
    (``band_matrix`` forms it); ``tail``, the b x min(b, p) block that
    couples the last of them to the b vectors after, so that
    A Q = Q t + (those b vectors) tail, in the last columns; and
    ``last``, whether no vector follows.  With one start, t is
    tridiagonal and ``tail`` is [[beta]].  The basis holds
    ``_BASIS_ROWS`` processed vectors and the b after them, and doubles
    the processed part when full, so a run that stops early holds no more
    than it used; a yielded view keeps its values.  A start
    row that the ones before it span (within n eps of its norm) is
    dropped; a zero first row is not allowed.  A residual that vanishes
    adds no vector (the space is invariant), nor with more than one start
    one within n eps of its product's norm (invariant to rounding: two
    passes of Gram-Schmidt cannot make such a residual orthogonal, and
    the band, unlike one start, may go on past it); a run whose vectors
    are all processed ends."""
    rows = np.atleast_2d(start)
    n = rows.shape[1]
    kept = [rows[0] / np.linalg.norm(rows[0])]
    for row in rows[1:]:
        q = np.array(kept)
        v = row - (q @ row) @ q
        v -= (q @ v) @ q
        size = float(np.linalg.norm(v))
        if size > n * _EPS * float(np.linalg.norm(row)):
            kept.append(v / size)
    b = len(kept)
    # room for _BASIS_ROWS processed vectors and the b after them, doubled
    # in the processed part when full
    basis = np.empty((min(n, _BASIS_ROWS + b), n))
    basis[:b] = kept
    vectors, size = b, min(n, cap)
    band = np.zeros((size, b + 1))
    for k in range(size):
        if k == vectors:
            return
        r = product(basis[k])
        # with more than one start, a residual within rounding of the
        # product spans nothing new
        floor = n * _EPS * float(np.linalg.norm(r)) if b > 1 else 0.0
        done = basis[:vectors]
        c = done @ r
        r -= c @ done
        r -= (done @ r) @ done
        band[k, : vectors - k] = c[k:vectors]
        beta = float(np.linalg.norm(r))
        band[k, vectors - k] = beta
        if k + 1 < size and vectors < n and beta > floor:
            if vectors == basis.shape[0]:
                grown = np.empty((min(n, 2 * vectors - b), n))
                grown[:vectors] = basis
                basis = grown
            basis[vectors] = r / beta
            vectors += 1
        p = k + 1
        # its entries (p + i, col) for the last columns col below p, those
        # within the band (p + i - col at most b)
        tail = np.zeros((b, min(b, p)))
        for j, col in enumerate(range(max(0, p - b), p)):
            for i in range(min(b, col + b + 1 - p)):
                tail[i, j] = band[col, p + i - col]
        yield band[:p], tail, basis[:p], p == min(size, vectors)


def band_matrix(band: np.ndarray) -> np.ndarray:
    """The symmetric p x p matrix whose entry (i, i + d) is band[i, d],
    p the band's rows; entries past column p - 1 are left out."""
    p, width = band.shape
    t = np.zeros((p, p))
    for d in range(min(width, p)):
        i = np.arange(p - d)
        t[i, i + d] = t[i + d, i] = band[: p - d, d]
    return t


def lanczos(product, start: np.ndarray, cap: int, settled):
    """``lanczos_steps`` until the stop rule ``settled(t, tail)``, called
    after each processed vector, returns something other than None;
    returns that and the basis, or None when no step settles."""
    for t, tail, basis, _ in lanczos_steps(product, start, cap):
        found = settled(t, tail)
        if found is not None:
            return found, basis
    return None


def _top_ritz(m: np.ndarray, start: np.ndarray) -> float | None:
    """The largest Ritz value of the symmetric ``m`` by ``lanczos`` from
    ``start``, once its residual estimate beta |y_last| is within
    ``_RITZ_TOL`` of it; None when ``_LANCZOS_STEPS`` steps do not get it
    there.  A Ritz value is a Rayleigh quotient, so it is at most
    lambda_max(m) up to rounding; a start orthogonal to the top
    eigenvector finds another one, which only the caller's proof catches.
    The tridiagonal's top eigenpair comes from ``np.linalg.eigh`` from
    the second step on."""

    def settled(t, tail):
        if t.shape[0] > 1:
            values, vectors = np.linalg.eigh(band_matrix(t))
            theta, last = float(values[-1]), float(vectors[-1, -1])
        else:
            theta, last = float(t[0, 0]), 1.0
        return theta if float(tail[0, 0]) * abs(last) <= _RITZ_TOL * theta else None

    found = lanczos(m.__matmul__, start, _LANCZOS_STEPS, settled)
    return None if found is None else found[0]


def _proof(m: np.ndarray, theta: float) -> np.ndarray | None:
    """The Cholesky factor F of theta (1 + _PROOF_SHIFT) I - m, formed in
    place over ``m``, or None, with ``m`` as it was, where numpy finds
    none or the bound below is not within HEADROOM_TOL / 4 of theta.

    A factor that completes makes that matrix plus an error E positive
    semidefinite, with ||E|| at most gamma_(d+1) times its trace
    (Demmel, 1989; Rump, BIT 46, 2006), gamma_j = j eps / (1 - j eps).
    So lambda_max(m) < theta (1 + _PROOF_SHIFT) + ||E||, and with
    theta <= lambda_max(m) the proof pins mu within HEADROOM_TOL / 4
    relative: t* = 1/theta - 1 overstates M's by at most (1 + t*) / 4
    HEADROOM_TOL, half the band where t* is near 1, so a t* outside the
    band is on M's side of 1.  The diagonal is formed with one rounding
    of theta's size each, far inside that margin."""
    d = m.shape[0]
    diag = m.diagonal().copy()
    shift = theta * (1.0 + _PROOF_SHIFT)
    rounding = (d + 1) * _EPS / (1.0 - (d + 1) * _EPS) * float(d * shift - diag.sum())
    if not shift - theta + rounding <= theta * HEADROOM_TOL / 4.0:
        return None
    np.negative(m, out=m)
    m.flat[:: d + 1] += shift
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        np.negative(m, out=m)
        m.flat[:: d + 1] = diag
        return None


def _headroom(g: SignedGraph, tie: np.ndarray) -> tuple[float | None, float, np.ndarray | None]:
    """The antagonism headroom t* of the connected graph ``g`` whose
    same-side antagonistic ties are the edges ``tie`` (at least one), the
    half-width of its Inconclusive band, and each tie's own headroom
    t_e = 1 / M_ee - 1, in the order of the edges.

    Every column of B_A is zero off the ties' endpoints.  So L_abs is
    built over ``g.adjacency(order)`` with the other nodes first and the
    endpoints last, each in ascending order; it is symmetric bit for bit,
    scaled by its largest entry, which is the largest absolute row sum of
    the adjacency (so weights at 10^+-300 stay representable and t*, a
    ratio of weights, keeps no unit), grounded at the first node of that
    order, where it is positive definite on a connected network, and
    factored as C C^T in two blocks split at the s endpoint rows
    (``_split_factor``): the leading block's factor C11, the off-diagonal
    C21^T = C11^-1 B by ``_forward``, and the factor C22 of the
    endpoints' Schur complement, formed by one GEMM; or, where a pivot of
    that split is within rounding of zero, by one ``np.linalg.cholesky``
    of the whole grounded L_abs.  B_A's grounded rows are zero
    above the endpoint rows, and so are those of Z = C^-1 B_A W^1/2, so Z
    is solved on C22 alone.  M = Z^T Z, whose largest eigenvalue mu gives
    t* = 1/mu - 1.  With more ties than s, mu comes instead from
    Z Z^T = C^-1 L_A C^-T, which has the same nonzero spectrum, summed
    over Z's columns s at a time, so M is min(k, s) square.  Each column
    of B_A sums to zero, so it is orthogonal to what grounding leaves
    nearly singular (a side held on by a weak tie), and rounding there
    reaches M only squared; forming C^-1 L_A C^-T from L_A itself would
    not keep that.  M's diagonal, M_ee = w_e R_abs,e, is Z's squared
    column norms: with at most s ties, ``m``'s diagonal, copied before M
    is scaled; otherwise each s ties' column norms.

    M is checked as ``sym_eigvals`` checks its input, then scaled by the
    power of two that puts its largest diagonal entry in [1/2, 1), which
    is exact, so that a subnormal mu keeps its digits.  mu is the top
    Ritz value theta of Lanczos on M from a sine start no structure of M
    is orthogonal to (``_top_ritz``; numpy.random would import hashlib),
    proved by a Cholesky factor F of theta (1 + delta) I - M (``_proof``).
    Where Lanczos does not settle within ``_LANCZOS_STEPS`` or the proof
    fails, mu is ``sym_eigvals``'s, as it was before the proof, and the
    one step of inverse iteration below solves M - mu (1 + 1e-8) I by LU.

    A tie across a weak cut is not orthogonal to it: the cut's conductance
    is summed into L_abs's diagonal beside strong ties, and rounding loses
    it to about eps of them.  So the band is the larger of HEADROOM_TOL
    and a first-order bound on that error.  A perturbation E of L_abs
    moves mu by x^T E x with x = L_abs^-1 B_A W^1/2 v, v M's top
    eigenvector, and rounding makes ||E|| about n eps ||L_abs||, at most
    2 n eps in the scaled units; mu crosses 1/2 where t* crosses 1, so t*
    within 2 n eps ||L_abs|| ||x||^2 / mu of 1 decides nothing.  ||x||^2 / mu
    is ||C^-T u||^2 for the unit u = Z v / ||Z v||, one back substitution
    through C22 and then C11.  v is one step of inverse iteration from
    the sine vector: two substitutions through F on a proven mu.
    t* is None when rounding leaves the grounded L_abs without a factor
    (a network held together by a tie below about 1e-14 of the largest
    weight is disconnected in double precision), and so is t_e, or when
    the band reaches 2.  t* is infinite where mu is subnormal (a lone tie
    below about 1e-308 of the largest weight) and 1 / mu overflows.
    Raises TooLarge when twice an absolute row sum of the adjacency
    overflows, NotSymmetric as ``sym_eigvals`` does on M, and
    NoConvergence only on the fallback, where ``sym_eigvals``'s trace or
    Frobenius invariant fails; signals nothing.
    """
    n = g.n
    end = np.zeros(n, dtype=bool)
    end[g.i[tie]] = end[g.j[tie]] = True
    ends = np.flatnonzero(end)
    order = np.concatenate((np.flatnonzero(~end), ends))
    a = g.adjacency(order)
    np.abs(a, out=a)
    sums = _row_sums(a, order)
    lap, unit = _laplacian_of(a, sums, out=a), float(sums.max())
    del a
    # each tie's endpoints as rows of the endpoint block; with every node
    # an endpoint, the block's first row is the ground's and is dropped
    i, j = np.searchsorted(ends, g.i[tie]), np.searchsorted(ends, g.j[tie])
    s = min(ends.size, n - 1)
    top = n - 1 - s  # the grounded L_abs's first endpoint row
    with np.errstate(under="ignore"):
        lap /= unit
        w = -g.w[tie] / unit
        grounded = lap[1:, 1:]
        factor = _split_factor(grounded, top) if top else None
        if factor is None:
            try:
                whole = np.linalg.cholesky(grounded)
            except np.linalg.LinAlgError:
                return None, HEADROOM_TOL, None
            lead = whole[:top, :top]
            factor = lead, _inverses(lead), whole[top:, :top].T, whole[top:, top:]
        lead, lead_inverses, off, c = factor
        del lap, grounded, factor
        inverses = _inverses(c)
        few = w.size <= s
        m, diag = None if few else np.zeros((s, s)), []
        for lo in range(0, w.size, s):  # at most s ties at a time
            part = slice(lo, lo + s)
            root = np.sqrt(w[part])
            cols = np.arange(root.size)
            rhs = np.zeros((ends.size, root.size))
            rhs[i[part], cols], rhs[j[part], cols] = root, -root
            z = _forward(c, inverses, rhs[ends.size - s:])
            if few:
                m = z.T @ z
            else:
                for rows in _blocks(s):
                    m[rows] += z[rows] @ z.T
            diag.append(m.diagonal().copy() if few else np.einsum("ij,ij->j", z, z))
            if not few:  # freed before the next chunk's right-hand sides
                del rhs, z
        with np.errstate(over="ignore", divide="ignore"):  # an M_ee below 1e-308
            own = 1.0 / np.concatenate(diag) - 1.0
        m = _checked_symmetric(m)[0]
        peak = float(m.diagonal().max())
        if not peak > 0.0:  # M is PSD, so a zero diagonal makes it zero
            return np.inf, HEADROOM_TOL, own
        e = np.frexp(peak)[1]
        np.ldexp(m, -e, out=m)
        start = np.sin(np.arange(1.0, m.shape[0] + 1.0))
        theta = _top_ritz(m, start)
        f = None if theta is None else _proof(m, theta)
        if f is None:
            theta = float(sym_eigvals(m)[-1])
            m.flat[:: m.shape[0] + 1] -= theta * (1.0 + 1e-8)
            v = np.linalg.solve(m, start)
        else:
            del m  # only the factor is read from here on
            f_inverses = _inverses(f)
            v = _forward(f, f_inverses, _forward(f, f_inverses, start), back=True)
        mu = float(np.ldexp(theta, e))
        if not mu > 0.0:
            return np.inf, HEADROOM_TOL, own
        # v as u in C's space, then x = C^-T u, through C22 and then C11
        u = z @ v if few else v
        with np.errstate(over="ignore", invalid="ignore"):
            x = _forward(c, inverses, u / np.linalg.norm(u), back=True)
            band = float(x @ x)
            if top:
                rest = _forward(lead, lead_inverses, -(off @ x), back=True)
                band += float(rest @ rest)
            band *= 4.0 * n * _EPS
    if not band < 2.0:
        return None, HEADROOM_TOL, own
    return 1.0 / mu - 1.0, max(HEADROOM_TOL, band), own


@dataclass(frozen=True, eq=False)
class PartnerCore:
    """The coefficient-free part of a certificate for one (graph,
    bipartition), computed once.

    ``connected`` is the graph's connectivity, ``same_side_ties`` the
    number of antagonistic ties within a side, ``headroom`` the
    antagonism headroom t* (inf with no such tie; None on a disconnected
    graph, where nothing is factored, or where ``_headroom`` gives none)
    and ``headroom_tol`` the half-width of its Inconclusive band
    (``_headroom``).  ``tie_ends`` holds those ties' endpoints, one row
    each in the graph's canonical edge order, and ``tie_headroom`` each
    tie's own headroom t_e = 1 / (w_e R_abs,e) - 1 (NaN where nothing was
    factored), both read-only.  Nothing n-sized is kept and no graph, so a
    core kept on its graph goes with it.
    """

    partition: Bipartition
    connected: bool
    headroom: float | None
    same_side_ties: int
    tie_ends: np.ndarray
    tie_headroom: np.ndarray
    headroom_tol: float = HEADROOM_TOL


def partner_core(g: SignedGraph, b: Bipartition) -> PartnerCore:
    """The coefficient-free part of the certificate for (g, b): one
    Cholesky factorization of the grounded L_abs (``_headroom``) on a
    connected network with same-side antagonism, none otherwise.  The
    same-side ties are ``signed_graph._same_side_ties``, the mask that
    classification reads too.

    Kept in the partner kept on ``g`` (one per graph object, see
    ``operators._partner``), so certificates and predictions at any
    number of coefficients on one (graph, bipartition) share it; a core
    for another bipartition replaces it.  Nothing is kept when a step
    raises.
    """
    partner = _partner(g, b)
    if partner.core is None:
        tie = _same_side_ties(g, b.mask())
        connected = len(connected_components(g)) == 1
        headroom, tol, own = (None, HEADROOM_TOL, None) if not connected else (
            _headroom(g, tie) if tie.any() else (np.inf, HEADROOM_TOL, None))
        ends = np.column_stack((g.i[tie], g.j[tie]))
        own = np.full(len(ends), np.nan) if own is None else own
        partner.core = PartnerCore(b, connected, headroom, len(ends), _frozen(ends),
                                   _frozen(own), tol)
    return partner.core


@dataclass(frozen=True, eq=False)
class PolarizationCertificate:
    """Verdict on the dominance-scaled flow for one scenario.

    ``decided_by`` names the ``certify`` branch that settled the verdict:
    ``connectivity``, ``headroom`` or ``plain_split``.
    ``antagonism_headroom`` is the core's t* (``PartnerCore.headroom``),
    ``headroom_tol`` the half-width of its Inconclusive band, and
    ``same_side_ties`` counts the same-side antagonistic ties.
    ``null_right`` and ``null_left`` span the flow's stationary direction
    and conserved functional; in gauge coordinates they are the all-ones
    vector and its 1/n scaling.  ``tie_ends`` and ``tie_headroom`` are
    the core's: each same-side tie's endpoints and own headroom t_e, which
    bounds t* from above.
    """

    connected: bool
    gamma: float
    verdict: Verdict
    null_right: np.ndarray
    null_left: np.ndarray
    decided_by: str | None = None
    antagonism_headroom: float | None = None
    headroom_tol: float = HEADROOM_TOL
    same_side_ties: int = 0
    tie_ends: np.ndarray | tuple = ()
    tie_headroom: np.ndarray | tuple = ()


def certify(g: SignedGraph, b: Bipartition, gamma: float) -> PolarizationCertificate:
    """Classify the long-run behavior of the dominance-scaled flow.

    A disconnected network is Inconclusive.  Otherwise the antagonism
    headroom t* (``partner_core``) decides: above 1 + tol, tol the core's
    ``headroom_tol``, the flow polarizes asymmetrically, or, with
    coefficient 1 and no same-side antagonism, settles into a plain
    sign-flipped agreement reported as Consensus; below 1 - tol it
    diverges; in between, or where t* has no value, it is Inconclusive.
    ``Verdict.flows`` says which verdicts let the flow run.  No spectrum
    is computed, so the verdict and every field are the same whatever ran
    before on the graph object.
    """
    scale, sign, coord = _gauge_diagonals(gamma, b)
    gamma = float(gamma)
    core = partner_core(g, b)
    t = core.headroom
    if not core.connected:
        verdict, decided_by = Verdict.INCONCLUSIVE, "connectivity"
    elif t is None or abs(t - 1.0) <= core.headroom_tol:
        verdict, decided_by = Verdict.INCONCLUSIVE, "headroom"
    elif t < 1.0:
        verdict, decided_by = Verdict.DIVERGENCE, "headroom"
    # an exact compare: gamma = 1 + 1e-15 already scales the split
    elif gamma == 1.0 and not core.same_side_ties:
        verdict, decided_by = Verdict.CONSENSUS, "plain_split"
    else:
        verdict, decided_by = Verdict.ASYMMETRIC_POLARIZATION, "headroom"
    return PolarizationCertificate(
        connected=core.connected,
        gamma=gamma,
        verdict=verdict,
        null_right=_frozen(sign * scale),
        null_left=_frozen(coord / g.n),
        decided_by=decided_by,
        antagonism_headroom=t,
        headroom_tol=core.headroom_tol,
        same_side_ties=core.same_side_ties,
        tie_ends=core.tie_ends,
        tie_headroom=core.tie_headroom,
    )
