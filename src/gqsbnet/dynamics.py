"""Simulation and outcome classification for the dominance-scaled flow.

Opinions follow the linear flow x' = -L x with the scaled Laplacian.  The
gauge-weighted total opinion is conserved exactly by the integrator, so the
flow's limit, when it exists, is the projection of the start state onto the
stationary direction along that functional.

The flow is gauge-similar to the partner Laplacian, and a run only ever
propagates one start vector.  So ``integrate`` takes its modes from Lanczos
on the partner from that vector, over the edge arrays (Ritz pairs, Saad,
SIAM J. Numer. Anal. 29, 1992; Hochbruck and Lubich, SIAM J. Numer.
Anal. 34, 1997), as a band on the start's two sides, so that every
coefficient of a sweep reads one basis; a mode that RK4 grows takes its
Ritz vector's Rayleigh quotient to one rounding as its value, since the
steps carry that value's rounding into the state.  ``default_step``
reads the spectral radius off Lanczos's extreme Ritz values.  Neither
forms an n x n array.  The partner's full eigendecomposition is read
only by ``closed_form_state`` and where Lanczos does not settle within
its cap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._defaults import T_MAX
from .errors import BadIndex, BadState, BadStep, DimensionMismatch, NotPolarizing, TooLarge
from .operators import (
    OperatorBundle,
    _partner,
    _real_array,
    default_zero_tol,
    laplacian_form,
    laplacian_product,
)
from .signed_graph import Bipartition
from .spectral import _EPS, _RITZ_TOL, band_matrix, certify, lanczos, lanczos_steps

DIVERGENCE_LIMIT = 1e12
# Velocity below which a run counts as settled (integrate's default).
STOP_TOL = 1e-10
# Agreement within which assess reads a final state's pattern.
_OUTCOME_TOL = 1e-6


class Termination(str, enum.Enum):
    CONVERGED = "Converged"
    MAX_TIME = "MaxTime"
    DIVERGED = "Diverged"


class OutcomeKind(str, enum.Enum):
    ASYMMETRIC_POLARIZATION = "AsymmetricPolarization"
    SYMMETRIC_POLARIZATION = "SymmetricPolarization"
    NEUTRAL_CONSENSUS = "NeutralConsensus"
    CONSENSUS = "Consensus"
    DIVERGENCE = "Divergence"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one integration run; rows of ``states`` pair with
    ``times``, the last row being the state at termination."""

    times: np.ndarray
    states: np.ndarray
    terminated: Termination


@dataclass(frozen=True)
class OutcomeReport:
    """Final-state classification against the split-limit pattern.

    ``defect`` is the worst residual of that pattern: spread inside either
    subset, or the amplified cross-subset sum.  ``ratio`` is the side-one
    to side-two mean ratio, None when side two sits at zero.
    """

    kind: OutcomeKind
    v1_value: float
    v2_value: float
    ratio: float | None
    defect: float


def _state_vector(bundle: OperatorBundle, x0) -> np.ndarray:
    """``x0`` as the bundle's start state: BadState unless it holds real
    numbers, all finite, and DimensionMismatch unless it is one entry per
    node in at most one dimension."""
    x = _real_array(x0, BadState, "a start state")
    if x.ndim > 1:
        raise DimensionMismatch(f"start state must be a vector, got shape {x.shape}")
    x = x.reshape(-1)
    if x.shape[0] != bundle.n:
        raise DimensionMismatch(f"expected {bundle.n} entries, got {x.shape[0]}")
    bad = ~np.isfinite(x)
    if bad.any():
        k = int(np.argmax(bad))
        raise BadState(f"start state entry {k} is not finite: {x[k]}")
    return x


def default_step(bundle: OperatorBundle) -> float:
    """Conservative default step: 1e-3 over the spectral radius of the
    gauge partner Laplacian (1e-3 outright for an edgeless network).

    The radius is the larger magnitude of the two extreme Ritz values of
    ``lanczos`` on the partner scaled by a power of two
    (``_Partner.scaled``) from a sine start, once both their residual
    estimates are within ``spectral._RITZ_TOL`` of it; where that takes
    more than ``_KRYLOV_STEPS`` steps, it is read off the partner's one
    eigendecomposition.  With weights near the largest double the radius
    passes the double range; the step then lies below it, and the default
    horizon's step count is TooLarge.  The radius is free of the
    coefficient, so it is kept on the partner (``_Partner.radius``) for
    every bundle on (graph, bipartition)."""
    partner = _partner(bundle.graph, bundle.partition)
    if partner.radius is None:
        partner.radius = _radius(partner, bundle)
    radius, e = partner.radius
    # scaled back after the division, so a radius past the double range
    # gives a step below it, not zero
    return float(np.ldexp(1e-3 / radius, -e)) if radius > 0 else 1e-3


def _radius(partner, bundle: OperatorBundle) -> tuple[float, int]:
    """``default_step``'s spectral radius over 2^e, and e."""
    w, e = partner.scaled

    def settled(t, tail):
        values, vectors = np.linalg.eigh(band_matrix(t))
        radius = max(-float(values[0]), float(values[-1]))
        ends = float(tail[0, 0]) * np.abs(vectors[-1, [0, -1]])
        return radius if (ends <= _RITZ_TOL * radius).all() else None

    product = laplacian_product(partner.network, w)
    found = lanczos(product, np.sin(np.arange(1.0, bundle.n + 1.0)), _KRYLOV_STEPS, settled)
    if found is not None:
        return found[0], e
    w = bundle.partner.eigenvalues
    return (float(np.max(np.abs(w))) if w.size else 0.0), 0


# Cap on the floats in one block array of integrate (64 KiB).
_BLOCK_FLOATS = 1 << 13
# Modes whose velocity integrate's run bound keeps apart from the tail's.
_HEAD = 4
# integrate's rounding slack, in units of (n + 1) * eps * G * ||d||_2; the
# Krylov modes' error, at most as much again, is added to it.
_SLACK = 16.0
# Lanczos vectors integrate and default_step process before they read the
# partner's eigendecomposition instead; integrate tests its stop rule
# every _CHECK steps of its band, since each test makes one eigh of the
# projection.
_KRYLOV_STEPS = 512
_CHECK = 16
# Step indices are int64; the last block reaches one past the last step.
_MAX_STEPS = int(np.iinfo(np.int64).max) - 1


def _is_count(value) -> bool:
    """Whether ``value`` is an integer of at least 1; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def _rk4_factor(z: np.ndarray) -> np.ndarray:
    """RK4's stability polynomial 1 + z + z^2/2 + z^3/6 + z^4/24: one step
    multiplies a mode of eigenvalue lambda by its value at -dt * lambda."""
    return 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))


def _horizon_steps(t_max, dt) -> int | None:
    """RK4 steps of size ``dt`` that cover ``t_max`` (None while ``dt`` is
    None: the default step needs the spectrum).

    Raises BadStep when ``t_max`` or a given ``dt`` is not a positive real,
    and TooLarge when the count does not fit int64 step indices.
    """
    t_max = float(t_max)
    if not t_max > 0 or not np.isfinite(t_max):
        raise BadStep(f"time horizon must be a positive real, got {t_max}")
    if dt is None:
        return None
    dt = float(dt)
    if not dt > 0 or not np.isfinite(dt):
        raise BadStep(f"step size must be a positive real, got {dt}")
    # scale down a hair so t_max/dt landing a rounding error above an
    # integer does not buy a whole extra step
    span = (t_max / dt) * (1.0 - 1e-14)
    if not span < _MAX_STEPS:
        raise TooLarge(f"t_max / dt = {t_max / dt:g} steps exceeds {_MAX_STEPS}")
    return max(1, int(np.ceil(span)))


class _Flow:
    """Band Lanczos on a partner from one start state, kept on the partner
    (``_Partner.flow``) so that a sweep's coefficients share it.

    In gauge coordinates the start less its level is -(1/gamma) u_1 + u_2,
    u_1 and u_2 the start on side one and on side two, each less its mean
    (L 1 = 0, so they may be taken apart).  So every coefficient's Krylov
    space lies in the block Krylov space of (u_1, u_2), which
    ``lanczos_steps`` builds on ``_Partner.scaled``, each product less its
    mean, so the basis keeps out of the stationary mode that integrate
    carries exactly.  Checkpoints, every ``_CHECK`` band steps (``_CHECK``
    times the number of starts processed vectors) and at the last, keep
    the projection's eigenpairs and its coupling to the
    vectors after; a coefficient reads them in order and settles on the
    first that passes its own test, so its modes do not depend on what
    ran before it.  Nothing here refers to the graph."""

    def __init__(self, product, x: np.ndarray, side: np.ndarray):
        self.key = x.tobytes()
        parts = [np.where(mask, x, 0.0) for mask in (side, ~side)]
        starts = [u - u.mean() for u in parts]
        starts = [u for u in starts if u.any()]

        def projected(v):
            out = product(v)
            out -= out.mean()
            return out

        self.steps = lanczos_steps(projected, np.array(starts), _KRYLOV_STEPS)
        # the projection, in band storage, and the processed vectors so far
        self.t = self.basis = None
        # (theta, first and last rows of its eigenvectors, tail) at each
        # checkpoint, and the latest checkpoint's eigenvectors
        self.checkpoints, self.latest = [], None
        self.done = False

    def __iter__(self):
        """Each checkpoint's (theta, s_first, s_last, tail), those kept
        first, then new ones as the run goes on; s_first and s_last are
        the first and last b rows of the eigenvectors S of the projection
        (``vectors`` gives S whole)."""
        yield from self.checkpoints
        while not self.done:  # the run's last step says it is the last
            self.t, tail, self.basis, self.done = next(self.steps)
            if self.done or not self.t.shape[0] % (_CHECK * tail.shape[0]):
                theta, vectors = np.linalg.eigh(band_matrix(self.t))
                self.latest = vectors
                # copies, so that only the latest checkpoint keeps S whole
                self.checkpoints.append((theta, vectors[: tail.shape[0]].copy(),
                                         vectors[-tail.shape[1]:].copy(), tail))
                yield self.checkpoints[-1]

    def vectors(self, p: int) -> np.ndarray:
        """The eigenvectors of the projection on the first p vectors, as
        its checkpoint found them: the same input to the same eigh."""
        if self.latest.shape[0] == p:
            return self.latest
        return np.linalg.eigh(band_matrix(self.t[:p]))[1]


def _krylov_modes(bundle: OperatorBundle, x: np.ndarray, r: np.ndarray, dt: float,
                  steps: int, stop_tol: float, big: float):
    """Ritz pairs of the partner for integrating from ``x`` (``r``: its
    gauge coordinates less their level), from the ``_Flow`` kept for
    ``x`` on the partner (one is started, replacing any other, when none
    is): the values, the map from mode coefficients to gauge coordinates,
    ``r``'s coefficients, the zero tolerance and the error below; None
    where no checkpoint within ``_KRYLOV_STEPS`` vectors passes.

    With p vectors Q, the Ritz vectors S^T Q and values theta, k RK4
    steps give the modes c_k = R(-dt theta)^k c_0, c_0 = S^T Q r, and the
    velocity modes d_k = theta c_k, while L applied to the state they
    make departs from that velocity by ||tail S_b c_k||, S_b the last b
    rows of S (beta_m |e_m^T S c_k| with one start): Saad's a-posteriori
    error of the propagated vector.  It is taken relative to ||d_k|| on
    steps 1, 2, 2, 3, 4, 6, 8, ... (2^(j/2) rounded up) up to the
    horizon, where the flow may still be moving (G ||d_k|| above
    ``stop_tol``, G = ``big``) and the ratio is finite, and the first
    checkpoint whose largest is within the run search's rounding slack,
    ``_SLACK`` (n + 1) eps, is taken.  The error is returned in units of
    (n + 1) eps, so that the slack gains it.  Ritz values are read in the
    scaled units and scaled back by 2^e, exactly.

    k steps carry a growing mode's value's rounding into the state k-fold
    (eps times the radius in the value is about 1e-12 of the state after
    growth by 1e12 where the radius is 200 times the growth rate), so the
    value of each of the ``_HEAD`` modes that RK4 grows fastest at ``dt``,
    where it grows, is its Ritz vector's Rayleigh quotient on the edges to
    one rounding (``laplacian_form``), the same quantity in exact
    arithmetic."""
    partner = _partner(bundle.graph, bundle.partition)
    w, e = partner.scaled
    flow = partner.flow
    if flow is None or flow.key != x.tobytes():
        partner.flow = flow = None  # freed before the next one is built
        product = laplacian_product(partner.network, w)
        partner.flow = flow = _Flow(product, x, bundle.partition.mask())
    n = r.size
    tol = _SLACK * (n + 1) * _EPS
    grid = np.ceil(np.exp2(np.arange(2.0 * np.log2(steps) + 1.0) / 2.0))
    grid = np.append(grid[grid < steps], float(steps))
    for theta, first, final, tail in flow:
        b = tail.shape[0]
        if theta.size < b:  # the start's b vectors are not all processed
            continue
        lam = np.ldexp(theta, e)
        coeff0 = (flow.basis[:b] @ r) @ first
        # each Ritz pair's coupling to the vectors after; a zero mode whose
        # coupling is within the zero tolerance too is stationary to
        # rounding, and carried as the eigh route carries its zero modes
        couple = tail @ final
        zero = default_zero_tol(theta)
        moving = (np.abs(theta) > zero) | (np.linalg.norm(couple, axis=0) > zero)
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            c = _rk4_factor(-dt * lam) ** grid[:, None] * coeff0
            speed = np.linalg.norm(c * theta, axis=1)
            error = np.linalg.norm((c * moving) @ couple.T, axis=1) / speed
            live = (big * np.ldexp(speed, e) > stop_tol) & np.isfinite(error)
        error = float(np.max(error[live], initial=0.0))
        if error <= tol:
            s, basis = flow.vectors(lam.size), flow.basis[: lam.size]
            # the growing modes among the _HEAD that grow fastest: a mode
            # that grows slower than those falls behind them in the state
            with np.errstate(over="ignore"):
                size = np.abs(_rk4_factor(-dt * lam))
            grow = np.argsort(-size, kind="stable")[:_HEAD]
            grow = grow[size[grow] > 1.0]
            if grow.size:
                theta = theta.copy()  # the checkpoint's stays as found
                for j in grow:
                    z = s[:, j] @ basis
                    theta[j] = laplacian_form(partner.network, w, z) / float(z @ z)
                lam = np.ldexp(theta, e)
            return lam, lambda coeff: (coeff @ s.T) @ basis, coeff0, \
                default_zero_tol(lam), error / ((n + 1) * _EPS)
    return None


def _trajectory(times: np.ndarray, states: np.ndarray, status: Termination) -> Trajectory:
    times.setflags(write=False)
    states.setflags(write=False)
    return Trajectory(times, states, status)


def integrate(
    bundle: OperatorBundle,
    x0,
    dt: float | None = None,
    t_max: float = T_MAX,
    stop_tol: float = STOP_TOL,
    record_every: int | None = None,
) -> Trajectory:
    """Fixed-step fourth-order Runge-Kutta run of x' = -L x.

    Stops when the flow velocity drops below ``stop_tol`` (Converged), the
    state magnitude passes 1e12 or stops being finite (Diverged), or time
    runs out (MaxTime).  States are recorded every ``record_every``
    accepted steps; when it is omitted that is the horizon's step count
    over 2048, rounded down (at least 1), so a run that stops early keeps
    few rows.  The initial and final states are always recorded.

    The flow is gauge-similar to the partner Laplacian V diag(lambda) V^T,
    so k RK4 steps act on the partner's modes as the k-th powers of the
    stability polynomial at -dt * lambda.  The modes are Ritz pairs of
    band Lanczos on the partner from the start's two sides, over the edge
    arrays (``_krylov_modes``; no n x n array), or the partner's
    eigenpairs (``bundle.partner``) where Lanczos does not settle within
    ``_KRYLOV_STEPS`` vectors; the search below runs alike on either.
    Steps are searched in blocks
    from those powers, with no per-step loop.  Norm bounds on the modes
    only clear steps: a run of whole blocks that they prove moving and
    calm from its two ends is skipped, and the run doubles while they
    clear it and halves when they do not.  A block they cannot clear, and
    the horizon's block, is formed whole in node space, where the first
    step that meets a stop rule ends the run.  The recorded rows are
    formed in one pass after the search.  The stationary mode is carried
    exactly and every state is projected back onto the conserved level
    set of the gauge-weighted total.

    Raises BadStep when ``dt`` or ``t_max`` is not a positive real,
    ``stop_tol`` not a non-negative real or ``record_every`` not an
    integer of at least 1, TooLarge when ``t_max / dt`` steps do not fit
    int64 step indices or the coordinate gauge leaves the double range
    (gamma below about 1e-154 or above about 4.5e307), and BadState when
    ``x0`` has a NaN or infinite entry.
    """
    x = _state_vector(bundle, x0)
    steps = _horizon_steps(t_max, dt)
    stop_tol = float(stop_tol)
    if not 0 <= stop_tol < np.inf:
        raise BadStep(f"stop tolerance must be a non-negative real, got {stop_tol}")
    if record_every is not None and not _is_count(record_every):
        raise BadStep(f"record_every must be an integer of at least 1, got {record_every}")
    gauge = bundle.coord_gauge
    with np.errstate(over="ignore"):
        square = float(gauge @ gauge)
    if not square < np.inf or (np.abs(gauge) < np.finfo(float).tiny).any():
        raise TooLarge(f"coordinate gauge past the double range at coefficient {bundle.gamma:g}")
    if dt is None:
        dt = default_step(bundle)
        steps = _horizon_steps(t_max, dt)
    dt = float(dt)
    if record_every is None:
        record_every = max(1, steps // 2048)

    total = float(gauge @ x)
    normal = gauge / square
    y = gauge * x
    level = float(y.mean())
    n = bundle.n
    big = float(np.max(1.0 / np.abs(gauge)))
    low = float(np.min(1.0 / np.abs(gauge))) / np.sqrt(n)
    r = y - level
    if not r.any():  # the start is stationary: no mode moves
        return _trajectory(np.zeros(1), x[None, :].copy(), Termination.CONVERGED)
    modes = _krylov_modes(bundle, x, r, dt, steps, stop_tol, big)
    if modes is None:  # Lanczos did not settle within its cap
        # its basis is dropped before the eigendecomposition is built
        _partner(bundle.graph, bundle.partition).flow = None
        dec = bundle.partner
        vecs = dec.eigenvectors
        modes = (dec.eigenvalues, lambda coeff: coeff @ vecs.T, vecs.T @ r, dec.zero_tol, 0.0)
    # the eigenvalues or Ritz values, the map from mode coefficients to
    # gauge coordinates, the start's coefficients
    lam, nodes, coeff0, zero_tol, error = modes
    # with the gauge near its limit (gamma above about 1e307) the velocity
    # may pass the double range, where the state does not: such a state moves
    with np.errstate(over="ignore"):
        speed = float(np.max(np.abs(nodes(coeff0 * lam) / gauge)))
    if speed <= stop_tol:
        return _trajectory(np.zeros(1), x[None, :].copy(), Termination.CONVERGED)
    with np.errstate(over="ignore"):  # a step this large diverges at once
        factor = _rk4_factor(-dt * lam)
    block = max(1, _BLOCK_FLOATS // n)

    def form(coeff):  # node-space states of the steps with modes ``coeff``
        xs = (nodes(coeff) + level) / gauge
        xs -= (xs @ gauge - total)[:, None] * normal
        return xs

    # Step k's velocity is V d / g with d = lam * factor**k * coeff0 and V
    # orthonormal, so with G = max|1/g| its largest entry lies between
    # low * ||d|| and G * ||d||, and within G * ||d_tail|| of the head's.
    # The computed velocity departs from V d / g by the GEMM's rounding
    # (below n * eps/2 * ||V_i|| * ||d|| per entry), by V being orthonormal
    # only to O(n * eps), and by the rounding of the head, the norms and
    # the divisions (a few eps each); slack * ||d|| bounds the sum with
    # room to spare.  Ritz pairs depart from the flow by their error
    # besides, which the slack gains.  A state with modes c has no entry
    # above ceiling(||c||), twice the bound before and after the projection.
    slack = (_SLACK + error) * (n + 1) * _EPS * big

    def ceiling(c):
        a = big * (c + abs(level))
        return 2.0 * (a + np.max(np.abs(normal)) * (np.sum(np.abs(gauge)) * a + abs(total)))

    # The head: the _HEAD slowest-fading modes, zero modes last.
    key = np.where(np.abs(lam) > zero_tol, -np.abs(factor), np.inf)
    head = np.argsort(key, kind="stable")[:_HEAD]
    tail = np.delete(np.arange(lam.size), head)
    pick = np.zeros((head.size, lam.size))
    pick[np.arange(head.size), head] = 1.0
    head_rows = nodes(pick) / gauge

    def clear(a, b):
        """Whether the bounds prove every step a..b moving and calm.

        RK4's factor is positive on a real spectrum, so each mode's size,
        and each head mode's ratio to the first, lies between its values
        at a and at b, whichever of them is the larger.  Each entry of
        the head's velocity is the first mode's size times a sum linear in
        those ratios, which on their box lies within ``half @ |rows|`` of
        its value at the box's midpoint."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            c = factor ** np.array([[a], [b]]) * coeff0
            d = c * lam
            small, large = np.min(np.abs(d), axis=0), np.max(np.abs(d), axis=0)
            ratio = d[:, head] / d[:, head[:1]]
            mid, half = (ratio[0] + ratio[1]) / 2.0, np.abs(ratio[0] - ratio[1]) / 2.0
            h = small[head[0]] * np.max(np.abs(mid @ head_rows) - half @ np.abs(head_rows))
            t = big * np.linalg.norm(large[tail])
            bound = np.fmax(h - t, low * np.linalg.norm(small)) - slack * np.linalg.norm(large)
            top = np.linalg.norm(np.max(np.abs(c), axis=0))
            return bool(bound > stop_tol and ceiling(top) <= DIVERGENCE_LIMIT)

    # Runs of whole blocks keep the blocks' grid from step 1: same bits.  A
    # run doubles while the bounds clear it and halves when they do not; a
    # block they cannot clear, and the horizon's block, is formed whole, and
    # node space alone decides the stop, the termination and the final state.
    blocks = -(-steps // block)
    j, run = 0, 1  # the next block, and the run to try from it, in blocks
    while True:
        run = min(run, blocks - 1 - j)
        if run and clear(1 + j * block, (j + run) * block):
            j, run = j + run, 2 * run
        elif run > 1:
            run //= 2
        else:
            k = np.arange(1 + j * block, min((j + 1) * block, steps) + 1)
            # rows past a divergence may overflow; the search stops before them
            with np.errstate(over="ignore", invalid="ignore"):
                coeff = factor ** k[:, None] * coeff0
                xs = form(coeff)
                diverged = ~(np.max(np.abs(xs), axis=1) <= DIVERGENCE_LIMIT)
                speed = np.max(np.abs(nodes(coeff * lam) / gauge), axis=1)
                settled = (speed <= stop_tol) & (k < steps)
            stop = diverged | settled
            if stop.any() or j == blocks - 1:
                break
            del xs  # before the next block's is formed
            j += 1
    last = int(np.argmax(stop)) if stop.any() else k.size - 1
    status = Termination.MAX_TIME
    if stop[last]:
        status = Termination.DIVERGED if diverged[last] else Termination.CONVERGED
    rows = np.arange(record_every, k[last], record_every)
    states = [x[None, :]]
    states += [form(factor ** rows[lo: lo + block, None] * coeff0)
               for lo in range(0, rows.size, block)]
    states.append(xs[last][None, :])
    times = np.concatenate([np.zeros(1), rows * dt, k[last: last + 1] * dt])
    return _trajectory(times, np.vstack(states), status)


def closed_form_state(bundle: OperatorBundle, x0, t: float) -> np.ndarray:
    """Exact state at time t via the gauge partner's eigendecomposition.

    The flow is gauge-similar to a symmetric one, so the matrix exponential
    factors through that spectrum.  Raises BadState for a start state with
    a NaN or infinite entry, BadStep when t is not a finite real >= 0, and
    TooLarge when the state at t overflows (a divergent flow at a late
    time).
    """
    x = _state_vector(bundle, x0)
    t = float(t)
    if not 0 <= t < np.inf:
        raise BadStep(f"time must be a finite real >= 0, got {t}")
    dec = bundle.partner
    gauged = bundle.coord_gauge * x
    coeff = dec.eigenvectors.T @ gauged
    with np.errstate(over="ignore", invalid="ignore"):
        evolved = dec.eigenvectors @ (np.exp(-dec.eigenvalues * t) * coeff)
        state = evolved / bundle.coord_gauge
    if not np.isfinite(state).all():
        raise TooLarge(f"the state at time {t:g} overflows")
    return state


def predict_final(bundle: OperatorBundle, x0) -> np.ndarray:
    """Steady state the flow settles into, without integrating.

    Only defined when the certificate clears the scenario (asymmetric
    polarization, or the coefficient-1 consensus case); otherwise raises
    NotPolarizing.  The limit scales the stationary direction by the
    conserved gauge-weighted mean of the start state: side one lands at
    -gamma times the side-two value.  A start state with a NaN or
    infinite entry raises BadState.
    """
    x = _state_vector(bundle, x0)
    cert = certify(bundle.graph, bundle.partition, bundle.gamma)
    if not cert.verdict.flows:
        raise NotPolarizing(f"certificate verdict is {cert.verdict.value}")
    return cert.null_right * (float(bundle.coord_gauge @ x) / bundle.n)


def assess(traj: Trajectory, b: Bipartition, gamma: float) -> OutcomeReport:
    """Classify a finished trajectory's final state.

    Checks agreement inside each subset and the amplified cross-subset
    cancellation, each within 1e-6; with coefficient 1 the matching split
    is symmetric.  Divergence passes through from the integrator.  A final
    state near zero is neutral consensus, a uniform nonzero state is
    consensus, and anything else (a truncated run, say) is undetermined.
    Raises TooLarge, with no warning, when the final state, a side's mean,
    the spread, the cross sum or the ratio leaves the double range (a run
    that stopped on a state past it, say), and BadIndex when ``b`` covers
    another number of nodes than the trajectory.
    """
    x = traj.states[-1]
    if b.n != x.size:
        raise BadIndex("bipartition and graph disagree on node count")
    mask = b.mask()
    side1 = x[mask]
    side2 = x[~mask]
    with np.errstate(over="ignore", invalid="ignore"):
        v1 = float(side1.mean())
        v2 = float(side2.mean())
        spread = max(float(np.ptp(side1)), float(np.ptp(side2)))
        uniform = float(np.ptp(x)) <= _OUTCOME_TOL
    cross = max(
        abs(float(a) + gamma * float(c))
        for a in (side1.min(), side1.max())
        for c in (side2.min(), side2.max())
    )
    defect = max(spread, cross)
    ratio = v1 / v2 if v2 != 0.0 else None
    if not np.isfinite([v1, v2, defect, ratio or 0.0]).all():
        raise TooLarge("the final state, or a mean or spread of it, leaves the double range")

    if traj.terminated is Termination.DIVERGED:
        kind = OutcomeKind.DIVERGENCE
    elif float(np.max(np.abs(x))) <= _OUTCOME_TOL:
        kind = OutcomeKind.NEUTRAL_CONSENSUS
    elif uniform:
        kind = OutcomeKind.CONSENSUS
    elif spread <= _OUTCOME_TOL and cross <= _OUTCOME_TOL * max(1.0, abs(v1)):
        if gamma == 1.0:
            kind = OutcomeKind.SYMMETRIC_POLARIZATION
        else:
            kind = OutcomeKind.ASYMMETRIC_POLARIZATION
    else:
        kind = OutcomeKind.UNDETERMINED
    return OutcomeReport(kind=kind, v1_value=v1, v2_value=v2, ratio=ratio, defect=defect)
