"""Simulation and outcome classification for the dominance-scaled flow.

Opinions follow the linear flow x' = -L x with the scaled Laplacian.  The
gauge-weighted total opinion is conserved exactly by the integrator, so the
flow's limit, when it exists, is the projection of the start state onto the
stationary direction along that functional.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._defaults import T_MAX
from .errors import BadIndex, BadState, BadStep, DimensionMismatch, NotPolarizing, TooLarge
from .operators import OperatorBundle, _real_array
from .signed_graph import Bipartition
from .spectral import certify

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
    gauge partner Laplacian (1e-3 outright for an edgeless network), read
    off the partner's one eigendecomposition, which ``integrate`` reads."""
    w = bundle.partner.eigenvalues
    radius = float(np.max(np.abs(w))) if w.size else 0.0
    return 1e-3 / radius if radius > 0 else 1e-3


# Cap on the floats in one block array of integrate (64 KiB).
_BLOCK_FLOATS = 1 << 13
# Modes whose velocity integrate's run bound keeps apart from the tail's.
_HEAD = 4
# integrate's rounding slack, in units of (n + 1) * eps * G * ||d||_2.
_SLACK = 16.0
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
    stability polynomial at -dt * lambda.  Steps are searched in blocks
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
    dec = bundle.partner
    if dt is None:
        dt = default_step(bundle)
        steps = _horizon_steps(t_max, dt)
    dt = float(dt)
    if record_every is None:
        record_every = max(1, steps // 2048)

    lam = dec.eigenvalues
    vecs = dec.eigenvectors
    total = float(gauge @ x)
    normal = gauge / square
    y = gauge * x
    level = float(y.mean())
    coeff0 = vecs.T @ (y - level)
    # with the gauge near its limit (gamma above about 1e307) the velocity
    # may pass the double range, where the state does not: such a state moves
    with np.errstate(over="ignore"):
        speed = float(np.max(np.abs(((coeff0 * lam) @ vecs.T) / gauge)))
    if speed <= stop_tol:
        return _trajectory(np.zeros(1), x[None, :].copy(), Termination.CONVERGED)
    with np.errstate(over="ignore"):  # a step this large diverges at once
        factor = _rk4_factor(-dt * lam)
    n = bundle.n
    block = max(1, _BLOCK_FLOATS // n)

    def form(coeff):  # node-space states of the steps with modes ``coeff``
        xs = (coeff @ vecs.T + level) / gauge
        xs -= (xs @ gauge - total)[:, None] * normal
        return xs

    # Step k's velocity is V d / g with d = lam * factor**k * coeff0 and V
    # orthonormal, so with G = max|1/g| its largest entry lies between
    # low * ||d|| and G * ||d||, and within G * ||d_tail|| of the head's.
    # The computed velocity departs from V d / g by the GEMM's rounding
    # (below n * eps/2 * ||V_i|| * ||d|| per entry), by eigh's V being
    # orthonormal only to O(n * eps), and by the rounding of the head, the
    # norms and the divisions (a few eps each); slack * ||d|| bounds the
    # sum with room to spare.  A state with modes c has no entry above
    # ceiling(||c||), twice the bound before and after the projection.
    big = float(np.max(1.0 / np.abs(gauge)))
    low = float(np.min(1.0 / np.abs(gauge))) / np.sqrt(n)
    slack = _SLACK * (n + 1) * np.finfo(float).eps * big

    def ceiling(c):
        a = big * (c + abs(level))
        return 2.0 * (a + np.max(np.abs(normal)) * (np.sum(np.abs(gauge)) * a + abs(total)))

    # The head: the _HEAD slowest-fading modes, zero modes last.
    key = np.where(np.abs(lam) > dec.zero_tol, -np.abs(factor), np.inf)
    head = np.argsort(key, kind="stable")[:_HEAD]
    tail = np.delete(np.arange(n), head)
    head_rows = vecs[:, head].T / gauge

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
                velocity = ((coeff * lam) @ vecs.T) / gauge
                settled = (np.max(np.abs(velocity), axis=1) <= stop_tol) & (k < steps)
            stop = diverged | settled
            if stop.any() or j == blocks - 1:
                break
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
