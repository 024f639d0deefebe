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

from .errors import BadStep, DimensionMismatch, NotPolarizing, TooLarge
from .operators import OperatorBundle
from .signed_graph import Bipartition
from .spectral import Verdict, certify

DIVERGENCE_LIMIT = 1e12


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
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != bundle.n:
        raise DimensionMismatch(f"expected {bundle.n} entries, got {x.shape[0]}")
    return x


def default_step(bundle: OperatorBundle) -> float:
    """Conservative default step: 1e-3 over the spectral radius of the
    gauge partner Laplacian (1e-3 outright for an edgeless network)."""
    w = bundle.partner.eigenvalues
    radius = float(np.max(np.abs(w))) if w.size else 0.0
    return 1e-3 / radius if radius > 0 else 1e-3


# Cap on the floats in one block array of integrate (64 KiB).
_BLOCK_FLOATS = 1 << 13
# Step indices are int64; the last block reaches one past the last step.
_MAX_STEPS = int(np.iinfo(np.int64).max) - 1


def _rk4_factor(z: np.ndarray) -> np.ndarray:
    """RK4's stability polynomial 1 + z + z^2/2 + z^3/6 + z^4/24: one step
    multiplies a mode of eigenvalue lambda by its value at -dt * lambda."""
    return 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))


def _trajectory(times: np.ndarray, states: np.ndarray, status: Termination) -> Trajectory:
    times.setflags(write=False)
    states.setflags(write=False)
    return Trajectory(times, states, status)


def integrate(
    bundle: OperatorBundle,
    x0,
    dt: float | None = None,
    t_max: float = 1000.0,
    stop_tol: float = 1e-10,
    record_every: int | None = None,
) -> Trajectory:
    """Fixed-step fourth-order Runge-Kutta run of x' = -L x.

    Stops when the flow velocity drops below ``stop_tol`` (Converged), the
    state magnitude passes 1e12 or stops being finite (Diverged), or time
    runs out (MaxTime).  States are recorded every ``record_every``
    accepted steps (auto-chosen to keep a few thousand samples when
    omitted); the initial and final states are always recorded.

    The flow is gauge-similar to the partner Laplacian V diag(lambda) V^T,
    so k RK4 steps act on the partner's modes as the k-th powers of the
    stability polynomial at -dt * lambda.  Steps are evaluated in blocks
    from those powers, with no per-step loop; the first step of a block
    that meets a stop rule ends the run.  The stationary mode is carried
    exactly and every state is projected back onto the conserved level
    set of the gauge-weighted total.

    Raises BadStep when ``dt`` or ``t_max`` is not a positive real, and
    TooLarge when ``t_max / dt`` steps do not fit int64 step indices.
    """
    x = _state_vector(bundle, x0)
    t_max = float(t_max)
    if not t_max > 0 or not np.isfinite(t_max):
        raise BadStep(f"time horizon must be a positive real, got {t_max}")
    if dt is None:
        dt = default_step(bundle)
    dt = float(dt)
    if not dt > 0 or not np.isfinite(dt):
        raise BadStep(f"step size must be a positive real, got {dt}")
    # scale down a hair so t_max/dt landing a rounding error above an
    # integer does not buy a whole extra step
    span = (t_max / dt) * (1.0 - 1e-14)
    if not span < _MAX_STEPS:
        raise TooLarge(f"t_max / dt = {t_max / dt:g} steps exceeds {_MAX_STEPS}")
    steps = max(1, int(np.ceil(span)))
    if record_every is None:
        record_every = max(1, steps // 2048)

    lam = bundle.partner.eigenvalues
    vecs = bundle.partner.eigenvectors
    gauge = bundle.coord_gauge
    total = float(gauge @ x)
    normal = gauge / float(gauge @ gauge)
    y = gauge * x
    level = float(y.mean())
    coeff0 = vecs.T @ (y - level)
    if float(np.max(np.abs(((coeff0 * lam) @ vecs.T) / gauge))) <= stop_tol:
        return _trajectory(np.zeros(1), x[None, :].copy(), Termination.CONVERGED)
    with np.errstate(over="ignore"):  # a step this large diverges at once
        factor = _rk4_factor(-dt * lam)
    block = max(1, _BLOCK_FLOATS // bundle.n)

    times = [np.zeros(1)]
    states = [x[None, :]]
    status = Termination.MAX_TIME
    for first in range(1, steps + 1, block):
        k = np.arange(first, min(first + block, steps + 1))
        # rows past a divergence may overflow; the search stops before them
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = factor ** k[:, None] * coeff0
            xs = (coeff @ vecs.T + level) / gauge
            xs -= (xs @ gauge - total)[:, None] * normal
            velocity = ((coeff * lam) @ vecs.T) / gauge
            diverged = ~(np.max(np.abs(xs), axis=1) <= DIVERGENCE_LIMIT)
            settled = (np.max(np.abs(velocity), axis=1) <= stop_tol) & (k < steps)
        stop = diverged | settled
        last = int(np.argmax(stop)) if stop.any() else k.size - 1
        kept = k[: last + 1] % record_every == 0
        kept[last] |= stop[last] or k[last] == steps
        times.append(k[: last + 1][kept] * dt)
        states.append(xs[: last + 1][kept])
        if stop[last]:
            status = Termination.DIVERGED if diverged[last] else Termination.CONVERGED
            break
    return _trajectory(np.concatenate(times), np.vstack(states), status)


def closed_form_state(bundle: OperatorBundle, x0, t: float) -> np.ndarray:
    """Exact state at time t via the gauge partner's eigendecomposition.

    The flow is gauge-similar to a symmetric one, so the matrix exponential
    factors through that spectrum.
    """
    x = _state_vector(bundle, x0)
    dec = bundle.partner
    gauged = bundle.coord_gauge * x
    coeff = dec.eigenvectors.T @ gauged
    evolved = dec.eigenvectors @ (np.exp(-dec.eigenvalues * float(t)) * coeff)
    return evolved / bundle.coord_gauge


def predict_final(bundle: OperatorBundle, x0) -> np.ndarray:
    """Steady state the flow settles into, without integrating.

    Only defined when the certificate clears the scenario (asymmetric
    polarization, or the coefficient-1 consensus case); otherwise raises
    NotPolarizing.  The limit scales the stationary direction by the
    conserved gauge-weighted mean of the start state: side one lands at
    -gamma times the side-two value.
    """
    x = _state_vector(bundle, x0)
    cert = certify(bundle.graph, bundle.partition, bundle.gamma)
    if cert.verdict not in (Verdict.ASYMMETRIC_POLARIZATION, Verdict.CONSENSUS):
        raise NotPolarizing(f"certificate verdict is {cert.verdict.value}")
    c = float(bundle.coord_gauge @ x) / bundle.n
    return np.where(bundle.partition.mask(), -bundle.gamma * c, c)


def assess(
    traj: Trajectory,
    b: Bipartition,
    gamma: float,
    tol: float = 1e-6,
) -> OutcomeReport:
    """Classify a finished trajectory's final state.

    Checks agreement inside each subset and the amplified cross-subset
    cancellation; with coefficient 1 the matching split is symmetric.
    Divergence passes through from the integrator.  A final state near zero
    is neutral consensus, a uniform nonzero state is consensus, and
    anything else (a truncated run, say) is undetermined.
    """
    x = traj.states[-1]
    mask = b.mask()
    side1 = x[mask]
    side2 = x[~mask]
    v1 = float(side1.mean())
    v2 = float(side2.mean())
    spread = max(
        float(np.ptp(side1)) if side1.size else 0.0,
        float(np.ptp(side2)) if side2.size else 0.0,
    )
    cross = max(
        abs(float(a) + gamma * float(c))
        for a in (side1.min(), side1.max())
        for c in (side2.min(), side2.max())
    )
    defect = max(spread, cross)
    ratio = v1 / v2 if v2 != 0.0 else None

    if traj.terminated is Termination.DIVERGED:
        kind = OutcomeKind.DIVERGENCE
    elif float(np.max(np.abs(x))) <= tol:
        kind = OutcomeKind.NEUTRAL_CONSENSUS
    elif float(np.ptp(x)) <= tol:
        kind = OutcomeKind.CONSENSUS
    elif spread <= tol and cross <= tol * max(1.0, abs(v1)):
        if gamma == 1.0:
            kind = OutcomeKind.SYMMETRIC_POLARIZATION
        else:
            kind = OutcomeKind.ASYMMETRIC_POLARIZATION
    else:
        kind = OutcomeKind.UNDETERMINED
    return OutcomeReport(kind=kind, v1_value=v1, v2_value=v2, ratio=ratio, defect=defect)
