"""Integration on Lanczos Ritz pairs against the partner's eigendecomposition.

``integrate`` takes its modes from band Lanczos on the partner over the
edge arrays, and ``default_step`` its radius from Lanczos's extreme Ritz
values; the eigh route stays in the tests as the oracle
(``tests/support.py::reference_block_integrate``, which reads
``bundle.partner``).  The gate: the same stop step and termination, the
final state within 1e-12 of its scale, and the default step within 1e-14
relative.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest

import gqsbnet.dynamics as dynamics
from gqsbnet import (
    Bipartition,
    ScenarioConfig,
    SignedGraph,
    Termination,
    bipartition_from_dominant,
    default_step,
    dump_network,
    generalized_laplacian,
    integrate,
    load_highland,
)
from gqsbnet.cli import main
from gqsbnet.fileio import run_sweep
from gqsbnet.operators import _partner
from support import (
    counting_linalg,
    dense_two_bloc,
    random_gqsb_instance,
    reference_block_integrate,
    two_bloc_draw,
)


def _radius(bundle) -> float:
    return float(np.max(np.abs(bundle.partner.eigenvalues)))


def _assert_matches_eigh(bundle, x0, dt=None, t_max=1000.0):
    """integrate against the eigh route's block search, final state only
    (``record_every`` at the horizon's step count keeps no other row)."""
    x0 = np.asarray(x0, dtype=float)
    radius = _radius(bundle)
    assert abs(default_step(bundle) - (1e-3 / radius if radius else 1e-3)) <= (
        1e-14 * default_step(bundle))
    steps = dynamics._horizon_steps(t_max, dt if dt is not None else default_step(bundle))
    ref = reference_block_integrate(bundle, x0, dt, t_max, record_every=steps)
    got = integrate(bundle, x0, dt, t_max, record_every=steps)
    assert got.terminated is ref.terminated
    assert np.array_equal(got.times, ref.times)  # the same stop step
    scale = max(float(np.max(np.abs(ref.states[-1]))), float(np.max(np.abs(x0))))
    assert np.max(np.abs(got.states[-1] - ref.states[-1])) <= 1e-12 * scale
    return ref.terminated


# (case, run) of test_small_corpora whose run the eigh route itself does
# not give to 1e-12 (test_the_oracle_misses_a_long_divergence)
_LONG_DIVERGENCE = (9, 0)


def _small_corpus(allneg_triangle, allneg_split, unstable_triangle):
    """(graph, bipartition, coefficient, start) for the worked triangle,
    the unstable one and 30 random GQSB draws."""
    cases = [(allneg_triangle, allneg_split), (unstable_triangle, allneg_split)]
    rng = np.random.default_rng(31)
    cases += [random_gqsb_instance(rng) for _ in range(30)]
    return [(g, b, float(rng.uniform(0.5, 3.0)), rng.uniform(-1.0, 1.0, g.n)) for g, b in cases]


def _exact_rk4(bundle, x0, dt, k):
    """The state after k RK4 steps of size dt from x0, in 50-digit decimal
    arithmetic on the partner Laplacian that ``bundle.partner``
    decomposes, from the gauge coordinates less their mean, as integrate
    takes them; for small graphs (a Python matrix power)."""
    lap = _partner(bundle.graph, bundle.partition).laplacian
    gauge = bundle.coord_gauge
    n = bundle.n

    def times(x, y):
        return [[sum(x[i][m] * y[m][j] for m in range(n)) for j in range(n)] for i in range(n)]

    with localcontext() as ctx:
        ctx.prec = 50
        a = [[Decimal(-dt) * Decimal(float(v)) for v in row] for row in lap]
        eye = [[Decimal(int(i == j)) for j in range(n)] for i in range(n)]
        step = eye
        for q in (4, 3, 2, 1):  # R(A) = I + A (I + A/2 (I + A/3 (I + A/4)))
            step = [[eye[i][j] + v / q for j, v in enumerate(row)]
                    for i, row in enumerate(times(a, step))]
        y = [Decimal(float(v)) for v in gauge * np.asarray(x0, dtype=float)]
        level = sum(y) / n
        r = [[v - level] for v in y]
        while k:
            if k & 1:
                r = [[sum(step[i][m] * r[m][0] for m in range(n))] for i in range(n)]
            step, k = times(step, step), k >> 1
        return np.array([float((r[i][0] + level) / Decimal(float(gauge[i]))) for i in range(n)])


def _cold(g, b, gamma):
    """A bundle on a fresh copy of ``g``: nothing kept from another run."""
    return generalized_laplacian(SignedGraph.from_arrays(g.n, g.i, g.j, g.w), b, gamma)


class TestAgainstTheEighRoute:
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0])
    def test_highland_at_the_default_step(self, gamma):
        g = load_highland(ScenarioConfig("highland", (0,)))
        b = bipartition_from_dominant(g, (0,))
        for seed in (0, 7):
            x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, g.n)
            kind = _assert_matches_eigh(_cold(g, b, gamma), x0)
            assert kind is Termination.CONVERGED

    @pytest.mark.parametrize("case, run", [
        pytest.param(case, run, marks=pytest.mark.xfail(strict=True, reason=(
            "13 316 steps of growth to 1e12: each route's RK4 factor, rounded on "
            "its own, is raised to that power, and the eigh route lands 1.7e-12 "
            "of the scale from the exact RK4 state, the Krylov route 1.3e-12 on "
            "the other side (test_the_oracle_misses_a_long_divergence)")))
        if (case, run) == _LONG_DIVERGENCE else (case, run)
        for case in range(32) for run in range(2)])
    def test_small_corpora(self, case, run, allneg_triangle, allneg_split, unstable_triangle):
        # the worked triangle, the unstable one and random GQSB draws, at
        # 500 default steps and at the default step
        g, b, gamma, x0 = _small_corpus(allneg_triangle, allneg_split, unstable_triangle)[case]
        bundle = _cold(g, b, gamma)
        if run == 0:
            _assert_matches_eigh(bundle, x0, 500.0 * default_step(bundle))
        else:
            _assert_matches_eigh(bundle, x0, t_max=100.0)

    def test_small_corpora_settle_and_diverge(self, allneg_triangle, allneg_split,
                                              unstable_triangle):
        seen = set()
        for g, b, gamma, x0 in _small_corpus(allneg_triangle, allneg_split, unstable_triangle):
            bundle = _cold(g, b, gamma)
            seen.add(integrate(bundle, x0, 500.0 * default_step(bundle)).terminated)
            seen.add(integrate(bundle, x0, t_max=100.0).terminated)
        assert {Termination.CONVERGED, Termination.DIVERGED} <= seen

    def test_the_oracle_misses_a_long_divergence(self, allneg_triangle, allneg_split,
                                                 unstable_triangle):
        # on the run test_small_corpora cannot hold to 1e-12, the eigh route
        # itself is farther than that from the exact RK4 state, computed in
        # 50-digit decimal arithmetic on the partner Laplacian it decomposes:
        # its factor's rounding, a third of an ulp, is raised to the 13 316th
        # power.  The Krylov route's value is its Rayleigh quotient to one
        # rounding, so only its own factor's rounding is left.
        case, _ = _LONG_DIVERGENCE
        g, b, gamma, x0 = _small_corpus(allneg_triangle, allneg_split, unstable_triangle)[case]
        bundle = _cold(g, b, gamma)
        dt = 500.0 * default_step(bundle)
        ref = reference_block_integrate(bundle, x0, dt, 1000.0, record_every=10 ** 6)
        k = round(ref.times[-1] / dt)
        assert ref.terminated is Termination.DIVERGED and k == 13316
        exact = _exact_rk4(bundle, x0, dt, k)
        scale = float(np.max(np.abs(exact)))
        assert np.max(np.abs(ref.states[-1] - exact)) > 1e-12 * scale
        got = integrate(bundle, x0, dt, 1000.0, record_every=10 ** 6)
        assert got.terminated is Termination.DIVERGED and got.times[-1] == ref.times[-1]

    def test_dense_two_bloc(self):
        g, b = dense_two_bloc(200)
        x0 = np.random.default_rng(4).uniform(-1.0, 1.0, g.n)
        for gamma in (0.5, 2.0):
            bundle = _cold(g, b, gamma)
            _assert_matches_eigh(bundle, x0, 1.0 / _radius(bundle))

    @pytest.mark.parametrize("n", [120, 300, 800, 2000])
    def test_two_bloc_draws(self, n):
        g, b = two_bloc_draw(n % 7, n, "AsymmetricPolarization")
        g = _cold(g, b, 2.0).graph  # one partner eigh for both coefficients
        x0 = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        for gamma, multiple in ((2.0, 1.0), (0.5, 0.5)):
            bundle = generalized_laplacian(g, b, gamma)
            kind = _assert_matches_eigh(bundle, x0, multiple / _radius(bundle))
            assert kind is Termination.CONVERGED

    @pytest.mark.parametrize("n", [120, 300])
    def test_divergent_draws(self, n):
        g, b = two_bloc_draw(n % 5, n, "Divergence")
        bundle = _cold(g, b, 2.0)
        x0 = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        kind = _assert_matches_eigh(bundle, x0, 0.5 / _radius(bundle))
        assert kind is Termination.DIVERGED


class TestSimulate:
    @pytest.mark.parametrize("kind", ["Divergence", "AsymmetricPolarization"])
    def test_simulate_matches_the_eigh_route(self, kind, tmp_path, monkeypatch, capsys):
        # the CLI's trajectory on the Krylov modes and on the partner's
        # eigh: the same rows and times, the last state within the gate
        g, b = two_bloc_draw(2, 150, kind)
        path = tmp_path / "net.txt"
        path.write_text(dump_network(g))
        dominant = str(min(b.v1))
        dt = 0.5 / _radius(generalized_laplacian(g, b, 2.0))
        argv = ["simulate", "--network", str(path), "--dominant", dominant,
                "--dt", repr(dt), "--tmax", repr(400 * dt)]
        runs = []
        for eigh in (False, True):
            with monkeypatch.context() as patch:
                if eigh:
                    patch.setattr(dynamics, "_krylov_modes", lambda *args: None)
                main(argv)
            runs.append(capsys.readouterr().out.splitlines())
        got, want = runs
        assert len(got) == len(want) > 2 and got[0] == want[0]
        rows = [np.array([float(v) for v in line.split(",")]) for line in (got[-1], want[-1])]
        assert rows[0][0] == rows[1][0]  # the same time
        scale = float(np.max(np.abs(rows[1][1:])))
        assert np.max(np.abs(rows[0] - rows[1])) <= 1e-12 * max(scale, 1.0)
        assert (scale > dynamics.DIVERGENCE_LIMIT) == (kind == "Divergence")


class TestOneBasisPerStart:
    """A sweep's coefficients share one band Lanczos basis of the start
    state's two sides, kept on the partner; each coefficient settles on the
    first checkpoint that passes its own test, so its run is the one a
    cold integration gives, bit for bit, whatever ran before it."""

    def test_sweep_matches_cold_runs(self, tmp_path):
        g, b = two_bloc_draw(1, 300, "AsymmetricPolarization")
        path = tmp_path / "net.txt"
        path.write_text(dump_network(g))
        dt = 1.0 / _radius(generalized_laplacian(g, b, 2.0))
        config = ScenarioConfig(str(path), tuple(sorted(b.v1))[:1], dt=dt, seed=3)
        x0 = np.random.default_rng(3).uniform(-1.0, 1.0, g.n)
        for gammas in ((0.5, 2.0, 6.0), (6.0, 2.0, 0.5)):
            for gamma, report in zip(gammas, run_sweep(config, gammas)):
                cold = integrate(_cold(g, b, gamma), x0, dt=dt)
                assert np.array_equal(report.trajectory.states, cold.states)
                assert np.array_equal(report.trajectory.times, cold.times)

    def test_one_basis_for_every_coefficient(self):
        g, b = two_bloc_draw(1, 300, "AsymmetricPolarization")
        x0 = np.random.default_rng(5).uniform(-1.0, 1.0, g.n)
        bundle = generalized_laplacian(g, b, 2.0)
        dt = 1.0 / _radius(bundle)
        integrate(bundle, x0, dt=dt)
        flow = _partner(g, b).flow
        for gamma in (0.5, 3.0):
            integrate(generalized_laplacian(g, b, gamma), x0, dt=dt)
            assert _partner(g, b).flow is flow
        integrate(bundle, -x0, dt=dt)  # another start replaces it
        assert _partner(g, b).flow is not flow

    def test_one_radius_for_every_coefficient(self, monkeypatch):
        # the default step's Lanczos runs once per (graph, bipartition)
        g, b = two_bloc_draw(1, 120, "AsymmetricPolarization")
        steps = [default_step(generalized_laplacian(g, b, 2.0))]
        calls = counting_linalg(monkeypatch)
        steps.append(default_step(generalized_laplacian(g, b, 0.5)))
        assert calls == [] and steps[0] == steps[1]

    def test_a_start_on_one_side(self):
        # the other side at zero leaves one start vector: plain Lanczos
        g, b = two_bloc_draw(2, 120, "AsymmetricPolarization")
        x0 = np.where(b.mask(), 0.0, np.random.default_rng(1).uniform(-1.0, 1.0, g.n))
        bundle = _cold(g, b, 2.0)
        _assert_matches_eigh(bundle, x0, 1.0 / _radius(bundle))
        assert _partner(bundle.graph, b).flow.checkpoints[-1][3].shape == (1, 1)

    def test_edge_free_sides_and_a_stationary_start(self):
        bundle = generalized_laplacian(SignedGraph(3), Bipartition(3, frozenset({0})), 2.0)
        traj = integrate(bundle, [-1.0, 0.5, 0.5])  # 0.5 everywhere in gauge coordinates
        assert traj.terminated is Termination.CONVERGED and traj.states.shape == (1, 3)
        _assert_matches_eigh(bundle, [0.3, -0.7, 0.1], 0.01, 1.0)
