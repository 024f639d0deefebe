import warnings

import numpy as np
import pytest

from gqsbnet import (
    BadIndex,
    BadState,
    BadStep,
    Bipartition,
    DimensionMismatch,
    NotPolarizing,
    OutcomeKind,
    SignedGraph,
    Termination,
    TooLarge,
    Trajectory,
    assess,
    certify,
    closed_form_state,
    default_step,
    generalized_laplacian,
    integrate,
    predict_final,
)
from gqsbnet.dynamics import STOP_TOL, _BLOCK_FLOATS, _horizon_steps, _rk4_factor
from gqsbnet.fileio import ScenarioConfig, load_highland, run_pipeline, start_state
from gqsbnet.signed_graph import bipartition_from_dominant
from support import (
    counting_linalg,
    dense_two_bloc,
    random_bloc_graph,
    random_gqsb_instance,
    reference_block_integrate,
    reference_rk4,
)


@pytest.fixture
def worked_bundle(allneg_triangle, allneg_split):
    return generalized_laplacian(allneg_triangle, allneg_split, 2.0)


@pytest.fixture
def no_eigh(monkeypatch):
    """Fail any spectrum or solve: the checks under test come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("linear algebra ran before the arguments were checked")

    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)


def _made_up_trajectory(state, terminated=Termination.CONVERGED):
    s = np.array([state], dtype=float)
    return Trajectory(np.array([0.0]), s, terminated)


class TestIntegrate:
    def test_stationary_start_converges_immediately(self, worked_bundle):
        traj = integrate(worked_bundle, [-2.0, -2.0, 1.0])
        assert traj.terminated is Termination.CONVERGED
        assert traj.times.shape == (1,)
        assert np.array_equal(traj.states[0], [-2.0, -2.0, 1.0])

    def test_worked_triangle_limit(self, worked_bundle):
        traj = integrate(worked_bundle, [1.0, 0.0, 0.0], dt=0.01)
        assert traj.terminated is Termination.CONVERGED
        assert np.allclose(traj.states[-1], [1 / 3, 1 / 3, -1 / 6], atol=1e-8)

    def test_zero_functional_start_fades_out(self, worked_bundle):
        traj = integrate(worked_bundle, [1.0, 1.0, 1.0], dt=0.01)
        assert traj.terminated is Termination.CONVERGED
        assert float(np.max(np.abs(traj.states[-1]))) <= 1e-9

    def test_divergence_detected(self, unstable_triangle, allneg_split):
        bundle = generalized_laplacian(unstable_triangle, allneg_split, 2.0)
        traj = integrate(bundle, [1.0, 0.0, 0.0], dt=0.001)
        assert traj.terminated is Termination.DIVERGED
        assert float(np.max(np.abs(traj.states[-1]))) > 1e12

    def test_state_past_the_double_range_diverges_quietly(self):
        # x0 entries of +-1000 times a coefficient of 1e307 put the first
        # formed state past 1.8e308: it stops the run, and nothing warns
        g = load_highland(ScenarioConfig("highland", (0,)))
        b = bipartition_from_dominant(g, (0,))
        x0 = np.repeat([1000.0, -1000.0], 8)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            traj = integrate(generalized_laplacian(g, b, 1e307), x0, dt=0.002)
        assert traj.terminated is Termination.DIVERGED
        assert not np.isfinite(traj.states[-1]).all()

    def test_time_limit(self, worked_bundle):
        traj = integrate(worked_bundle, [1.0, 0.0, 0.0], dt=0.01, t_max=0.05,
                         stop_tol=0.0)
        assert traj.terminated is Termination.MAX_TIME
        assert traj.times[-1] == pytest.approx(0.05)

    def test_generous_stop_tol_short_circuits(self, worked_bundle):
        traj = integrate(worked_bundle, [1.0, 0.0, 0.0], stop_tol=10.0)
        assert traj.terminated is Termination.CONVERGED
        assert traj.times.shape == (1,)

    def test_recording_stride(self, worked_bundle):
        traj = integrate(worked_bundle, [1.0, 0.0, 0.0], dt=0.01, t_max=0.1,
                         stop_tol=0.0, record_every=5)
        assert np.allclose(traj.times, [0.0, 0.05, 0.1])
        dense = integrate(worked_bundle, [1.0, 0.0, 0.0], dt=0.01, t_max=0.1,
                          stop_tol=0.0, record_every=1)
        assert dense.times.shape == (11,)

    def test_first_and_last_always_recorded(self, worked_bundle):
        traj = integrate(worked_bundle, [1.0, 0.0, 0.0], dt=0.01, t_max=0.07,
                         stop_tol=0.0, record_every=1000)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.07)

    def test_conserved_functional(self, worked_bundle):
        w = worked_bundle.coord_gauge
        traj = integrate(worked_bundle, [0.9, -0.4, 0.2], dt=0.01, record_every=1)
        totals = traj.states @ w
        assert float(np.max(np.abs(totals - totals[0]))) <= 1e-8

    def test_conserved_functional_random(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            g, b = random_gqsb_instance(rng)
            bundle = generalized_laplacian(g, b, float(rng.uniform(0.5, 3.0)))
            x0 = rng.uniform(-1.0, 1.0, bundle.n)
            dt = 200.0 * default_step(bundle)
            traj = integrate(bundle, x0, dt=dt, t_max=5.0, record_every=1)
            totals = traj.states @ bundle.coord_gauge
            assert float(np.max(np.abs(totals - totals[0]))) <= 1e-8

    def test_bad_steps(self, worked_bundle):
        for bad in (0.0, -0.5, np.inf, np.nan):
            with pytest.raises(BadStep):
                integrate(worked_bundle, [1.0, 0.0, 0.0], dt=bad)

    @pytest.mark.parametrize("t_max", [0.0, -5.0, np.inf, -np.inf, np.nan])
    def test_bad_horizon_refused_before_any_work(self, worked_bundle, t_max, no_eigh):
        with pytest.raises(BadStep, match="time horizon"):
            integrate(worked_bundle, [1.0, 0.0, 0.0], t_max=t_max)

    @pytest.mark.parametrize("t_max", [1e16, 1e300])
    def test_horizon_past_int64_steps(self, worked_bundle, t_max, no_eigh):
        with pytest.raises(TooLarge):
            integrate(worked_bundle, [1.0, 0.0, 0.0], dt=1e-3, t_max=t_max)

    def test_horizon_past_int64_steps_at_default_step(self, worked_bundle):
        with pytest.raises(TooLarge):
            integrate(worked_bundle, [1.0, 0.0, 0.0], t_max=1e300)

    def test_largest_horizon_still_runs(self, worked_bundle):
        # 9e18 steps fit int64 indices; the run settles long before them
        traj = integrate(worked_bundle, [1.0, 0.0, 0.0], dt=1e-3, t_max=9e15)
        assert traj.terminated is Termination.CONVERGED
        assert traj.times.shape == (2,)

    @pytest.mark.parametrize("record_every", [0, -3, 2.5, np.nan, True])
    def test_bad_record_every_refused_before_any_work(self, worked_bundle, record_every,
                                                      no_eigh):
        with pytest.raises(BadStep, match="record_every"):
            integrate(worked_bundle, [1.0, 0.0, 0.0], record_every=record_every)

    @pytest.mark.parametrize("stop_tol", [np.nan, -1.0, np.inf])
    def test_bad_stop_tol_refused_before_any_work(self, worked_bundle, stop_tol, no_eigh):
        with pytest.raises(BadStep, match="stop tolerance"):
            integrate(worked_bundle, [1.0, 0.0, 0.0], stop_tol=stop_tol)

    def test_state_length_checked(self, worked_bundle):
        with pytest.raises(DimensionMismatch):
            integrate(worked_bundle, [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_refused_before_any_work(self, worked_bundle, bad, no_eigh):
        with pytest.raises(BadState, match="entry 1 is not finite"):
            integrate(worked_bundle, [0.0, bad, 0.0], dt=0.01, t_max=1.0)

    @pytest.mark.parametrize("x0, error", [
        (np.ones((3, 3)), DimensionMismatch),  # nine entries on a nine-node network
        (np.ones(9) + 1j, BadState),
        (np.ones(9, dtype=complex), BadState),
        ("abc", BadState),
        ([1.0] * 8 + ["x"], BadState),
        ([[1.0] * 5, [1.0] * 4], BadState),
    ], ids=["square", "complex", "complex-type", "text", "text-entry", "ragged"])
    def test_start_state_must_be_a_real_vector(self, x0, error, no_eigh):
        # each reader of a start state refuses it before any work, with no
        # warning: no reshape of a matrix, no real part of a complex state
        g = SignedGraph.from_edge_list(9, [(k, k + 1, -1.0) for k in range(8)])
        bundle = generalized_laplacian(g, Bipartition(9, frozenset({0, 2, 4, 6, 8})), 2.0)
        for read in (lambda: integrate(bundle, x0, dt=0.01, t_max=1.0),
                     lambda: closed_form_state(bundle, x0, 1.0),
                     lambda: predict_final(bundle, x0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error):
                    read()

    def test_integer_and_boolean_states_pass(self):
        g = SignedGraph.from_edge_list(2, [(0, 1, -1.0)])
        bundle = generalized_laplacian(g, Bipartition(2, frozenset({0})), 2.0)
        for x0 in ([1, 0], np.array([True, False])):
            assert np.allclose(closed_form_state(bundle, x0, 0.0), [1.0, 0.0], atol=1e-15)

    def test_output_read_only(self, worked_bundle):
        traj = integrate(worked_bundle, [1.0, 0.0, 0.0], dt=0.01, t_max=0.05)
        with pytest.raises(ValueError):
            traj.times[0] = 3.0

    def test_edgeless_network(self):
        g = SignedGraph(2)
        bundle = generalized_laplacian(g, Bipartition(2, frozenset({0})), 2.0)
        assert default_step(bundle) == 1e-3
        traj = integrate(bundle, [0.3, -0.7])
        assert traj.terminated is Termination.CONVERGED
        assert np.array_equal(traj.states[-1], [0.3, -0.7])

    @pytest.mark.parametrize("gamma", [1e-300, 1.7e308])
    def test_gauge_beyond_the_double_range_refused_first(self, allneg_triangle,
                                                         allneg_split, gamma, no_eigh):
        # at 1e-300 the gauge's squared norm overflows, at 1.7e308 its entry
        # 1 / gamma is subnormal: TooLarge before any spectrum or gauge sum
        bundle = generalized_laplacian(allneg_triangle, allneg_split, gamma)
        for dt in (None, 0.01):
            with pytest.raises(TooLarge, match="coordinate gauge"):
                integrate(bundle, [1.0, 0.0, 0.0], dt=dt)

    def test_gauge_entry_past_the_double_range_refused(self, allneg_triangle, allneg_split):
        # below about 5.6e-309 the entry 1 / gamma itself overflows: TooLarge
        # where every gauge is formed, so certify and predict_final refuse
        # it with no warning and no infinite null vector
        with pytest.raises(TooLarge, match="coordinate gauge"):
            certify(allneg_triangle, allneg_split, 1e-320)
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 1e-320)
        with pytest.raises(TooLarge, match="coordinate gauge"):
            predict_final(bundle, [1.0, 0.0, 0.0])

    def test_default_step_uses_spectral_radius(self, worked_bundle):
        assert default_step(worked_bundle) == pytest.approx(1e-3 / 9.0, rel=1e-9)


def _recorded(dense, t_max, dt, record_every):
    """What a run records, cut from the same run recorded at every step:
    every ``record_every``-th step (auto-chosen as in ``integrate`` when
    None) and the final state."""
    if record_every is None:
        steps = max(1, int(np.ceil((t_max / dt) * (1.0 - 1e-14))))
        record_every = max(1, steps // 2048)
    rows = np.arange(dense.times.size)
    keep = (rows % record_every == 0) | (rows == rows[-1])
    return dense.times[keep], dense.states[keep]


def _assert_matches_reference(bundle, x0, dt, t_max):
    """integrate against the step-by-step RK4 oracle: same termination,
    identical times, states within 1e-9 of each row's scale."""
    x0 = np.asarray(x0, dtype=float)
    dense = reference_rk4(bundle, x0, dt=dt, t_max=t_max, record_every=1)
    for record_every in (None, 1, 5):
        got = integrate(bundle, x0, dt=dt, t_max=t_max, record_every=record_every)
        times, states = _recorded(dense, t_max, dt, record_every)
        assert got.terminated is dense.terminated
        assert np.array_equal(got.times, times)
        scale = np.maximum(np.max(np.abs(states), axis=1), np.max(np.abs(x0)))
        assert np.all(np.max(np.abs(got.states - states), axis=1) <= 1e-9 * scale)
    return dense.terminated


class TestAgainstReference:
    def test_random_draws(self):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(200):
            g, b = random_gqsb_instance(rng)
            bundle = generalized_laplacian(g, b, float(rng.uniform(0.5, 3.0)))
            x0 = rng.uniform(-1.0, 1.0, bundle.n)
            h = default_step(bundle)
            # short horizons keep the oracle's Python loop affordable
            for dt, t_max in ((h, 100 * h), (200 * h, 300 * 200 * h), (2000 * h, 1000.0)):
                seen.add(_assert_matches_reference(bundle, x0, dt, t_max))
        assert seen == set(Termination)

    def test_edgeless_network(self):
        bundle = generalized_laplacian(SignedGraph(2), Bipartition(2, frozenset({0})), 2.0)
        kind = _assert_matches_reference(bundle, [0.3, -0.7], default_step(bundle), 1000.0)
        assert kind is Termination.CONVERGED

    def test_stationary_start(self, worked_bundle):
        kind = _assert_matches_reference(worked_bundle, [-2.0, -2.0, 1.0],
                                         default_step(worked_bundle), 1000.0)
        assert kind is Termination.CONVERGED

    def test_last_step_is_not_tested_for_settling(self, worked_bundle):
        x0 = [1.0, 0.0, 0.0]
        settle = integrate(worked_bundle, x0, dt=0.01).times[-1]
        kind = _assert_matches_reference(worked_bundle, x0, 0.01, settle)
        assert kind is Termination.MAX_TIME

    def test_default_step_stops_within_one_step(self):
        # at the default step the velocity falls so slowly that the loop's
        # rounding may move the step on which it crosses stop_tol
        g = SignedGraph.from_edge_list(2, [(0, 1, -1.0)])
        bundle = generalized_laplacian(g, Bipartition(2, frozenset({0})), 2.0)
        x0 = [1.0, 0.0]
        ref = reference_rk4(bundle, x0)
        got = integrate(bundle, x0)
        dt = default_step(bundle)
        assert got.terminated is ref.terminated is Termination.CONVERGED
        assert abs(round(got.times[-1] / dt) - round(ref.times[-1] / dt)) <= 1
        assert np.allclose(got.states[-1], ref.states[-1], rtol=0.0, atol=1e-9)

    def test_one_eigh_per_bundle(self, worked_bundle, monkeypatch):
        calls = counting_linalg(monkeypatch)
        default_step(worked_bundle)
        assert calls == [("eigh", (3, 3))]  # the integrator's decomposition, and no core
        integrate(worked_bundle, [1.0, 0.0, 0.0])
        integrate(worked_bundle, [0.2, 0.5, -0.1], dt=0.01)
        closed_form_state(worked_bundle, [1.0, 0.0, 0.0], 2.0)
        assert calls == [("eigh", (3, 3))]



def _assert_matches_block_search(bundle, x0, dt=None, t_max=1000.0, stop_tol=STOP_TOL,
                                 records=(None, 1, 5)):
    """integrate against the block search that forms every step in node
    space: same termination, identical times, states within 1e-12 of each
    row's scale, and the final state bit for bit (its block is formed
    whole, as the block search forms it)."""
    x0 = np.asarray(x0, dtype=float)
    for record_every in records:
        ref = reference_block_integrate(bundle, x0, dt, t_max, stop_tol, record_every)
        got = integrate(bundle, x0, dt, t_max, stop_tol, record_every)
        assert got.terminated is ref.terminated
        assert np.array_equal(got.times, ref.times)
        scale = np.maximum(np.max(np.abs(ref.states), axis=1), np.max(np.abs(x0)))
        assert np.all(np.max(np.abs(got.states - ref.states), axis=1) <= 1e-12 * scale)
        assert np.array_equal(got.states[-1], ref.states[-1])
    return ref


def _two_bloc(seed, n=200, gamma=2.0):
    """A seeded two-bloc bundle, a start state and its spectral radius."""
    rng = np.random.default_rng(seed)
    g, labels = random_bloc_graph(rng, n, 2)
    b = Bipartition(n, frozenset(np.flatnonzero(labels == 0).tolist()))
    bundle = generalized_laplacian(g, b, gamma)
    return bundle, rng.uniform(-1.0, 1.0, n), float(np.max(np.abs(bundle.partner.eigenvalues)))


def _block_search_speed(bundle, x0, dt, t_max, k):
    """Largest velocity entry at step k as the block search computes it:
    from k's whole block of the step grid, bit for bit."""
    lam, vecs = bundle.partner.eigenvalues, bundle.partner.eigenvectors
    y = bundle.coord_gauge * np.asarray(x0, dtype=float)
    coeff0 = vecs.T @ (y - float(y.mean()))
    block = max(1, _BLOCK_FLOATS // bundle.n)
    first = 1 + (k - 1) // block * block
    rows = np.arange(first, min(first + block, _horizon_steps(t_max, dt) + 1))
    coeff = _rk4_factor(-dt * lam) ** rows[:, None] * coeff0
    velocity = ((coeff * lam) @ vecs.T) / bundle.coord_gauge
    return float(np.max(np.abs(velocity[k - first])))


class TestAgainstBlockSearch:
    """The screened integrator against the node-space block search it
    replaced, which stays in the tests as an oracle."""

    def test_random_draws(self):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(200):
            g, b = random_gqsb_instance(rng)
            bundle = generalized_laplacian(g, b, float(rng.uniform(0.5, 3.0)))
            x0 = rng.uniform(-1.0, 1.0, bundle.n)
            h = default_step(bundle)
            for dt, t_max in ((h, 100 * h), (200 * h, 300 * 200 * h), (2000 * h, 1000.0)):
                seen.add(_assert_matches_block_search(bundle, x0, dt, t_max).terminated)
        assert seen == set(Termination)

    def test_long_runs_at_the_default_step(self):
        # many blocks pass before the stop, so the skip-ahead decides most
        # steps; gamma below 1 puts the smaller gauge factor on side two
        rng = np.random.default_rng(11)
        for gamma in (0.5, 0.8, 2.5, 4.0):
            g, b = random_gqsb_instance(rng, n_max=6)
            bundle = generalized_laplacian(g, b, gamma)
            x0 = rng.uniform(-1.0, 1.0, bundle.n)
            ref = _assert_matches_block_search(bundle, x0, records=(None,))
            assert ref.terminated is Termination.CONVERGED

    def test_stop_tol_at_step_speeds(self):
        # no bound has room at a tolerance equal to a step's own speed, so
        # each step near the stop is decided in node space
        rng = np.random.default_rng(13)
        for _ in range(20):
            g, b = random_gqsb_instance(rng)
            bundle = generalized_laplacian(g, b, float(rng.uniform(0.5, 3.0)))
            x0 = rng.uniform(-1.0, 1.0, bundle.n)
            dt = 200.0 * default_step(bundle)
            stop = round(reference_block_integrate(bundle, x0, dt).times[-1] / dt)
            for k in range(max(1, stop - 2), stop + 1):
                speed = _block_search_speed(bundle, x0, dt, 1000.0, k)
                for tol in (speed, np.nextafter(speed, 0.0), np.nextafter(speed, 1.0)):
                    _assert_matches_block_search(bundle, x0, dt, stop_tol=tol, records=(None,))

    @pytest.mark.parametrize("seed", [0, 4])
    def test_two_bloc_networks(self, seed):
        bundle, x0, radius = _two_bloc(seed)
        for multiple in (1.0, 2.0):
            ref = _assert_matches_block_search(bundle, x0, multiple / radius)
            assert ref.terminated is Termination.CONVERGED

    def test_step_past_stability_diverges(self):
        bundle, x0, radius = _two_bloc(1)
        dt = 2.9 / radius  # RK4 is stable on the real axis up to about 2.79
        assert np.max(np.abs(_rk4_factor(-dt * bundle.partner.eigenvalues))) > 1.0
        assert _assert_matches_block_search(bundle, x0, dt).terminated is Termination.DIVERGED

    def test_certified_divergence(self, unstable_triangle, allneg_split):
        bundle = generalized_laplacian(unstable_triangle, allneg_split, 2.0)
        ref = _assert_matches_block_search(bundle, [1.0, 0.0, 0.0])
        assert ref.terminated is Termination.DIVERGED

    def test_several_zero_modes(self):
        edgeless = generalized_laplacian(SignedGraph(3), Bipartition(3, frozenset({0})), 2.0)
        _assert_matches_block_search(edgeless, [0.3, -0.7, 0.1])
        # two isolated nodes beside the worked triangle: three zero modes
        g = SignedGraph.from_edge_list(5, [(0, 1, -1.0), (0, 2, -3.0), (1, 2, -3.0)])
        bundle = generalized_laplacian(g, Bipartition(5, frozenset({0, 1, 3})), 2.0)
        x0 = [1.0, -0.5, 0.25, 2.0, -3.0]
        assert _assert_matches_block_search(bundle, x0).terminated is Termination.CONVERGED
        assert _assert_matches_block_search(bundle, x0, 0.01).terminated is Termination.CONVERGED
        # K4's partner has three nonzero modes, all at 4: beside two isolated
        # nodes the head is those three and a zero mode
        edges = [(i, j, 1.0 if (i < 2) == (j < 2) else -1.0)
                 for i in range(4) for j in range(i + 1, 4)]
        g = SignedGraph.from_edge_list(6, edges)
        bundle = generalized_laplacian(g, Bipartition(6, frozenset({0, 1, 4})), 3.0)
        assert np.sum(np.abs(bundle.partner.eigenvalues) > bundle.partner.zero_tol) == 3
        x0 = [1.0, -0.5, 0.25, 2.0, -3.0, 0.5]
        assert _assert_matches_block_search(bundle, x0).terminated is Termination.CONVERGED

    def test_repeated_slowest_mode(self):
        # a cycle's slowest nonzero eigenvalue is double: two head modes fade
        # at one rate, so their ratio keeps its value over every run
        n = 8
        edges = [(i, (i + 1) % n, -1.0 if i in (3, 7) else 1.0) for i in range(n)]
        bundle = generalized_laplacian(SignedGraph.from_edge_list(n, edges),
                                       Bipartition(n, frozenset(range(4))), 2.0)
        factor = _rk4_factor(-default_step(bundle) * bundle.partner.eigenvalues)
        assert factor[1] == factor[2] > factor[3]
        x0 = np.random.default_rng(3).uniform(-1.0, 1.0, n)
        ref = _assert_matches_block_search(bundle, x0, records=(None, 5))
        assert ref.terminated is Termination.CONVERGED

    def test_coefficient_below_one(self):
        # the larger coordinate gauge entry sits on side one, over runs of
        # many blocks
        bundle, x0, _ = _two_bloc(6, n=60, gamma=0.4)
        ref = _assert_matches_block_search(bundle, x0, records=(None,))
        assert ref.terminated is Termination.CONVERGED

    def test_start_state_nearly_free_of_the_slowest_mode(self):
        # the second head mode carries the run and its ratio to the first
        # falls over every run, so the head bound must hold at both ends
        bundle, _, _ = _two_bloc(0, n=12)
        c = np.zeros(12)
        c[1:4] = 1e-6, 1.0, 0.5
        x0 = (bundle.partner.eigenvectors @ c + 0.3) / bundle.coord_gauge
        ref = _assert_matches_block_search(bundle, x0, records=(None,))
        assert ref.terminated is Termination.CONVERGED

    def test_two_bloc_at_the_default_step(self):
        bundle, x0, _ = _two_bloc(2)
        ref = _assert_matches_block_search(bundle, x0, records=(None,))
        assert ref.terminated is Termination.CONVERGED

    def test_stop_tol_at_the_last_steps_at_the_default_step(self):
        # the last three steps before the stop, each at its own node-space
        # speed and one ulp either side, after many cleared blocks
        rng = np.random.default_rng(23)
        for _ in range(3):
            g, b = random_gqsb_instance(rng, n_max=6)
            bundle = generalized_laplacian(g, b, float(rng.uniform(0.5, 3.0)))
            x0 = rng.uniform(-1.0, 1.0, bundle.n)
            dt = default_step(bundle)
            stop = round(reference_block_integrate(bundle, x0, dt).times[-1] / dt)
            for k in range(stop - 2, stop + 1):
                speed = _block_search_speed(bundle, x0, dt, 1000.0, k)
                for tol in (speed, np.nextafter(speed, 0.0), np.nextafter(speed, 1.0)):
                    _assert_matches_block_search(bundle, x0, dt, stop_tol=tol, records=(None,))

    # (draw, coefficient, mode, block whose last step stops the run); the
    # draws are random_gqsb_instance(default_rng(3), n_max=12)'s, then highland
    @pytest.mark.parametrize("draw, gamma, mode, last", [
        (1, 2.0, 2, 3), (7, 2.0, 3, 3), (7, 3.0, 4, 7), (11, 2.0, 4, 7), (12, 2.0, 2, 127)])
    def test_one_mode_stopping_at_a_block_end(self, draw, gamma, mode, last):
        # a start state on one nonzero mode, with the stop tolerance at the
        # speed of a block's last step: a run ending at that step is bounded
        # at that step's own speed up to rounding, so the rounding slack
        # alone keeps the run bound from clearing the stop
        rng = np.random.default_rng(3)
        draws = [random_gqsb_instance(rng, n_max=12) for _ in range(12)]
        g = load_highland(ScenarioConfig("highland", (0,)))
        g, b = (draws + [(g, bipartition_from_dominant(g, (0,)))])[draw]
        bundle = generalized_laplacian(g, b, gamma)
        c = np.zeros(g.n)
        c[mode] = 1.0
        x0 = (bundle.partner.eigenvectors @ c + 0.3) / bundle.coord_gauge
        dt = default_step(bundle)
        k = last * max(1, _BLOCK_FLOATS // g.n)
        tol = _block_search_speed(bundle, x0, dt, 1000.0, k)
        ref = _assert_matches_block_search(bundle, x0, stop_tol=tol, records=(None,))
        assert round(ref.times[-1] / dt) == k

    # (draw, coefficient, second mode's weight against the first's 1); the
    # draws are random_gqsb_instance(default_rng(7))'s, both polarizing
    @pytest.mark.parametrize("draw, gamma, weight", [
        (4, 2.0, -1.0), (4, 1.5, -200.0), (6, 2.0, 0.5), (6, 3.0, 20.0)])
    def test_two_slow_modes_whose_speed_dips(self, draw, gamma, weight):
        # a start state on the two slowest-fading modes whose node-space
        # speed falls to a low point and rises again before it fades: with
        # the stop tolerance at the low point, a run around it starts and
        # ends faster than the tolerance, so the head's ratios must be
        # bounded at both of a run's ends
        rng = np.random.default_rng(7)
        g, b = [random_gqsb_instance(rng) for _ in range(draw + 1)][draw]
        bundle = generalized_laplacian(g, b, gamma)
        c = np.zeros(g.n)
        c[1:3] = 1.0, weight
        x0 = (bundle.partner.eigenvectors @ c + 0.3) / bundle.coord_gauge
        dt = default_step(bundle)
        lam, vecs = bundle.partner.eigenvalues, bundle.partner.eigenvectors
        steps = np.arange(1, 50_000)
        speed = np.max(np.abs(((_rk4_factor(-dt * lam) ** steps[:, None] * c * lam)
                               @ vecs.T) / bundle.coord_gauge), axis=1)
        dip = (speed[1:-1] < speed[:-2]) & (speed[1:-1] < speed[2:])
        assert dip.any()
        k = 2 + int(np.argmax(dip))  # the first step slower than both its neighbours
        tol = _block_search_speed(bundle, x0, dt, 1000.0, k)
        ref = _assert_matches_block_search(bundle, x0, stop_tol=tol, records=(None,))
        assert round(ref.times[-1] / dt) == k

    def test_zero_stop_tol_runs_out_of_time(self, worked_bundle):
        ref = _assert_matches_block_search(worked_bundle, [1.0, 0.0, 0.0], 0.01, 30.0, 0.0)
        assert ref.terminated is Termination.MAX_TIME

    def test_stop_tol_at_a_step_speed(self):
        # a stop tolerance equal to the speed at step k leaves no margin for
        # any bound, so k is decided in node space, on the oracle's bits
        g = load_highland(ScenarioConfig("highland", (0,)))
        bundle = generalized_laplacian(g, bipartition_from_dominant(g, (0,)), 2.0)
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, g.n)
        dt = default_step(bundle)
        k = round(reference_block_integrate(bundle, x0).times[-1] / dt) - 3
        speed = _block_search_speed(bundle, x0, dt, 1000.0, k)
        stops = []
        for stop_tol in (speed, np.nextafter(speed, 0.0)):
            ref = reference_block_integrate(bundle, x0, stop_tol=stop_tol)
            got = integrate(bundle, x0, stop_tol=stop_tol)
            assert got.terminated is ref.terminated is Termination.CONVERGED
            assert np.array_equal(got.times, ref.times)
            assert np.array_equal(got.states[-1], ref.states[-1])
            stops.append(round(got.times[-1] / dt))
        assert stops[0] == k < stops[1]


def _searched(monkeypatch, bundle, x0, dt=None):
    """integrate's run from ``x0``, the node-space blocks it formed and the
    run checks it made, counted by their numpy calls: each run makes two
    ``np.arange`` calls and each formed block one more, and each check
    makes four ``np.linalg.norm`` calls.  The partner's decomposition is
    made first, so its calls are not counted."""
    bundle.partner
    calls = {"arange": 0, "norm": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    with monkeypatch.context() as patch:
        patch.setattr(np, "arange", counted("arange", np.arange))
        patch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
        traj = integrate(bundle, x0, dt)
    formed, norms = calls["arange"] - 2, calls["norm"]
    assert formed >= 1 and norms % 4 == 0
    return traj, formed, norms // 4


class TestClearingBounds:
    """Each of the run bound's two lower bounds clears what the other
    cannot.  Node space decides every stop, so a lost bound changes no bit;
    it shows only in the blocks formed whole, which these cases count.
    Without either bound each case forms more than a hundred blocks."""

    def test_highland_at_a_tiny_step(self, monkeypatch):
        # about 1.9e8 steps to the stop, cleared in a few dozen checks
        config = ScenarioConfig("highland", (0,))
        g = load_highland(config)
        bundle = generalized_laplacian(g, bipartition_from_dominant(g, (0,)), 2.0)
        traj, formed, checks = _searched(monkeypatch, bundle, start_state(config, g.n), 1e-8)
        assert traj.terminated is Termination.CONVERGED and traj.times[-1] > 1.0
        assert formed <= 2 and checks <= 100

    def test_dense_two_bloc_at_the_default_step(self, monkeypatch):
        g, b = dense_two_bloc(60)
        bundle = generalized_laplacian(g, b, 2.0)
        x0 = np.random.default_rng(2).uniform(-1.0, 1.0, g.n)
        traj, formed, checks = _searched(monkeypatch, bundle, x0)
        assert traj.terminated is Termination.CONVERGED
        assert formed <= 2 and checks <= 60


class TestStartStateUnits:
    """The simulated outcome should not depend on the units of x0, but the
    divergence limit, the stop tolerance and the outcome tolerance are
    absolute: a tiny start state settles before its pattern shows, and a
    huge one passes the divergence limit on its way to the same limit."""

    @pytest.mark.parametrize("scale", [
        1.0,
        pytest.param(1e-9, marks=pytest.mark.xfail(
            strict=True, reason="absolute stop and outcome tolerances: NeutralConsensus")),
        pytest.param(1e13, marks=pytest.mark.xfail(
            strict=True, reason="absolute divergence limit: Divergence")),
    ])
    def test_outcome_free_of_scale(self, allneg_triangle, allneg_split, scale):
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
        traj = integrate(bundle, scale * np.array([1.0, -2.0, 3.0]))
        assert assess(traj, allneg_split, 2.0).kind == OutcomeKind.ASYMMETRIC_POLARIZATION


class TestWeightUnits:
    """The outcome should not depend on the units of the weights, but the
    default horizon is absolute while the default step is 1e-3 over the
    spectral radius: with large weights the step count overflows."""

    @pytest.mark.parametrize("scale", [
        1.0,
        pytest.param(1e17, marks=pytest.mark.xfail(
            strict=True, raises=TooLarge, reason="absolute default horizon: TooLarge")),
    ])
    def test_report_free_of_weight_scale(self, tmp_path, scale):
        path = tmp_path / "triangle.txt"
        path.write_text(f"3 3\n0 1 {-scale!r}\n0 2 {-3 * scale!r}\n1 2 {-3 * scale!r}\n")
        report = run_pipeline(ScenarioConfig(str(path), (0, 1)))
        assert report.certificate.verdict.value == "AsymmetricPolarization"
        assert report.outcome.kind == OutcomeKind.ASYMMETRIC_POLARIZATION


class TestClosedForm:
    def test_time_zero(self, worked_bundle):
        x0 = np.array([0.3, -0.2, 0.9])
        assert np.allclose(closed_form_state(worked_bundle, x0, 0.0), x0, atol=1e-12)

    def test_matches_integrator(self, worked_bundle):
        x0 = [1.0, 0.0, 0.0]
        traj = integrate(worked_bundle, x0, dt=0.005, t_max=4.0, stop_tol=0.0,
                         record_every=100)
        for t, state in zip(traj.times, traj.states):
            exact = closed_form_state(worked_bundle, x0, float(t))
            assert np.allclose(state, exact, atol=1e-6)

    def test_settles_on_prediction(self, worked_bundle):
        x0 = [1.0, 0.0, 0.0]
        far = closed_form_state(worked_bundle, x0, 40.0)
        assert np.allclose(far, predict_final(worked_bundle, x0), atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_refused_before_any_work(self, worked_bundle, bad, no_eigh):
        with pytest.raises(BadState):
            closed_form_state(worked_bundle, [bad, 0.0, 0.0], 1.0)

    @pytest.mark.parametrize("t", [np.nan, -1e6, -1e-12, np.inf])
    def test_bad_time_refused_before_any_work(self, worked_bundle, t, no_eigh):
        with pytest.raises(BadStep, match="time"):
            closed_form_state(worked_bundle, [1.0, 0.0, 0.0], t)

    def test_grows_on_divergent_network(self, unstable_triangle, allneg_split):
        bundle = generalized_laplacian(unstable_triangle, allneg_split, 2.0)
        now = np.max(np.abs(closed_form_state(bundle, [1.0, 0.0, 0.0], 2.0)))
        later = np.max(np.abs(closed_form_state(bundle, [1.0, 0.0, 0.0], 4.0)))
        assert later > now * 100

    @pytest.mark.parametrize("t", [100.0, 1000.0])
    def test_overflow_on_divergent_network(self, unstable_triangle, allneg_split, t):
        # exp(-lambda_min * t) passes the float range; no warning escapes
        bundle = generalized_laplacian(unstable_triangle, allneg_split, 2.0)
        with pytest.raises(TooLarge, match=f"time {t:g}"):
            closed_form_state(bundle, [1.0, 0.0, 0.0], t)

    def test_finite_state_unchanged(self, unstable_triangle, allneg_split):
        bundle = generalized_laplacian(unstable_triangle, allneg_split, 2.0)
        x0 = np.array([1.0, 0.0, 0.0])
        dec = bundle.partner
        gauge = bundle.coord_gauge
        direct = dec.eigenvectors @ (np.exp(-dec.eigenvalues * 1.0)
                                     * (dec.eigenvectors.T @ (gauge * x0))) / gauge
        assert np.array_equal(closed_form_state(bundle, x0, 1.0), direct)


class TestPredictFinal:
    def test_worked_triangle(self, worked_bundle):
        got = predict_final(worked_bundle, [1.0, 0.0, 0.0])
        assert np.allclose(got, [1 / 3, 1 / 3, -1 / 6], atol=1e-12)

    def test_matches_integration(self, worked_bundle):
        x0 = [0.25, -0.75, 0.5]
        final = integrate(worked_bundle, x0, dt=0.01).states[-1]
        assert np.allclose(final, predict_final(worked_bundle, x0), atol=1e-6)

    def test_zero_functional_start(self, worked_bundle):
        assert np.array_equal(predict_final(worked_bundle, [1.0, 1.0, 1.0]),
                              np.zeros(3))

    def test_side_ratio_is_minus_gamma(self, worked_bundle):
        got = predict_final(worked_bundle, [0.4, 0.1, 0.2])
        assert got[0] == got[1]
        assert got[0] == pytest.approx(-2.0 * got[2])

    def test_stationary_direction_times_gauge_mean(self):
        # the certificate's null_right scaled by the conserved mean, bit for
        # bit the -gamma * c / c split
        rng = np.random.default_rng(71)
        checked = 0
        for _ in range(60):
            g, b = random_gqsb_instance(rng)
            gamma = float(rng.uniform(0.5, 4.0))
            bundle = generalized_laplacian(g, b, gamma)
            x0 = rng.uniform(-1.0, 1.0, g.n)
            try:
                got = predict_final(bundle, x0)
            except NotPolarizing:
                continue
            c = float(bundle.coord_gauge @ x0) / g.n
            assert got.tobytes() == np.where(b.mask(), -gamma * c, c).tobytes()
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_start_refused_before_any_work(self, worked_bundle, bad, no_eigh):
        with pytest.raises(BadState):
            predict_final(worked_bundle, [1.0, 0.0, bad])

    def test_refuses_divergent_scenario(self, unstable_triangle, allneg_split):
        bundle = generalized_laplacian(unstable_triangle, allneg_split, 2.0)
        with pytest.raises(NotPolarizing):
            predict_final(bundle, [1.0, 0.0, 0.0])

    def test_balanced_unit_coefficient_split(self, sb_triangle):
        bundle = generalized_laplacian(sb_triangle, Bipartition(3, frozenset({0, 1})), 1.0)
        got = predict_final(bundle, [1.0, 1.0, 1.0])
        c = -1.0 / 3.0
        assert np.allclose(got, [-c, -c, c], atol=1e-12)


class TestAssess:
    def test_worked_triangle_outcome(self, worked_bundle, allneg_split):
        traj = integrate(worked_bundle, [1.0, 0.0, 0.0], dt=0.01)
        report = assess(traj, allneg_split, 2.0)
        assert report.kind is OutcomeKind.ASYMMETRIC_POLARIZATION
        assert report.v1_value == pytest.approx(1 / 3, abs=1e-8)
        assert report.v2_value == pytest.approx(-1 / 6, abs=1e-8)
        assert report.ratio == pytest.approx(-2.0, abs=1e-6)
        assert report.defect <= 1e-6

    def test_symmetric_at_unit_coefficient(self, sb_triangle):
        b = Bipartition(3, frozenset({0, 1}))
        bundle = generalized_laplacian(sb_triangle, b, 1.0)
        traj = integrate(bundle, [0.8, 0.1, -0.4], dt=0.01)
        report = assess(traj, b, 1.0)
        assert report.kind is OutcomeKind.SYMMETRIC_POLARIZATION
        assert report.ratio == pytest.approx(-1.0, abs=1e-6)

    def test_neutral_consensus(self, worked_bundle, allneg_split):
        traj = integrate(worked_bundle, [1.0, 1.0, 1.0], dt=0.01)
        report = assess(traj, allneg_split, 2.0)
        assert report.kind is OutcomeKind.NEUTRAL_CONSENSUS

    def test_divergence_passes_through(self, allneg_split):
        traj = _made_up_trajectory([5.0, 5.0, 5.0], Termination.DIVERGED)
        assert assess(traj, allneg_split, 2.0).kind is OutcomeKind.DIVERGENCE

    def test_uniform_state_is_consensus(self, allneg_split):
        traj = _made_up_trajectory([0.7, 0.7, 0.7])
        assert assess(traj, allneg_split, 2.0).kind is OutcomeKind.CONSENSUS

    def test_scrambled_state_is_undetermined(self, allneg_split):
        traj = _made_up_trajectory([0.5, -0.3, 0.9])
        assert assess(traj, allneg_split, 2.0).kind is OutcomeKind.UNDETERMINED

    @pytest.mark.parametrize("n", [2, 4])
    def test_bipartition_of_another_size_is_bad_index(self, worked_bundle, n):
        # the error certify gives for the same input, not numpy's IndexError
        traj = integrate(worked_bundle, [1.0, 0.0, 0.0], dt=0.01)
        b = Bipartition(n, frozenset({0}))
        message = "^bipartition and graph disagree on node count$"
        with pytest.raises(BadIndex, match=message):
            assess(traj, b, 2.0)
        with pytest.raises(BadIndex, match=message):
            certify(worked_bundle.graph, b, 2.0)

    def test_ratio_none_when_other_side_flat_zero(self, allneg_split):
        report = assess(_made_up_trajectory([1.0, 1.0, 0.0]), allneg_split, 2.0)
        assert report.ratio is None

    def test_defect_combines_spread_and_cross_error(self, allneg_split):
        report = assess(_made_up_trajectory([0.4, 0.5, -0.2]), allneg_split, 2.0)
        assert report.defect == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("state", [
        [np.inf, 1.0, 1.0],  # a state past the double range
        [np.nan, 1.0, 1.0],
        [1.5e308, 1.5e308, 1.0],  # a side's mean
        [1.5e308, -1.5e308, 0.0],  # a side's spread
        [1.0, 1.0, 1e308],  # the cross sum, with the coefficient 2
        [1e300, 1e300, 1e-300],  # the ratio
    ])
    def test_past_the_double_range_too_large(self, allneg_split, state):
        for terminated in (Termination.DIVERGED, Termination.MAX_TIME):
            with pytest.raises(TooLarge, match="leaves the double range"):
                assess(_made_up_trajectory(state, terminated), allneg_split, 2.0)

    def test_state_range_past_the_double_range_is_read(self):
        # every reported value is finite, the range of the whole state is not
        report = assess(_made_up_trajectory([-1e308, 1e308, 5e307]),
                        Bipartition(3, frozenset({0})), 1.5)
        assert report.kind is OutcomeKind.UNDETERMINED
