import numpy as np
import pytest

from gqsbnet import (
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
    closed_form_state,
    default_step,
    generalized_laplacian,
    integrate,
    predict_final,
)
from support import random_gqsb_instance, reference_rk4


@pytest.fixture
def worked_bundle(allneg_triangle, allneg_split):
    return generalized_laplacian(allneg_triangle, allneg_split, 2.0)


@pytest.fixture
def no_eigh(monkeypatch):
    """Fail any eigendecomposition: the checks under test come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("eigh ran before the arguments were checked")

    monkeypatch.setattr(np.linalg, "eigh", refuse)


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

    def test_state_length_checked(self, worked_bundle):
        with pytest.raises(DimensionMismatch):
            integrate(worked_bundle, [1.0, 0.0])

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
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        default_step(worked_bundle)
        integrate(worked_bundle, [1.0, 0.0, 0.0])
        integrate(worked_bundle, [0.2, 0.5, -0.1], dt=0.01)
        closed_form_state(worked_bundle, [1.0, 0.0, 0.0], 2.0)
        assert len(calls) == 1


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

    def test_grows_on_divergent_network(self, unstable_triangle, allneg_split):
        bundle = generalized_laplacian(unstable_triangle, allneg_split, 2.0)
        now = np.max(np.abs(closed_form_state(bundle, [1.0, 0.0, 0.0], 2.0)))
        later = np.max(np.abs(closed_form_state(bundle, [1.0, 0.0, 0.0], 4.0)))
        assert later > now * 100


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

    def test_ratio_none_when_other_side_flat_zero(self, allneg_split):
        report = assess(_made_up_trajectory([1.0, 1.0, 0.0]), allneg_split, 2.0)
        assert report.ratio is None

    def test_defect_combines_spread_and_cross_error(self, allneg_split):
        report = assess(_made_up_trajectory([0.4, 0.5, -0.2]), allneg_split, 2.0)
        assert report.defect == pytest.approx(0.1, abs=1e-12)
