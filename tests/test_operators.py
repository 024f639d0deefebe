from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from gqsbnet import (
    BadGamma,
    BadIndex,
    Bipartition,
    NotGQSB,
    NotPolarizing,
    OperatorBundle,
    ScenarioConfig,
    SignedGraph,
    bipartition_from_dominant,
    certify,
    clear_partner_cache,
    closed_form_state,
    default_step,
    gauge_matrices,
    generalized_adjacency,
    generalized_degree,
    generalized_laplacian,
    integrate,
    load_highland,
    opposing_laplacian,
    partner_core,
    partner_laplacian,
    partner_network,
    predict_final,
    repelling_laplacian,
    run_pipeline,
    sym_eigen,
    z_transform_network,
)
from gqsbnet import operators
from gqsbnet.operators import laplacian_form, laplacian_product
from gqsbnet.fileio import run_sweep
from support import (
    core_calls,
    counting_linalg,
    random_gqsb_instance,
    random_sb_instance,
    reference_bundle,
    tie_endpoints,
)


class TestClassicOperators:
    def test_repelling_matrix(self, sb_triangle):
        expect = np.array([[-2.0, -1.0, 3.0], [-1.0, -2.0, 3.0], [3.0, 3.0, -6.0]])
        assert np.array_equal(repelling_laplacian(sb_triangle), expect)

    def test_opposing_matrix(self, sb_triangle):
        expect = np.array([[4.0, -1.0, 3.0], [-1.0, 4.0, 3.0], [3.0, 3.0, 6.0]])
        assert np.array_equal(opposing_laplacian(sb_triangle), expect)

    def test_split_triangle_spectra(self, sb_triangle):
        lr = sym_eigen(repelling_laplacian(sb_triangle)).eigenvalues
        lo = sym_eigen(opposing_laplacian(sb_triangle)).eigenvalues
        assert np.allclose(lr, [-9.0, -1.0, 0.0], atol=1e-9)
        assert np.allclose(lo, [0.0, 5.0, 9.0], atol=1e-9)

    def test_allneg_triangle_spectra(self, allneg_triangle):
        lo = sym_eigen(opposing_laplacian(allneg_triangle)).eigenvalues
        root = np.sqrt(73.0)
        assert np.allclose(lo, [(11 - root) / 2, 3.0, (11 + root) / 2], atol=1e-9)

    def test_repelling_row_sums_vanish(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g, _ = random_gqsb_instance(rng)
            lr = repelling_laplacian(g)
            assert np.allclose(lr.sum(axis=1), 0.0, atol=1e-12)
            assert np.array_equal(lr, lr.T)


class TestGauges:
    def test_matrices(self, allneg_split):
        q, r, p = gauge_matrices(2.0, allneg_split)
        assert np.array_equal(q, np.diag([2.0, 2.0, 1.0]))
        assert np.array_equal(r, np.diag([-1.0, -1.0, 1.0]))
        assert np.array_equal(p, np.diag([-0.5, -0.5, 1.0]))

    def test_sign_gauge_involution(self, allneg_split):
        _, r, _ = gauge_matrices(3.5, allneg_split)
        assert np.array_equal(r @ r, np.eye(3))

    def test_coord_equals_sign_at_one(self, allneg_split):
        _, r, p = gauge_matrices(1.0, allneg_split)
        assert np.array_equal(p, r)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_bad_coefficient(self, bad, allneg_split):
        with pytest.raises(BadGamma):
            gauge_matrices(bad, allneg_split)


class TestGeneralizedDegree:
    def test_allneg(self, allneg_triangle, allneg_split):
        d = generalized_degree(allneg_triangle, allneg_split)
        assert np.array_equal(d, np.diag([2.0, 2.0, 6.0]))

    def test_can_go_negative(self, unstable_triangle, allneg_split):
        d = generalized_degree(unstable_triangle, allneg_split)
        assert np.array_equal(d, np.diag([-4.0, -4.0, 2.0]))

    def test_matches_opposing_when_balanced(self):
        # no same-subset antagonism means every term is an absolute weight
        rng = np.random.default_rng(17)
        for _ in range(30):
            g, b = random_sb_instance(rng)
            d = np.diag(generalized_degree(g, b))
            assert np.array_equal(d, np.diag(opposing_laplacian(g)))

    def test_coefficient_free(self, allneg_triangle, allneg_split):
        lo = generalized_laplacian(allneg_triangle, allneg_split, 0.5)
        hi = generalized_laplacian(allneg_triangle, allneg_split, 7.0)
        assert np.array_equal(lo.degree, hi.degree)

    def test_partition_must_qualify(self, sb_triangle):
        with pytest.raises(NotGQSB):
            generalized_degree(sb_triangle, Bipartition(3, frozenset({0, 2})))


class TestGeneralizedAdjacency:
    def test_values(self, allneg_triangle, allneg_split):
        got = generalized_adjacency(allneg_triangle, allneg_split, 2.0)
        expect = np.array(
            [[0.0, -1.0, -6.0], [-1.0, 0.0, -6.0], [-1.5, -1.5, 0.0]]
        )
        assert np.array_equal(got, expect)

    def test_identity_at_one(self, allneg_triangle, allneg_split):
        got = generalized_adjacency(allneg_triangle, allneg_split, 1.0)
        assert np.array_equal(got, allneg_triangle.adjacency())

    def test_is_scale_conjugation(self, allneg_triangle, allneg_split):
        q, _, _ = gauge_matrices(3.0, allneg_split)
        direct = generalized_adjacency(allneg_triangle, allneg_split, 3.0)
        conj = q @ allneg_triangle.adjacency() @ np.linalg.inv(q)
        assert np.allclose(direct, conj, atol=1e-14)

    def test_partition_must_qualify(self, sb_triangle):
        with pytest.raises(NotGQSB):
            generalized_adjacency(sb_triangle, Bipartition(3, frozenset({0, 2})), 2.0)


class TestGeneralizedLaplacian:
    def test_worked_triangle(self, allneg_triangle, allneg_split):
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
        lap = np.array([[2.0, 1.0, 6.0], [1.0, 2.0, 6.0], [1.5, 1.5, 6.0]])
        z = np.array([[2.0, 1.0, -3.0], [1.0, 2.0, -3.0], [-3.0, -3.0, 6.0]])
        assert np.array_equal(bundle.laplacian, lap)
        assert np.array_equal(bundle.z_laplacian, z)
        assert np.array_equal(bundle.degree, np.array([2.0, 2.0, 6.0]))
        assert np.array_equal(bundle.scale_gauge, np.array([2.0, 2.0, 1.0]))
        assert np.array_equal(bundle.coord_gauge, np.array([-0.5, -0.5, 1.0]))
        assert bundle.permutation == (0, 1, 2)
        assert bundle.gamma == 2.0
        assert bundle.n == 3

    def test_worked_triangle_spectrum(self, allneg_triangle, allneg_split):
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
        vals = sym_eigen(bundle.z_laplacian).eigenvalues
        assert np.allclose(vals, [0.0, 1.0, 9.0], atol=1e-9)

    def test_partner_row_sums_exactly_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g, b = random_gqsb_instance(rng)
            bundle = generalized_laplacian(g, b, float(rng.uniform(0.2, 5.0)))
            assert np.allclose(bundle.z_laplacian.sum(axis=1), 0.0, atol=1e-12)
            assert np.array_equal(bundle.z_laplacian, bundle.z_laplacian.T)

    def test_sign_conjugation_identity(self, allneg_triangle, allneg_split):
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 1.0)
        r = np.diag(bundle.sign_gauge)
        assert np.array_equal(r @ bundle.laplacian @ r, bundle.z_laplacian)

    def test_scale_conjugation_identity(self, allneg_triangle, allneg_split):
        base = generalized_laplacian(allneg_triangle, allneg_split, 1.0)
        two = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
        q = np.diag(two.scale_gauge)
        assert np.array_equal(q @ base.laplacian @ np.linalg.inv(q), two.laplacian)

    def test_stationary_direction(self, allneg_triangle, allneg_split):
        for gamma in (0.5, 1.0, 2.0, 7.0):
            bundle = generalized_laplacian(allneg_triangle, allneg_split, gamma)
            x = np.array([-gamma, -gamma, 1.0])
            assert np.allclose(bundle.laplacian @ x, 0.0, atol=1e-12)

    def test_conserved_left_direction(self, allneg_triangle, allneg_split):
        for gamma in (0.5, 2.0, 7.0):
            bundle = generalized_laplacian(allneg_triangle, allneg_split, gamma)
            assert np.allclose(bundle.coord_gauge @ bundle.laplacian, 0.0, atol=1e-12)

    def test_spectrum_free_of_coefficient(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            g, b = random_gqsb_instance(rng)
            ref = sym_eigen(generalized_laplacian(g, b, 1.0).z_laplacian).eigenvalues
            for gamma in (0.5, 2.0, 7.0):
                bundle = generalized_laplacian(g, b, gamma)
                raw = np.linalg.eigvals(bundle.laplacian)
                assert np.max(np.abs(raw.imag)) <= 1e-8
                assert np.allclose(np.sort(raw.real), ref, atol=1e-8)

    def test_permutation_orders_dominant_first(self, allneg_triangle):
        b = Bipartition(3, frozenset({2}))
        bundle = generalized_laplacian(allneg_triangle, b, 2.0)
        assert bundle.permutation == (2, 0, 1)

    def test_arrays_read_only(self, allneg_triangle, allneg_split):
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
        with pytest.raises(ValueError):
            bundle.laplacian[0, 0] = 99.0

    def test_bad_inputs(self, allneg_triangle, sb_triangle, allneg_split):
        with pytest.raises(BadGamma):
            generalized_laplacian(allneg_triangle, allneg_split, 0.0)
        with pytest.raises(NotGQSB):
            generalized_laplacian(sb_triangle, Bipartition(3, frozenset({0, 2})), 2.0)


class TestPartnerNetwork:
    def test_worked_triangle(self, allneg_triangle, allneg_split):
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
        partner = z_transform_network(bundle)
        assert partner.edges == ((0, 1, -1.0), (0, 2, 3.0), (1, 2, 3.0))

    def test_cross_edges_turn_cooperative(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            g, b = random_gqsb_instance(rng)
            partner = z_transform_network(generalized_laplacian(g, b, 2.0))
            for i, j, w in partner.edges:
                if (i in b.v1) != (j in b.v1):
                    assert w > 0
                else:
                    orig = dict(((a, c), x) for a, c, x in g.edges)
                    assert w == orig[(i, j)]

    def test_partner_operator_matches(self, allneg_triangle, allneg_split):
        # repelling operator of the partner graph is the gauge partner matrix
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
        partner = z_transform_network(bundle)
        a = partner.adjacency()
        rebuilt = np.diag(a.sum(axis=1)) - a
        assert np.array_equal(rebuilt, bundle.z_laplacian)

    def test_bipartition_of_another_node_count(self, allneg_triangle):
        with pytest.raises(BadIndex, match="node count"):
            partner_network(allneg_triangle, Bipartition(4, frozenset({0, 1})))


class TestEdgeOperators:
    def test_product_matches_the_dense_laplacian(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            g, b = random_gqsb_instance(rng)
            net = partner_network(g, b)
            x = rng.standard_normal(g.n)
            want = repelling_laplacian(net) @ x
            got = laplacian_product(net, net.w)(x)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_form_to_one_rounding(self):
        # against the exact rational sum of w (z_i - z_j)^2, with weights
        # and entries below 1 as the integrator passes them
        rng = np.random.default_rng(67)
        for _ in range(40):
            g, b = random_gqsb_instance(rng)
            net = partner_network(g, b)
            w = net.w / 4.0
            z = rng.standard_normal(g.n)
            z /= np.linalg.norm(z)
            exact = sum(Fraction(float(c)) * (Fraction(float(z[i])) - Fraction(float(z[j]))) ** 2
                        for i, j, c in zip(net.i, net.j, w))
            got = laplacian_form(net, w, z)
            assert abs(Fraction(got) - exact) <= Fraction(float(np.spacing(abs(float(exact)))))

    def test_form_keeps_a_cancelling_sum(self):
        # terms of about 0.01 and -0.01 about a value of -2e-16, where a
        # plain sum's rounding is eps times the terms
        g = SignedGraph.from_edge_list(3, [(0, 1, 1.0), (1, 2, -1.0)])
        z = np.array([0.0, 0.1, 0.2 + 1e-15])
        f = [Fraction(float(v)) for v in z]
        exact = (f[0] - f[1]) ** 2 - (f[1] - f[2]) ** 2
        assert laplacian_form(g, g.w, z) == float(exact) < 0


ARRAYS = ("adjacency", "degree", "laplacian", "scale_gauge", "sign_gauge",
          "coord_gauge", "z_laplacian")
UNREAD = ("adjacency", "laplacian", "z_laplacian", "degree", "permutation")


def _assert_matches_reference(g, b, gamma):
    got = generalized_laplacian(g, b, gamma)
    ref = reference_bundle(g, b, gamma)
    for name in ARRAYS:
        a, r = getattr(got, name), getattr(ref, name)
        assert a.dtype == r.dtype and a.shape == r.shape, name
        assert a.tobytes() == r.tobytes(), name  # same bits, signed zeros too
        assert not a.flags.writeable, name
    assert got.permutation == ref.permutation
    assert (got.n, got.gamma, got.graph, got.partition) == (ref.n, ref.gamma, g, b)


class TestBundleValue:
    def test_three_fields(self):
        assert [f.name for f in fields(OperatorBundle)] == ["graph", "partition", "gamma"]

    def test_matches_eager_reference(self):
        rng = np.random.default_rng(67)
        for _ in range(150):
            g, b = random_gqsb_instance(rng)
            for gamma in (0.5, 1.0, float(rng.uniform(0.2, 5.0))):
                _assert_matches_reference(g, b, gamma)

    def test_edgeless_matches_reference(self):
        _assert_matches_reference(SignedGraph(4), Bipartition(4, frozenset({0, 3})), 2.0)

    def test_highland_matches_reference(self):
        config = ScenarioConfig("highland", (0,))
        g = load_highland(config)
        b = bipartition_from_dominant(g, config.dominant_nodes)
        for gamma in (1.5, 2.0, 3.0):
            _assert_matches_reference(g, b, gamma)

    def test_equal_inputs_give_equal_bundles(self, allneg_triangle, allneg_split):
        one = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
        two = generalized_laplacian(SignedGraph(3, allneg_triangle.edges),
                                    Bipartition(3, frozenset({1, 0})), 2)
        assert one is not two
        assert one == two and hash(one) == hash(two)
        one.laplacian  # a built operator is not part of the value
        assert one == two and hash(one) == hash(two)
        assert len({one, two}) == 1
        assert one != generalized_laplacian(allneg_triangle, allneg_split, 2.5)
        assert one != generalized_laplacian(allneg_triangle,
                                            Bipartition(3, frozenset({2})), 2.0)

    def test_adjacency_is_the_bundles(self, allneg_triangle, allneg_split):
        got = generalized_adjacency(allneg_triangle, allneg_split, 3.0)
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 3.0)
        assert np.array_equal(got, bundle.adjacency)

    def test_partner_laplacian_is_the_kept_one(self, allneg_triangle, allneg_split):
        lap = partner_laplacian(allneg_triangle, allneg_split)
        for gamma in (0.5, 1.0, 2.0, 1e6):
            assert generalized_laplacian(allneg_triangle, allneg_split, gamma).z_laplacian is lap
        assert not lap.flags.writeable
        with pytest.raises(ValueError):
            lap[0, 0] = 1.0

    def test_degree_is_partner_diagonal(self, allneg_triangle, allneg_split):
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 3.0)
        assert np.array_equal(generalized_degree(allneg_triangle, allneg_split),
                              np.diag(bundle.degree))


def _counting_adjacency(monkeypatch):
    calls = []
    adjacency = SignedGraph.adjacency

    def counted(self, *order):
        calls.append(self.n)
        return adjacency(self, *order)

    monkeypatch.setattr(SignedGraph, "adjacency", counted)
    return calls


class TestOneAdjacencyPerPartition:
    """One adjacency of the graph, over which the core builds L_abs, and,
    where the partner's dense Laplacian is read (its spectrum, the closed
    form), one of the partner network, over which it is built; none per
    coefficient.  Integration and the default step read the partner
    network's edge arrays only."""

    def test_highland_pipeline(self, monkeypatch):
        calls = _counting_adjacency(monkeypatch)
        run_pipeline(ScenarioConfig("highland", (0,)))
        assert calls == [16]

    def test_six_coefficient_sweep(self, monkeypatch):
        calls = _counting_adjacency(monkeypatch)
        gammas = (1.5, 2.0, 2.5, 3.0, 4.0, 6.0)
        reports = list(run_sweep(ScenarioConfig("highland", (0,), dt=0.002), gammas))
        assert len(reports) == 6
        assert calls == [16]

    def test_certify_then_predict(self, allneg_triangle, allneg_split, monkeypatch):
        calls = _counting_adjacency(monkeypatch)
        linalg = counting_linalg(monkeypatch)
        certify(allneg_triangle, allneg_split, 2.0)
        predict_final(generalized_laplacian(allneg_triangle, allneg_split, 2.0),
                      [1.0, 0.0, 0.0])
        assert calls == [3]
        assert linalg == core_calls(3, 1, 2)  # no eigenvector
        clear_partner_cache(allneg_triangle)
        predict_final(generalized_laplacian(allneg_triangle, allneg_split, 2.0),
                      [1.0, 0.0, 0.0])
        assert calls == [3, 3]
        assert linalg == 2 * core_calls(3, 1, 2)

    def test_one_partner_per_round(self, monkeypatch):
        # every reader at every coefficient shares the partner network and
        # its Laplacian kept on the graph
        g = load_highland(ScenarioConfig("highland", (0,)))
        b = bipartition_from_dominant(g, (0,))
        x0 = np.random.default_rng(5).uniform(-1.0, 1.0, g.n)
        calls = _counting_adjacency(monkeypatch)
        builds = []
        build = operators.partner_network

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(operators, "partner_network", counted)
        for gamma in (1.5, 2.0, 3.0):
            certify(g, b, gamma)
            bundle = generalized_laplacian(g, b, gamma)
            predict_final(bundle, x0)
            integrate(bundle, x0, dt=0.002, t_max=1.0)
            closed_form_state(bundle, x0, 1.0)
            bundle.z_laplacian
            z_transform_network(bundle)
        assert len(builds) == 1
        assert calls == [16, 16]

    def test_every_reader_shares_one_build(self, monkeypatch):
        # every coefficient-free reader, in shuffled order at two
        # coefficients, on polarizing, divergent and disconnected draws
        rng = np.random.default_rng(23)
        draws = {"AsymmetricPolarization": [], "Divergence": [], "Inconclusive": []}
        while min(map(len, draws.values())) < 3:
            g, b = random_gqsb_instance(rng, intra_neg=0.6)
            if rng.random() < 0.3:  # two isolated nodes
                g, b = SignedGraph(g.n + 2, g.edges), Bipartition(g.n + 2, b.v1)
            verdict = certify(g, b, 2.0).verdict.value
            clear_partner_cache(g)
            if len(draws[verdict]) < 3:
                draws[verdict].append((g, b))
        builds = []
        build = operators.partner_network

        def counted(*args):
            builds.append(args)
            return build(*args)

        def predict(bundle, x0):
            try:
                predict_final(bundle, x0)
            except NotPolarizing:
                pass

        monkeypatch.setattr(operators, "partner_network", counted)
        calls = counting_linalg(monkeypatch, skip="gqsbnet.dynamics")
        for g, b in (draw for group in draws.values() for draw in group):
            n = g.n
            x0 = rng.uniform(-1.0, 1.0, n)
            readers = (
                lambda bundle: certify(g, b, bundle.gamma),
                lambda bundle: predict(bundle, x0),
                default_step,
                lambda bundle: integrate(bundle, x0, t_max=0.05),
                lambda bundle: integrate(bundle, x0, dt=0.01, t_max=0.05),
                lambda bundle: closed_form_state(bundle, x0, 0.05),
                lambda bundle: partner_laplacian(g, b),
                lambda bundle: generalized_degree(g, b),
                z_transform_network,
                lambda bundle: bundle.z_laplacian,
                lambda bundle: partner_core(g, b),
            )
            builds.clear()
            calls.clear()
            for k in rng.permutation(2 * len(readers)):
                gamma = (1.5, 3.0)[k // len(readers)]
                readers[k % len(readers)](generalized_laplacian(g, b, gamma))
            assert len(builds) == 1
            square = [name for name, shape in calls if shape == (n, n)]
            # the closed form reads the one eigh, and the core's calls are
            # made once, none on a disconnected draw; the default step and
            # integration make only Lanczos's tridiagonal eigh calls
            assert square == ["eigh"]
            core = partner_core(g, b)
            want = core_calls(n, core.same_side_ties, tie_endpoints(g, b)) if core.connected else []
            assert [c for c in calls if c != ("eigh", (n, n))] == want
            twin = SignedGraph(n, g.edges)  # an equal graph starts cold
            calls.clear()
            integrate(generalized_laplacian(twin, b, 2.0), x0)
            assert calls == []
            assert not {"laplacian", "eigen"} & set(vars(operators._partner(twin, b)))

    def test_pipeline_builds_no_node_operator(self, allneg_triangle, allneg_split):
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
        x0 = [1.0, 0.0, 0.0]
        default_step(bundle)
        integrate(bundle, x0)
        integrate(bundle, x0, dt=0.01, t_max=0.5)
        closed_form_state(bundle, x0, 2.0)
        predict_final(bundle, x0)
        assert [name for name in UNREAD if name in vars(bundle)] == []
