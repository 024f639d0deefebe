from dataclasses import fields

import numpy as np
import pytest

from gqsbnet import (
    BadGamma,
    Bipartition,
    NotGQSB,
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
    predict_final,
    repelling_laplacian,
    run_pipeline,
    sym_eigen,
    z_transform_network,
)
from gqsbnet.fileio import run_sweep
from support import random_gqsb_instance, random_sb_instance, reference_bundle


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

    def test_degree_is_partner_diagonal(self, allneg_triangle, allneg_split):
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 3.0)
        assert np.array_equal(generalized_degree(allneg_triangle, allneg_split),
                              np.diag(bundle.degree))


def _counting_adjacency(monkeypatch):
    calls = []
    adjacency = SignedGraph.adjacency

    def counted(self):
        calls.append(self.n)
        return adjacency(self)

    monkeypatch.setattr(SignedGraph, "adjacency", counted)
    return calls


class TestOneAdjacencyPerPartition:
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
        certify(allneg_triangle, allneg_split, 2.0)
        predict_final(generalized_laplacian(allneg_triangle, allneg_split, 2.0),
                      [1.0, 0.0, 0.0])
        assert calls == [3]
        clear_partner_cache()
        predict_final(generalized_laplacian(allneg_triangle, allneg_split, 2.0),
                      [1.0, 0.0, 0.0])
        assert calls == [3, 3]

    def test_pipeline_builds_no_node_operator(self, allneg_triangle, allneg_split):
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
        x0 = [1.0, 0.0, 0.0]
        default_step(bundle)
        integrate(bundle, x0)
        integrate(bundle, x0, dt=0.01, t_max=0.5)
        closed_form_state(bundle, x0, 2.0)
        predict_final(bundle, x0)
        assert [name for name in UNREAD if name in vars(bundle)] == []
