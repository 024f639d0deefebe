import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from gqsbnet import (
    BadIndex,
    Bipartition,
    DimensionMismatch,
    NoConvergence,
    NotGQSB,
    NotSymmetric,
    ScenarioConfig,
    SignedGraph,
    Verdict,
    bipartition_from_dominant,
    certify,
    default_zero_tol,
    effective_resistance,
    generalized_laplacian,
    integrate,
    load_highland,
    partner_core,
    predict_final,
    pseudoinverse,
    psd_simple_zero,
    spanning_forest,
    sym_eigen,
    z_transform_network,
)
from gqsbnet.fileio import certificate_dict, render_json
from support import (
    random_gqsb_instance,
    reference_certificate_dict,
    reference_certify,
)


def _counting_eigh(monkeypatch):
    """Record the shape of every numpy.linalg.eigh input from now on."""
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


def _partner_pieces(g, b, gamma):
    bundle = generalized_laplacian(g, b, gamma)
    return bundle, spanning_forest(z_transform_network(bundle)).forest_edges


class TestSymEigen:
    def test_diagonal(self):
        dec = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m = rng.standard_normal((n, n))
            m = m + m.T
            dec = sym_eigen(m)
            v = dec.eigenvectors
            assert np.allclose(v.T @ v, np.eye(n), atol=1e-10)
            assert np.allclose(v @ np.diag(dec.eigenvalues) @ v.T, m, atol=1e-9)

    def test_deterministic(self):
        m = np.array([[2.0, -1.0], [-1.0, 2.0]])
        a = sym_eigen(m)
        b = sym_eigen(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_sign_convention(self):
        rng = np.random.default_rng(37)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        dec = sym_eigen(m)
        for k in range(6):
            col = dec.eigenvectors[:, k]
            assert col[int(np.argmax(np.abs(col)))] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eigen(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_tolerates_tiny_asymmetry(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]])
        dec = sym_eigen(m)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN compares false with any bound, so it must not reach one
        with pytest.raises(NotSymmetric, match="NaN or infinite"):
            sym_eigen(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_symmetry_relative_at_tiny_scale(self):
        with pytest.raises(NotSymmetric):
            sym_eigen(np.array([[0.0, 1.0], [2.0, 0.0]]) * 1e-300)
        dec = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]) * 1e-300)
        assert np.allclose(dec.eigenvalues / 1e-300, [-1.0, 1.0], rtol=0, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            sym_eigen(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            sym_eigen(np.zeros(4))

    def test_zero_tol_derived_from_spectrum(self):
        # 1e-9 times the spectral radius 2 is 2e-9: 1e-10 is under it, 1e-8 not
        dec = sym_eigen(np.diag([1e-10, 2.0]))
        assert dec.zero_count == 1
        assert dec.zero_tol == default_zero_tol(dec.eigenvalues)
        dec = sym_eigen(np.diag([1e-8, 2.0]))
        assert dec.zero_count == 0
        assert dec.zero_tol == default_zero_tol(dec.eigenvalues)

    def test_default_zero_tol_scales(self):
        assert default_zero_tol(np.array([5.0])) == 5e-9
        assert default_zero_tol(np.array([0.5])) == 5e-10
        assert default_zero_tol(np.array([])) == 0
        assert default_zero_tol(np.zeros(3)) == 0

    def test_empty_matrix(self):
        dec = sym_eigen(np.zeros((0, 0)))
        assert dec.eigenvalues.size == 0
        assert dec.zero_count == 0

    def test_output_read_only(self):
        dec = sym_eigen(np.eye(2))
        with pytest.raises(ValueError):
            dec.eigenvalues[0] = 1.0

    def test_residual_past_bound_is_no_convergence(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(a, *args, **kwargs):
            values, vectors = eigh(a, *args, **kwargs)
            return values, vectors + 1e-3

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NoConvergence, match="residual"):
            sym_eigen(np.diag([1.0, 2.0, 3.0]))
        # relative, with no floor: the same miss at a tiny scale still fails
        with pytest.raises(NoConvergence, match="residual"):
            sym_eigen(np.diag([1.0, 2.0, 3.0]) * 1e-6)

    def test_nan_eigenpair_is_no_convergence(self, monkeypatch):
        eigh = np.linalg.eigh

        def poisoned(a, *args, **kwargs):
            values, vectors = eigh(a, *args, **kwargs)
            return values, vectors * np.nan

        monkeypatch.setattr(np.linalg, "eigh", poisoned)
        with pytest.raises(NoConvergence, match="residual"):
            sym_eigen(np.diag([1.0, 2.0]))


class TestPseudoinverse:
    def test_rank_one_laplacian(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        expect = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert np.allclose(pseudoinverse(m), expect, atol=1e-12)

    def test_full_rank_is_inverse(self):
        assert np.allclose(
            pseudoinverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-12
        )

    def test_penrose_identities(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            vals = rng.uniform(0.5, 3.0, n)
            vals[: int(rng.integers(1, n))] = 0.0
            m = (q * vals) @ q.T
            m = (m + m.T) / 2.0
            p = pseudoinverse(m)
            assert np.allclose(m @ p @ m, m, atol=1e-8)
            assert np.allclose(p @ m @ p, p, atol=1e-8)
            assert np.allclose((m @ p).T, m @ p, atol=1e-8)


class TestPsdSimpleZero:
    def test_partner_of_worked_triangle(self, allneg_triangle, allneg_split):
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.0)
        assert psd_simple_zero(bundle.z_laplacian)

    def test_indefinite(self, unstable_triangle, allneg_split):
        bundle = generalized_laplacian(unstable_triangle, allneg_split, 2.0)
        assert not psd_simple_zero(bundle.z_laplacian)

    def test_positive_definite_has_no_zero(self):
        assert not psd_simple_zero(np.diag([1.0, 2.0]))

    def test_double_zero(self):
        block = np.array([[1.0, -1.0], [-1.0, 1.0]])
        m = np.zeros((4, 4))
        m[:2, :2] = block
        m[2:, 2:] = block
        assert not psd_simple_zero(m)


class TestEffectiveResistance:
    def test_worked_triangle(self, allneg_triangle, allneg_split):
        bundle, forest = _partner_pieces(allneg_triangle, allneg_split, 2.0)
        r = effective_resistance(bundle.z_laplacian, forest)
        assert forest == ((0, 1, -1.0),)
        assert np.allclose(r, [[2.0]], atol=1e-9)

    def test_unstable_triangle_goes_negative(self, unstable_triangle, allneg_split):
        bundle, forest = _partner_pieces(unstable_triangle, allneg_split, 2.0)
        r = effective_resistance(bundle.z_laplacian, forest)
        assert np.allclose(r, [[-2.0 / 9.0]], atol=1e-9)

    def test_empty_forest(self, sb_triangle):
        b = Bipartition(3, frozenset({0, 1}))
        bundle, forest = _partner_pieces(sb_triangle, b, 1.0)
        r = effective_resistance(bundle.z_laplacian, forest)
        assert forest == ()
        assert r.shape == (0, 0)

    def test_endpoints_checked(self, allneg_triangle, allneg_split):
        bundle, forest = _partner_pieces(allneg_triangle, allneg_split, 2.0)
        # -1 and -3 would wrap to valid rows of the pseudoinverse
        for edge in [(0, 3, -1.0), (3, 1, -1.0), (-1, 2, -1.0), (1, -3, -1.0),
                     (0, 2 ** 70, -1.0)]:
            with pytest.raises(DimensionMismatch, match="endpoint"):
                effective_resistance(bundle.z_laplacian, forest + (edge,))
        # 0.5 would truncate to node 0
        with pytest.raises(BadIndex, match="0.5 is not an integer"):
            effective_resistance(bundle.z_laplacian, ((0.5, 2, -1.0),))

    def test_two_edge_forest_orientation_invariance(self):
        g = SignedGraph.from_edge_list(
            4,
            [(0, 1, -1.0), (1, 2, -1.0), (0, 2, 1.5),
             (0, 3, -2.0), (1, 3, -2.0), (2, 3, -2.0)],
        )
        b = Bipartition(4, frozenset({0, 1, 2}))
        bundle, forest = _partner_pieces(g, b, 2.0)
        assert len(forest) == 2
        r = effective_resistance(bundle.z_laplacian, forest)
        assert np.array_equal(r, r.T)
        i, j, w = forest[1]
        r2 = effective_resistance(bundle.z_laplacian, (forest[0], (j, i, w)))
        w1 = sym_eigen(r).eigenvalues
        w2 = sym_eigen(r2).eigenvalues
        assert np.allclose(w1, w2, atol=1e-12)
        assert np.array_equal(np.diag(r), np.diag(r2))


class TestCertify:
    def test_worked_triangle_certificate(self, allneg_triangle, allneg_split):
        cert = certify(allneg_triangle, allneg_split, 2.0)
        assert cert.verdict is Verdict.ASYMMETRIC_POLARIZATION
        assert cert.connected
        assert cert.gamma == 2.0
        assert np.allclose(cert.spectrum, [0.0, 1.0, 9.0], atol=1e-9)
        assert cert.zero_multiplicity == 1
        assert cert.forest_edges == ((0, 1, -1.0),)
        assert np.allclose(cert.resistance, [[2.0]], atol=1e-9)
        assert abs(cert.resistance_min_eig - 2.0) <= 1e-9
        assert np.array_equal(cert.null_right, np.array([-2.0, -2.0, 1.0]))
        assert np.allclose(cert.null_left, [-1 / 6, -1 / 6, 1 / 3], atol=1e-15)

    def test_same_subset_antagonism_never_consensus(self, allneg_triangle, allneg_split):
        cert = certify(allneg_triangle, allneg_split, 1.0)
        assert cert.verdict is Verdict.ASYMMETRIC_POLARIZATION

    def test_balanced_unit_coefficient_is_consensus(self, sb_triangle):
        cert = certify(sb_triangle, Bipartition(3, frozenset({0, 1})), 1.0)
        assert cert.verdict is Verdict.CONSENSUS
        assert cert.resistance_min_eig is None
        assert cert.forest_edges == ()
        assert np.allclose(cert.spectrum, [0.0, 5.0, 9.0], atol=1e-9)

    def test_balanced_scaled_coefficient_polarizes(self, sb_triangle):
        cert = certify(sb_triangle, Bipartition(3, frozenset({0, 1})), 2.0)
        assert cert.verdict is Verdict.ASYMMETRIC_POLARIZATION

    def test_divergent_certificate(self, unstable_triangle, allneg_split):
        cert = certify(unstable_triangle, allneg_split, 2.0)
        assert cert.verdict is Verdict.DIVERGENCE
        assert cert.spectrum[0] < -1e-6
        assert cert.resistance_min_eig < 0

    def test_disconnected_is_inconclusive(self):
        g = SignedGraph.from_edge_list(4, [(0, 1, -1.0), (2, 3, -1.0)])
        cert = certify(g, Bipartition(4, frozenset({0, 2})), 2.0)
        assert not cert.connected
        assert cert.verdict is Verdict.INCONCLUSIVE

    def test_partition_must_qualify(self, sb_triangle):
        with pytest.raises(NotGQSB):
            certify(sb_triangle, Bipartition(3, frozenset({0, 2})), 2.0)

    def test_resistance_read_only(self, allneg_triangle, allneg_split):
        cert = certify(allneg_triangle, allneg_split, 2.0)
        with pytest.raises(ValueError):
            cert.resistance[0, 0] = 0.0

    def test_resistance_criterion_matches_spectral_one(self):
        # the two routes to the verdict must agree on every random instance
        rng = np.random.default_rng(61)
        hits = {True: 0, False: 0}
        for _ in range(150):
            g, b = random_gqsb_instance(rng)
            gamma = float(rng.uniform(0.3, 4.0))
            cert = certify(g, b, gamma)
            bundle = generalized_laplacian(g, b, gamma)
            psd = psd_simple_zero(bundle.z_laplacian)
            hits[psd] += 1
            assert cert.connected
            pd_resistance = (
                cert.resistance_min_eig is None
                or cert.resistance_min_eig > default_zero_tol(np.array(cert.spectrum))
            )
            assert psd == pd_resistance
            if psd:
                assert cert.verdict in (
                    Verdict.ASYMMETRIC_POLARIZATION,
                    Verdict.CONSENSUS,
                )
            else:
                assert cert.verdict in (Verdict.DIVERGENCE, Verdict.INCONCLUSIVE)
        # both branches must actually occur or the check proves nothing
        assert hits[True] >= 20 and hits[False] >= 20


class TestPartnerCore:
    def test_matches_reference_certify(self):
        # several coefficients per (graph, bipartition), so most certificates
        # come from a kept decomposition
        rng = np.random.default_rng(83)
        verdicts = set()
        for _ in range(150):
            g, b = random_gqsb_instance(rng)
            for gamma in (float(rng.uniform(0.3, 4.0)), 1.0, float(rng.uniform(0.3, 4.0))):
                cert = certify(g, b, gamma)
                ref = reference_certify(g, b, gamma)
                for detail in ("summary", "full"):
                    got = certificate_dict(cert, detail=detail)
                    want = certificate_dict(ref, detail=detail)
                    assert got == want
                    assert render_json(got) == render_json(want)
                full = render_json(certificate_dict(cert, detail="full"))
                assert full == render_json(reference_certificate_dict(cert))
                assert full == render_json(reference_certificate_dict(ref))
                verdicts.add(cert.verdict.value)
        assert {"AsymmetricPolarization", "Divergence"} <= verdicts

    @pytest.mark.parametrize("k", range(-6, 7))
    def test_verdict_scale_free(self, allneg_triangle, k):
        scale = 10.0 ** k
        g = SignedGraph(3, tuple((i, j, w * scale) for i, j, w in allneg_triangle.edges))
        polar = certify(g, Bipartition(3, frozenset({0, 1})), 2.0)
        assert polar.verdict is Verdict.ASYMMETRIC_POLARIZATION
        assert certify(g, Bipartition(3, frozenset({0})), 2.0).verdict is Verdict.DIVERGENCE

    def test_one_decomposition_across_gammas(self, monkeypatch):
        g = load_highland(ScenarioConfig("highland", (0,)))
        b = bipartition_from_dominant(g, (0,))
        x0 = np.random.default_rng(5).uniform(-1.0, 1.0, g.n)
        shapes = _counting_eigh(monkeypatch)
        for gamma in (1.5, 2.0, 3.0):
            assert certify(g, b, gamma).verdict is Verdict.ASYMMETRIC_POLARIZATION
            bundle = generalized_laplacian(g, b, gamma)
            predict_final(bundle, x0)
            integrate(bundle, x0, dt=0.002, t_max=1.0)
        nf = len(certify(g, b, 2.0).forest_edges)
        assert 0 < nf < g.n
        assert shapes == [(g.n, g.n), (nf, nf)]

    def test_single_entry(self, allneg_triangle, allneg_split, unstable_triangle, monkeypatch):
        shapes = _counting_eigh(monkeypatch)
        for g in (allneg_triangle, unstable_triangle, allneg_triangle, unstable_triangle):
            certify(g, allneg_split, 2.0)
        assert len(shapes) == 4  # each graph keeps its own core
        equal = SignedGraph(3, allneg_triangle.edges)
        certify(equal, Bipartition(3, frozenset({1, 0})), 3.0)
        assert len(shapes) == 6  # an equal but distinct graph starts cold
        first = partner_core(allneg_triangle, allneg_split)
        other = Bipartition(3, frozenset({0}))
        assert partner_core(allneg_triangle, other).partition == other
        assert len(shapes) == 7
        assert partner_core(allneg_triangle, allneg_split) is not first
        assert len(shapes) == 8  # the second bipartition replaced the first

    def test_core_goes_with_its_graph(self):
        # no fixture: pytest would hold the graph until teardown
        g = SignedGraph(3, [(0, 1, -1.0), (0, 2, -3.0), (1, 2, -3.0)])
        b = Bipartition(3, frozenset({0, 1}))
        gc.disable()
        try:
            certify(g, b, 2.0)
            core = weakref.ref(partner_core(g, b))
            assert core() is not None
            del g
            assert core() is None  # freed by reference counting alone
        finally:
            gc.enable()

    def test_copies_carry_no_core(self, allneg_triangle, allneg_split, monkeypatch):
        partner_core(allneg_triangle, allneg_split)
        shapes = _counting_eigh(monkeypatch)
        twins = (pickle.loads(pickle.dumps(allneg_triangle)), copy.copy(allneg_triangle),
                 copy.deepcopy(allneg_triangle))
        for twin in twins:
            assert twin == allneg_triangle
            partner_core(twin, allneg_split)
        assert len(shapes) == 3

    def test_bundle_reads_the_kept_decomposition(self, allneg_triangle, allneg_split):
        core = partner_core(allneg_triangle, allneg_split)
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.5)
        assert bundle.partner is core.decomposition
        assert np.array_equal(sym_eigen(bundle.z_laplacian).eigenvectors,
                              core.decomposition.eigenvectors)

    def test_empty_forest_has_empty_resistance_spectrum(self, sb_triangle):
        b = Bipartition(3, frozenset({0, 1}))
        core = partner_core(sb_triangle, b)
        assert core.forest_edges == ()
        assert core.resistance.shape == (0, 0)
        assert core.resistance_eigenvalues.shape == (0,)
        assert certify(sb_triangle, b, 2.0).resistance_min_eig is None

    def test_kept_core_holds_no_operator(self, allneg_triangle, allneg_split):
        core = partner_core(allneg_triangle, allneg_split)
        certify(allneg_triangle, allneg_split, 2.0)
        n = allneg_triangle.n
        square = [name for name, value in vars(core).items()
                  if isinstance(value, np.ndarray) and value.shape == (n, n)]
        assert square == []

    def test_decomposition_in_place_of_matrix(self, allneg_triangle, allneg_split):
        bundle, forest = _partner_pieces(allneg_triangle, allneg_split, 2.0)
        dec = sym_eigen(bundle.z_laplacian)
        assert np.array_equal(pseudoinverse(dec), pseudoinverse(bundle.z_laplacian))
        assert np.array_equal(effective_resistance(dec, forest),
                              effective_resistance(bundle.z_laplacian, forest))
        with pytest.raises(DimensionMismatch):
            effective_resistance(dec, ((0, 3, -1.0),))
