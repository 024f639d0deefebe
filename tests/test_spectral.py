import copy
import gc
import math
import pickle
import sys
import threading
import warnings
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
    TooLarge,
    Verdict,
    bipartition_from_dominant,
    certify,
    clear_partner_cache,
    default_zero_tol,
    dump_network,
    effective_resistance,
    generalized_laplacian,
    integrate,
    load_highland,
    partner_core,
    partner_laplacian,
    predict_final,
    pseudoinverse,
    psd_simple_zero,
    spanning_forest,
    sym_eigen,
    sym_eigvals,
    z_transform_network,
)
from gqsbnet import spectral
from gqsbnet.fileio import certificate_dict, render_json, run_sweep
from gqsbnet.operators import _partner
from support import (
    assert_matches_reference,
    assert_same_core,
    assert_tie_headroom,
    core_calls,
    counting_linalg,
    dense_two_bloc,
    partner_forest_gram,
    random_bloc_graph,
    random_gqsb_instance,
    reference_build_core,
    reference_certificate_dict,
    reference_certify,
    reference_forest_gram,
    reference_headroom,
    reference_tie_headroom,
    tie_endpoints,
    two_bloc_draw,
)


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


def _shift_one_eigenvalue(monkeypatch, by):
    """Patch eigvalsh to move the largest eigenvalue by ``by`` times the
    spectral radius."""
    eigvalsh = np.linalg.eigvalsh

    def shifted(a, *args, **kwargs):
        values = eigvalsh(a, *args, **kwargs)
        values[-1] += by * np.max(np.abs(values))
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)


class TestSymEigvals:
    def test_matches_sym_eigen(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            m = rng.standard_normal((n, n))
            m = m + m.T
            got = sym_eigvals(m)
            want = sym_eigen(m).eigenvalues
            assert np.allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
            assert np.all(np.diff(got) >= 0)

    def test_output_read_only(self):
        with pytest.raises(ValueError):
            sym_eigvals(np.eye(2))[0] = 1.0

    def test_empty_and_zero(self):
        assert sym_eigvals(np.zeros((0, 0))).shape == (0,)
        assert np.array_equal(sym_eigvals(np.zeros((3, 3))), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotSymmetric, match="NaN or infinite"):
            sym_eigvals(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_rejects_asymmetric_and_non_square(self):
        with pytest.raises(NotSymmetric):
            sym_eigvals(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(NotSymmetric):
            sym_eigvals(np.array([[0.0, 1.0], [2.0, 0.0]]) * 1e-300)
        with pytest.raises(DimensionMismatch):
            sym_eigvals(np.zeros((2, 3)))

    @pytest.mark.parametrize("matrix", [
        [[1e308, -1e308], [-1e308, 1e308]],
        [[0.0, 1e308], [1e308, 0.0]],
        [[9e307, 0.0], [0.0, 1.0]],
    ])
    def test_row_sum_overflow_is_too_large(self, matrix):
        # twice a row's absolute sum bounds the radius and m + m.T; past
        # the largest float it is refused before any arithmetic can warn
        for solver in (sym_eigvals, sym_eigen):
            with pytest.raises(TooLarge, match="row 0"):
                solver(np.array(matrix))
        sym_eigvals(np.array(matrix) / 4.0)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_invariants_hold_at_any_scale(self, scale):
        rng = np.random.default_rng(43)
        m = rng.uniform(-1.0, 1.0, (40, 40))
        w = sym_eigvals((m + m.T) * scale)
        assert np.isfinite(w).all()

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e300])
    def test_shifted_eigenvalue_is_no_convergence(self, monkeypatch, scale):
        # the trace invariant sees one eigenvalue off by 1e-9 of the radius
        a = np.random.default_rng(47).standard_normal((50, 50))
        a = (a + a.T) * scale
        sym_eigvals(a)
        _shift_one_eigenvalue(monkeypatch, 1e-9)
        with pytest.raises(NoConvergence, match="trace"):
            sym_eigvals(a)

    def test_trace_kept_squares_missed_is_no_convergence(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def swapped(a, *args, **kwargs):
            values = eigvalsh(a, *args, **kwargs)
            values[0] -= 1e-9
            values[-1] += 1e-9
            return values

        monkeypatch.setattr(np.linalg, "eigvalsh", swapped)
        with pytest.raises(NoConvergence, match="Frobenius"):
            sym_eigvals(np.diag([1.0, 2.0, 3.0]))

    def test_nan_spectrum_is_no_convergence(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args, **kw: eigvalsh(a, *args, **kw) * np.nan)
        with pytest.raises(NoConvergence):
            sym_eigvals(np.diag([1.0, 2.0]))


class TestRealInput:
    """Every symmetric solver refuses, with NotSymmetric, a matrix that
    does not hold real numbers, where a float conversion would keep only
    the real part of a complex entry or fail with numpy's own error."""

    ENTRIES = {
        "sym_eigvals": sym_eigvals,
        "sym_eigen": sym_eigen,
        "pseudoinverse": pseudoinverse,
        "psd_simple_zero": psd_simple_zero,
        "effective_resistance": lambda m: effective_resistance(m, ((0, 1, -1.0),)),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("matrix", [
        np.array([[2, 1j], [-1j, 2]]),  # Hermitian, eigenvalues 1 and 3
        np.array([[2.0, 0.0], [0.0, 2.0]], dtype=complex),  # real values, complex type
        np.array([["2", "1"], ["1", "2"]]),
        np.array([[2.0, None], [None, 2.0]], dtype=object),
        [[2.0, 1.0], [1.0]],
    ], ids=["hermitian", "complex-type", "strings", "objects", "ragged"])
    def test_refused(self, entry, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSymmetric, match="real numbers"):
                self.ENTRIES[entry](matrix)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_integers_and_booleans_pass(self, entry):
        for matrix in (np.array([[2, -1], [-1, 2]]), np.array([[True, False], [False, True]])):
            self.ENTRIES[entry](matrix)


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

    def test_bits_of_the_whole_pseudoinverse_product(self):
        # the blocked Gram of (P[a] - P[b]).T is the transpose of the
        # column-difference product until symmetrized, the same bits after
        bundle, forest = _partner_pieces(*dense_two_bloc(60), 2.0)
        a, b = np.array([(i, j) for i, j, _ in forest]).T
        want = reference_forest_gram(pseudoinverse(bundle.z_laplacian), a, b)
        got = effective_resistance(bundle.z_laplacian, forest)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_below_the_double_range_is_too_large(self):
        # weights times 1e-310: resistances pass 1.8e308, and so do the
        # pseudoinverse's entries
        g, b = dense_two_bloc(60)
        bundle, forest = _partner_pieces(g.reweighted(g.w * 1e-310), b, 2.0)
        with pytest.raises(TooLarge, match="pseudoinverse"):
            pseudoinverse(bundle.z_laplacian)
        with pytest.raises(TooLarge, match="pseudoinverse"):
            effective_resistance(bundle.z_laplacian, forest)


class TestCertify:
    def test_worked_triangle_certificate(self, allneg_triangle, allneg_split):
        cert = certify(allneg_triangle, allneg_split, 2.0)
        assert cert.verdict is Verdict.ASYMMETRIC_POLARIZATION
        assert cert.connected
        assert cert.gamma == 2.0
        assert abs(cert.antagonism_headroom - 1.5) <= 1e-14
        assert cert.same_side_ties == 1
        # the one tie (0, 1) alone: weight 1, resistance 0.4 through |w|
        assert cert.tie_ends.tolist() == [[0, 1]]
        assert abs(cert.tie_headroom[0] - 1.5) <= 1e-14
        dec = generalized_laplacian(allneg_triangle, allneg_split, 2.0).partner
        assert np.allclose(dec.eigenvalues, [0.0, 1.0, 9.0], atol=1e-9)
        assert dec.zero_count == 1
        forest, gram = partner_forest_gram(allneg_triangle, allneg_split)
        assert forest == ((0, 1, -1.0),)
        assert np.allclose(gram, [[2.0]], atol=1e-9)
        assert np.array_equal(cert.null_right, np.array([-2.0, -2.0, 1.0]))
        assert np.allclose(cert.null_left, [-1 / 6, -1 / 6, 1 / 3], atol=1e-15)

    def test_flowing_verdicts(self):
        assert {v for v in Verdict if v.flows} == {Verdict.ASYMMETRIC_POLARIZATION,
                                                   Verdict.CONSENSUS}

    def test_null_right_is_the_split(self, allneg_triangle, allneg_split):
        # -gamma on side one and 1 on side two, bit for bit
        for gamma in (1.0, 2.0, 0.1, 1 / 3, 1e-300, 1e300, np.nextafter(1.0, 0.0)):
            null = certify(allneg_triangle, allneg_split, gamma).null_right
            assert null.tobytes() == np.array([-gamma, -gamma, 1.0]).tobytes()

    def test_null_vectors_read_only(self, allneg_triangle, allneg_split):
        cert = certify(allneg_triangle, allneg_split, 2.0)
        for vector in (cert.null_right, cert.null_left):
            assert not vector.flags.writeable
            with pytest.raises(ValueError):
                vector[0] = 0.0

    def test_same_subset_antagonism_never_consensus(self, allneg_triangle, allneg_split):
        cert = certify(allneg_triangle, allneg_split, 1.0)
        assert cert.verdict is Verdict.ASYMMETRIC_POLARIZATION

    def test_balanced_unit_coefficient_is_consensus(self, sb_triangle):
        cert = certify(sb_triangle, Bipartition(3, frozenset({0, 1})), 1.0)
        assert cert.verdict is Verdict.CONSENSUS
        assert (cert.antagonism_headroom, cert.same_side_ties) == (math.inf, 0)
        assert cert.tie_ends.shape == (0, 2) and cert.tie_headroom.shape == (0,)
        b = Bipartition(3, frozenset({0, 1}))
        forest, gram = partner_forest_gram(sb_triangle, b)
        assert forest == () and gram.shape == (0, 0)
        spectrum = generalized_laplacian(sb_triangle, b, 1.0).partner.eigenvalues
        assert np.allclose(spectrum, [0.0, 5.0, 9.0], atol=1e-9)

    def test_balanced_scaled_coefficient_polarizes(self, sb_triangle):
        cert = certify(sb_triangle, Bipartition(3, frozenset({0, 1})), 2.0)
        assert cert.verdict is Verdict.ASYMMETRIC_POLARIZATION

    def test_divergent_certificate(self, unstable_triangle, allneg_split):
        cert = certify(unstable_triangle, allneg_split, 2.0)
        assert cert.verdict is Verdict.DIVERGENCE
        assert abs(cert.antagonism_headroom - 0.1) <= 1e-14
        assert abs(cert.tie_headroom[0] - 0.1) <= 1e-14
        dec = generalized_laplacian(unstable_triangle, allneg_split, 2.0).partner
        assert dec.eigenvalues[0] < -1e-6
        assert sym_eigvals(partner_forest_gram(unstable_triangle, allneg_split)[1])[0] < 0

    def test_disconnected_is_inconclusive(self):
        g = SignedGraph.from_edge_list(4, [(0, 1, -1.0), (2, 3, -1.0)])
        cert = certify(g, Bipartition(4, frozenset({0, 2})), 2.0)
        assert not cert.connected
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.antagonism_headroom is None

    def test_partition_must_qualify(self, sb_triangle):
        with pytest.raises(NotGQSB):
            certify(sb_triangle, Bipartition(3, frozenset({0, 2})), 2.0)

    def test_resistance_read_only(self, allneg_triangle, allneg_split):
        # the ties and their headrooms, 1 / (w_e R_abs,e) - 1, are the kept
        # core's arrays, shared by every certificate, so none may be written
        cert = certify(allneg_triangle, allneg_split, 2.0)
        core = partner_core(allneg_triangle, allneg_split)
        assert cert.tie_ends is core.tie_ends and cert.tie_headroom is core.tie_headroom
        with pytest.raises(ValueError):
            cert.tie_headroom[0] = 0.0
        with pytest.raises(ValueError):
            cert.tie_ends[0, 0] = 2

    def test_resistance_criterion_matches_spectral_one(self):
        # the headroom, the partner spectrum and the forest Gram must agree
        # on every random instance, all of them far from the boundary; t*
        # is at most every tie's own headroom
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
            assert psd == (cert.antagonism_headroom > 1.0)
            # 1 + t* <= 1 + t_e for every tie, within rounding
            assert 1.0 + cert.antagonism_headroom <= (
                1.0 + np.min(cert.tie_headroom, initial=math.inf)) * (1.0 + 1e-12)
            forest, gram = partner_forest_gram(g, b)
            pd_resistance = (
                not forest
                or float(sym_eigvals(gram)[0]) > default_zero_tol(bundle.partner.eigenvalues)
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


def _ties(g, b):
    side = b.mask()
    return int(np.count_nonzero((g.w < 0) & (side[g.i] == side[g.j])))


class TestPartnerCore:
    def test_matches_reference_certify(self):
        # several coefficients per (graph, bipartition), so most certificates
        # come from a kept core
        rng = np.random.default_rng(83)
        verdicts = set()
        for _ in range(150):
            g, b = random_gqsb_instance(rng)
            for gamma in (float(rng.uniform(0.3, 4.0)), 1.0, float(rng.uniform(0.3, 4.0))):
                cert = certify(g, b, gamma)
                assert_matches_reference(cert, reference_certify(g, b, gamma))
                full = render_json(certificate_dict(cert, detail="full"))
                assert full == render_json(reference_certificate_dict(cert))
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
        # integration's Lanczos tridiagonals are not recorded
        calls = counting_linalg(monkeypatch, skip="gqsbnet.dynamics")
        for gamma in (1.5, 2.0, 3.0):
            assert certify(g, b, gamma).verdict is Verdict.ASYMMETRIC_POLARIZATION
            bundle = generalized_laplacian(g, b, gamma)
            predict_final(bundle, x0)
            if gamma == 1.5:  # certify and predict_final need no spectrum
                assert calls == core_calls(g.n, _ties(g, b), tie_endpoints(g, b))
            integrate(bundle, x0, dt=0.002, t_max=1.0)
        assert 0 < _ties(g, b) < g.n
        # and integration makes no eigh of the partner
        assert calls == core_calls(g.n, _ties(g, b), tie_endpoints(g, b))

    def test_cold_certify_makes_one_factorization(self, monkeypatch, tmp_path):
        # one cholesky factor of the grounded L_abs, split at its s endpoint
        # rows, and the one of M's shift that proves its top Ritz value; no
        # spectrum but Lanczos's tridiagonal ones and no solve, with fewer
        # ties than nodes and with more; none when disconnected; and a
        # polarizing report adds no n-square eigh: integration reads
        # Lanczos's tridiagonals, far smaller here
        started = _record_threads(monkeypatch)
        calls = counting_linalg(monkeypatch)
        for g, b in (dense_two_bloc(150), _scaled(dense_two_bloc(90), 1.0),
                     _few_ties(150)):
            calls.clear()
            cert = certify(g, b, 2.0)
            n = g.n
            s = min(tie_endpoints(g, b), n - 1)
            side = min(cert.same_side_ties, s)
            assert [c for c in calls if c[0] == "cholesky"] == (
                [("cholesky", (n - 1 - s, n - 1 - s))] * (s < n - 1)
                + [("cholesky", (s, s)), ("cholesky", (side, side))])
            assert [c for c in calls if c[0] in ("eigvalsh", "solve")] == []
            # the panel solves of at most 64 rows
            assert calls == core_calls(n, cert.same_side_ties, tie_endpoints(g, b))
            assert cert.verdict is Verdict.ASYMMETRIC_POLARIZATION
            path = tmp_path / f"net{n}.txt"
            path.write_text(dump_network(g))
            calls.clear()
            run_sweep(ScenarioConfig(str(path), tuple(sorted(b.v1)), dt=1e-4, t_max=1e-4),
                      [2.0]).__next__()
            assert [c for c in calls if c[1][0] == n] == []
        calls.clear()
        certify(*_two_triangles(), 2.0)
        assert calls == [] and started == []

    def test_single_entry(self, allneg_triangle, allneg_split, unstable_triangle, monkeypatch):
        calls = counting_linalg(monkeypatch)

        def cores():
            return calls.count(("cholesky", (2, 2)))

        for g in (allneg_triangle, unstable_triangle, allneg_triangle, unstable_triangle):
            certify(g, allneg_split, 2.0)
        assert cores() == 2  # each graph keeps its own core
        equal = SignedGraph(3, allneg_triangle.edges)
        certify(equal, Bipartition(3, frozenset({1, 0})), 3.0)
        assert cores() == 3  # an equal but distinct graph starts cold
        first = partner_core(allneg_triangle, allneg_split)
        other = Bipartition(3, frozenset({0}))
        assert partner_core(allneg_triangle, other).partition == other
        assert cores() == 4
        assert partner_core(allneg_triangle, allneg_split) is not first
        assert cores() == 5  # the second bipartition replaced the first
        # no spectrum of the network or of M (one tie: M is 1 x 1)
        assert [c for c in calls if c[0] == "eigh" and c[1][0] in (3, 1)] == []

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
        generalized_laplacian(allneg_triangle, allneg_split, 2.0).partner
        calls = counting_linalg(monkeypatch)
        twins = (pickle.loads(pickle.dumps(allneg_triangle)), copy.copy(allneg_triangle),
                 copy.deepcopy(allneg_triangle))
        for twin in twins:
            assert twin == allneg_triangle
            partner_core(twin, allneg_split)
            generalized_laplacian(twin, allneg_split, 2.0).partner
        assert calls == 3 * (core_calls(3, 1, 2) + [("eigh", (3, 3))])

    def test_bundle_reads_the_kept_decomposition(self, allneg_triangle, allneg_split,
                                                 monkeypatch):
        cert = certify(allneg_triangle, allneg_split, 2.0)
        core = partner_core(allneg_triangle, allneg_split)
        calls = counting_linalg(monkeypatch)
        bundle = generalized_laplacian(allneg_triangle, allneg_split, 2.5)
        dec = bundle.partner
        assert generalized_laplacian(allneg_triangle, allneg_split, 4.0).partner is dec
        assert partner_core(allneg_triangle, allneg_split) is core
        assert calls == [("eigh", (3, 3))]  # the core needed no spectrum
        assert np.array_equal(sym_eigen(bundle.z_laplacian).eigenvectors, dec.eigenvectors)
        # the full document reads the kept core and no decomposition
        assert certificate_dict(cert, "full")["ties"] == [[0, 1, cert.tie_headroom[0]]]
        assert calls[1:] == [("eigh", (3, 3))]

    def test_empty_forest_has_empty_resistance_spectrum(self, sb_triangle):
        b = Bipartition(3, frozenset({0, 1}))
        forest, gram = partner_forest_gram(sb_triangle, b)
        assert forest == () and gram.shape == (0, 0)
        core = partner_core(sb_triangle, b)
        assert core.headroom == math.inf
        assert core.tie_ends.shape == (0, 2) and core.tie_headroom.shape == (0,)
        assert certificate_dict(certify(sb_triangle, b, 2.0), "full")["ties"] == []

    def test_kept_core_holds_no_operator(self, allneg_triangle, allneg_split):
        # only the read-only tie arrays, one row per same-side tie: nothing
        # n-sized (one tie on three nodes)
        core = partner_core(allneg_triangle, allneg_split)
        certify(allneg_triangle, allneg_split, 2.0)
        arrays = {name: value for name, value in vars(core).items()
                  if isinstance(value, np.ndarray)}
        assert sorted(arrays) == ["tie_ends", "tie_headroom"]
        assert core.same_side_ties == 1
        for value in arrays.values():
            assert len(value) == core.same_side_ties and not value.flags.writeable

    def test_disconnected_grounds_every_component(self, monkeypatch):
        # two all-negative triangles: nothing is factored, so no tie has a
        # headroom; the forest Gram comes off the pseudoinverse, one block
        # per component
        tri = [(0, 1, -1.0), (0, 2, -3.0), (1, 2, -3.0)]
        g = SignedGraph(6, tri + [(i + 3, j + 3, 2.0 * w) for i, j, w in tri])
        b = Bipartition(6, frozenset({0, 1, 3, 4}))
        calls = counting_linalg(monkeypatch)
        core = partner_core(g, b)
        assert calls == []
        assert (core.connected, core.headroom, core.same_side_ties) == (False, None, 2)
        cert = certify(g, b, 2.0)
        assert cert.decided_by == "connectivity"
        assert certificate_dict(cert, "full")["ties"] == [[0, 1, None], [3, 4, None]]
        assert np.isnan(cert.tie_headroom).all() and calls == []
        forest, gram = partner_forest_gram(g, b)
        assert forest == ((0, 1, -1.0), (3, 4, -2.0))
        assert np.allclose(gram, np.diag([2.0, 1.0]), rtol=0, atol=1e-12)

    def test_extra_zero_takes_the_pseudoinverse(self, monkeypatch):
        # the tie (0, 1) cancels the path 0-2-1 in the partner network: a
        # second zero, t* = 1.  L_abs factors as anywhere else, the one
        # tie's own headroom is t*, and the full document adds no
        # decomposition; the integrator reads Lanczos's tridiagonals (not
        # recorded here), and the partner's one eigh has the two zeros
        g = SignedGraph.from_edge_list(3, [(0, 1, -0.5), (0, 2, -1.0), (1, 2, -1.0)])
        b = Bipartition(3, frozenset({0, 1}))
        calls = counting_linalg(monkeypatch, skip="gqsbnet.dynamics")
        cert = certify(g, b, 2.0)
        assert calls == core_calls(3, 1, 2)
        assert (cert.verdict, cert.decided_by) == (Verdict.INCONCLUSIVE, "headroom")
        assert abs(cert.antagonism_headroom - 1.0) <= 1e-15
        assert certificate_dict(cert, "full")["ties"] == [[0, 1, cert.antagonism_headroom]]
        bundle = generalized_laplacian(g, b, 2.0)
        integrate(bundle, np.array([1.0, -0.5, 0.25]), dt=0.01, t_max=1.0)
        assert calls == core_calls(3, 1, 2)
        assert bundle.partner.zero_count == 2
        assert calls == core_calls(3, 1, 2) + [("eigh", (3, 3))]
        # the forest's one column is the second zero's direction
        forest, gram = partner_forest_gram(g, b)
        assert forest == ((0, 1, -0.5),) and abs(gram[0, 0]) <= 1e-12

    def test_near_boundary_verdicts_match_reference(self):
        # scale the same-side antagonism of random networks to just either
        # side of the point where the partner Laplacian loses definiteness
        rng = np.random.default_rng(89)
        near = []
        while len(near) < 60:
            g, b = random_gqsb_instance(rng)
            side = b.mask()
            intra = (side[g.i] == side[g.j]) & (g.w < 0)
            if not intra.any():
                continue

            def scaled(s):
                return g.reweighted(np.where(intra, g.w * s, g.w))

            def definite(s):
                lap = partner_laplacian(scaled(s), b)
                return np.linalg.eigvalsh(lap[1:, 1:])[0] > 0

            lo, hi = 0.0, 1.0
            while definite(hi):
                lo, hi = hi, 2.0 * hi
            for _ in range(60):
                mid = (lo + hi) / 2.0
                lo, hi = (mid, hi) if definite(mid) else (lo, mid)
            for d in (-1e-5, -1e-7, -1e-10, -1e-13, 1e-13, 1e-10, 1e-7, 1e-5):
                h = scaled(lo * (1.0 + d))
                ref = reference_certify(h, b, 2.0)["summary"]
                cert = certify(h, b, 2.0)
                assert (cert.verdict.value, cert.decided_by) == (ref["verdict"],
                                                                 ref["decided_by"])
                assert abs(cert.antagonism_headroom - ref["antagonism_headroom"]) <= 1e-10
                near.append(cert.verdict)
        assert set(near) == {Verdict.ASYMMETRIC_POLARIZATION, Verdict.DIVERGENCE,
                             Verdict.INCONCLUSIVE}

    def test_decomposition_in_place_of_matrix(self, allneg_triangle, allneg_split):
        # only the matrix is taken; its size bounds the forest's endpoints
        bundle, _ = _partner_pieces(allneg_triangle, allneg_split, 2.0)
        with pytest.raises(DimensionMismatch):
            effective_resistance(bundle.z_laplacian, ((0, 3, -1.0),))


def _paired_blocs(extra=0):
    """Two 6-node cooperative paths, nodes 0-5 and 6-11, tied node to node
    across, with weak same-side antagonism that touches every node:
    (0, 3), (1, 4), (2, 5) and the same on the second bloc.  With
    ``extra``, that many more nodes, each tied to node 0 and against
    node 7, which no same-side tie touches.  Seeded weights, so no
    symmetry of the network hides a misplaced row."""
    n = 12 + extra
    rng = np.random.default_rng(5)
    edges = [(k, k + 1, 3.0) for k in (0, 1, 2, 3, 4, 6, 7, 8, 9, 10)]
    edges += [(k, k + 6, -2.0) for k in range(6)]
    edges += [(k, k + 3, -0.2) for k in (0, 1, 2, 6, 7, 8)]
    edges += [e for v in range(12, n) for e in ((0, v, 3.0), (7, v, -2.0))]
    edges = [(i, j, w * float(rng.uniform(0.5, 1.5))) for i, j, w in edges]
    return SignedGraph(n, edges), Bipartition(n, frozenset(range(6)) | set(range(12, n)))


def _hostile_clique():
    """A 60-node two-bloc network, nodes 0-29 and 30-59, each bloc a
    cooperative path with chords, the blocs tied by -2; inside the first
    bloc an antagonistic 12-clique on every other node from 4, 66 ties
    between 12 endpoints."""
    rng = np.random.default_rng(12)
    edges = {}
    for lo in (0, 30):
        for k in range(lo, lo + 29):
            edges[(k, k + 1)] = float(rng.uniform(5.0, 15.0))
        for _ in range(20):
            a, c = sorted(rng.choice(np.arange(lo, lo + 30), 2, replace=False).tolist())
            edges.setdefault((a, c), float(rng.uniform(5.0, 15.0)))
    for k in range(30):
        edges[(k, 30 + (7 * k) % 30)] = -2.0
    clique = range(4, 28, 2)
    for a in clique:
        for c in clique:
            if a < c:
                edges[(a, c)] = -float(rng.uniform(0.01, 0.05))
    g = SignedGraph(60, [(a, c, w) for (a, c), w in edges.items()])
    return g, Bipartition(60, frozenset(range(30)))


class TestEndpointOrder:
    """The core orders L_abs with the same-side tie endpoints last and
    solves on their rows alone: each shape the order branches on gives
    the oracle's headroom and verdict, and relabelling changes nothing."""

    @pytest.mark.parametrize("shape, ties, ends", [
        ("every node an endpoint", 6, 12),
        ("one other node", 6, 12),
        ("more ties than endpoints", 66, 12),
    ])
    def test_shape_matches_the_oracle(self, shape, ties, ends, monkeypatch):
        g, b = {"every node an endpoint": _paired_blocs(),
                "one other node": _paired_blocs(1),
                "more ties than endpoints": _hostile_clique()}[shape]
        assert (_ties(g, b), tie_endpoints(g, b)) == (ties, ends)
        calls = counting_linalg(monkeypatch)
        cert = certify(g, b, 2.0)
        # M is min(ties, s) square, s = min(ends, n - 1) endpoint rows
        assert calls == core_calls(g.n, ties, ends)
        want = reference_headroom(g, b)
        assert abs(cert.antagonism_headroom - want) <= 1e-12 * want
        assert cert.verdict.value == reference_certify(g, b, 2.0)["summary"]["verdict"]
        assert abs(want - 1.0) > 0.1

    @pytest.mark.parametrize("kind", ["AsymmetricPolarization", "Divergence", "Inconclusive"])
    def test_relabelling_keeps_the_certificate(self, kind):
        # draw_two_bloc(default_rng(3), 120, kind) keeps its first draw
        g, b = two_bloc_draw(3, 120, kind)
        perm = np.random.default_rng(4).permutation(g.n)
        h = SignedGraph.from_arrays(g.n, perm[g.i], perm[g.j], g.w)
        hb = Bipartition(g.n, frozenset(int(perm[v]) for v in b.v1))
        got, want = certify(h, hb, 2.0), certify(g, b, 2.0)
        assert got.verdict == want.verdict
        assert got.verdict.value == kind
        assert got.headroom_tol == want.headroom_tol
        assert got.same_side_ties == want.same_side_ties
        if kind == "Inconclusive":  # disconnected: nothing is factored
            assert got.antagonism_headroom is want.antagonism_headroom is None
        else:
            t = want.antagonism_headroom
            assert abs(got.antagonism_headroom - t) <= 1e-12 * t


def _few_ties(n):
    """A seeded two-bloc draw with few same-side ties, bloc 0 dominant."""
    g, labels = random_bloc_graph(np.random.default_rng(7), n, 2, 0.3, intra_neg=0.15)
    return g, Bipartition(n, frozenset(np.flatnonzero(labels == 0).tolist()))


def _extra_zero_triangle(scale=1.0, path=(1.0, 1.0)):
    """A tie between the two dominant nodes that cancels their antagonistic
    path in the partner network: a second zero in the partner spectrum and
    a headroom of 1 (exactly with paths (1, 1), within rounding with
    (1.1, 2.3))."""
    p, q = path
    edges = [(0, 1, -p * q / (p + q) * scale), (0, 2, -p * scale), (1, 2, -q * scale)]
    return SignedGraph.from_edge_list(3, edges), Bipartition(3, frozenset({0, 1}))


def _two_triangles():
    tri = [(0, 1, -1.0), (0, 2, -3.0), (1, 2, -3.0)]
    g = SignedGraph(6, tri + [(i + 3, j + 3, 2.0 * w) for i, j, w in tri])
    return g, Bipartition(6, frozenset({0, 1, 3, 4}))


def _scaled(pair, scale):
    """The graph with every weight times ``scale``: at 1e305 its resistance
    Gram underflows, at 1e-310 it overflows."""
    g, b = pair
    return SignedGraph.from_arrays(g.n, g.i, g.j, g.w * scale), b


def _corpus():
    """The draws of ``TestPartnerCore.test_matches_reference_certify`` (the
    coefficients drawn between them are drawn and dropped), highland, the
    n = 400 graph of the dense path, two components, two extra zeros, and
    weights near the top of the double range."""
    rng = np.random.default_rng(83)
    for _ in range(150):
        yield random_gqsb_instance(rng)
        rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0)
    g = load_highland(ScenarioConfig("highland", (0,)))
    yield g, bipartition_from_dominant(g, (0,))
    yield dense_two_bloc()
    yield _two_triangles()
    yield _extra_zero_triangle()
    yield _extra_zero_triangle(1e-300, (1.1, 2.3))
    yield _scaled(dense_two_bloc(120), 1e305)


def _record_threads(monkeypatch):
    """Record every thread started from now on."""
    started = []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started


class TestConcurrentCore:
    """The core was once built in two halves at once, on two threads.  It
    is now one sequential route that starts no thread; these cases keep
    what the concurrent build was held to: the values of a reference
    build, whatever the interpreter's switch interval or the threads to
    be had, errors that reach ``certify`` with nothing kept, M formed
    once, the double range refused with no warning, no
    dependence on the caller's floating-point error state, silence at an
    extra zero, and one order of LAPACK calls."""

    def test_bits_match_the_sequential_build(self, monkeypatch):
        started = _record_threads(monkeypatch)
        cases = 0
        for g, b in _corpus():
            want = reference_build_core(g, b)
            clear_partner_cache(g)
            assert_same_core(partner_core(g, b), want)
            # a kept decomposition changes nothing
            clear_partner_cache(g)
            _partner(g, b).eigen
            generalized_laplacian(g, b, 2.0).partner
            assert_same_core(partner_core(g, b), want)
            cases += 1
        assert cases == 156 and started == []

    def test_bits_under_a_short_switch_interval(self):
        # the interpreter switches threads every microsecond: the same bits
        rng = np.random.default_rng(97)
        pairs = [random_gqsb_instance(rng) for _ in range(60)] + [dense_two_bloc(60)]
        wants = [partner_core(*_scaled(pair, 1.0)).headroom for pair in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cores = [partner_core(g, b) for g, b in pairs]
        finally:
            sys.setswitchinterval(interval)
        assert [core.headroom for core in cores] == wants

    def test_bits_without_a_thread(self, monkeypatch):
        # no thread to be had: certify needs none
        def refuse(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for g, b in (dense_two_bloc(), _two_triangles(), _extra_zero_triangle()):
            want = reference_build_core(g, b)
            clear_partner_cache(g)
            assert_same_core(partner_core(g, b), want)
            certify(g, b, 2.0)

    def test_worker_error_reaches_certify(self, monkeypatch):
        # the factorization fails: the error reaches certify, nothing is
        # kept, and the next certify starts afresh
        g, b = dense_two_bloc(60)
        cholesky = np.linalg.cholesky

        def refuse(a, *args, **kwargs):
            raise MemoryError("no room for the factor")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        with pytest.raises(MemoryError, match="no room for the factor"):
            certify(g, b, 2.0)
        assert _partner(g, b).core is None
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        assert certify(g, b, 2.0).verdict is Verdict.ASYMMETRIC_POLARIZATION

    def test_spectrum_error_wins(self, monkeypatch):
        # Lanczos does not settle in one step, so mu comes from M's full
        # spectrum, which fails its checks: that error reaches certify
        g, b = dense_two_bloc(60)

        def diverge(matrix):
            raise NoConvergence("the spectrum failed")

        monkeypatch.setattr(spectral, "_LANCZOS_STEPS", 1)
        monkeypatch.setattr(spectral, "sym_eigvals", diverge)
        with pytest.raises(NoConvergence, match="the spectrum failed"):
            certify(g, b, 2.0)
        assert _partner(g, b).core is None

    def test_gram_formed_once(self, monkeypatch):
        # M = Z^T Z, whose diagonal gives the ties' own headrooms, on a
        # graph whose forest Gram underflows: formed once per partner,
        # whatever number of certificates, coefficients and full documents
        # read it; the forest Gram is never formed
        forms = {"_headroom": [], "_forest_gram": []}

        def recording(name):
            form = getattr(spectral, name)

            def recorded(*args):
                forms[name].append(args)
                return form(*args)

            return recorded

        for name in forms:
            monkeypatch.setattr(spectral, name, recording(name))
        g, b = _scaled(dense_two_bloc(120), 1e305)
        certs = [certify(g, b, gamma) for gamma in (1.0, 2.0, 3.5)]
        docs = [certificate_dict(cert, "full")["ties"] for cert in certs]
        assert (len(forms["_headroom"]), forms["_forest_gram"]) == (1, [])
        assert len({id(cert.tie_headroom) for cert in certs}) == 1
        assert docs[0] == docs[1] == docs[2] and all(t is not None for *_, t in docs[0])
        assert_tie_headroom(docs[0], reference_tie_headroom(g, b))

    @pytest.mark.parametrize("kept", [False, True])
    def test_gram_beyond_the_double_range_is_too_large(self, kept):
        # resistances above 1.8e308: the verdict and every tie's own
        # headroom are the ones at scale 1, since neither has a unit, while
        # the forest Gram is TooLarge; no warning
        want = certify(*dense_two_bloc(120), 2.0)
        g, b = _scaled(dense_two_bloc(120), 1e-310)
        if kept:
            _partner(g, b).eigen
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            cert = certify(g, b, 2.0)
            full = certificate_dict(cert, "full")
            with pytest.raises(TooLarge, match="pseudoinverse"):
                partner_forest_gram(g, b)
        assert seen == []
        assert (cert.verdict, cert.decided_by) == (want.verdict, want.decided_by)
        assert abs(cert.antagonism_headroom - want.antagonism_headroom) <= (
            1e-10 * want.antagonism_headroom)
        assert_tie_headroom(full["ties"], certificate_dict(want, "full")["ties"])

    def test_caller_error_state_changes_nothing(self, monkeypatch):
        # the route ignores underflow and cannot overflow, so a caller that
        # raises on every floating-point exception gets the core of the
        # default state, at either end of the double range
        for pair in (_scaled(dense_two_bloc(120), 1e305), _scaled(dense_two_bloc(120), 1e-300),
                     _extra_zero_triangle(1e-300, (1.1, 2.3))):
            want = partner_core(*_scaled(pair, 1.0))
            with np.errstate(all="raise"):
                got = partner_core(*_scaled(pair, 1.0))
            assert got.headroom == want.headroom

    @pytest.mark.parametrize("scale, path", [(1.0, (1.0, 1.0)), (1e-300, (1.1, 2.3))])
    def test_dropped_solve_is_silent(self, monkeypatch, scale, path):
        # an extra zero: t* = 1 within rounding, Inconclusive, silently
        g, b = _extra_zero_triangle(scale, path)
        started = _record_threads(monkeypatch)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            cert = certify(g, b, 2.0)
            full = certificate_dict(cert, "full")
            dec = generalized_laplacian(g, b, 2.0).partner
            gram = partner_forest_gram(g, b)[1]
        assert seen == [] and started == []
        assert (cert.verdict, cert.decided_by) == (Verdict.INCONCLUSIVE, "headroom")
        assert abs(cert.antagonism_headroom - 1.0) <= 1e-14
        assert full["ties"] == [[0, 1, cert.antagonism_headroom]]
        assert dec.zero_count == 2 and np.isfinite(gram).all()

    @pytest.mark.parametrize("kept", [False, True])
    def test_pair_recorded_in_one_order(self, monkeypatch, kept):
        # the core's calls, in one order, whether or not the partner's
        # decomposition was made first
        g, b = dense_two_bloc(60)
        if kept:
            _partner(g, b).eigen
            generalized_laplacian(g, b, 2.0).partner
        calls = counting_linalg(monkeypatch)
        partner_core(g, b)
        assert calls == core_calls(g.n, _ties(g, b), tie_endpoints(g, b))


class TestReportRoute:
    """``report`` and ``sweep`` certify as a library ``certify`` does, and
    integrate when, and only when, the verdict lets the flow run, with no
    ``eigh`` of the partner; a certificate reads nothing a command made
    before it."""

    def test_route_matches_a_cold_certify(self, monkeypatch, tmp_path):
        started = _record_threads(monkeypatch)
        lanczos = counting_linalg(monkeypatch)
        calls = counting_linalg(monkeypatch, skip="gqsbnet.dynamics")
        rng = np.random.default_rng(29)
        verdicts = set()
        for k, (g, b) in enumerate(_corpus()):
            library = SignedGraph.from_arrays(g.n, g.i, g.j, g.w)
            integrate(generalized_laplacian(library, b, 2.0), rng.uniform(-1.0, 1.0, g.n),
                      dt=1.0, t_max=1.0)
            assert not {"laplacian", "eigen"} & set(vars(_partner(library, b)))
            path = tmp_path / f"net{k}.txt"
            path.write_text(dump_network(g))
            # one step, well inside RK4's stability at any scale of the weights
            dt = 0.01 / g.n / float(np.max(np.abs(g.w)))
            config = ScenarioConfig(str(path), tuple(sorted(b.v1)), dt=dt, t_max=dt)
            gammas = (1.0, 2.0, 3.5)
            mark, mark_all = len(calls), len(lanczos)
            for gamma, report in zip(gammas, run_sweep(config, gammas)):
                cold = certify(g, b, gamma)
                verdicts.add(cold.verdict.value)
                for kept in (report.certificate, certify(library, b, gamma)):
                    for key in ("verdict", "decided_by", "connected", "antagonism_headroom",
                                "headroom_tol", "same_side_ties"):
                        assert getattr(kept, key) == getattr(cold, key), key
                # the report integrated exactly when the verdict flows
                assert (report.trajectory is not None) == cold.verdict.flows
            # no eigh of the partner, where the sweep flows or not (t*
            # decides, so the verdict flows at every coefficient or none):
            # every eigh is a Lanczos step's, on its tridiagonal, and
            # integration's appear exactly where the flow runs
            eighs = [k for name, (k, _) in calls[mark:] if name == "eigh"]
            flowing = [k for name, (k, _) in lanczos[mark_all:] if name == "eigh"]
            assert len(flowing) > len(eighs) if cold.verdict.flows else flowing == eighs
            assert max(eighs, default=0) <= min(spectral._LANCZOS_STEPS, g.n - 1)
        assert {"AsymmetricPolarization", "Divergence", "Consensus", "Inconclusive"} <= verdicts
        assert started == []


def _all_negative_clique(n, spread=1.0):
    """All-negative K_n with weights from 1 to 1 + 2 ``spread``, node 0
    alone on its side: the other n - 1 nodes hold (n - 1)(n - 2) / 2
    same-side ties, more than their n - 1 endpoint rows once n >= 5."""
    edges = [(i, j, -(1.0 + spread * ((i + j) % 3))) for i in range(n) for j in range(i + 1, n)]
    return SignedGraph(n, edges), Bipartition(n, frozenset({0}))


class TestTieHeadroom:
    """Each same-side tie's own headroom t_e = 1 / M_ee - 1, where
    M_ee = w_e R_abs,e is M's diagonal, from the factor that gives t*:
    the headroom of that tie alone, which bounds t* from above."""

    @pytest.mark.parametrize("kind", ["AsymmetricPolarization", "Divergence", "Inconclusive"])
    def test_matches_the_resistance_route(self, kind):
        # fewer ties than endpoint rows: M's diagonal before the shift
        for seed in range(3):
            g, b = two_bloc_draw(seed, 120, kind)
            cert = certify(g, b, 2.0)
            assert 0 < cert.same_side_ties <= tie_endpoints(g, b)
            ties = certificate_dict(cert, "full")["ties"]
            assert_tie_headroom(ties, reference_tie_headroom(g, b))
            if kind == "Inconclusive":  # disconnected: nothing factored
                assert all(t is None for *_, t in ties)
            else:
                assert 1.0 + cert.antagonism_headroom <= (
                    1.0 + min(t for *_, t in ties)) * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [5, 7])
    def test_more_ties_than_endpoint_rows(self, n, monkeypatch):
        # M summed s ties at a time: t_e from each chunk's column norms, in
        # the ties' canonical order; no solve beyond the core's own
        g, b = _all_negative_clique(n)
        calls = counting_linalg(monkeypatch)
        cert = certify(g, b, 2.0)
        assert cert.same_side_ties > n - 1
        assert calls == core_calls(n, cert.same_side_ties, n - 1)
        ties = certificate_dict(cert, "full")["ties"]
        assert [row[:2] for row in ties] == [[i, j] for i, j, _ in g.edges if i]
        assert_tie_headroom(ties, reference_tie_headroom(g, b))

    @pytest.mark.parametrize("n", [5, 7])
    def test_headroom_below_every_tie(self, n):
        # lambda_max(M) >= max M_ee, so t* <= min t_e.  On the unit cliques
        # t_e = n / 2 - 1 and t* = 1 / (n - 1): every tie alone leaves the
        # flow polarizing (t_e > 1) while all of them together make it
        # diverge (t* < 1), so t_e > 1 proves nothing
        g, b = _all_negative_clique(n, spread=0.0)
        cert = certify(g, b, 2.0)
        assert cert.verdict is Verdict.DIVERGENCE
        assert np.allclose(cert.tie_headroom, n / 2.0 - 1.0, rtol=1e-13, atol=0.0)
        assert abs(cert.antagonism_headroom - 1.0 / (n - 1)) <= 1e-13
        for spread in (0.0, 1.0):
            cert = certify(*_all_negative_clique(n, spread), 2.0)
            assert cert.antagonism_headroom <= min(cert.tie_headroom)

    def test_one_tie_is_the_headroom(self, allneg_triangle, allneg_split,
                                     unstable_triangle):
        # with one same-side tie M is 1 x 1, so t_e = t*
        for g in (allneg_triangle, unstable_triangle, *_extra_zero_triangle()[:1]):
            cert = certify(g, allneg_split, 2.0)
            assert cert.tie_headroom.tolist() == [cert.antagonism_headroom]

    def test_infinite_tie_headroom_is_null(self):
        # a tie 1e-320 of the others: its M_ee is subnormal, 1 / M_ee
        # overflows with no warning, and the document prints null
        g = SignedGraph(4, [(0, 1, -1e-320), (1, 2, -1.0), (0, 3, -1.0), (1, 3, -1.0),
                            (2, 3, -1.0)])
        b = Bipartition(4, frozenset({0, 1, 2}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify(g, b, 2.0)
            ties = certificate_dict(cert, "full")["ties"]
        assert cert.tie_headroom[0] == math.inf
        assert ties[0] == [0, 1, None] and ties[1][:2] == [1, 2]
        assert abs(ties[1][2] - cert.antagonism_headroom) <= 1e-12

    def test_lone_subnormal_tie_polarizes(self):
        # the only tie 1e-320 of the others: mu, M's one entry, is
        # subnormal, and the inverse iteration's shift keeps its digits,
        # so t* = 1 / mu - 1 overflows to infinity with no warning
        g = SignedGraph(3, [(0, 1, -1e-320), (0, 2, -1.0), (1, 2, -1.0)])
        b = Bipartition(3, frozenset({0, 1}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify(g, b, 2.0)
            doc = certificate_dict(cert, "full")
        assert cert.verdict is Verdict.ASYMMETRIC_POLARIZATION
        assert cert.antagonism_headroom == math.inf and cert.tie_headroom.tolist() == [math.inf]
        assert doc["antagonism_headroom"] is None and doc["ties"] == [[0, 1, None]]


class TestLanczosSteps:
    @pytest.mark.parametrize("starts", [1, 2, 3])
    def test_band_projection_and_tail(self, starts):
        # t, read from its band storage, is Q^T A Q, and A Q^T departs from
        # Q^T t only in its last columns, by the next vectors times tail;
        # the basis doubles its rows past 64 processed vectors
        rng = np.random.default_rng(starts)
        a = rng.standard_normal((90, 90))
        a = a + a.T
        size = np.linalg.norm(a, 2)
        seen = 0
        for t, tail, basis, last in spectral.lanczos_steps(
                a.__matmul__, rng.standard_normal((starts, 90)), 80):
            p = basis.shape[0]
            dense = spectral.band_matrix(t)
            assert t.shape == (p, starts + 1)
            assert np.allclose(dense, basis @ a @ basis.T, rtol=0.0, atol=1e-12 * size)
            assert np.allclose(basis @ basis.T, np.eye(p), rtol=0.0, atol=1e-12)
            residual = a @ basis.T - basis.T @ dense
            width = tail.shape[1]
            assert np.max(np.abs(residual[:, : p - width]), initial=0.0) <= 1e-12 * size
            assert abs(np.linalg.norm(residual[:, p - width:]) - np.linalg.norm(tail)) <= (
                1e-12 * size)
            seen += 1
        assert seen == 80 and last  # the cap ends the run

    def test_band_matrix_leaves_out_what_passes_the_corner(self):
        band = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.array_equal(spectral.band_matrix(band), [[1.0, 2.0], [2.0, 4.0]])
