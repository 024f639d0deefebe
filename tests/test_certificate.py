"""The certificate documents: schema 3 by default, the full form (the
same document with each same-side tie's own headroom and the null
vectors) on request."""

import dataclasses
import math

import numpy as np
import pytest

from gqsbnet import (
    Bipartition,
    PolarizationCertificate,
    ScenarioConfig,
    SignedGraph,
    Verdict,
    bipartition_from_dominant,
    certify,
    generalized_laplacian,
    load_highland,
    partner_core,
    sym_eigvals,
)
from gqsbnet import spectral
from gqsbnet.spectral import HEADROOM_TOL
from gqsbnet.fileio import (
    certificate_dict,
    render_json,
    report_dict,
    report_to_json,
    run_sweep,
)
from support import (assert_matches_reference, partner_forest_gram, reference_certificate_dict,
                     reference_certify)

SCHEMA_KEYS = [
    "schema", "gamma", "verdict", "decided_by", "connected", "antagonism_headroom",
    "headroom_tol", "same_side_ties",
]

# Nodes 0, 1 against 2, 3 around a cycle: balanced, nothing antagonistic
# within a side, so the partner network has no antagonistic forest.
BALANCED_CYCLE = SignedGraph.from_edge_list(
    4, [(0, 1, 1.0), (2, 3, 1.0), (0, 3, -1.0), (1, 2, -1.0)])
CYCLE_SPLIT = Bipartition(4, frozenset({0, 1}))


def _doc(g, b, gamma):
    cert = certify(g, b, gamma)
    doc = certificate_dict(cert)
    assert list(doc) == SCHEMA_KEYS
    assert doc["schema"] == 3
    assert doc["verdict"] == cert.verdict.value
    assert doc["gamma"] == gamma
    t = cert.antagonism_headroom
    assert doc["antagonism_headroom"] == (t if t is not None and t < math.inf else None)
    assert doc["headroom_tol"] == spectral.HEADROOM_TOL
    assert doc["same_side_ties"] == cert.same_side_ties
    return doc


def _with_headroom(monkeypatch, g, b, headroom):
    """Make ``certify`` read the core of (g, b) with another headroom."""
    core = dataclasses.replace(partner_core(g, b), headroom=headroom)
    monkeypatch.setattr(spectral, "partner_core", lambda g, b: core)


class TestDecidedBy:
    def test_resistance_pd_polarizes(self, allneg_triangle, allneg_split):
        # the one same-side tie has weight 1 and resistance 2 through the
        # partner, so t* = 1 + 1 / (1 * 2)
        doc = _doc(allneg_triangle, allneg_split, 2.0)
        assert doc["verdict"] == "AsymmetricPolarization"
        assert doc["decided_by"] == "headroom"
        assert doc["connected"] is True
        assert doc["antagonism_headroom"] == pytest.approx(1.5, rel=1e-14)
        assert doc["same_side_ties"] == 1
        full = certificate_dict(certify(allneg_triangle, allneg_split, 2.0), "full")
        assert full["ties"] == [[0, 1, pytest.approx(1.5, rel=1e-14)]]
        forest, gram = partner_forest_gram(allneg_triangle, allneg_split)
        assert forest == ((0, 1, -1.0),) and float(sym_eigvals(gram)[0]) == pytest.approx(2.0)

    def test_negative_eigenvalue(self, unstable_triangle, allneg_split):
        doc = _doc(unstable_triangle, allneg_split, 2.0)
        assert (doc["verdict"], doc["decided_by"]) == ("Divergence", "headroom")
        assert doc["antagonism_headroom"] == pytest.approx(0.1, rel=1e-14)
        full = certificate_dict(certify(unstable_triangle, allneg_split, 2.0), "full")
        assert full["ties"] == [[0, 1, pytest.approx(0.1, rel=1e-14)]]
        spectrum = generalized_laplacian(unstable_triangle, allneg_split, 2.0).partner.eigenvalues
        gram = partner_forest_gram(unstable_triangle, allneg_split)[1]
        assert spectrum[0] < 0 and sym_eigvals(gram)[0] < 0

    def test_connectivity(self):
        g = SignedGraph.from_edge_list(4, [(0, 1, -1.0), (2, 3, -1.0)])
        doc = _doc(g, Bipartition(4, frozenset({0, 2})), 2.0)
        assert (doc["verdict"], doc["decided_by"]) == ("Inconclusive", "connectivity")
        assert doc["connected"] is False
        assert doc["antagonism_headroom"] is None

    def test_zero_multiplicity_above_one(self):
        # the antagonistic tie (0, 1) exactly cancels the path 0-2-1 in the
        # partner network, so (1, -1, 0) joins the all-ones null vector:
        # t* = 1, inside the band
        g = SignedGraph.from_edge_list(3, [(0, 1, -0.5), (0, 2, -1.0), (1, 2, -1.0)])
        b = Bipartition(3, frozenset({0, 1}))
        doc = _doc(g, b, 2.0)
        assert (doc["verdict"], doc["decided_by"]) == ("Inconclusive", "headroom")
        assert abs(doc["antagonism_headroom"] - 1.0) <= 1e-15
        assert generalized_laplacian(g, b, 2.0).partner.zero_count == 2

    def test_resistance_gram_not_positive_definite(self, allneg_triangle, allneg_split,
                                                   monkeypatch):
        # a Gram that is not positive definite is a headroom at most 1; the
        # band's edges, given to the kept core
        tol = spectral.HEADROOM_TOL
        for t, want in ((1.0 - 2.0 * tol, "Divergence"), (1.0 - tol / 2.0, "Inconclusive"),
                        (1.0, "Inconclusive"), (1.0 + tol / 2.0, "Inconclusive"),
                        (1.0 + 2.0 * tol, "AsymmetricPolarization")):
            _with_headroom(monkeypatch, allneg_triangle, allneg_split, t)
            doc = _doc(allneg_triangle, allneg_split, 2.0)
            assert (doc["verdict"], doc["decided_by"]) == (want, "headroom"), t
            assert doc["antagonism_headroom"] == t

    def test_plain_split_and_empty_forest(self, sb_triangle):
        b = Bipartition(3, frozenset({0, 1}))
        doc = _doc(sb_triangle, b, 1.0)
        assert (doc["verdict"], doc["decided_by"]) == ("Consensus", "plain_split")
        assert doc["same_side_ties"] == 0
        assert doc["antagonism_headroom"] is None
        assert render_json(doc).endswith('"same_side_ties": 0\n}')
        assert certify(sb_triangle, b, 1.0).antagonism_headroom == math.inf
        full = certificate_dict(certify(sb_triangle, b, 1.0), "full")
        assert full["ties"] == [] and partner_forest_gram(sb_triangle, b)[0] == ()

    def test_no_factor_is_inconclusive(self, allneg_triangle, allneg_split, monkeypatch):
        # a connected network whose grounded L_abs has no Cholesky factor in
        # double precision has no headroom; give a core none
        _with_headroom(monkeypatch, allneg_triangle, allneg_split, None)
        doc = _doc(allneg_triangle, allneg_split, 2.0)
        assert (doc["verdict"], doc["decided_by"]) == ("Inconclusive", "headroom")
        assert doc["connected"] is True and doc["antagonism_headroom"] is None

    def test_unit_coefficient_is_an_exact_compare(self):
        # the plain split needs gamma == 1.0 exactly; the nearest
        # coefficients above and below already scale it
        assert _doc(BALANCED_CYCLE, CYCLE_SPLIT, 1.0)["decided_by"] == "plain_split"
        for gamma in (1.0 + 1e-15, np.nextafter(1.0, 0.0)):
            doc = _doc(BALANCED_CYCLE, CYCLE_SPLIT, float(gamma))
            assert doc["verdict"] == "AsymmetricPolarization"
            assert doc["decided_by"] == "headroom"
            assert doc["same_side_ties"] == 0


class TestDocuments:
    def test_short_spectrum_and_hand_built_certificate(self):
        # a certificate built by hand: an infinite or absent headroom is null
        for headroom, printed in ((None, None), (math.inf, None), (0.5, 0.5)):
            cert = PolarizationCertificate(
                connected=True, gamma=2.0, verdict=Verdict.INCONCLUSIVE,
                null_right=np.zeros(0), null_left=np.zeros(0), antagonism_headroom=headroom)
            doc = certificate_dict(cert)
            assert list(doc) == SCHEMA_KEYS
            assert doc["antagonism_headroom"] == printed
            assert doc["decided_by"] is None and doc["same_side_ties"] == 0
            assert doc["headroom_tol"] == HEADROOM_TOL
            # the full document reads only the certificate: no ties
            full = certificate_dict(cert, "full")
            assert full == {**doc, "ties": [], "null_right": [], "null_left": []}

    def test_unknown_detail_refused(self, allneg_triangle, allneg_split):
        cert = certify(allneg_triangle, allneg_split, 2.0)
        with pytest.raises(ValueError, match="summary, full"):
            certificate_dict(cert, "matrices")

    def test_full_highland_reports_match_reference(self):
        config = ScenarioConfig("highland", (0,), dt=0.002, seed=4)
        g = load_highland(config)
        b = bipartition_from_dominant(g, (0,))
        gammas = (1.5, 2.0, 3.0)
        for gamma, report in zip(gammas, run_sweep(config, gammas)):
            cert = report.certificate
            assert cert.gamma == gamma
            assert_matches_reference(cert, reference_certify(g, b, gamma))
            full = certificate_dict(cert, detail="full")
            assert render_json(full) == render_json(reference_certificate_dict(cert))
            # the whole report at full detail is the summary report with the
            # full certificate document in place
            doc = report_dict(report)
            assert doc["certificate"] == certificate_dict(cert)
            doc["certificate"] = reference_certificate_dict(cert)
            assert report_to_json(report, detail="full") == render_json(doc) + "\n"
