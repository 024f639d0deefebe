"""The certificate documents: schema 2 by default, the full form on request."""

import dataclasses

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
    load_highland,
    partner_core,
)
from gqsbnet import spectral
from gqsbnet.fileio import (
    certificate_dict,
    render_json,
    report_dict,
    report_to_json,
    run_sweep,
)
from support import assert_matches_reference, reference_certificate_dict, reference_certify

SCHEMA_KEYS = [
    "schema", "gamma", "verdict", "decided_by", "connected", "lambda_min", "lambda_2",
    "zero_tol", "zero_multiplicity", "forest_size", "resistance_min_eig",
    "resistance_pd_tol",
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
    assert doc["schema"] == 2
    assert doc["verdict"] == cert.verdict.value
    assert doc["gamma"] == gamma
    assert doc["lambda_min"] == cert.spectrum[0]
    assert doc["lambda_2"] == cert.spectrum[1]
    assert doc["zero_multiplicity"] == cert.zero_multiplicity
    assert doc["forest_size"] == len(cert.forest_edges)
    return doc


class TestDecidedBy:
    def test_resistance_pd_polarizes(self, allneg_triangle, allneg_split):
        doc = _doc(allneg_triangle, allneg_split, 2.0)
        assert doc["verdict"] == "AsymmetricPolarization"
        assert doc["decided_by"] == "resistance_pd"
        assert doc["connected"] is True
        assert doc["zero_tol"] == pytest.approx(9e-9)
        assert doc["lambda_min"] == pytest.approx(0.0, abs=1e-12)
        assert doc["lambda_2"] == pytest.approx(1.0)
        assert doc["forest_size"] == 1
        assert doc["resistance_min_eig"] == pytest.approx(2.0)
        assert doc["resistance_pd_tol"] == pytest.approx(2e-9)

    def test_negative_eigenvalue(self, unstable_triangle, allneg_split):
        doc = _doc(unstable_triangle, allneg_split, 2.0)
        assert (doc["verdict"], doc["decided_by"]) == ("Divergence", "negative_eigenvalue")
        assert doc["lambda_min"] < -doc["zero_tol"]
        assert doc["resistance_min_eig"] < 0

    def test_connectivity(self):
        g = SignedGraph.from_edge_list(4, [(0, 1, -1.0), (2, 3, -1.0)])
        doc = _doc(g, Bipartition(4, frozenset({0, 2})), 2.0)
        assert (doc["verdict"], doc["decided_by"]) == ("Inconclusive", "connectivity")
        assert doc["connected"] is False

    def test_zero_multiplicity_above_one(self):
        # the antagonistic tie (0, 1) exactly cancels the path 0-2-1 in the
        # partner network, so (1, -1, 0) joins the all-ones null vector
        g = SignedGraph.from_edge_list(3, [(0, 1, -0.5), (0, 2, -1.0), (1, 2, -1.0)])
        doc = _doc(g, Bipartition(3, frozenset({0, 1})), 2.0)
        assert (doc["verdict"], doc["decided_by"]) == ("Inconclusive", "zero_multiplicity")
        assert doc["zero_multiplicity"] == 2
        assert abs(doc["lambda_2"]) <= doc["zero_tol"]

    def test_resistance_gram_not_positive_definite(self, allneg_triangle, allneg_split):
        # the Gram test is equivalent to the spectral one, so no network
        # reaches this branch with a simple zero; give the kept core a Gram
        # spectrum that fails it
        core = partner_core(allneg_triangle, allneg_split)
        core.__dict__["resistance_eigenvalues"] = np.array([-1.0, 4.0])
        doc = _doc(allneg_triangle, allneg_split, 2.0)
        assert (doc["verdict"], doc["decided_by"]) == ("Inconclusive", "resistance_pd")
        assert doc["zero_multiplicity"] == 1
        assert (doc["resistance_min_eig"], doc["resistance_pd_tol"]) == (-1.0, 4e-9)

    def test_plain_split_and_empty_forest(self, sb_triangle):
        doc = _doc(sb_triangle, Bipartition(3, frozenset({0, 1})), 1.0)
        assert (doc["verdict"], doc["decided_by"]) == ("Consensus", "plain_split")
        assert doc["forest_size"] == 0
        assert doc["resistance_min_eig"] is None
        assert doc["resistance_pd_tol"] is None
        assert render_json(doc).endswith('"resistance_pd_tol": null\n}')

    def test_no_zero_eigenvalue(self, allneg_triangle, allneg_split, monkeypatch):
        # zero row sums keep 0 in every partner spectrum, so give a core a
        # spectrum with none
        core = dataclasses.replace(partner_core(allneg_triangle, allneg_split),
                                   eigenvalues=np.array([1.0, 2.0, 3.0]))
        monkeypatch.setattr(spectral, "partner_core", lambda g, b: core)
        doc = _doc(allneg_triangle, allneg_split, 2.0)
        assert (doc["verdict"], doc["decided_by"]) == ("Inconclusive", "zero_multiplicity")
        assert doc["zero_multiplicity"] == 0

    def test_unit_coefficient_is_an_exact_compare(self):
        # the plain split needs gamma == 1.0 exactly; the nearest
        # coefficients above and below already scale it
        assert _doc(BALANCED_CYCLE, CYCLE_SPLIT, 1.0)["decided_by"] == "plain_split"
        for gamma in (1.0 + 1e-15, np.nextafter(1.0, 0.0)):
            doc = _doc(BALANCED_CYCLE, CYCLE_SPLIT, float(gamma))
            assert doc["verdict"] == "AsymmetricPolarization"
            assert doc["decided_by"] == "resistance_pd"
            assert doc["forest_size"] == 0


class TestDocuments:
    def test_short_spectrum_and_hand_built_certificate(self):
        for spectrum, lambdas in (((), (None, None)), ((0.5,), (0.5, None)),
                                  ((0.0, 0.5), (0.0, 0.5))):
            cert = PolarizationCertificate(
                connected=True, spectrum=spectrum, zero_multiplicity=0, gamma=2.0,
                forest_edges=(), resistance=np.zeros((0, 0)), resistance_min_eig=None,
                verdict=Verdict.INCONCLUSIVE, null_right=np.zeros(0), null_left=np.zeros(0))
            doc = certificate_dict(cert)
            assert list(doc) == SCHEMA_KEYS
            assert (doc["lambda_min"], doc["lambda_2"]) == lambdas
            assert doc["decided_by"] is None and doc["zero_tol"] is None

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
            # old certificate document in place
            doc = report_dict(report)
            assert doc["certificate"] == certificate_dict(cert)
            doc["certificate"] = reference_certificate_dict(cert)
            assert report_to_json(report, detail="full") == render_json(doc) + "\n"
