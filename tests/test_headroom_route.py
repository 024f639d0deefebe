"""mu = lambda_max(M) by Lanczos, proved by one shifted Cholesky factor.

``spectral._headroom`` takes M's top eigenvalue as the top Ritz value
theta of Lanczos from a sine start, and proves it: a Cholesky factor of
theta (1 + 1e-10) I - M that completes, with the factorization's rounding
inside HEADROOM_TOL / 4, bounds lambda_max(M) from above.  Where Lanczos
does not settle or the proof fails, mu comes from ``sym_eigvals`` of M,
the route the core took before the proof (the eigvalsh route).  These
cases hold the Lanczos route to that one: the same theta within 1e-14,
the same verdict and t* within 1e-13, and, on a planted miss, the
fallback's own result.
"""

import math

import numpy as np
import pytest

from gqsbnet import Bipartition, SignedGraph, Verdict, certify, clear_partner_cache
from gqsbnet import spectral
from support import (
    core_calls,
    counting_linalg,
    random_bloc_graph,
    reference_headroom,
    tie_endpoints,
    two_bloc_draw,
)
from test_boundary import _bridged, _crossed, _networks
from test_spectral import _all_negative_clique, _corpus, _hostile_clique


def _corpora():
    """The tier-1 corpora, each network with its family's name:
    ``test_spectral._corpus``, two- to four-bloc draws, the boundary
    networks, the weak cuts and weak bridges of ``test_boundary``, the
    two-bloc draws of each verdict, and two with more ties than
    endpoints."""
    for pair in _corpus():
        yield "corpus", pair
    for seed in range(4):
        for p in (2, 3, 4):
            g, labels = random_bloc_graph(np.random.default_rng(seed), 120, p, intra_neg=0.3)
            yield "blocs", (g, Bipartition(g.n, frozenset(np.flatnonzero(labels == 0).tolist())))
    for pair in _networks():
        yield "boundary", pair
    for a in (2.0 ** -27, 2.0 ** -20, 2.0 ** -14):
        for delta in (1e-8, -1e-8, 1e-4, -1e-4):
            yield "weak cut", _crossed(a, delta)[:2]
    for seed in (4, 7):
        for k in (3, 8, 13):
            yield "weak bridge", _bridged(seed, 10.0 ** -k)[:2]
    for kind in ("AsymmetricPolarization", "Divergence", "Inconclusive"):
        yield "two-bloc", two_bloc_draw(3, 120, kind)
    yield "more ties", _hostile_clique()
    yield "more ties", _all_negative_clique(7)


def _recording(monkeypatch):
    """Record, for each M the core takes a top eigenvalue of, its top
    eigenvalue by ``np.linalg.eigvalsh`` (as it is now: a call count set
    up later does not see it), the Ritz value and whether the proof
    held."""
    seen = []
    ritz, proof, eigvalsh = spectral._top_ritz, spectral._proof, np.linalg.eigvalsh

    def top_ritz(m, start):
        seen.append({"mu": float(eigvalsh(m)[-1]), "size": m.shape[0]})
        seen[-1]["theta"] = ritz(m, start)
        return seen[-1]["theta"]

    def proved(m, theta):
        factor = proof(m, theta)
        seen[-1]["proven"] = factor is not None
        return factor

    monkeypatch.setattr(spectral, "_top_ritz", top_ritz)
    monkeypatch.setattr(spectral, "_proof", proved)
    return seen


def _eigvalsh_route(monkeypatch, g, b):
    """The certificate where Lanczos never settles, so mu is
    ``sym_eigvals``'s, on a cold copy of ``g``."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_top_ritz", lambda m, start: None)
        return certify(SignedGraph.from_arrays(g.n, g.i, g.j, g.w), b, 2.0)


def test_ritz_value_is_the_top_eigenvalue(monkeypatch):
    # every M of the corpora: Lanczos settles within 1e-14 of its top
    # eigenvalue, and the proof holds
    seen = _recording(monkeypatch)
    for _, (g, b) in _corpora():
        clear_partner_cache(g)
        certify(g, b, 2.0)
    sizes = {record["size"] for record in seen}
    assert len(seen) >= 100 and min(sizes) == 1 and max(sizes) >= 100
    for record in seen:
        assert record["theta"] is not None and record["proven"], record
        assert abs(record["theta"] - record["mu"]) <= 1e-14 * record["mu"], record


def test_same_certificate_as_the_eigvalsh_route(monkeypatch):
    # the same verdict, t* within 1e-13 and the band within 1e-12, and
    # the ties' own headrooms bit for bit, which the route does not touch
    verdicts = set()
    for _, (g, b) in _corpora():
        clear_partner_cache(g)
        got, want = certify(g, b, 2.0), _eigvalsh_route(monkeypatch, g, b)
        verdicts.add(got.verdict)
        assert (got.verdict, got.decided_by) == (want.verdict, want.decided_by)
        t, u = got.antagonism_headroom, want.antagonism_headroom
        if u is None or u == math.inf:
            assert t == u
        else:
            assert abs(t - u) <= 1e-13 * u
            assert abs(got.headroom_tol - want.headroom_tol) <= 1e-12 * want.headroom_tol
        assert np.array_equal(got.tie_headroom, want.tie_headroom, equal_nan=True)
    assert verdicts == {Verdict.ASYMMETRIC_POLARIZATION, Verdict.DIVERGENCE,
                        Verdict.INCONCLUSIVE}


def test_headroom_matches_the_reference():
    # t* within 1e-12 of the LU oracle, on the corpora it reaches to that
    # accuracy: not the weak cuts, whose rounding the band covers, nor the
    # disconnected draws, where it has no value
    cases = 0
    for family, (g, b) in _corpora():
        clear_partner_cache(g)
        t = certify(g, b, 2.0).antagonism_headroom
        if t is None or t == math.inf or family == "weak cut":
            continue
        want = reference_headroom(g, b)
        assert abs(t - want) <= 1e-12 * want
        cases += 1
    assert cases >= 90


def _blind_to_the_top(monkeypatch):
    """Run Lanczos from a start orthogonal to M's top eigenvector, on M
    with that eigenpair taken out, so that rounding cannot bring it back:
    a Lanczos that misses the top eigenvalue."""
    ritz, eigh = spectral._top_ritz, np.linalg.eigh

    def top_ritz(m, start):
        values, vectors = eigh(m)
        top = vectors[:, -1]
        return ritz(m - values[-1] * np.outer(top, top), start - (top @ start) * top)

    monkeypatch.setattr(spectral, "_top_ritz", top_ritz)


def _one_step(monkeypatch):
    """Stop Lanczos after its first step, at the start's Rayleigh quotient."""
    monkeypatch.setattr(spectral, "_RITZ_TOL", math.inf)


@pytest.mark.parametrize("plant", [_blind_to_the_top, _one_step])
@pytest.mark.parametrize("kind", ["AsymmetricPolarization", "Divergence"])
def test_planted_miss_takes_the_eigvalsh_route(plant, kind, monkeypatch):
    # a Ritz value below the top eigenvalue fails the proof, so mu is
    # sym_eigvals's and the certificate is the eigvalsh route's, bit for
    # bit, after M's spectrum and one LU solve
    g, b = two_bloc_draw(3, 120, kind)
    want = _eigvalsh_route(monkeypatch, g, b)
    plant(monkeypatch)
    seen = _recording(monkeypatch)
    calls = counting_linalg(monkeypatch)
    got = certify(g, b, 2.0)
    assert len(seen) == 1 and not seen[0]["proven"]
    assert seen[0]["theta"] < seen[0]["mu"] * (1.0 - 1e-6)
    side = seen[0]["size"]
    assert calls.count(("eigvalsh", (side, side))) == calls.count(("solve", (side, side))) == 1
    for key in ("verdict", "antagonism_headroom", "headroom_tol"):
        assert getattr(got, key) == getattr(want, key), key
    assert got.verdict.value == kind


def test_unsettled_lanczos_takes_the_eigvalsh_route(monkeypatch):
    # no settling within the step cap: no proof is tried, and mu is
    # sym_eigvals's
    g, b = two_bloc_draw(3, 120, "AsymmetricPolarization")
    want = _eigvalsh_route(monkeypatch, g, b)
    monkeypatch.setattr(spectral, "_LANCZOS_STEPS", 3)
    calls = counting_linalg(monkeypatch)
    got = certify(g, b, 2.0)
    names = [name for name, _ in calls]
    assert names.count("eigvalsh") == names.count("solve") == 1
    assert [shape for name, shape in calls if name == "eigh"] == [(2, 2), (3, 3)]
    assert (got.antagonism_headroom, got.headroom_tol) == (
        want.antagonism_headroom, want.headroom_tol)


@pytest.mark.parametrize("case", ["more ties than endpoints", "one tie", "subnormal tie"])
def test_branches_proven(case, monkeypatch):
    # k > s, where M = Z Z^T; a lone tie, where M is its own top
    # eigenvalue; and a lone tie 1e-320 of the others, whose M is
    # subnormal until scaled: each proven, with the eigvalsh route's t*
    g, b = {"more ties than endpoints": _hostile_clique(),
            "one tie": (SignedGraph(3, [(0, 1, -1.0), (0, 2, -3.0), (1, 2, -3.0)]),
                        Bipartition(3, frozenset({0, 1}))),
            "subnormal tie": (SignedGraph(3, [(0, 1, -1e-320), (0, 2, -1.0), (1, 2, -1.0)]),
                              Bipartition(3, frozenset({0, 1})))}[case]
    want = _eigvalsh_route(monkeypatch, g, b)
    seen = _recording(monkeypatch)
    calls = counting_linalg(monkeypatch)
    got = certify(g, b, 2.0)
    assert len(seen) == 1 and seen[0]["proven"]
    ties = got.same_side_ties
    assert calls == core_calls(g.n, ties, tie_endpoints(g, b))
    assert got.verdict is want.verdict
    if case == "more ties than endpoints":
        assert ties > tie_endpoints(g, b)
        assert abs(got.antagonism_headroom - want.antagonism_headroom) <= (
            1e-13 * want.antagonism_headroom)
    else:  # M is 1 x 1, so theta is its entry and t* the same bits
        assert got.verdict is Verdict.ASYMMETRIC_POLARIZATION
        assert got.antagonism_headroom == want.antagonism_headroom
        assert got.tie_headroom.tolist() == [got.antagonism_headroom]
    if case == "subnormal tie":
        assert got.antagonism_headroom == math.inf
