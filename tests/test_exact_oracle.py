"""Verdicts against exact arithmetic on small networks.

Every other oracle is LAPACK against LAPACK.  Here the partner Laplacian
of a seeded draw with at most 7 nodes is taken as the rational matrix its
float weights are, and its inertia is read from its characteristic
polynomial (``support.exact_charpoly``, Faddeev-LeVerrier in
``fractions.Fraction``) by Descartes' rule of signs, which is exact for a
real-rooted polynomial.  So:

- with integer weights, ``certify`` gives the exact verdict;
- with weights spread over 1e-5..1e6, a definite verdict never contradicts
  the exact inertia, and an Inconclusive by ``headroom`` has its exact
  headroom within the band: the same-side ties scaled by 1 - 2 tol leave
  the partner positive semidefinite and by 1 + 2 tol make it indefinite,
  tol being the certificate's ``headroom_tol``; some draws are scaled
  into the band so that this check runs;
- on every connected draw, the forest Gram is positive definite exactly
  when the partner Laplacian is positive semidefinite with a simple zero,
  the paper's equivalence, both in exact arithmetic.

Each draw is certified cold and after the partner's eigendecomposition
was read, as ``report`` reads it for a flowing verdict.
"""

import numpy as np
import pytest

from gqsbnet import (Bipartition, SignedGraph, Verdict, certify, generalized_laplacian,
                     partner_network, spanning_forest)
from gqsbnet.spectral import HEADROOM_TOL
from support import (
    exact_charpoly,
    exact_gram_positive_definite,
    exact_inertia,
    exact_partner_laplacian,
    exact_verdict,
    reference_components,
)

POLAR, DIVERGE, INCONCLUSIVE = (Verdict.ASYMMETRIC_POLARIZATION, Verdict.DIVERGENCE,
                                Verdict.INCONCLUSIVE)


def _integer(rng):
    return float(rng.integers(1, 6))


def _spread(rng):
    return float(10.0 ** rng.uniform(-5.0, 6.0))


def _draws(seed, count, weight):
    """Seeded GQSB networks of 2 to 7 nodes on a random split: every tie
    across it antagonistic, a tie within it antagonistic at 40 % odds,
    magnitudes from ``weight``; some draws are disconnected."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 8))
        side = rng.permutation(n) < int(rng.integers(1, n))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    w = weight(rng)
                    if side[i] != side[j] or rng.random() < 0.4:
                        w = -w
                    edges.append((i, j, w))
        yield (SignedGraph.from_edge_list(n, edges),
               Bipartition(n, frozenset(np.flatnonzero(side).tolist())))


def _certificates(g, b):
    """The certificate at coefficient 2 on a cold graph and on an equal
    graph whose partner eigendecomposition was read first."""
    cold = certify(g, b, 2.0)
    fresh = SignedGraph.from_arrays(g.n, g.i, g.j, g.w)
    generalized_laplacian(fresh, b, 2.0).partner
    return cold, certify(fresh, b, 2.0)


def _scaled(g, b, t):
    """``g`` with its same-side antagonistic ties scaled by ``t``."""
    side = b.mask()
    tie = (g.w < 0) & (side[g.i] == side[g.j])
    return g.reweighted(np.where(tie, g.w * t, g.w))


def _exact_inertia_at(g, b, t):
    """The exact inertia of the partner Laplacian of ``g`` with its
    same-side antagonistic ties scaled by ``t``."""
    return exact_inertia(exact_charpoly(exact_partner_laplacian(_scaled(g, b, t), b)))


def _near_the_band(draws, count):
    """Each draw, and after each of the first ``count`` whose headroom t*
    is within 1e+-6 (scaling by it keeps every weight nonzero), that draw with its same-side ties scaled by t* (1 -+ tol/2),
    whose headroom is 1 +- tol/2 up to t*'s rounding: inside the band."""
    for g, b in draws:
        yield g, b
        t = certify(g, b, 2.0).antagonism_headroom
        if count and t is not None and 1e-6 < t < 1e6:
            count -= 1
            for s in (1.0 - HEADROOM_TOL / 2.0, 1.0 + HEADROOM_TOL / 2.0):
                yield _scaled(g, b, t * s), b


def test_integer_weights_give_the_exact_verdict():
    seen = set()
    for g, b in _draws(11, 150, _integer):
        want = exact_verdict(g, b)
        for cert in _certificates(g, b):
            assert cert.verdict is want
        seen.add(want)
    assert seen == {POLAR, DIVERGE, INCONCLUSIVE}


def test_spread_weights_never_contradict_the_exact_inertia():
    # each branch is reached, the band's own check too
    decided = {POLAR: 0, DIVERGE: 0, "connectivity": 0, "headroom": 0}
    for g, b in _near_the_band(_draws(12, 250, _spread), 10):
        c = exact_charpoly(exact_partner_laplacian(g, b))
        neg, zero, _ = exact_inertia(c)
        for cert in _certificates(g, b):
            if cert.verdict is DIVERGE:
                assert neg > 0
            elif cert.verdict is POLAR:
                assert (neg, zero, cert.connected) == (0, 1, True)
            elif cert.decided_by == "headroom":
                tol = cert.headroom_tol
                assert _exact_inertia_at(g, b, 1.0 - 2.0 * tol)[0] == 0
                assert _exact_inertia_at(g, b, 1.0 + 2.0 * tol)[0] > 0
            key = cert.decided_by if cert.verdict is INCONCLUSIVE else cert.verdict
            if key in decided:
                decided[key] += 1
    assert all(decided.values()), decided


@pytest.mark.parametrize("seed, weight", [(13, _integer), (14, _spread)])
def test_gram_criterion_is_the_spectral_one(seed, weight):
    checked = 0
    for g, b in _draws(seed, 80, weight):
        if len(reference_components(g.n, g.edges)) > 1:
            continue
        lap = exact_partner_laplacian(g, b)
        neg, zero, _ = exact_inertia(exact_charpoly(lap))
        forest = spanning_forest(partner_network(g, b)).forest_edges
        assert bool(exact_gram_positive_definite(lap, forest)) == (neg == 0 and zero == 1)
        checked += 1
    assert checked >= 40
