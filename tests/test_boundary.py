"""Verdicts at a known distance from the boundary between polarization and
divergence.

Scaling every same-side antagonistic tie by t keeps the flow polarizing
for t < t* and makes it diverge for t > t*, where t* is the antagonism
headroom of ``support.reference_headroom`` (numpy's LU solve of the
partner's grounded cooperative Laplacian, a route ``certify`` does not
take).  So a network scaled to t*(1 - d) has headroom 1/(1 - d) and
polarizes, and one scaled to t*(1 + d) has headroom 1/(1 + d) and
diverges.  ``certify`` must say so outside its Inconclusive band, and
inside the band it must never say the opposite.  Each case is certified
on a cold graph and after the partner's eigendecomposition was read,
directly and through a bundle, which a certificate does not read, so all
three agree.

The band is |t* - 1| <= the certificate's ``headroom_tol``, the larger
of ``HEADROOM_TOL`` = 2e-9 and a bound on t*'s rounding error; on these
networks the bound is below 1e-12 and the floor decides.  On this corpus, its
scaled (1e+-6, 1e+-300) and relabelled variants, at every d below and at
d = 0, the Cholesky route's t* is within 2.3e-14 relative of the
reference's, so the band is about 1e5 times the error measured here; it
is set between the d = 1e-9 and 1e-8 rows so the check below sees both
sides of it.  d = 1e-3 to 1e-8 are definite and right on all 7 networks,
and d = 1e-9 is Inconclusive on all of them, in every variant.

A weak cooperative bridge between two networks carries no antagonism,
and a cut edge changes no resistance within either side of it, so t* is
the smaller of the two networks' headrooms whatever the bridge's weight.
The rule pinned below: with a bridge of eps times the largest weight, eps
from 1e-3 to 1e-13, the verdict is definite and t* is within 1e-12 of
that smaller headroom and of ``reference_headroom``, whose grounded solve
keeps the bridge's digits; from 1e-14 to 1e-17 the same holds or the
grounded L_abs has no Cholesky factor in double precision, and then the
verdict is Inconclusive with no headroom, never a wrong definite one.
No tie crosses such a bridge, so the band stays at its floor.

A same-side antagonistic tie across a weak cut is different: L_abs's
diagonal sums the cut's conductance beside the strong ties, so rounding
loses it to about 1e-16 of them, and t* as much relative to the cut.
``_crossed`` builds such networks with a known exact headroom of 1 +-
1e-8, 1e-6 and 1e-4, and the band must cover t*'s error there.
"""

from fractions import Fraction

import numpy as np
import pytest

from gqsbnet import (
    Bipartition,
    ScenarioConfig,
    SignedGraph,
    Verdict,
    certify,
    enumerate_gqsb_bipartitions,
    generalized_laplacian,
    load_highland,
)
from gqsbnet.operators import _partner
from gqsbnet.spectral import HEADROOM_TOL
from support import _exact_solve, random_bloc_graph, reference_headroom

DEFINITE = (1e-3, 1e-5)
BAND = (1e-7, 1e-8, 1e-9)
INCONCLUSIVE = Verdict.INCONCLUSIVE
POLAR, DIVERGE = Verdict.ASYMMETRIC_POLARIZATION, Verdict.DIVERGENCE


def _networks():
    """Seeded two-bloc draws, bloc 0 dominant, two with few same-side
    antagonistic ties (they polarize) and two with many (they diverge),
    and highland at each of its antagonistic splits."""
    rng = np.random.default_rng(5)
    for n, intra_extra, intra_neg in ((30, 0.3, 0.15), (60, 0.6, 0.9), (100, 0.3, 0.15),
                                      (150, 0.6, 0.9)):
        g, labels = random_bloc_graph(rng, n, 2, intra_extra, intra_neg=intra_neg)
        yield g, Bipartition(n, frozenset(np.flatnonzero(labels == 0).tolist()))
    g = load_highland(ScenarioConfig("highland", (0,)))
    for b in enumerate_gqsb_bipartitions(g):
        yield g, b


NETWORKS = [(g, b, reference_headroom(g, b)) for g, b in _networks()]


def _at(g, b, t):
    """``g`` with its same-side antagonistic ties scaled by ``t``."""
    side = b.mask()
    hostile = (side[g.i] == side[g.j]) & (g.w < 0)
    return g.reweighted(np.where(hostile, g.w * t, g.w))


def _variant(g, b, name, rng):
    if name == "relabelled":
        perm = rng.permutation(g.n)
        h = SignedGraph.from_arrays(g.n, perm[g.i], perm[g.j], g.w)
        return h, Bipartition(g.n, frozenset(int(perm[v]) for v in b.v1))
    return g.reweighted(g.w * float(name)), b


def _verdicts(g, b):
    """The verdict on a cold graph, and on equal graphs whose partner
    eigendecomposition was read first, kept or through a bundle."""
    kept, library = (SignedGraph.from_arrays(g.n, g.i, g.j, g.w) for _ in range(2))
    _partner(kept, b).eigen
    generalized_laplacian(library, b, 2.0).partner
    return [certify(h, b, 2.0).verdict for h in (g, kept, library)]


def test_corpus_straddles_the_boundary():
    headrooms = [t for _, _, t in NETWORKS]
    assert min(headrooms) < 1.0 < max(headrooms)
    for g, b, t in NETWORKS:
        assert certify(g, b, 2.0).verdict is (POLAR if t > 1.0 else DIVERGE)


@pytest.mark.parametrize("variant", ["1", "1e6", "1e-6", "relabelled"])
def test_no_definite_verdict_is_wrong(variant):
    rng = np.random.default_rng(11)
    band = []
    for g, b, t in NETWORKS:
        for d in DEFINITE + BAND:
            for sign, want, wrong in ((-1.0, POLAR, DIVERGE), (1.0, DIVERGE, POLAR)):
                h, c = _variant(_at(g, b, t * (1.0 + sign * d)), b, variant, rng)
                for got in _verdicts(h, c):
                    if d in DEFINITE:
                        assert got is want, (g.n, sign * d)
                    else:
                        assert got is not wrong, (g.n, sign * d)
                        band.append(got is Verdict.INCONCLUSIVE)
    # the band is reached on both sides, or its check proves nothing
    assert any(band) and not all(band)


def test_band_edges_on_the_corpus():
    for g, b, t in NETWORKS:
        for d in (1e-8, 1e-9):
            for sign in (-1.0, 1.0):
                h = _at(g, b, t * (1.0 + sign * d))
                want = (POLAR if sign < 0 else DIVERGE) if d > 1e-9 else INCONCLUSIVE
                assert certify(h, b, 2.0).verdict is want, (g.n, sign * d)


def _bridged(seed, eps):
    """A polarizing and a divergent two-bloc draw, the second's labels
    shifted past the first's, joined by one cooperative tie of eps times
    the largest weight between side-two nodes; and the smaller of the two
    draws' headrooms."""
    rng = np.random.default_rng(seed)
    parts = [random_bloc_graph(rng, 40, 2, extra, intra_neg=neg)
             for extra, neg in ((0.3, 0.15), (0.6, 0.9))]
    (g1, l1), (g2, l2) = parts
    top = max(np.max(np.abs(g1.w)), np.max(np.abs(g2.w)))
    a, c = int(np.flatnonzero(l1 == 1)[0]), int(np.flatnonzero(l2 == 1)[0]) + g1.n
    g = SignedGraph.from_arrays(g1.n + g2.n, np.concatenate([g1.i, g2.i + g1.n, [a]]),
                                np.concatenate([g1.j, g2.j + g1.n, [c]]),
                                np.concatenate([g1.w, g2.w, [eps * top]]))
    labels = np.concatenate([l1, l2])
    halves = min(reference_headroom(h, Bipartition(h.n, frozenset(np.flatnonzero(lab == 0))))
                 for h, lab in parts)
    return g, Bipartition(g.n, frozenset(np.flatnonzero(labels == 0).tolist())), halves


# seed 7's pair gives t* = -0.096 at eps = 1e-14 where the headroom is
# 0.656, if M is formed from L_A instead of from Z's columns
@pytest.mark.parametrize("seed", [4, 7])
def test_weak_bridge_keeps_the_headroom(seed):
    unfactored = 0
    for k in range(3, 18):
        eps = 10.0 ** -k
        g, b, halves = _bridged(seed, eps)
        cert = certify(g, b, 2.0)
        t = cert.antagonism_headroom
        assert cert.connected
        if t is None:
            assert k > 13 and (cert.verdict, cert.decided_by) == (INCONCLUSIVE, "headroom")
            unfactored += 1
            continue
        assert abs(t - halves) <= 1e-12 * halves, eps
        assert abs(t - reference_headroom(g, b)) <= 1e-12 * halves, eps
        assert cert.verdict is (POLAR if halves > 1.0 else DIVERGE)
        # no tie crosses the cut, so its rounding does not widen the band
        assert cert.headroom_tol == HEADROOM_TOL
    # the draws at 1e-15 and below reach the unfactored case, or the rule
    # for it is not checked
    assert unfactored


def _crossed(a, delta, m=8):
    """Two complete blocs of m nodes and unit weight on the dominant side,
    a node on the other side tied to the first bloc alone, and a weak cut
    between the blocs: a same-side antagonistic tie -a from node 1 to
    m + 1 beside a cooperative tie c from 2 to m + 2, c set so that the
    headroom is 1 + delta.  A complete bloc is a conductance of m/2 between
    any two of its nodes, so the cut's path through c conducts
    1 / (4/m + 1/c), and t* is that over a.  Returned with the exact
    headroom of the network as built, a Fraction: one over a times the
    tie's resistance in L_abs, by exact elimination."""
    c = float(1 / (1 / (Fraction(a) * (1 + Fraction(delta))) - Fraction(4, m)))
    pairs = [(base + p, base + q) for base in (0, m) for p in range(m) for q in range(p + 1, m)]
    edges = [(p, q, 1.0) for p, q in pairs] + [(1, m + 1, -a), (2, m + 2, c), (0, 2 * m, -1.0)]
    g = SignedGraph.from_edge_list(2 * m + 1, edges)
    lap = [[Fraction(0)] * g.n for _ in range(g.n)]
    for p, q, w in edges:
        w = abs(Fraction(w))
        lap[p][q] -= w
        lap[q][p] -= w
        lap[p][p] += w
        lap[q][q] += w
    tie = [Fraction(0)] * (g.n - 1)
    tie[0], tie[m] = Fraction(1), Fraction(-1)  # nodes 1 and m + 1, grounded at 0
    x = _exact_solve([row[1:] for row in lap[1:]], [tie])[0]
    resistance = x[0] - x[m]
    return g, Bipartition(g.n, frozenset(range(2 * m))), 1 / (Fraction(a) * resistance) - 1


# a = 2^-27, 2^-20, 2^-14: about 7e-9, 1e-6 and 6e-5 of the blocs' weight
@pytest.mark.parametrize("a", [2.0 ** -27, 2.0 ** -20, 2.0 ** -14])
def test_tie_across_a_weak_cut_widens_the_band(a):
    # L_abs's diagonal sums the blocs' weight and the cut's, so rounding
    # loses the cut to about 1e-16 of the blocs' weight, and t* as much
    # relative to a: about 1e-7 at a = 2^-27, far outside HEADROOM_TOL.
    # The band covers that error, a definite verdict is right, and a
    # headroom 1e-4 from 1 is decided at every a here
    for delta in (1e-8, -1e-8, 1e-6, -1e-6, 1e-4, -1e-4):
        g, b, exact = _crossed(a, delta)
        assert abs(exact - 1 - Fraction(delta)) <= 1e-6 * abs(delta)
        for h, c in (_variant(g, b, name, np.random.default_rng(3))
                     for name in ("1", "1e6", "1e-6", "relabelled")):
            cert = certify(h, c, 2.0)
            t, tol = cert.antagonism_headroom, cert.headroom_tol
            assert abs(Fraction(t) - exact) <= tol, (a, delta)
            if cert.verdict is INCONCLUSIVE:
                assert abs(t - 1.0) <= tol and abs(delta) < 1e-4, (a, delta)
            else:
                assert cert.verdict is (POLAR if exact > 1 else DIVERGE), (a, delta)
    # the weakest cut: the errors the band covers exceed 1e-6 there
    assert certify(*_crossed(2.0 ** -27, -1e-6)[:2], 2.0).verdict is INCONCLUSIVE
