"""Verdicts at a known distance from the boundary between polarization and
divergence.

Scaling every same-side antagonistic tie by t keeps the flow polarizing
for t < t* and makes it diverge for t > t*, where t* is the antagonism
headroom of ``support.reference_headroom`` (numpy's eigh of the partner's
cooperative Laplacian, a route ``certify`` does not take).  So a network
scaled to t*(1 - d) polarizes and one scaled to t*(1 + d) diverges.
``certify`` must say so outside its Inconclusive band, and inside the
band it must never say the opposite.  Each case is certified on a cold
graph, on the route of ``report`` and ``sweep`` (the grounded solve
first, then ``eigh`` where the Gram allows a flowing verdict), and after
the partner's eigendecomposition was read, as a library ``certify``
after ``integrate`` is.

The band today, the same in every variant and on every route, is lopsided.
On the polarizing side d = 1e-6 is definite on all 7 networks, and
Inconclusive is the verdict on 4 of them at d = 1e-7, on 6 at 1e-8 and on
all at 1e-9.  On the diverging side d = 1e-7 is definite on all, 1e-8 on
5 (highland's two divergent splits are Inconclusive), and 1e-9 on none.
Two tolerances in different units set it: 1e-9 of the spectral radius on
the partner spectrum, and 1e-9 of the Gram's largest eigenvalue on the
Gram.
"""

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
    partner_core,
)
from support import random_bloc_graph, reference_headroom

DEFINITE = (1e-3, 1e-5)
BAND = (1e-7, 1e-8, 1e-9)
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
    """The verdict on a cold graph, on an equal graph whose core was built
    for a command that integrates, and on one whose partner
    eigendecomposition was read first."""
    report, library = (SignedGraph.from_arrays(g.n, g.i, g.j, g.w) for _ in range(2))
    partner_core(report, b, integrating=True)
    generalized_laplacian(library, b, 2.0).partner
    return [certify(h, b, 2.0).verdict for h in (g, report, library)]


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
