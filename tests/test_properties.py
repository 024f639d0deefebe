"""Invariances of the certificate, the flow and the edge-list format on
seeded draws.

A verdict is a claim about a linear system, so it must not depend on the
unit of the weights, on node labels or on the order of the edge file; the
flow conserves its gauge-weighted total.
"""

import math

import numpy as np
import pytest

from gqsbnet import (
    Bipartition,
    SignedGraph,
    Termination,
    TooLarge,
    Verdict,
    certify,
    dump_network,
    generalized_laplacian,
    integrate,
    loads_network,
)
from gqsbnet.fileio import certificate_dict, render_json
from support import (assert_tie_headroom, partner_forest_gram, random_gqsb_instance,
                     random_signed_graph)

DRAWS = 40


def _draws(seed):
    """Seeded (graph, bipartition, coefficient) triples; every third
    coefficient is 1, so plain splits occur."""
    rng = np.random.default_rng(seed)
    for k in range(DRAWS):
        g, b = random_gqsb_instance(rng)
        gamma = 1.0 if k % 3 == 0 else float(rng.uniform(0.3, 4.0))
        yield rng, g, b, gamma


def _same_headroom(cert, base, rtol=1e-10):
    """The same verdict, criterion, tie count and, within ``rtol``
    relative, headroom."""
    assert (cert.verdict, cert.decided_by) == (base.verdict, base.decided_by)
    assert cert.same_side_ties == base.same_side_ties
    t, want = cert.antagonism_headroom, base.antagonism_headroom
    if want is None or want == math.inf:
        assert t == want
    else:
        assert abs(t - want) <= rtol * want


def _ties(cert, relabel=None):
    """The full document's ``[i, j, t_e]`` rows, each tie's endpoints
    mapped through ``relabel`` (low first) and the rows sorted."""
    rows = certificate_dict(cert, "full")["ties"]
    if relabel is not None:
        rows = sorted([*sorted((int(relabel[i]), int(relabel[j]))), t] for i, j, t in rows)
    return rows


# t* and each tie's own headroom t_e are ratios of weights, so they have
# no unit: from 10**-300 to 10**300 the certificate is the one at scale 1
@pytest.mark.parametrize("k", [*range(-6, 7), -155, 155, -200, 200, -250, 250, -300, 300])
def test_weight_scaling(k):
    scale = 10.0 ** k
    decided = set()
    for _, g, b, gamma in _draws(101):
        base = certify(g, b, gamma)
        cert = certify(g.reweighted(g.w * scale), b, gamma)
        _same_headroom(cert, base)
        assert_tie_headroom(_ties(cert), _ties(base))
        decided.add((base.verdict, base.decided_by))
    assert {(Verdict.ASYMMETRIC_POLARIZATION, "headroom"), (Verdict.DIVERGENCE, "headroom"),
            (Verdict.CONSENSUS, "plain_split")} <= decided


def test_weight_scaling_below_the_double_range():
    # at 1e-310 the weights are subnormal: t* and every t_e keep 11 digits
    # and every draw certifies as at scale 1, in both documents, while the
    # resistances, which scale as 1/w, pass 1.8e308, so the forest Gram of
    # a draw with a forest is refused
    refused = []
    for _, g, b, gamma in _draws(101):
        base = certify(g, b, gamma)
        h = g.reweighted(g.w * 1e-310)
        cert = certify(h, b, gamma)
        _same_headroom(cert, base, 1e-11)
        assert_tie_headroom(_ties(cert), _ties(base), 1e-11)
        try:
            partner_forest_gram(h, b)
        except TooLarge:
            refused.append(base.same_side_ties)
        else:
            assert not base.same_side_ties
    assert len(refused) > DRAWS // 4 and all(refused)


def test_node_relabelling():
    for rng, g, b, gamma in _draws(102):
        perm = rng.permutation(g.n)
        h = SignedGraph.from_edge_list(g.n, [(perm[i], perm[j], w) for i, j, w in g.edges])
        c = Bipartition(g.n, frozenset(int(perm[v]) for v in b.v1))
        base = certify(g, b, gamma)
        cert = certify(h, c, gamma)
        _same_headroom(cert, base)
        # the tie rows are permuted into the canonical order, each t_e kept
        assert_tie_headroom(_ties(cert), _ties(base, perm))
        spectra = [generalized_laplacian(*pair, gamma).partner for pair in ((g, b), (h, c))]
        radius = max(abs(spectra[0].eigenvalues[0]), abs(spectra[0].eigenvalues[-1]))
        assert np.allclose(spectra[1].eigenvalues, spectra[0].eigenvalues, rtol=0.0,
                           atol=1e-9 * radius)
        assert spectra[1].zero_count == spectra[0].zero_count
        assert len(partner_forest_gram(h, c)[0]) == len(partner_forest_gram(g, b)[0])


def test_edge_order_shuffle():
    for rng, g, b, gamma in _draws(103):
        base = certify(g, b, gamma)
        edges = [(j, i, w) if rng.random() < 0.5 else (i, j, w) for i, j, w in g.edges]
        order = rng.permutation(len(edges))
        shuffled = [edges[k] for k in order]
        text = f"{g.n} {g.m}\n" + "".join(f"{i} {j} {w!r}\n" for i, j, w in shuffled)
        for h in (SignedGraph.from_edge_list(g.n, shuffled), loads_network(text)):
            assert h == g
            cert = certify(h, b, gamma)
            assert (cert.verdict, cert.decided_by) == (base.verdict, base.decided_by)
            for detail in ("summary", "full"):
                assert render_json(certificate_dict(cert, detail)) == \
                    render_json(certificate_dict(base, detail))


def test_dump_load_round_trip():
    rng = np.random.default_rng(104)
    for k in range(60):
        g = random_signed_graph(rng, int(rng.integers(0, 12)), density=float(rng.uniform()))
        # weights over the whole double range, subnormals included
        exponents = rng.uniform(-320.0, 307.0, g.m)
        g = g.reweighted(np.sign(g.w) * rng.uniform(1.0, 10.0, g.m) * 10.0 ** exponents)
        assert loads_network(dump_network(g)) == g


# A draw whose second partner eigenvalue, 9.0e-4, is 9e-5 of its spectral
# radius.  Scaled by 1e-6 it is 9e-10, under any absolute zero threshold of
# 1e-9, but still 9e-5 of the radius, so a scale-free tolerance keeps it.
SMALL_MARGIN = """7 14
0 1 -2.5712484184705526
0 3 -2.8429581168572224
0 6 -0.48661314531316346
1 2 1.9454933492410798
1 3 1.3724659815021172
1 4 1.0275952547884044
1 6 -0.21797884363137135
2 4 -0.5555260782135127
2 5 1.7681769204945283
3 4 1.5274717146325183
3 5 -1.840854862489709
3 6 1.6798253720672267
4 5 0.7240640848626667
5 6 1.2192893231212332
"""


def test_small_margin_survives_scaling():
    g = loads_network(SMALL_MARGIN)
    b = Bipartition(7, frozenset({0}))
    gamma = 0.32031417972125126
    base = certify(g, b, gamma)
    assert (base.verdict.value, base.decided_by) == ("AsymmetricPolarization", "headroom")
    cert = certify(g.reweighted(g.w * 1e-6), b, gamma)
    assert (cert.verdict, cert.decided_by) == (base.verdict, base.decided_by)


def test_gauge_weighted_total_conserved():
    # a short horizon ends at MaxTime, a long one mostly Converged; a
    # divergent certificate can also run to MaxTime with growing states
    ended = set()
    for rng, g, b, gamma in _draws(105):
        bundle = generalized_laplacian(g, b, gamma)
        gauge = bundle.coord_gauge
        x0 = rng.uniform(-1.0, 1.0, g.n) * 10.0 ** int(rng.integers(-3, 4))
        for t_max in (0.5, 100.0):
            traj = integrate(bundle, x0, t_max=t_max)
            if traj.terminated is Termination.DIVERGED:
                continue
            ended.add(traj.terminated)
            scale = np.abs(traj.states) @ np.abs(gauge)
            drift = np.abs(traj.states @ gauge - gauge @ x0)
            assert (drift <= 1e-12 * scale).all()
    assert ended == {Termination.CONVERGED, Termination.MAX_TIME}
