"""Invariances of the certificate and the edge-list format on seeded draws.

A verdict is a claim about a linear system, so it must not depend on the
unit of the weights, on node labels or on the order of the edge file.
"""

import numpy as np
import pytest

from gqsbnet import (
    Bipartition,
    SignedGraph,
    certify,
    clear_partner_cache,
    dump_network,
    loads_network,
)
from gqsbnet.fileio import certificate_dict, render_json
from support import random_gqsb_instance, random_signed_graph

DRAWS = 40


def _draws(seed):
    """Seeded (graph, bipartition, coefficient) triples; every third
    coefficient is 1, so plain splits occur."""
    rng = np.random.default_rng(seed)
    for k in range(DRAWS):
        g, b = random_gqsb_instance(rng)
        gamma = 1.0 if k % 3 == 0 else float(rng.uniform(0.3, 4.0))
        yield rng, g, b, gamma


def _close(got, want, scale):
    return abs(got - want) <= 1e-9 * scale


@pytest.mark.parametrize("k", range(-6, 7))
def test_weight_scaling(k):
    scale = 10.0 ** k
    decided = set()
    for _, g, b, gamma in _draws(101):
        base = certify(g, b, gamma)
        cert = certify(g.reweighted(g.w * scale), b, gamma)
        assert (cert.verdict, cert.decided_by) == (base.verdict, base.decided_by)
        decided.add(base.decided_by)
        radius = max(abs(base.spectrum[0]), abs(base.spectrum[-1]))
        for got, want in zip(cert.spectrum[:2], base.spectrum[:2]):
            assert _close(got, want * scale, radius * scale)
        assert cert.forest_edges == tuple((i, j, w * scale) for i, j, w in base.forest_edges)
        if base.forest_edges:
            largest = base.resistance_pd_tol / 1e-9
            assert _close(cert.resistance_min_eig, base.resistance_min_eig / scale,
                          largest / scale)
    assert {"resistance_pd", "negative_eigenvalue", "plain_split"} <= decided


def test_node_relabelling():
    for rng, g, b, gamma in _draws(102):
        perm = rng.permutation(g.n)
        h = SignedGraph.from_edge_list(g.n, [(perm[i], perm[j], w) for i, j, w in g.edges])
        c = Bipartition(g.n, frozenset(int(perm[v]) for v in b.v1))
        base = certify(g, b, gamma)
        cert = certify(h, c, gamma)
        assert (cert.verdict, cert.decided_by) == (base.verdict, base.decided_by)
        radius = max(abs(base.spectrum[0]), abs(base.spectrum[-1]))
        assert np.allclose(cert.spectrum, base.spectrum, rtol=0.0, atol=1e-9 * radius)
        assert cert.zero_multiplicity == base.zero_multiplicity
        assert len(cert.forest_edges) == len(base.forest_edges)


def test_edge_order_shuffle():
    for rng, g, b, gamma in _draws(103):
        base = certify(g, b, gamma)
        edges = [(j, i, w) if rng.random() < 0.5 else (i, j, w) for i, j, w in g.edges]
        order = rng.permutation(len(edges))
        shuffled = [edges[k] for k in order]
        text = f"{g.n} {g.m}\n" + "".join(f"{i} {j} {w!r}\n" for i, j, w in shuffled)
        for h in (SignedGraph.from_edge_list(g.n, shuffled), loads_network(text)):
            assert h == g
            clear_partner_cache()
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
    assert (base.verdict.value, base.decided_by) == ("AsymmetricPolarization", "resistance_pd")
    cert = certify(g.reweighted(g.w * 1e-6), b, gamma)
    assert (cert.verdict, cert.decided_by) == (base.verdict, base.decided_by)
