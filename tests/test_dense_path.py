"""The dense path: each n x n stage holds one copy of its matrix, checks it
by row blocks in the order of its errors, and refuses a graph above the
node cap before any n x n array exists."""

import tracemalloc

import numpy as np
import pytest

import gqsbnet.signed_graph
from gqsbnet import (
    Bipartition,
    NoConvergence,
    NotSymmetric,
    ScenarioConfig,
    TooLarge,
    bipartition_from_dominant,
    certify,
    classify,
    clear_partner_cache,
    enumerate_gqsb_bipartitions,
    generalized_laplacian,
    load_highland,
    opposing_laplacian,
    partner_core,
    repelling_laplacian,
    sym_eigen,
    sym_eigvals,
)
from gqsbnet.cli import main
from gqsbnet.operators import _blocks, _checked_symmetric, _partner
from support import dense_two_bloc, random_bloc_graph, reference_grounded_gram


@pytest.fixture(scope="module")
def bloc400():
    return dense_two_bloc()


def _peak(fn, n=400) -> float:
    """The traced peak while ``fn`` runs, above what was traced before,
    in n x n float64 arrays."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peak / (8.0 * n * n)


class TestPeaks:
    """Traced peaks on the seeded n = 400 two-bloc graph.  numpy's LAPACK
    buffers are not traced, so what is counted is the package's own
    arrays: the kept Laplacian, the eigenvectors, L_abs and its Cholesky
    factor, the tie Laplacian and M, and row or column blocks of about
    n/16.  The copies these bounds rule out each cost a whole n x n."""

    def test_graph_is_polarizing(self, bloc400):
        g, b = bloc400
        clear_partner_cache(g)
        assert certify(g, b, 2.0).decided_by == "headroom"

    def test_partner_build_holds_one_laplacian(self, bloc400):
        g, b = bloc400
        clear_partner_cache(g)
        assert _peak(lambda: _partner(g, b).laplacian) < 1.25

    def test_eigenvalues_copy_nothing(self, bloc400):
        g, b = bloc400
        clear_partner_cache(g)
        partner = _partner(g, b)
        partner.laplacian
        assert _peak(lambda: sym_eigvals(partner.laplacian)) < 0.25

    def test_eigen_holds_only_its_vectors(self, bloc400):
        g, b = bloc400
        clear_partner_cache(g)
        partner = _partner(g, b)
        partner.laplacian
        assert _peak(lambda: partner.eigen) < 1.5

    def test_core_holds_one_grounded_copy(self, bloc400):
        # 598 same-side ties on 400 nodes: L_abs, built over the adjacency,
        # beside its factor, then the factor, M and the right-hand sides of
        # two chunks of ties, 399 and 199 columns
        g, b = bloc400
        clear_partner_cache(g)
        _partner(g, b).laplacian
        assert _peak(lambda: partner_core(g, b)) < 3.75

    def test_cold_core_holds_one_grounded_copy(self, bloc400):
        # the partner Laplacian is not built: a core reads the graph's own
        # adjacency
        g, b = bloc400
        clear_partner_cache(g)
        assert _peak(lambda: partner_core(g, b)) < 3.75
        assert "laplacian" not in vars(_partner(g, b))

    def test_bundle_adjacency_holds_one_array(self, bloc400):
        g, b = bloc400
        bundle = generalized_laplacian(g, b, 2.7)
        assert _peak(lambda: bundle.adjacency) < 1.25

    def test_bundle_laplacian_holds_one_array(self, bloc400):
        g, b = bloc400
        bundle = generalized_laplacian(g, b, 2.7)
        bundle.adjacency, bundle.degree
        assert _peak(lambda: bundle.laplacian) < 1.25


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestSameBits:
    @pytest.mark.parametrize("seed", range(4))
    def test_laplacians_match_the_difference(self, seed):
        g, _ = random_bloc_graph(np.random.default_rng(seed), 70, 3)
        a = g.adjacency()
        assert np.array_equal(_bits(repelling_laplacian(g)), _bits(np.diag(a.sum(axis=1)) - a))
        assert np.array_equal(_bits(opposing_laplacian(g)),
                              _bits(np.diag(np.abs(a).sum(axis=1)) - a))

    @pytest.mark.parametrize("seed", range(4))
    def test_bundle_matches_the_product_and_difference(self, seed):
        # the adjacency scaled in place and the Laplacian built from 0 - a
        # keep the bits of the expressions they replace
        g, labels = random_bloc_graph(np.random.default_rng(seed), 70, 2, intra_neg=0.4)
        b = Bipartition(g.n, frozenset(np.flatnonzero(labels == 0)))
        for gamma in (1.0, 1.0 / 3.0, 2.7, 1e-5, 7e4):
            bundle = generalized_laplacian(g, b, gamma)
            scale = bundle.scale_gauge
            want = scale[:, None] * g.adjacency() / scale[None, :]
            assert np.array_equal(_bits(bundle.adjacency), _bits(want))
            want = np.diag(bundle.degree) - bundle.adjacency
            assert np.array_equal(_bits(bundle.laplacian), _bits(want))

    def test_no_negative_zero_off_the_edges(self, bloc400):
        g, b = bloc400
        clear_partner_cache(g)
        lap = _partner(g, b).laplacian
        assert not np.signbit(lap[lap == 0.0]).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_grounded_gram_matches_reference(self, seed):
        # the blocked forward substitution against one solve on the whole
        # factor: another order of operations, so within rounding, not bits;
        # 90 nodes give two panels.  With two blocs the ties are fewer than
        # the nodes; with three, blocs 1 and 2 share a side and their
        # antagonism outnumbers the nodes, so the core takes C^-1 L_A C^-T
        rng = np.random.default_rng(seed)
        g, labels = random_bloc_graph(rng, 90, 2 + seed // 2, intra_neg=0.1)
        b = Bipartition(g.n, frozenset(np.flatnonzero(labels == 0)))
        m = reference_grounded_gram(g, b)
        assert 0 < m.shape[0] and (m.shape[0] < g.n) == (seed < 2)
        want = 1.0 / np.linalg.eigvalsh(m)[-1] - 1.0
        assert abs(partner_core(g, b).headroom - want) <= 1e-12 * want

    def test_exactly_symmetric_input_is_returned_itself(self):
        m = np.random.default_rng(3).standard_normal((70, 70))
        m = m + m.T
        sym, scale = _checked_symmetric(m)
        assert sym is m
        assert np.array_equal(_bits(sym), _bits((m + m.T) / 2.0))
        assert scale == np.max(np.abs(m))

    def test_signed_zero_pair_is_symmetrized(self):
        m = np.zeros((3, 3))
        m[0, 1] = -0.0
        sym, _ = _checked_symmetric(m)
        assert sym is not m
        assert np.array_equal(_bits(sym), _bits((m + m.T) / 2.0))

    def test_input_left_unwritten(self):
        m = np.random.default_rng(5).standard_normal((40, 40))
        m = m + m.T
        m.setflags(write=False)
        before = m.copy()
        sym_eigvals(m)
        sym_eigen(m)
        assert np.array_equal(_bits(m), _bits(before))


# n = 100 gives row blocks of 32: the last block holds rows 96 to 99
N = 100


def _symmetric():
    m = np.random.default_rng(11).uniform(-1.0, 1.0, (N, N))
    return m + m.T


def _overflow_row(m, r):
    """Make twice row r's absolute sum overflow, and no other row's."""
    others = [k for k in range(N) if k != r][-2:]
    for k in others:
        m[r, k] = m[k, r] = 5e307


def test_blocks_cover_in_order():
    blocks = _blocks(N)
    assert len(blocks) > 1 and blocks[-1].start == 96
    rows = np.concatenate([np.arange(N)[block] for block in blocks])
    assert np.array_equal(rows, np.arange(N))


@pytest.mark.parametrize("solver", [sym_eigvals, sym_eigen])
class TestLastBlock:
    """A bad entry only in the last row or column block is found, and each
    check still comes before the next: finite, then row sums, then
    symmetry."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(N - 1, 3), (3, N - 1), (N - 1, N - 1)])
    def test_non_finite(self, solver, bad, at):
        m = _symmetric()
        m[at] = bad
        with pytest.raises(NotSymmetric, match="^matrix has a NaN or infinite entry$"):
            solver(m)

    def test_non_finite_before_an_earlier_overflowing_row(self, solver):
        m = _symmetric()
        _overflow_row(m, 0)
        m[N - 1, 3] = np.nan
        with pytest.raises(NotSymmetric, match="NaN or infinite"):
            solver(m)

    def test_overflowing_last_row(self, solver):
        m = _symmetric()
        _overflow_row(m, N - 1)
        with pytest.raises(TooLarge, match=f"^entries too large: twice the absolute sum "
                                           f"of row {N - 1} is not finite$"):
            solver(m)

    def test_overflow_before_an_earlier_asymmetry(self, solver):
        m = _symmetric()
        _overflow_row(m, N - 1)
        m[0, 1] += 1.0
        with pytest.raises(TooLarge, match=f"row {N - 1}"):
            solver(m)

    @pytest.mark.parametrize("at", [(N - 1, 3), (3, N - 1), (N - 2, N - 1)])
    def test_asymmetry(self, solver, at):
        m = _symmetric()
        m[at] += 1e-6
        with pytest.raises(NotSymmetric, match="^matrix is not symmetric within 1e-12 relative$"):
            solver(m)


def test_nan_residual_in_last_block(monkeypatch):
    eigh = np.linalg.eigh

    def poisoned(a, *args, **kwargs):
        values, vectors = eigh(a, *args, **kwargs)
        vectors[:, -1] = np.nan
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", poisoned)
    with pytest.raises(NoConvergence, match="residual"):
        sym_eigen(_symmetric())


@pytest.fixture
def capped(monkeypatch):
    """Lower the dense node cap to 15 nodes: the bundled network's 16 are
    then one too many."""
    monkeypatch.setattr(gqsbnet.signed_graph, "_DENSE_CAP", 15)


class TestDenseCap:
    def test_cap_admits_the_benchmark_sizes(self):
        assert gqsbnet.signed_graph._DENSE_CAP >= 2000

    def test_refused_before_the_array(self, monkeypatch):
        g, _ = random_bloc_graph(np.random.default_rng(1), 300, 2)
        monkeypatch.setattr(gqsbnet.signed_graph, "_DENSE_CAP", g.n - 1)

        def refused():
            with pytest.raises(TooLarge, match=f"^dense matrices capped at {g.n - 1} "
                                               f"nodes, got {g.n}$"):
                g.adjacency()

        assert _peak(refused, g.n) < 0.1
        monkeypatch.setattr(gqsbnet.signed_graph, "_DENSE_CAP", g.n)
        assert g.adjacency().shape == (g.n, g.n)

    def test_every_dense_stage_refuses(self, capped):
        g = load_highland(ScenarioConfig("highland", (0,)))
        for build in (repelling_laplacian, opposing_laplacian):
            with pytest.raises(TooLarge, match="dense matrices capped at 15 nodes"):
                build(g)
        with pytest.raises(TooLarge, match="dense matrices capped"):
            certify(g, bipartition_from_dominant(g, (0,)), 2.0)

    def test_graph_stages_pass_above_the_cap(self, capped):
        g = load_highland(ScenarioConfig("highland", (0,)))
        assert classify(g) == "GQSB"
        assert len(enumerate_gqsb_bipartitions(g)) == 3

    def test_cli(self, capped, capsys):
        for argv in (["classify", "--network", "highland"],
                     ["bipartitions", "--network", "highland"]):
            assert main(argv) == 0
            assert capsys.readouterr().err == ""
        for argv in (["certify", "--network", "highland", "--dominant", "0"],
                     ["spectrum", "--network", "highland"],
                     ["report", "--network", "highland", "--dominant", "0", "--dt", "0.01"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: dense matrices capped at 15 nodes, got 16\n"
