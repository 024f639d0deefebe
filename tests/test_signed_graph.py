import dataclasses

import numpy as np
import pytest

from gqsbnet import (
    GQSB,
    QSB,
    SB,
    UNBALANCED,
    BadIndex,
    BadPartition,
    Bipartition,
    DuplicateEdge,
    NonFiniteWeight,
    SelfLoop,
    SignedGraph,
    TooLarge,
    ZeroWeight,
    bipartition_from_dominant,
    chromatic_number,
    classify,
    condense_positive_components,
    connected_components,
    enumerate_gqsb_bipartitions,
    incidence_matrix,
    is_qsb,
    is_structurally_balanced,
    neighbor_sets,
    positive_components,
    spanning_forest,
    subgraph_by_sign,
    validate_gqsb,
)
from support import (
    random_bloc_graph,
    random_signed_graph,
    reference_condense,
    reference_neighbor_sets,
    scan_gqsb,
    scan_gqsb_count_fast,
    scan_qsb,
    scan_sb,
    brute_chromatic,
)


class TestSignedGraph:
    def test_canonical_form(self, sb_triangle):
        messy = SignedGraph.from_edge_list(3, [(2, 0, -3), (1, 0, 1), (1, 2, -3.0)])
        assert messy == sb_triangle
        assert messy.edges == ((0, 1, 1.0), (0, 2, -3.0), (1, 2, -3.0))
        assert messy.m == 3

    def test_frozen(self, sb_triangle):
        with pytest.raises(dataclasses.FrozenInstanceError):
            sb_triangle.n = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del sb_triangle.n

    def test_equality_with_itself_and_other_types(self, sb_triangle):
        assert sb_triangle == sb_triangle
        assert (sb_triangle == "x") is False
        assert sb_triangle.__eq__("x") is NotImplemented

    def test_adjacency(self, sb_triangle):
        a = sb_triangle.adjacency()
        expect = np.array([[0.0, 1.0, -3.0], [1.0, 0.0, -3.0], [-3.0, -3.0, 0.0]])
        assert np.array_equal(a, expect)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            SignedGraph.from_edge_list(2, [(1, 1, 1.0)])

    def test_duplicate_rejected_even_reversed(self):
        with pytest.raises(DuplicateEdge):
            SignedGraph.from_edge_list(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(BadIndex):
            SignedGraph.from_edge_list(2, [(0, 2, 1.0)])
        with pytest.raises(BadIndex):
            SignedGraph.from_edge_list(2, [(-1, 1, 1.0)])

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeight):
            SignedGraph.from_edge_list(2, [(0, 1, 0.0)])

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(NonFiniteWeight):
            SignedGraph.from_edge_list(2, [(0, 1, weight)])

    def test_negative_node_count_rejected(self):
        with pytest.raises(BadIndex, match="non-negative"):
            SignedGraph(-1)

    def test_empty_graph(self):
        g = SignedGraph(0)
        assert g.m == 0
        assert g.adjacency().shape == (0, 0)


class TestBipartition:
    def test_complement_and_membership(self):
        b = Bipartition(4, frozenset({1, 3}))
        assert b.v2 == frozenset({0, 2})
        assert b.r == 2
        assert b.in_v1(3) and not b.in_v1(0)
        assert np.array_equal(b.mask(), np.array([False, True, False, True]))

    def test_both_sides_required(self):
        with pytest.raises(BadPartition):
            Bipartition(3, frozenset())
        with pytest.raises(BadPartition):
            Bipartition(3, frozenset({0, 1, 2}))

    def test_range_checked(self):
        with pytest.raises(BadIndex):
            Bipartition(3, frozenset({0, 5}))
        # the range comes first: {0, 1, 5} leaves node 2 on the other side
        with pytest.raises(BadIndex, match=r"node 5 outside 0\.\.2"):
            Bipartition(3, frozenset({0, 1, 5}))

    @pytest.mark.parametrize("bad", [1.5, "1", np.float64(1.0)])
    def test_non_integer_ids_refused(self, bad):
        with pytest.raises(BadIndex):
            Bipartition(4, {bad})

    @pytest.mark.parametrize("n", [3.5, "3", None])
    def test_non_integer_node_count_refused(self, n):
        with pytest.raises(BadIndex, match="node count"):
            Bipartition(n, {0})

    def test_numpy_integer_ids_stored_as_int(self):
        b = Bipartition(4, {np.int64(1)})
        assert b == Bipartition(4, {1})
        assert [type(v) for v in b.v1] == [int]
        assert np.array_equal(b.mask(), [False, True, False, False])


class TestComponents:
    def test_edgeless(self):
        comps = connected_components(SignedGraph(3))
        assert comps == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_sign_subgraphs(self, sb_triangle):
        pos = subgraph_by_sign(sb_triangle, 1)
        neg = subgraph_by_sign(sb_triangle, -1)
        assert pos.edges == ((0, 1, 1.0),)
        assert neg.edges == ((0, 2, -3.0), (1, 2, -3.0))
        with pytest.raises(ValueError):
            subgraph_by_sign(sb_triangle, 0)

    def test_positive_components(self, sb_triangle, allneg_triangle, three_bloc_eight):
        assert positive_components(sb_triangle) == (frozenset({0, 1}), frozenset({2}))
        assert len(positive_components(allneg_triangle)) == 3
        assert positive_components(three_bloc_eight) == (
            frozenset({0, 1, 2, 3}),
            frozenset({4, 5, 6}),
            frozenset({7}),
        )

    def test_components_sorted_by_min(self):
        g = SignedGraph.from_edge_list(5, [(3, 4, 1.0), (0, 2, 1.0)])
        assert connected_components(g) == (
            frozenset({0, 2}),
            frozenset({1}),
            frozenset({3, 4}),
        )


class TestForestAndIncidence:
    def test_allneg_triangle_split(self, allneg_triangle):
        dec = spanning_forest(allneg_triangle)
        assert dec.positive_edges == ()
        assert dec.forest_edges == ((0, 1, -1.0), (0, 2, -3.0))
        assert dec.cycle_edges == ((1, 2, -3.0),)

    def test_mixed_graph(self, sb_triangle):
        dec = spanning_forest(sb_triangle)
        assert dec.positive_edges == ((0, 1, 1.0),)
        assert dec.forest_edges == ((0, 2, -3.0), (1, 2, -3.0))
        assert dec.cycle_edges == ()

    def test_incidence_columns(self, allneg_triangle):
        dec = spanning_forest(allneg_triangle)
        inc = incidence_matrix(allneg_triangle, dec)
        assert inc.column_edges == dec.forest_edges + dec.cycle_edges + dec.positive_edges
        expect = np.array([[1.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, -1.0]])
        assert np.array_equal(inc.matrix, expect)
        assert np.array_equal(inc.matrix.sum(axis=0), np.zeros(3))

    def test_forest_size_and_spanning(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            g = random_signed_graph(rng, int(rng.integers(3, 9)))
            dec = spanning_forest(g)
            neg = subgraph_by_sign(g, -1)
            comps = connected_components(neg)
            assert len(dec.forest_edges) == g.n - len(comps)
            adj = {}
            for i, j, _ in dec.forest_edges:
                adj.setdefault(i, []).append(j)
                adj.setdefault(j, []).append(i)
            for i, j, _ in dec.cycle_edges:
                seen, stack = {i}, [i]
                while stack:
                    v = stack.pop()
                    for u in adj.get(v, ()):
                        if u not in seen:
                            seen.add(u)
                            stack.append(u)
                assert j in seen

    def test_repelling_identity(self):
        # B diag(w) B^T rebuilds the repelling operator for any sign pattern
        from gqsbnet import repelling_laplacian

        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_signed_graph(rng, int(rng.integers(3, 8)))
            dec = spanning_forest(g)
            inc = incidence_matrix(g, dec)
            w = np.array([e[2] for e in inc.column_edges])
            rebuilt = inc.matrix @ np.diag(w) @ inc.matrix.T
            assert np.allclose(rebuilt, repelling_laplacian(g), atol=1e-12)


class TestClassification:
    def test_fixtures(self, sb_triangle, qsb_quad, allneg_triangle):
        assert classify(sb_triangle) == SB
        assert classify(qsb_quad) == QSB
        assert classify(allneg_triangle) == GQSB
        allpos = SignedGraph.from_edge_list(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        assert classify(allpos) == UNBALANCED

    def test_single_negative_edge_is_balanced(self):
        g = SignedGraph.from_edge_list(2, [(0, 1, -1.0)])
        b = is_structurally_balanced(g)
        assert b is not None and b.v1 == frozenset({0})
        assert classify(g) == SB

    def test_negative_star_not_quasi(self):
        g = SignedGraph.from_edge_list(4, [(0, 1, -1.0), (0, 2, -1.0), (0, 3, -1.0)])
        assert classify(g) == GQSB
        assert is_structurally_balanced(g) is None
        assert is_qsb(g) is None
        assert len(enumerate_gqsb_bipartitions(g)) == 7

    def test_two_cooperative_islands(self):
        g = SignedGraph.from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        b = is_structurally_balanced(g)
        assert b is not None and b.v1 == frozenset({0, 1})

    def test_sb_split(self, sb_triangle):
        b = is_structurally_balanced(sb_triangle)
        assert b.v1 == frozenset({0, 1})
        assert is_qsb(sb_triangle).v1 == frozenset({0, 1})

    def test_qsb_split(self, qsb_quad):
        assert is_structurally_balanced(qsb_quad) is None
        assert is_qsb(qsb_quad).v1 == frozenset({0, 1, 2})

    def test_allneg_enumeration(self, allneg_triangle):
        got = {b.v1 for b in enumerate_gqsb_bipartitions(allneg_triangle)}
        assert got == {frozenset({0}), frozenset({0, 1}), frozenset({0, 2})}

    def test_enumeration_capped_before_listing(self):
        # 21 isolated nodes: 2**20 - 1 bipartitions, refused before any is built
        with pytest.raises(TooLarge, match="^21 cooperative components give too many "
                                           "bipartitions to list$"):
            enumerate_gqsb_bipartitions(SignedGraph(21))

    def test_enumeration_empty_when_one_component(self):
        allpos = SignedGraph.from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert enumerate_gqsb_bipartitions(allpos) == ()

    def test_three_bloc_enumeration(self, three_bloc_eight):
        parts = enumerate_gqsb_bipartitions(three_bloc_eight)
        assert len(parts) == 3
        assert {b.v1 for b in parts} == {
            frozenset({0, 1, 2, 3}),
            frozenset({0, 1, 2, 3, 4, 5, 6}),
            frozenset({0, 1, 2, 3, 7}),
        }
        assert all(0 in b.v1 for b in parts)

    def test_validate(self, allneg_triangle, sb_triangle):
        assert validate_gqsb(allneg_triangle, Bipartition(3, frozenset({0, 1})))
        assert validate_gqsb(allneg_triangle, Bipartition(3, frozenset({0})))
        assert validate_gqsb(sb_triangle, Bipartition(3, frozenset({0, 1})))
        assert not validate_gqsb(sb_triangle, Bipartition(3, frozenset({0, 2})))
        with pytest.raises(BadIndex):
            validate_gqsb(sb_triangle, Bipartition(4, frozenset({0})))

    def test_agreement_with_exhaustive_scan(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(3, 9))
            g = random_signed_graph(rng, n, density=float(rng.uniform(0.3, 0.8)))
            label = classify(g)
            sb = scan_sb(g)
            qsb = scan_qsb(g)
            splits = {b.v1 for b in enumerate_gqsb_bipartitions(g)}
            assert splits == set(scan_gqsb(g))
            assert len(splits) == scan_gqsb_count_fast(g)
            if sb is not None:
                assert label == SB and is_structurally_balanced(g).v1 == sb
            else:
                assert is_structurally_balanced(g) is None
            if qsb is not None:
                assert label in (SB, QSB) and is_qsb(g).v1 == qsb
            else:
                assert is_qsb(g) is None
            if label == UNBALANCED:
                assert not splits
            else:
                assert splits

    def test_inclusion_chain(self):
        rng = np.random.default_rng(99)
        for _ in range(120):
            g = random_signed_graph(rng, int(rng.integers(3, 8)))
            if is_structurally_balanced(g) is not None:
                assert is_qsb(g) is not None
            if is_qsb(g) is not None:
                assert enumerate_gqsb_bipartitions(g)


class TestCondenseAndColoring:
    def test_allneg_condenses_to_itself(self, allneg_triangle):
        c = condense_positive_components(allneg_triangle)
        assert c.n == 3
        assert c.edges == allneg_triangle.edges
        assert chromatic_number(c) == 3

    def test_three_bloc_condenses_to_triangle(self, three_bloc_eight):
        c = condense_positive_components(three_bloc_eight)
        assert c.n == 3
        assert c.edges == ((0, 1, -2.0), (0, 2, -1.0), (1, 2, -1.0))
        assert chromatic_number(c) == 3

    def test_matches_dict_oracle_bit_for_bit(self):
        rng = np.random.default_rng(41)
        sizes = rng.integers(2, 40, 40)
        graphs = [random_bloc_graph(rng, int(n), int(rng.integers(1, min(n, 6) + 1)),
                                    cross_density=0.8)[0] for n in sizes]
        graphs += [random_signed_graph(rng, int(rng.integers(0, 12)), density=0.5)
                   for _ in range(40)]
        # no cross-component antagonism: every antagonistic tie sits in a bloc
        graphs.append(random_bloc_graph(rng, 12, 3, cross_density=0.0, intra_neg=0.5)[0])
        assert graphs[-1].m and condense_positive_components(graphs[-1]).m == 0
        for g in graphs:
            c, ref = condense_positive_components(g), reference_condense(g)
            assert (c.n, c.i.tolist(), c.j.tolist()) == (ref.n, ref.i.tolist(), ref.j.tolist())
            assert c.w.tobytes() == ref.w.tobytes()

    def test_intra_component_antagonism_dropped(self, qsb_quad):
        c = condense_positive_components(qsb_quad)
        assert c.n == 2
        assert c.edges == ((0, 1, -15.0),)

    def test_chromatic_small_cases(self):
        assert chromatic_number(SignedGraph(4)) == 1
        assert chromatic_number(SignedGraph(0)) == 0
        assert chromatic_number(SignedGraph.from_edge_list(2, [(0, 1, -1.0)])) == 2
        square = SignedGraph.from_edge_list(
            4, [(0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0), (0, 3, -1.0)]
        )
        assert chromatic_number(square) == 2
        k4 = SignedGraph.from_edge_list(
            4,
            [(i, j, -1.0) for i in range(4) for j in range(i + 1, 4)],
        )
        assert chromatic_number(k4) == 4

    def test_chromatic_crown_graph(self):
        # greedy colouring in degree order needs 4 colours here; the exact
        # search finds the bipartition
        crown = SignedGraph.from_edge_list(
            8, [(2 * i, 2 * j + 1, -1.0) for i in range(4) for j in range(4) if i != j]
        )
        assert chromatic_number(crown) == 2

    def test_chromatic_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_signed_graph(rng, int(rng.integers(2, 7)), density=0.6)
            assert chromatic_number(g) == brute_chromatic(g)

    def test_chromatic_size_cap(self):
        with pytest.raises(TooLarge):
            chromatic_number(SignedGraph(21))
        assert chromatic_number(SignedGraph(20)) == 1


class TestDominantGrouping:
    def test_single_seed(self, three_bloc_eight):
        b = bipartition_from_dominant(three_bloc_eight, (0,))
        assert b.v1 == frozenset({0, 1, 2, 3})

    def test_seed_anywhere_in_bloc(self, three_bloc_eight):
        b = bipartition_from_dominant(three_bloc_eight, (3,))
        assert b.v1 == frozenset({0, 1, 2, 3})

    def test_two_blocs(self, three_bloc_eight):
        b = bipartition_from_dominant(three_bloc_eight, (0, 4))
        assert b.v1 == frozenset(range(7))
        assert b.v2 == frozenset({7})

    def test_rejections(self, three_bloc_eight):
        with pytest.raises(BadPartition):
            bipartition_from_dominant(three_bloc_eight, ())
        with pytest.raises(BadPartition):
            bipartition_from_dominant(three_bloc_eight, (0, 4, 7))
        with pytest.raises(BadPartition):
            bipartition_from_dominant(three_bloc_eight, (8,))

    @pytest.mark.parametrize("dominant", [[1.7], [1.0], (0, np.float64(4.0)), ["1"]])
    def test_non_integral_ids_refused(self, three_bloc_eight, dominant):
        with pytest.raises(BadPartition, match="integers"):
            bipartition_from_dominant(three_bloc_eight, dominant)

    def test_numpy_integer_ids(self, three_bloc_eight):
        b = bipartition_from_dominant(three_bloc_eight, np.array([0, 4]))
        assert b.v1 == frozenset(range(7))

    def test_split_always_qualifies(self):
        # a union of cooperative components has no cooperative cross edge
        rng = np.random.default_rng(17)
        for _ in range(200):
            g = random_signed_graph(rng, int(rng.integers(2, 12)), density=0.5)
            if len(positive_components(g)) < 2:
                continue
            size = int(rng.integers(1, g.n))
            dominant = rng.choice(g.n, size=size, replace=False).tolist()
            try:
                b = bipartition_from_dominant(g, dominant)
            except BadPartition:
                continue
            assert validate_gqsb(g, b)

    def test_minority_side(self, sb_triangle):
        b = bipartition_from_dominant(sb_triangle, (2,))
        assert b.v1 == frozenset({2})


class TestNeighborSets:
    def test_allneg(self, allneg_triangle, allneg_split):
        s = neighbor_sets(allneg_triangle, allneg_split, 0)
        assert s.coop == frozenset()
        assert s.intra_neg == frozenset({1})
        assert s.inter_neg == frozenset({2})
        t = neighbor_sets(allneg_triangle, allneg_split, 2)
        assert t.inter_neg == frozenset({0, 1})
        assert t.all_neighbors == frozenset({0, 1})

    def test_three_bloc(self, three_bloc_eight):
        b = bipartition_from_dominant(three_bloc_eight, (0,))
        s = neighbor_sets(three_bloc_eight, b, 0)
        assert s.coop == frozenset({1, 2})
        assert s.intra_neg == frozenset({3})
        assert s.inter_neg == frozenset({4, 7})

    def test_isolated_node(self):
        g = SignedGraph.from_edge_list(3, [(0, 1, -1.0)])
        s = neighbor_sets(g, Bipartition(3, frozenset({0})), 2)
        assert s.all_neighbors == frozenset()

    def test_bad_node(self, allneg_triangle, allneg_split):
        with pytest.raises(BadIndex):
            neighbor_sets(allneg_triangle, allneg_split, 3)

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
    def test_non_integer_node_refused(self, allneg_triangle, allneg_split, bad):
        with pytest.raises(BadIndex, match="integer"):
            neighbor_sets(allneg_triangle, allneg_split, bad)

    def test_numpy_integer_node(self, allneg_triangle, allneg_split):
        s = neighbor_sets(allneg_triangle, allneg_split, np.int64(0))
        assert s == neighbor_sets(allneg_triangle, allneg_split, 0)

    def test_bipartition_of_another_node_count(self, allneg_triangle):
        with pytest.raises(BadIndex, match="node count"):
            neighbor_sets(allneg_triangle, Bipartition(4, frozenset({0, 1})), 0)

    def test_matches_edge_scan_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(2, 14))
            g = random_signed_graph(rng, n, density=float(rng.uniform(0.1, 0.9)))
            b = Bipartition(n, frozenset(rng.permutation(n)[:rng.integers(1, n)].tolist()))
            for i in range(n):
                assert neighbor_sets(g, b, i) == reference_neighbor_sets(g, b, i)
