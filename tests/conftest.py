import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gqsbnet import Bipartition, SignedGraph


@pytest.fixture
def sb_triangle():
    """Two allies against a common rival; fully balanced."""
    return SignedGraph.from_edge_list(3, [(0, 1, 1.0), (0, 2, -3.0), (1, 2, -3.0)])


@pytest.fixture
def allneg_triangle():
    """Mutual antagonism everywhere; three cooperative singletons."""
    return SignedGraph.from_edge_list(3, [(0, 1, -1.0), (0, 2, -3.0), (1, 2, -3.0)])


@pytest.fixture
def allneg_split():
    return Bipartition(3, frozenset({0, 1}))


@pytest.fixture
def unstable_triangle():
    """Same shape, but the within-group rivalry dominates the cross ties."""
    return SignedGraph.from_edge_list(3, [(0, 1, -5.0), (0, 2, -1.0), (1, 2, -1.0)])


@pytest.fixture
def qsb_quad():
    """One antagonistic tie buried inside a strongly cooperative pair."""
    return SignedGraph.from_edge_list(
        4,
        [(0, 1, 10.0), (1, 2, 10.0), (0, 2, -1.0),
         (0, 3, -5.0), (1, 3, -5.0), (2, 3, -5.0)],
    )


@pytest.fixture
def three_bloc_eight():
    """Eight nodes, three cooperative blocs {0,1,2,3}, {4,5,6}, {7}; one
    in-bloc rivalry at (0,3)."""
    edges = [
        (0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (0, 3, -1.0),
        (4, 5, 1.0), (5, 6, 1.0),
        (0, 4, -1.0), (0, 7, -1.0), (3, 4, -1.0), (4, 7, -1.0),
    ]
    return SignedGraph.from_edge_list(8, edges)
