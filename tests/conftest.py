import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from admseq.graphs import Graph, Quiver, quiver_from_arrows

from oracles import raw_acyclic_orientations


def acyclic_orientations(graph):
    """Every acyclic orientation of a graph, as quivers, in the oracle's order."""
    return tuple(Quiver(graph, arrows) for arrows in raw_acyclic_orientations(graph.n, graph.edges))


@pytest.fixture(scope="session")
def q3():
    """Linear A3 quiver 1 -> 2 -> 3."""
    return quiver_from_arrows(3, [(1, 2), (2, 3)])


@pytest.fixture(scope="session")
def qk():
    """Kronecker quiver: two arrows 1 -> 2."""
    return quiver_from_arrows(2, [(1, 2), (1, 2)])


@pytest.fixture(scope="session")
def a4_graph():
    return Graph(4, [(1, 2), (2, 3), (3, 4)])


@pytest.fixture(scope="session")
def triangle_graph():
    return Graph(3, [(1, 2), (2, 3), (1, 3)])


@pytest.fixture(scope="session")
def a4_orientations(a4_graph):
    return acyclic_orientations(a4_graph)


@pytest.fixture(scope="session")
def triangle_orientations(triangle_graph):
    return acyclic_orientations(triangle_graph)
