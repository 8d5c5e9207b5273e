"""``WalkableGraph`` against networkx on the same edges in the same order.

The graph is a plain adjacency dict; its shortest paths port networkx's
bidirectional Dijkstra.  These tests build an ``nx.Graph`` from the very
edge sequence each ``WalkableGraph`` received and require equal answers,
including the exact node list ``shortest_path`` picks among equal-length
routes.  networkx is a test-only dependency, so the module skips without
it.
"""

from __future__ import annotations

import importlib
import itertools
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

nx = pytest.importorskip("networkx")

from repro.env import procedural  # noqa: E402
from repro.env.floorplan import FloorPlan, ReferenceLocation  # noqa: E402
from repro.env.geometry import Point  # noqa: E402
from repro.env.graph import WalkableGraph  # noqa: E402
from repro.io.serialize import graph_from_dict, graph_to_dict  # noqa: E402

# ``repro.env`` re-exports the ``office_hall`` function under the module's name.
office_hall_module = importlib.import_module("repro.env.office_hall")

SEEDS = (0, 1, 2)

SPECS = {
    "tower": [
        procedural.EnvironmentSpec(topology="tower", floors=2, rows=2, cols=3),
        procedural.EnvironmentSpec(topology="tower", floors=3, rows=3, cols=4),
    ],
    "mall": [
        procedural.EnvironmentSpec(topology="mall", rows=4, cols=4,
                                   floor_width_m=28.0, floor_height_m=16.0),
        procedural.EnvironmentSpec(topology="mall", rows=4, cols=7),
    ],
    "warehouse": [
        procedural.EnvironmentSpec(topology="warehouse", rows=4, cols=3,
                                   floor_width_m=20.0, floor_height_m=18.0),
        procedural.EnvironmentSpec(topology="warehouse", rows=6, cols=5,
                                   floor_width_m=30.0, floor_height_m=30.0),
    ],
    "stadium": [
        procedural.EnvironmentSpec(topology="stadium", rows=2, cols=10,
                                   floor_width_m=36.0, floor_height_m=36.0),
        procedural.EnvironmentSpec(topology="stadium", rows=3, cols=12,
                                   floor_width_m=40.0, floor_height_m=40.0),
    ],
    "corridor": [
        procedural.EnvironmentSpec(topology="corridor", rows=3, cols=4,
                                   floor_width_m=20.0, floor_height_m=12.0),
        procedural.EnvironmentSpec(topology="corridor", rows=5, cols=6,
                                   floor_width_m=30.0, floor_height_m=20.0),
    ],
}


class _Recording(WalkableGraph):
    """A ``WalkableGraph`` that keeps the edge sequence it was built from."""

    def __init__(self, plan, edges, validate_line_of_sight=True):
        self.edges_in: List[Tuple[int, int]] = list(edges)
        super().__init__(plan, self.edges_in, validate_line_of_sight)


def _reference(graph: WalkableGraph, edges) -> "nx.Graph":
    """The ``nx.Graph`` networkx builds from the same nodes and edges."""
    reference = nx.Graph()
    reference.add_nodes_from(graph.plan.location_ids)
    for i, j in edges:
        reference.add_edge(
            i, j,
            distance=graph.plan.position_of(i).distance_to(graph.plan.position_of(j)),
        )
    return reference


def _assert_matches(graph: WalkableGraph, edges) -> int:
    """Compare every query against networkx; return the pairs compared."""
    reference = _reference(graph, edges)
    assert graph.is_connected() == (
        len(reference) > 0 and nx.is_connected(reference)
    )
    assert graph.node_ids == sorted(reference.nodes)
    assert graph.edge_list == sorted(
        (min(i, j), max(i, j)) for i, j in reference.edges
    )
    for node in reference.nodes:
        assert graph.neighbors(node) == sorted(reference.neighbors(node))
        assert graph.degree(node) == reference.degree(node)
    for i, j in reference.edges:
        assert graph.hop_distance(i, j) == reference.edges[i, j]["distance"]
        assert graph.hop_distance(j, i) == reference.edges[i, j]["distance"]
    pairs = 0
    for source, target in itertools.permutations(reference.nodes, 2):
        try:
            expected = nx.shortest_path(reference, source, target, weight="distance")
        except nx.NetworkXNoPath:
            with pytest.raises(ValueError, match="no walkable path"):
                graph.shortest_path(source, target)
        else:
            assert graph.shortest_path(source, target) == expected, (source, target)
        pairs += 1
    return pairs


def _recorded(module, monkeypatch, build):
    """Run ``build()`` with ``module.WalkableGraph`` recording its edges."""
    monkeypatch.setattr(module, "WalkableGraph", _Recording)
    graph = build()
    monkeypatch.undo()
    assert isinstance(graph, _Recording)
    return graph


def _round_trip(graph: WalkableGraph):
    """``graph_from_dict(graph_to_dict(graph))`` and the edges it was fed."""
    payload = graph_to_dict(graph)
    edges = [(int(i), int(j)) for i, j in payload["edges"]]
    return graph_from_dict(payload, graph.plan), edges


def test_office_hall_matches_networkx(monkeypatch):
    graph = _recorded(
        office_hall_module, monkeypatch, lambda: office_hall_module.office_hall().graph
    )
    assert _assert_matches(graph, graph.edges_in) == 28 * 27
    assert _assert_matches(*_round_trip(graph)) == 28 * 27


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("topology", procedural.TOPOLOGIES)
def test_generated_environments_match_networkx(monkeypatch, topology, seed):
    for spec in SPECS[topology]:
        graph = _recorded(
            procedural, monkeypatch,
            lambda: procedural.generate_environment(spec, seed).graph,
        )
        n = spec.n_locations
        assert _assert_matches(graph, graph.edges_in) == n * (n - 1)
        assert _assert_matches(*_round_trip(graph)) == n * (n - 1)


@st.composite
def unit_grids(draw):
    """A unit-spaced grid with random 4-neighbour edges removed, shuffled.

    Every hop is 1 m long, so many routes tie and the expansion order
    alone decides which node list comes back.  Removals may disconnect
    the grid; then both sides must agree that no path exists.
    """
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=2, max_value=5))
    plan = FloorPlan(
        width=cols + 1.0,
        height=rows + 1.0,
        reference_locations=[
            ReferenceLocation(r * cols + c + 1, Point(c + 1.0, r + 1.0))
            for r in range(rows) for c in range(cols)
        ],
    )
    edges = []
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c + 1
            if c + 1 < cols:
                edges.append((here, here + 1))
            if r + 1 < rows:
                edges.append((here, here + cols))
    kept = [edge for edge in edges if draw(st.booleans()) or draw(st.booleans())]
    kept = draw(st.permutations(kept))
    kept = [(j, i) if draw(st.booleans()) else (i, j) for i, j in kept]
    return plan, kept


@settings(max_examples=60, deadline=None)
@given(grid=unit_grids())
def test_unit_grid_ties_match_networkx(grid):
    plan, edges = grid
    graph = WalkableGraph(plan, edges, validate_line_of_sight=False)
    n = len(plan.location_ids)
    assert _assert_matches(graph, edges) == n * (n - 1)
