"""Tests for the walkable aisle graph."""

from __future__ import annotations

import pytest

from repro.env.floorplan import FloorPlan, ReferenceLocation
from repro.env.geometry import Point, Segment
from repro.env.graph import WalkableGraph


@pytest.fixture()
def square_plan() -> FloorPlan:
    """Four locations on a square, a wall between 2 and 4."""
    return FloorPlan(
        width=10.0,
        height=10.0,
        reference_locations=[
            ReferenceLocation(1, Point(2, 2)),
            ReferenceLocation(2, Point(8, 2)),
            ReferenceLocation(3, Point(2, 8)),
            ReferenceLocation(4, Point(8, 8)),
        ],
        walls=[Segment(Point(6, 5), Point(10, 5))],
    )


@pytest.fixture()
def square_graph(square_plan) -> WalkableGraph:
    return WalkableGraph(
        square_plan, edges=[(1, 2), (1, 3), (3, 4)], validate_line_of_sight=True
    )


class TestConstruction:
    def test_self_loop_rejected(self, square_plan):
        with pytest.raises(ValueError, match="self-loop"):
            WalkableGraph(square_plan, edges=[(1, 1)])

    def test_unknown_location_rejected(self, square_plan):
        with pytest.raises(ValueError, match="unknown"):
            WalkableGraph(square_plan, edges=[(1, 9)])

    def test_edge_through_wall_rejected(self, square_plan):
        # 2 -> 4 crosses the wall at y=5 (x in [6, 10]).
        with pytest.raises(ValueError, match="crosses a wall"):
            WalkableGraph(square_plan, edges=[(2, 4)])

    def test_wall_validation_can_be_disabled(self, square_plan):
        graph = WalkableGraph(
            square_plan, edges=[(2, 4)], validate_line_of_sight=False
        )
        assert graph.are_adjacent(2, 4)


class TestStructure:
    def test_neighbors_sorted(self, square_graph):
        assert square_graph.neighbors(1) == [2, 3]

    def test_neighbors_of_unknown_location(self, square_graph):
        with pytest.raises(KeyError):
            square_graph.neighbors(99)

    def test_degree_of_unknown_location(self, square_graph):
        with pytest.raises(KeyError, match="no location 99"):
            square_graph.degree(99)

    def test_unknown_location_is_adjacent_to_nothing(self, square_graph):
        assert not square_graph.are_adjacent(99, 1)
        assert not square_graph.are_adjacent(1, 99)

    def test_adjacency_symmetric(self, square_graph):
        assert square_graph.are_adjacent(1, 3)
        assert square_graph.are_adjacent(3, 1)
        assert not square_graph.are_adjacent(2, 3)

    def test_degree(self, square_graph):
        assert square_graph.degree(1) == 2
        assert square_graph.degree(4) == 1

    def test_edge_list_normalized(self, square_graph):
        assert square_graph.edge_list == [(1, 2), (1, 3), (3, 4)]

    def test_connected(self, square_graph):
        assert square_graph.is_connected()

    def test_disconnected_graph_detected(self, square_plan):
        graph = WalkableGraph(square_plan, edges=[(1, 2)])
        assert not graph.is_connected()

    def test_empty_graph_is_not_connected(self):
        plan = FloorPlan(width=1.0, height=1.0, reference_locations=[])
        assert not WalkableGraph(plan, edges=[]).is_connected()


class TestHopMeasurements:
    def test_hop_distance(self, square_graph):
        assert square_graph.hop_distance(1, 2) == pytest.approx(6.0)

    def test_hop_distance_non_adjacent_raises(self, square_graph):
        with pytest.raises(KeyError):
            square_graph.hop_distance(2, 3)

    def test_hop_bearing_east(self, square_graph):
        assert square_graph.hop_bearing(1, 2) == pytest.approx(90.0)

    def test_hop_bearing_reverse_is_mirrored(self, square_graph):
        forward = square_graph.hop_bearing(1, 2)
        backward = square_graph.hop_bearing(2, 1)
        assert (forward + 180.0) % 360.0 == pytest.approx(backward)

    def test_hop_bearing_non_adjacent_raises(self, square_graph):
        with pytest.raises(KeyError):
            square_graph.hop_bearing(1, 4)


class TestPaths:
    def test_shortest_path_avoids_missing_edges(self, square_graph):
        # 2 -> 4 must detour through 1 and 3.
        assert square_graph.shortest_path(2, 4) == [2, 1, 3, 4]

    def test_walking_distance(self, square_graph):
        assert square_graph.walking_distance(2, 4) == pytest.approx(18.0)

    def test_walking_distance_single_hop_is_straight(self, square_graph):
        assert square_graph.walking_distance(1, 2) == pytest.approx(6.0)

    def test_shortest_path_to_itself(self, square_graph):
        assert square_graph.shortest_path(3, 3) == [3]

    def test_shortest_path_between_disconnected_locations_raises(self, square_plan):
        graph = WalkableGraph(square_plan, edges=[(1, 2), (3, 4)])
        with pytest.raises(ValueError, match="no walkable path between 1 and 4"):
            graph.shortest_path(1, 4)
        with pytest.raises(ValueError, match="no walkable path"):
            graph.walking_distance(4, 2)

    @pytest.mark.parametrize("source, target", [(99, 1), (1, 99), (99, 99)])
    def test_shortest_path_unknown_location_raises(self, square_graph, source, target):
        with pytest.raises(KeyError, match="no location 99"):
            square_graph.shortest_path(source, target)
