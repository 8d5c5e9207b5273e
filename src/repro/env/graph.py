"""Walkable aisle graph over a floor plan's reference locations.

Users move along aisles, not through walls, so adjacency between reference
locations is a graph property, not a distance threshold: two locations that
are geographically close but separated by a partition are *not* adjacent
(the consistency principle of Sec. IV-A).  This module models that graph
explicitly and is the ground truth against which the crowdsourced motion
database is validated.

The graph is a plain adjacency dict: ``{location_id: {neighbor_id:
hop_distance_m}}``.  Shortest paths use bidirectional Dijkstra with
networkx 3.x's exact expansion and tie-breaking order, so equal-length
routes resolve to the same node list networkx would return.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterable, List, Optional, Tuple

from .floorplan import FloorPlan
from .geometry import bearing_between, polyline_length

__all__ = ["WalkableGraph"]


class WalkableGraph:
    """The graph of directly walkable hops between reference locations.

    An edge ``(i, j)`` means a user can walk from location ``i`` to location
    ``j`` without passing another reference location.  Edges are undirected,
    reflecting the paper's *mutual reachability* assumption: walkable one
    way implies walkable the other way with the reversed direction and the
    same offset.

    Args:
        plan: The floor plan supplying location coordinates.
        edges: Walkable hops as ``(location_id, location_id)`` pairs.
        validate_line_of_sight: When True, reject any edge whose straight
            segment crosses a wall — a guard against accidentally declaring
            a through-the-wall hop walkable.
    """

    def __init__(
        self,
        plan: FloorPlan,
        edges: Iterable[Tuple[int, int]],
        validate_line_of_sight: bool = True,
    ) -> None:
        self.plan = plan
        self._adj: Dict[int, Dict[int, float]] = {
            location_id: {} for location_id in plan.location_ids
        }

        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop edge at location {i}")
            if i not in plan or j not in plan:
                raise ValueError(f"edge ({i}, {j}) references unknown location")
            a, b = plan.position_of(i), plan.position_of(j)
            if validate_line_of_sight and not plan.has_line_of_sight(a, b):
                raise ValueError(
                    f"edge ({i}, {j}) crosses a wall; not a walkable hop"
                )
            distance = a.distance_to(b)
            self._adj[i][j] = distance
            self._adj[j][i] = distance

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def node_ids(self) -> List[int]:
        """All location IDs, ascending."""
        return sorted(self._adj)

    @property
    def edge_list(self) -> List[Tuple[int, int]]:
        """All undirected edges as ``(min_id, max_id)`` pairs, sorted."""
        return sorted(
            (i, j) for i, neighbors in self._adj.items() for j in neighbors if i < j
        )

    def neighbors(self, location_id: int) -> List[int]:
        """Locations directly walkable from ``location_id``, ascending."""
        return sorted(self._neighbors_of(location_id))

    def are_adjacent(self, location_a: int, location_b: int) -> bool:
        """Whether the two locations are one walkable hop apart."""
        return location_b in self._adj.get(location_a, ())

    def degree(self, location_id: int) -> int:
        """How many direct walkable hops leave ``location_id``."""
        return len(self._neighbors_of(location_id))

    def is_connected(self) -> bool:
        """Whether every location is reachable from every other one."""
        if not self._adj:
            return False
        start = next(iter(self._adj))
        seen = {start}
        frontier = [start]
        while frontier:
            for neighbor in self._adj[frontier.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._adj)

    def _neighbors_of(self, location_id: int) -> Dict[int, float]:
        try:
            return self._adj[location_id]
        except KeyError:
            raise KeyError(f"no location {location_id} in walkable graph") from None

    # ------------------------------------------------------------------
    # Ground-truth relative location measurements
    # ------------------------------------------------------------------

    def hop_distance(self, location_a: int, location_b: int) -> float:
        """Walking distance of the direct hop between two adjacent locations.

        Raises:
            KeyError: if the locations are not adjacent.
        """
        try:
            return self._adj[location_a][location_b]
        except KeyError:
            raise KeyError(
                f"locations {location_a} and {location_b} are not adjacent"
            ) from None

    def hop_bearing(self, location_a: int, location_b: int) -> float:
        """Compass bearing of the direct hop from ``location_a`` to ``location_b``."""
        if not self.are_adjacent(location_a, location_b):
            raise KeyError(
                f"locations {location_a} and {location_b} are not adjacent"
            )
        return bearing_between(
            self.plan.position_of(location_a), self.plan.position_of(location_b)
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def shortest_path(self, source: int, target: int) -> List[int]:
        """Shortest walkable path (by distance) between two locations.

        Bidirectional Dijkstra, expanding the forward and backward searches
        in turn from ``(distance, push order, node)`` heaps and meeting at
        the best node seen from both sides: on ties it returns the same
        node list as networkx 3.x ``shortest_path(..., weight="distance")``.

        Raises:
            KeyError: if either location is not in the graph.
            ValueError: if no walkable path exists.
        """
        self._neighbors_of(source)
        self._neighbors_of(target)
        if source == target:
            return [source]

        dists: List[Dict[int, float]] = [{}, {}]
        preds: List[Dict[int, Optional[int]]] = [{source: None}, {target: None}]
        seen: List[Dict[int, float]] = [{source: 0.0}, {target: 0.0}]
        fringe: List[List[Tuple[float, int, int]]] = [[], []]
        pushes = count()
        heappush(fringe[0], (0.0, next(pushes), source))
        heappush(fringe[1], (0.0, next(pushes), target))
        best: Optional[float] = None
        meet: Optional[int] = None
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heappop(fringe[direction])
            if v in dists[direction]:
                continue
            dists[direction][v] = dist
            if v in dists[1 - direction]:
                return self._trace(preds, meet)
            for w, cost in self._adj[v].items():
                length = dist + cost
                if w in dists[direction]:
                    continue
                if w not in seen[direction] or length < seen[direction][w]:
                    seen[direction][w] = length
                    heappush(fringe[direction], (length, next(pushes), w))
                    preds[direction][w] = v
                    if w in seen[1 - direction]:
                        total = length + seen[1 - direction][w]
                        if best is None or best > total:
                            best, meet = total, w
        raise ValueError(f"no walkable path between {source} and {target}")

    @staticmethod
    def _trace(
        preds: List[Dict[int, Optional[int]]], meet: Optional[int]
    ) -> List[int]:
        """Join the forward and backward predecessor chains at ``meet``."""
        path: List[int] = []
        node = meet
        while node is not None:
            path.append(node)
            node = preds[0][node]
        path.reverse()
        node = preds[1][meet]
        while node is not None:
            path.append(node)
            node = preds[1][node]
        return path

    def walking_distance(self, source: int, target: int) -> float:
        """Length of the shortest walkable path between two locations."""
        path = self.shortest_path(source, target)
        return polyline_length(self.plan.position_of(i) for i in path)
