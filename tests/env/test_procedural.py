"""Direct tests for the procedural generator: topologies, placement, spec."""

from __future__ import annotations

import pytest

from repro.env.geometry import Point
from repro.env.procedural import (
    PLACEMENT_POLICIES,
    TOPOLOGIES,
    EnvironmentSpec,
    environment_checksum,
    generate_environment,
)


class TestEnvironmentSpec:
    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            EnvironmentSpec(topology="dungeon")

    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError, match="unknown placement"):
            EnvironmentSpec(placement="random")

    def test_rejects_non_integer_grid(self):
        with pytest.raises(ValueError, match="rows must be an integer"):
            EnvironmentSpec(rows=3.5)

    def test_rejects_multi_floor_mall(self):
        with pytest.raises(ValueError, match="only towers stack floors"):
            EnvironmentSpec(topology="mall", floors=2)

    def test_rejects_non_four_row_mall(self):
        with pytest.raises(ValueError, match="rows must be 4"):
            EnvironmentSpec(topology="mall", rows=3)

    def test_rejects_tiny_stadium_ring(self):
        with pytest.raises(ValueError, match="at least 8 locations"):
            EnvironmentSpec(topology="stadium", rows=2, cols=5,
                            floor_width_m=30.0, floor_height_m=30.0)

    def test_rejects_excessive_ap_count(self):
        with pytest.raises(ValueError, match="n_aps must be in"):
            EnvironmentSpec(n_aps=501)

    def test_rejects_undersized_floor(self):
        with pytest.raises(ValueError, match="too small"):
            EnvironmentSpec(topology="warehouse", rows=20, cols=20,
                            floor_width_m=5.0, floor_height_m=5.0)

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="environment_spec"):
            EnvironmentSpec.from_dict({"kind": "floorplan"})

    def test_from_dict_rejects_unknown_version(self):
        payload = EnvironmentSpec().to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            EnvironmentSpec.from_dict(payload)

    def test_display_name_defaults_and_override(self):
        assert "tower" in EnvironmentSpec(topology="tower").display_name
        named = EnvironmentSpec(name="HQ building")
        assert named.display_name == "HQ building"
        assert generate_environment(named, seed=1).plan.name == "HQ building"


class TestTopologies:
    def test_tower_inter_floor_edges_exist(self):
        spec = EnvironmentSpec(topology="tower", floors=3, rows=2, cols=3)
        env = generate_environment(spec, seed=1)
        per_floor = spec.rows * spec.cols
        cross_floor = [
            (a, b) for a, b in env.graph.edge_list
            if (a - 1) // per_floor != (b - 1) // per_floor
        ]
        # Two vertical links (stairs + elevator) per floor boundary.
        assert len(cross_floor) == 2 * (spec.floors - 1)

    def test_tower_slab_walls_separate_floors(self):
        spec = EnvironmentSpec(topology="tower", floors=2, rows=2, cols=3)
        env = generate_environment(spec, seed=1)
        # Column 1 is neither the stair (col 0) nor the elevator (last
        # col), so the slab between floors has no opening above it.
        low = env.plan.location(2).position            # floor 0
        high = env.plan.location(spec.rows * spec.cols + 2).position  # floor 1
        assert env.plan.wall_count_between(low, high) >= 1

    def test_mall_corridors_join_only_at_cross_aisles(self):
        spec = EnvironmentSpec(topology="mall", rows=4, cols=7,
                               floor_width_m=44.0, floor_height_m=18.0)
        env = generate_environment(spec, seed=1)
        corridor_links = [
            (a, b) for a, b in env.graph.edge_list
            if (a - 1) // spec.cols == 1 and (b - 1) // spec.cols == 2
        ]
        cross_cols = {0, spec.cols - 1} | {c for c in range(spec.cols) if c % 3 == 0}
        assert len(corridor_links) == len(cross_cols)

    def test_warehouse_horizontal_hops_only_at_end_aisles(self):
        spec = EnvironmentSpec(topology="warehouse", rows=5, cols=4,
                               floor_width_m=24.0, floor_height_m=25.0)
        env = generate_environment(spec, seed=1)
        for a, b in env.graph.edge_list:
            row_a, row_b = (a - 1) // spec.cols, (b - 1) // spec.cols
            if row_a == row_b:  # horizontal hop
                assert row_a in (0, spec.rows - 1)

    def test_stadium_rings_are_closed_loops(self):
        spec = EnvironmentSpec(topology="stadium", rows=2, cols=10,
                               floor_width_m=36.0, floor_height_m=36.0)
        env = generate_environment(spec, seed=1)
        first_ring = list(range(1, spec.cols + 1))
        for index, location_id in enumerate(first_ring):
            neighbor = first_ring[(index + 1) % spec.cols]
            assert env.graph.are_adjacent(location_id, neighbor)

    def test_corridor_is_a_single_serpentine_path(self):
        spec = EnvironmentSpec(topology="corridor", rows=4, cols=5,
                               floor_width_m=25.0, floor_height_m=16.0)
        env = generate_environment(spec, seed=1)
        # A serpentine path over N nodes has exactly N - 1 edges.
        assert len(env.graph.edge_list) == spec.n_locations - 1
        assert env.graph.is_connected()

    def test_all_topologies_emit_standard_types(self):
        for topology in TOPOLOGIES:
            spec = _small_spec(topology)
            env = generate_environment(spec, seed=5)
            assert len(env.plan) == spec.n_locations
            assert env.hall.plan is env.plan
            assert env.graph.is_connected()


class TestPlacement:
    def test_sparse_adversarial_sits_on_the_symmetry_axis(self):
        spec = EnvironmentSpec(topology="warehouse", rows=4, cols=3,
                               floor_width_m=20.0, floor_height_m=16.0,
                               n_aps=5, placement="sparse-adversarial")
        env = generate_environment(spec, seed=2)
        for position in env.plan.selected_aps():
            assert position.y == pytest.approx(8.0)

    def test_clustered_differs_across_seeds(self):
        spec = EnvironmentSpec(topology="warehouse", rows=4, cols=3,
                               floor_width_m=20.0, floor_height_m=16.0,
                               n_aps=6, placement="clustered")
        a = generate_environment(spec, seed=1)
        b = generate_environment(spec, seed=2)
        assert environment_checksum(a) != environment_checksum(b)

    def test_grid_and_perimeter_are_seed_independent(self):
        for placement in ("grid", "perimeter", "sparse-adversarial"):
            spec = EnvironmentSpec(topology="corridor", rows=3, cols=4,
                                   floor_width_m=20.0, floor_height_m=12.0,
                                   n_aps=4, placement=placement)
            a = generate_environment(spec, seed=1)
            b = generate_environment(spec, seed=99)
            assert [p.as_tuple() for p in a.plan.selected_aps()] == [
                p.as_tuple() for p in b.plan.selected_aps()
            ]

    def test_wrong_mount_count_is_rejected(self, monkeypatch):
        def short_changer(spec, width, height, bands, rng):
            return [Point(1.0, 1.0)]

        monkeypatch.setitem(PLACEMENT_POLICIES, "short-changer", short_changer)
        spec = EnvironmentSpec(topology="corridor", rows=2, cols=3,
                               floor_width_m=15.0, floor_height_m=8.0,
                               n_aps=3, placement="short-changer")
        with pytest.raises(ValueError, match="returned 1 mounts"):
            generate_environment(spec, seed=0)

    def test_out_of_bounds_mount_is_rejected(self, monkeypatch):
        def escapee(spec, width, height, bands, rng):
            return [Point(width + 5.0, 1.0)] * spec.n_aps

        monkeypatch.setitem(PLACEMENT_POLICIES, "escapee", escapee)
        spec = EnvironmentSpec(topology="corridor", rows=2, cols=3,
                               floor_width_m=15.0, floor_height_m=8.0,
                               n_aps=2, placement="escapee")
        with pytest.raises(ValueError, match="outside the"):
            generate_environment(spec, seed=0)


class TestChecksum:
    def test_checksum_distinguishes_seeds_only_when_rng_used(self):
        spec = _small_spec("tower")
        same = environment_checksum(generate_environment(spec, seed=4))
        again = environment_checksum(generate_environment(spec, seed=4))
        assert same == again

    def test_checksum_distinguishes_specs(self):
        a = generate_environment(_small_spec("tower"), seed=4)
        b = generate_environment(_small_spec("warehouse"), seed=4)
        assert environment_checksum(a) != environment_checksum(b)


def _small_spec(topology: str) -> EnvironmentSpec:
    if topology == "tower":
        return EnvironmentSpec(topology="tower", floors=2, rows=2, cols=3)
    if topology == "mall":
        return EnvironmentSpec(topology="mall", rows=4, cols=4,
                               floor_width_m=28.0, floor_height_m=16.0)
    if topology == "warehouse":
        return EnvironmentSpec(topology="warehouse", rows=4, cols=3,
                               floor_width_m=20.0, floor_height_m=18.0)
    if topology == "stadium":
        return EnvironmentSpec(topology="stadium", rows=2, cols=10,
                               floor_width_m=36.0, floor_height_m=36.0)
    return EnvironmentSpec(topology="corridor", rows=3, cols=4,
                           floor_width_m=20.0, floor_height_m=12.0)
