"""Tiled-solve equivalence and carve-invariant tests.

The tiling layer's two structural promises:

* a ``1x1`` grid is the *identity*: the carve returns the global problem
  object itself, and a tiled pipeline run is bit-identical to the plain
  run of the same spec (served count, placements, assignment);
* for any grid/overlap, demand nodes partition into tiles (each node in
  exactly one core), fleet slices are disjoint, and the final deployment
  comes from one global max flow — so no user or demand unit can ever be
  double-counted, which the fuzz pass checks on per-user *and*
  demand-cell variants over several grids and overlap widths.

A tiled solve builds the population once and solves every tile from the
one global carve.  Two oracles hold that path to the rebuild-per-tile
route: a ``tile_index`` spec's own ``build()`` must reproduce each carved
tile, and running those specs through the :class:`BatchRunner` then
stitching must reproduce the tiled deployment.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.scenario.spec as spec_module
from repro.network.deployment import CellDeployment, Deployment
from repro.network.validate import (
    validate_cell_deployment,
    validate_deployment,
)
from repro.scenario.batch import BatchRunner
from repro.scenario.pipeline import SolvePipeline
from repro.scenario.spec import ScenarioSpec, SpecError
from repro.scenario.tiling import (
    _global_assignment,
    _repair_connectivity,
    _stitch_placements,
    carve_tiles,
    solve_tiled,
)
from repro.workload.scenarios import paper_scenario

BASE = ScenarioSpec(
    name="tiling-test", scale="bench", num_users=400, num_uavs=8,
    seed=23, algorithm="approAlg", algorithm_params={"s": 1},
)


def _problem(num_users=300, num_uavs=6, seed=9):
    return paper_scenario(
        num_users=num_users, num_uavs=num_uavs, scale="bench", seed=seed
    )


class TestCarveInvariants:
    def test_1x1_is_identity(self):
        problem = _problem()
        tiles = carve_tiles(problem, (1, 1), overlap_m=250.0)
        assert len(tiles) == 1
        tile = tiles[0]
        assert tile.problem is problem
        assert tile.node_map == tuple(range(problem.num_users))
        assert tile.location_map == tuple(range(problem.num_locations))
        assert tile.fleet_map == tuple(range(problem.num_uavs))
        assert tile.demand_units == problem.num_users

    @pytest.mark.parametrize("grid", [(1, 2), (2, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("overlap", [0.0, 400.0])
    def test_nodes_partition_exactly_once(self, grid, overlap):
        problem = _problem()
        tiles = carve_tiles(problem, grid, overlap_m=overlap)
        assert len(tiles) == grid[0] * grid[1]
        seen: list = []
        for tile in tiles:
            seen.extend(tile.node_map)
        assert sorted(seen) == list(range(problem.num_users))
        assert sum(t.demand_units for t in tiles) == problem.num_users

    @pytest.mark.parametrize("grid", [(2, 2), (3, 2)])
    def test_fleet_slices_disjoint_and_valid(self, grid):
        problem = _problem()
        tiles = carve_tiles(problem, grid, overlap_m=300.0)
        used: list = []
        for tile in tiles:
            used.extend(tile.fleet_map)
            if tile.problem is not None:
                assert len(tile.fleet_map) == tile.problem.num_uavs
                assert len(tile.fleet_map) <= len(tile.location_map)
        assert len(used) == len(set(used))
        assert set(used) <= set(range(problem.num_uavs))

    def test_overlap_grows_location_sets(self):
        problem = _problem()
        tight = carve_tiles(problem, (2, 2), overlap_m=0.0)
        wide = carve_tiles(problem, (2, 2), overlap_m=600.0)
        for t0, t1 in zip(tight, wide):
            assert set(t0.location_map) <= set(t1.location_map)

    def test_deterministic(self):
        problem = _problem()
        a = carve_tiles(problem, (2, 2), overlap_m=300.0)
        b = carve_tiles(problem, (2, 2), overlap_m=300.0)
        for ta, tb in zip(a, b):
            assert ta.node_map == tb.node_map
            assert ta.location_map == tb.location_map
            assert ta.fleet_map == tb.fleet_map
            assert ta.bounds == tb.bounds

    def test_rejects_bad_grid_and_overlap(self):
        problem = _problem(num_users=50, num_uavs=2)
        with pytest.raises(ValueError):
            carve_tiles(problem, (0, 2))
        with pytest.raises(ValueError):
            carve_tiles(problem, (2, 2), overlap_m=-1.0)


class TestTiledEquivalence:
    @pytest.mark.timeout_guard(300)
    def test_1x1_tiled_bit_identical_to_untiled(self):
        plain = SolvePipeline().run(BASE)
        tiled = SolvePipeline().run(
            BASE.with_overrides(name="tiling-test-1x1", tiles="1x1")
        )
        assert isinstance(tiled.deployment, Deployment)
        assert tiled.record.served == plain.record.served
        assert tiled.deployment.placements == plain.deployment.placements
        assert tiled.deployment.assignment == plain.deployment.assignment

    @pytest.mark.timeout_guard(300)
    def test_1x1_tiled_aggregated_bit_identical(self):
        """Identity carve composed with singleton aggregation still lands
        on the plain per-user result."""
        plain = SolvePipeline().run(BASE)
        tiled = SolvePipeline().run(BASE.with_overrides(
            name="tiling-test-1x1-cells", tiles="1x1", aggregation="cells",
        ))
        assert tiled.record.served == plain.record.served
        assert tiled.deployment.placements == plain.deployment.placements
        assert tiled.deployment.assignment == plain.deployment.assignment


#: Per-user and demand-cell variants of a tiled spec for the carve oracles.
VARIANTS = {
    "users": BASE.with_overrides(tiles="2x2", tile_overlap_m=300.0),
    "cells": BASE.with_overrides(
        tiles="2x2", tile_overlap_m=300.0, aggregation="cells",
        cell_size_m=250.0,
    ),
}


def _assert_same_problem(built, carved):
    """Node positions, rates and demands, locations and fleet agree."""
    g_built, g_carved = built.graph, carved.graph
    assert type(g_built) is type(g_carved)
    np.testing.assert_array_equal(g_built._user_xy, g_carved._user_xy)
    np.testing.assert_array_equal(
        g_built._user_min_rate, g_carved._user_min_rate
    )
    if hasattr(g_carved, "cells"):
        np.testing.assert_array_equal(
            g_built.cell_demands, g_carved.cell_demands
        )
        assert g_built.cells == g_carved.cells
    assert g_built.locations == g_carved.locations
    assert g_built.noise_dbm == g_carved.noise_dbm
    assert built.fleet == carved.fleet


def _batch_oracle(spec):
    """The rebuild-per-tile route: every ``tile_index`` spec builds its own
    tile through the :class:`BatchRunner`, then the same stitch, seam
    repair and global assignment as :func:`solve_tiled`."""
    problem = spec.with_overrides(tiles=None, tile_overlap_m=0.0).build()
    tiles = carve_tiles(problem, spec.tile_grid(), spec.tile_overlap_m)
    solvable = [tile for tile in tiles if tile.problem is not None]
    batch = BatchRunner(pipeline=SolvePipeline()).run([
        spec.with_overrides(
            name=f"{spec.name}/tile{tile.index}", tile_index=tile.index,
        )
        for tile in solvable
    ])
    placements = _stitch_placements(solvable, list(batch.items))
    placements, _, _ = _repair_connectivity(problem, placements)
    return _global_assignment(problem, placements)


class TestCarveOnce:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("tiles", ["2x2", "3x2"])
    def test_tile_build_equals_global_carve(self, variant, tiles):
        spec = VARIANTS[variant].with_overrides(tiles=tiles)
        problem = spec.with_overrides(tiles=None, tile_overlap_m=0.0).build()
        carved = carve_tiles(problem, spec.tile_grid(), spec.tile_overlap_m)
        assert len(carved) == spec.tile_grid()[0] * spec.tile_grid()[1]
        for tile in carved:
            tile_spec = spec.with_overrides(tile_index=tile.index)
            if tile.problem is None:
                with pytest.raises(SpecError, match="empty"):
                    tile_spec.build()
                continue
            _assert_same_problem(tile_spec.build(), tile.problem)

    @pytest.mark.timeout_guard(300)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_tiled_solve_matches_batch_oracle(self, variant):
        spec = VARIANTS[variant].with_overrides(
            name=f"tiling-oracle-{variant}"
        )
        state = SolvePipeline().run(spec)
        oracle = _batch_oracle(spec)
        assert type(state.deployment) is type(oracle)
        assert state.deployment.placements == oracle.placements
        assert state.deployment.served_count == oracle.served_count
        if isinstance(oracle, CellDeployment):
            assert state.deployment.flows == oracle.flows
        else:
            assert state.deployment.assignment == oracle.assignment

    def test_tiled_solve_builds_the_population_once(self, monkeypatch):
        calls = []
        build = spec_module.build_scenario

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(spec_module, "build_scenario", counting_build)
        state = SolvePipeline().run(
            VARIANTS["cells"].with_overrides(name="tiling-build-once")
        )
        assert state.ok
        assert state.report["tiles_solved"] >= 2
        assert len(calls) == 1


class TestTiledFuzz:
    """No grid/overlap combination may ever double-count a user."""

    GRIDS = ["1x2", "2x1", "2x2", "3x2"]
    OVERLAPS = [0.0, 300.0, 800.0]

    @pytest.mark.timeout_guard(600)
    @pytest.mark.parametrize("tiles", GRIDS)
    @pytest.mark.parametrize("overlap", OVERLAPS)
    def test_per_user_tiled_never_double_counts(self, tiles, overlap):
        spec = BASE.with_overrides(
            name=f"tiling-fuzz-{tiles}-{int(overlap)}",
            tiles=tiles, tile_overlap_m=overlap, seed=31,
        )
        state = SolvePipeline().run(spec)
        problem = state.problem
        deployment = state.deployment
        assert isinstance(deployment, Deployment)
        # assignment is user -> uav: each user appears at most once by
        # construction; the validator re-checks capacity, coverage and
        # connectivity from first principles.
        assert deployment.served_count == len(deployment.assignment)
        assert deployment.served_count <= problem.num_users
        validate_deployment(problem.graph, problem.fleet, deployment)
        assert state.report["tiles"] == tiles
        assert state.report["tiles_solved"] >= 1

    @pytest.mark.timeout_guard(600)
    @pytest.mark.parametrize("tiles", ["2x2", "3x2"])
    @pytest.mark.parametrize("overlap", [0.0, 500.0])
    def test_cell_tiled_never_double_counts(self, tiles, overlap):
        spec = BASE.with_overrides(
            name=f"tiling-fuzz-cells-{tiles}-{int(overlap)}",
            tiles=tiles, tile_overlap_m=overlap,
            aggregation="cells", cell_size_m=250.0, seed=37,
        )
        state = SolvePipeline().run(spec)
        problem = state.problem
        deployment = state.deployment
        graph = problem.graph
        if isinstance(deployment, CellDeployment):
            validate_cell_deployment(graph, problem.fleet, deployment)
            for c, units in deployment.cell_totals().items():
                assert units <= int(graph.cell_demands[c])
        assert deployment.served_count <= graph.total_demand
        assert state.report["num_users"] == graph.total_demand


class TestSolveTiledContract:
    def test_rejects_spec_without_tiles(self):
        with pytest.raises(SpecError):
            solve_tiled(BASE)

    def test_rejects_tile_index_spec(self):
        spec = BASE.with_overrides(tiles="2x2", tile_index=1)
        with pytest.raises(SpecError):
            solve_tiled(spec)

    def test_report_carries_tiling_keys(self):
        state = SolvePipeline().run(
            BASE.with_overrides(name="tiling-report", tiles="2x2",
                                tile_overlap_m=300.0)
        )
        for key in ("tiles", "tiles_solved", "tiles_empty",
                    "relays_added", "degraded"):
            assert key in state.report
        assert state.report["tiles_solved"] + state.report["tiles_empty"] == 4

    def test_cells_require_capable_algorithm(self):
        spec = BASE.with_overrides(
            algorithm="MCS", algorithm_params={},
            aggregation="cells", cell_size_m=200.0,
        )
        with pytest.raises(SpecError, match="supports_cells"):
            SolvePipeline().run(spec)
