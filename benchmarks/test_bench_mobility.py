"""Mobility-step ablation (ours): incremental user updates vs rebuild.

Rebuilding the whole :class:`CoverageGraph` — location edges, spatial
hashes, hop structure — on every mobility step is wasted work, because a
step only moves *users*.  Keeping one working graph
(:meth:`CoverageGraph.with_users`) and calling
:meth:`~CoverageGraph.move_users` per step invalidates only the user-side
coverage cache.  This bench measures the per-step win and records it as a
trajectory point.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.assignment import optimal_assignment
from repro.network.coverage import CoverageGraph
from repro.sim.mobility import GaussianWalk
from repro.workload.scenarios import paper_scenario

from .conftest import BENCH_SCALE

TITLE = "Mobility step - incremental move_users vs full graph rebuild"

STEPS = 8


def _walk_positions(problem, steps, seed=3):
    """One shared mobility realisation: the per-step user positions."""
    rng = np.random.default_rng(seed)
    walk = GaussianWalk(sigma_m=40.0)
    graph = problem.graph
    xy = np.array(
        [[u.position.x, u.position.y] for u in graph.users], dtype=float
    )
    xs = [loc.x for loc in graph.locations]
    ys = [loc.y for loc in graph.locations]
    bounds = (min(xs), max(xs), min(ys), max(ys))
    out = []
    for _ in range(steps):
        xy = walk.step(xy, bounds, rng)
        out.append(xy.copy())
    return out


def test_incremental_step_beats_rebuild(figure_report, perf_trajectory):
    problem = paper_scenario(
        num_users=600, num_uavs=8, scale=BENCH_SCALE, seed=3
    )
    graph = problem.graph
    placements = {k: k for k in range(problem.num_uavs)}
    positions = _walk_positions(problem, STEPS)

    # Rebuild: a brand-new graph (location edges + spatial hashes) per
    # step.
    start = time.perf_counter()
    rebuilt_served = []
    for xy in positions:
        working = CoverageGraph(
            users=graph.users, locations=graph.locations,
            uav_range_m=graph.uav_range_m, channel=graph.channel,
            bandwidth_hz=graph.bandwidth_hz,
        )
        working.move_users(xy)
        rebuilt_served.append(
            optimal_assignment(
                working, problem.fleet, placements
            ).served_count
        )
    rebuild_s = (time.perf_counter() - start) / STEPS

    # Incremental: one working clone, move_users per step.
    start = time.perf_counter()
    incremental_served = []
    working = graph.with_users(graph.users)
    for xy in positions:
        working.move_users(xy)
        incremental_served.append(
            optimal_assignment(
                working, problem.fleet, placements
            ).served_count
        )
    incremental_s = (time.perf_counter() - start) / STEPS

    assert incremental_served == rebuilt_served
    speedup = rebuild_s / incremental_s if incremental_s > 0 else None

    figure_report.record(
        "mobility-step", TITLE, "rebuild", "ms/step",
        round(rebuild_s * 1e3, 2), round(rebuild_s, 4),
    )
    figure_report.record(
        "mobility-step", TITLE, "incremental", "ms/step",
        round(incremental_s * 1e3, 2), round(incremental_s, 4),
    )
    perf_trajectory.record(
        scenario="mobility:step",
        algorithm="move_users",
        served=incremental_served[-1],
        wall_s=incremental_s,
        speedup=None if speedup is None else round(speedup, 2),
    )

