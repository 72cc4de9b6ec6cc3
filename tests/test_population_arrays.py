"""The population is arrays from generation to solve.

A coverage graph keeps its users as ``(n, 2)`` positions and ``(n,)``
minimum rates whichever way they were given; :attr:`CoverageGraph.users`
is a view built on first access.  The static scale path (generate,
aggregate, carve, tiled solve) never reads it, so it builds no
:class:`User` at all.
"""

import numpy as np
import pytest

from repro.network.coverage import CoverageGraph
from repro.network.fleet import heterogeneous_fleet
from repro.network.users import User
from repro.scenario.spec import PRESETS
from repro.scenario.tiling import carve_tiles, solve_tiled
from repro.workload.scenarios import paper_scenario


@pytest.fixture
def user_count(monkeypatch):
    """Counts every :class:`User` constructed while the test runs."""
    built = [0]
    check = User.__post_init__

    def counting(self):
        built[0] += 1
        check(self)

    monkeypatch.setattr(User, "__post_init__", counting)
    return built


def test_scale_smoke_builds_no_user_objects(user_count):
    spec = PRESETS["scale-smoke"]
    problem = spec.build()
    tiles = carve_tiles(problem, spec.tile_grid(), spec.tile_overlap_m)
    state = solve_tiled(spec)
    assert state.deployment is not None and state.record.served > 0
    graphs = [problem.graph, state.problem.graph] + [
        t.problem.graph for t in tiles if t.problem is not None
    ]
    assert all(g._users is None for g in graphs)
    assert user_count[0] == 0


def _graph_pair(seed: int):
    """One scenario's graph installed from arrays and again from the
    equivalent :class:`User` list, with a fleet of mixed radios."""
    problem = paper_scenario(num_users=400, num_uavs=6, scale="small",
                             seed=seed)
    arrays = problem.graph
    listed = CoverageGraph(
        users=[
            User(u.position, u.min_rate_bps * (1 + i % 3))
            for i, u in enumerate(arrays.users)
        ],
        locations=arrays.locations, uav_range_m=arrays.uav_range_m,
        channel=arrays.channel, bandwidth_hz=arrays.bandwidth_hz,
    )
    arrays = arrays.with_users((arrays._user_xy, listed._user_min_rate))
    fleet = heterogeneous_fleet(6, heterogeneous_ranges=True, seed=seed)
    return listed, arrays, fleet


@pytest.mark.parametrize("seed", [0, 5])
def test_list_and_array_installs_agree(seed):
    listed, arrays, fleet = _graph_pair(seed)
    assert np.array_equal(listed._user_xy, arrays._user_xy)
    assert np.array_equal(listed._user_min_rate, arrays._user_min_rate)
    radios = {listed.radio_signature(u): u for u in fleet}
    assert len(radios) > 1
    for v, loc in enumerate(listed.locations):
        for uav in radios.values():
            hits = listed._user_hash.query_disc(loc.ground(), uav.user_range_m)
            assert hits == arrays._user_hash.query_disc(
                loc.ground(), uav.user_range_m
            )
            assert listed.coverable_users(v, uav) == arrays.coverable_users(
                v, uav
            )


def test_users_view_is_lazy_and_aligned():
    problem = paper_scenario(num_users=50, num_uavs=2, scale="small", seed=3)
    graph = problem.graph
    assert graph.num_users == 50 and graph._users is None
    users = graph.users
    assert graph.users is users
    assert [(u.position.x, u.position.y) for u in users] == [
        tuple(p) for p in graph._user_xy.tolist()
    ]
    assert [u.min_rate_bps for u in users] == graph._user_min_rate.tolist()
    assert all(u.position.z == 0.0 for u in users)


def test_move_users_installs_arrays_only(user_count):
    problem = paper_scenario(num_users=120, num_uavs=3, scale="small", seed=4)
    graph, uav = problem.graph, problem.fleet[0]
    moved_xy = graph._user_xy[::-1] + 25.0
    built = user_count[0]
    graph.move_users(moved_xy)
    assert user_count[0] == built and graph._users is None
    reference = CoverageGraph(
        users=(moved_xy.copy(), graph._user_min_rate.copy()),
        locations=graph.locations, uav_range_m=graph.uav_range_m,
        channel=graph.channel,
    )
    assert np.array_equal(graph._user_xy, reference._user_xy)
    for v in range(graph.num_locations):
        assert graph.coverable_users(v, uav) == reference.coverable_users(
            v, uav
        )
    with pytest.raises(ValueError, match="shape"):
        graph.move_users(moved_xy[:-1])
