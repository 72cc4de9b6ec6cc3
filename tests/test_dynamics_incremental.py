"""Per-event oracle for the dynamics engine's live user↔UAV matching.

The world keeps the current placements' maximum matching live and patches
it with one augmenting-path search per arrival or departure.  After every
event the served count it reports must equal a from-scratch
``optimal_assignment`` (Dinic) over the same world, the live matching
must be a valid assignment under freshly computed coverage sets, and
every first-served stamp must name a user the live matching serves at
that instant.  The mission variants mirror the warm-vs-cold oracle's
seed grid (``tests/test_dynamics_oracle.py``); the unit cases drive the
augmenting-path searches through hand-built chains.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cli import main
from repro.core.assignment import optimal_assignment
from repro.core.problem import ProblemInstance
from repro.dynamics import engine, world as world_module
from repro.dynamics import run_dynamic
from repro.dynamics.world import WorldState
from repro.geometry.point import Point3D
from repro.network.coverage import CoverageGraph
from repro.network.uav import UAV
from repro.obs import read_trace
from repro.scenario.spec import ScenarioSpec
from tests.test_dynamics_oracle import ORACLE_SEEDS, oracle_spec


def assert_live_matching_exact(world, served, now, stamped_before):
    """The engine's observation at ``now`` against a from-scratch oracle."""
    active = world.active_placements()
    oracle = optimal_assignment(world.graph, world.fleet, active)
    assert served == oracle.served_count, f"t={now}"

    # The live matching is a valid assignment under coverage recomputed
    # on a clone with an empty coverage cache.
    live = world.assignment()
    assert len(live) == served
    fresh = world.graph.with_users(world.users)
    index = {uid: i for i, uid in enumerate(world.user_ids)}
    covered = {
        k: set(fresh.coverable_users(loc, world.fleet[k]))
        for k, loc in active.items()
    }
    for uid, k in live.items():
        assert k in active
        assert index[uid] in covered[k], f"t={now}: uid {uid} not covered"
    for k, load in Counter(live.values()).items():
        assert load <= world.fleet[k].capacity

    for uid in world.first_served_s.keys() - stamped_before:
        assert world.first_served_s[uid] == now
        assert uid in live, f"t={now}: uid {uid} stamped but not served"


def run_checked(spec, monkeypatch):
    """Run a mission with the oracle asserted after every observation."""
    observe = engine._Engine._observe
    checks = []

    def checked(self, now):
        stamped_before = set(self.world.first_served_s)
        observe(self, now)
        served = self.result.timeline[-1][1]
        assert_live_matching_exact(self.world, served, now, stamped_before)
        checks.append(now)

    monkeypatch.setattr(engine._Engine, "_observe", checked)
    result = run_dynamic(spec)
    assert len(checks) == len(result.timeline)
    return result


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_every_event_matches_oracle(seed, monkeypatch):
    result = run_checked(oracle_spec(seed), monkeypatch)
    assert result.arrivals > 0


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_every_event_matches_oracle_under_faults_and_drift(seed, monkeypatch):
    spec = oracle_spec(
        seed, resolve_policy="drift", drift_threshold=0.05,
        num_crashes=1, num_links=1, relocation_speed_mps=15.0,
    )
    result = run_checked(spec, monkeypatch)
    assert result.faults > 0


@pytest.mark.parametrize("seed", [5, 23])
def test_every_event_matches_oracle_with_rotation(seed, monkeypatch):
    spec = oracle_spec(
        seed, num_users=8, num_uavs=8, capacity_min=20, capacity_max=20,
        arrival_rate_per_s=0.0, mobility_sigma_m=0.0, hotspot_drift_mps=0.0,
        duration_s=5400.0, epoch_s=2700.0, recharge_s=300.0,
    )
    result = run_checked(spec, monkeypatch)
    assert result.rotations > 0


@pytest.mark.parametrize("seed", [2, 11])
def test_every_event_matches_oracle_heterogeneous_layers(seed, monkeypatch):
    spec = oracle_spec(
        seed, num_users=40, num_uavs=4, capacity_min=3, capacity_max=15,
        altitude_layers_m=(200.0, 300.0, 400.0), arrival_rate_per_s=0.2,
        mean_dwell_s=90.0,
    )
    result = run_checked(spec, monkeypatch)
    # Capacity binds at some point, so the matching had choices to make.
    assert any(served < active for _, served, active in result.timeline)


# -- hand-built chains -------------------------------------------------------
#
# Three unit-capacity stations on a line, 200 m apart at 100 m altitude,
# each reaching users within ~112 m of its ground point: a user at x=100
# is covered by A and B, at x=300 by B and C, at x=0 by A alone, at x=400
# by C alone, and at x=1000 by nobody.

A, B, C = 0, 1, 2


@pytest.fixture
def rebuilds(monkeypatch):
    """One entry per from-scratch matching the world builds."""
    calls = []
    full_solve = world_module.optimal_assignment

    def counted(*args):
        calls.append(args)
        return full_solve(*args)

    monkeypatch.setattr(world_module, "optimal_assignment", counted)
    return calls


@pytest.fixture
def line_world(rebuilds):
    graph = CoverageGraph(
        users=[],
        locations=[Point3D(200.0 * i, 0.0, 100.0) for i in range(3)],
        uav_range_m=250.0,
    )
    fleet = [UAV(capacity=1, user_range_m=150.0) for _ in range(3)]
    world = WorldState.from_problem(ProblemInstance(graph=graph, fleet=fleet))
    world.placements = {A: A, B: B, C: C}
    assert world.evaluate(0.0) == 0
    assert len(rebuilds) == 1
    return world


def add(world, x, now=1.0):
    return world.add_user(x, 0.0, now, min_rate_bps=1e3)


def assert_oracle(world, served):
    oracle = optimal_assignment(
        world.graph, world.fleet, world.active_placements()
    )
    assert served == oracle.served_count


def test_arrival_displaces_along_a_chain(line_world, rebuilds):
    world = line_world
    u0, u1 = add(world, 100.0), add(world, 300.0)
    assert world.evaluate(1.0) == 2
    # u2 is covered by A alone; serving it moves u0 from A to B and u1
    # from B to C.
    u2 = add(world, 0.0, now=2.0)
    served = world.evaluate(2.0)
    assert served == 3
    assert world.assignment() == {u2: A, u0: B, u1: C}
    assert world.first_served_s[u2] == 2.0
    assert_oracle(world, served)
    assert len(rebuilds) == 1


def test_departure_reaugments_through_a_chain(line_world, rebuilds):
    world = line_world
    u0, u1, u2 = add(world, 100.0), add(world, 300.0), add(world, 0.0)
    u3 = add(world, 400.0)                  # C alone, and C is taken
    assert world.evaluate(1.0) == 3
    assert u3 not in world.assignment()
    # u2 leaves A; u0 moves back to A, u1 to B, and u3 takes C.
    assert world.remove_user(u2)
    served = world.evaluate(5.0)
    assert served == 3
    assert world.assignment() == {u0: A, u1: B, u3: C}
    assert world.first_served_s[u3] == 5.0
    assert_oracle(world, served)
    assert len(rebuilds) == 1


def test_unmatched_departure_is_a_noop(line_world, rebuilds):
    world = line_world
    add(world, 0.0)
    extra = add(world, 0.0)                 # A is full: extra waits
    assert world.evaluate(1.0) == 1
    before = world.assignment()
    assert extra not in before
    assert world.remove_user(extra)
    assert not world.remove_user(extra)
    assert world.evaluate(2.0) == 1
    assert world.assignment() == before
    assert extra not in world.first_served_s
    assert len(rebuilds) == 1


def test_arrival_covered_by_no_station(line_world):
    world = line_world
    add(world, 100.0)
    stranded = add(world, 1000.0)
    served = world.evaluate(1.0)
    assert served == 1
    assert world.num_active == 2
    assert stranded not in world.assignment()
    assert_oracle(world, served)


def test_station_change_rebuilds_once(line_world, rebuilds):
    world = line_world
    for x in (100.0, 300.0, 0.0):
        add(world, x)
    assert world.evaluate(1.0) == 3
    world.down.add(B)
    assert world.evaluate(2.0) == 2
    assert len(rebuilds) == 2
    assert world.evaluate(3.0) == 2
    assert len(rebuilds) == 2


def test_graph_syncs_lazily(line_world, monkeypatch):
    world = line_world
    syncs = []
    replace = CoverageGraph.replace_users

    def counted(graph, users):
        syncs.append(len(users))
        replace(graph, users)

    monkeypatch.setattr(CoverageGraph, "replace_users", counted)
    uids = [add(world, x) for x in (0.0, 100.0, 300.0, 1000.0)]
    world.remove_user(uids[1])
    world.evaluate(1.0)
    assert syncs == []
    assert [u.position.x for u in world.graph.users] == [0.0, 300.0, 1000.0]
    assert world.graph.num_users == 3
    assert syncs == [3]          # one flush for five population changes


# -- the shared coverage predicate ------------------------------------------


def test_user_covered_agrees_with_bulk_coverage():
    problem = ScenarioSpec(
        name="pred", scale="small", num_users=200, num_uavs=4, seed=5,
        altitude_layers_m=(200.0, 300.0, 400.0),
        capacity_min=5, capacity_max=40,
    ).build()
    graph = problem.graph
    n = graph.num_users
    per_location = graph.with_users(graph.users)
    batched = graph.with_users(graph.users)
    radios = {graph.radio_signature(uav): uav for uav in problem.fleet}
    assert len(radios) > 1
    for uav in radios.values():
        bits = batched.coverage_bits_matrix(uav)
        for loc in range(graph.num_locations):
            got = [
                i for i, user in enumerate(graph.users)
                if graph.user_covered(user, loc, uav)
            ]
            assert got == per_location.coverable_users(loc, uav)
            assert got == np.flatnonzero(
                np.unpackbits(bits[loc])[:n]
            ).tolist()


# -- mission-time attribution -----------------------------------------------


def test_trace_attributes_the_mission_to_child_spans(tmp_path, capsys):
    path = tmp_path / "mission.jsonl"
    assert main([
        "dynamic", "--scenario", "dynamic-small", "--trace", str(path),
    ]) == 0
    spans = read_trace(path).spans
    (run,) = [s for s in spans if s["name"] == "dynamic.run"]
    children = [s for s in spans if s["parent"] == run["index"]]
    names = {s["name"] for s in children}
    assert {"dynamic.event", "dynamic.observe"} <= names
    attributed = sum(s["duration_ns"] for s in children)
    assert attributed >= 0.9 * run["duration_ns"]
    kinds = {
        s["attrs"]["kind"] for s in children if s["name"] == "dynamic.event"
    }
    assert {"arrival", "departure", "epoch"} <= kinds
