"""Scalar oracles for the solver's candidate ranking.

The production greedy (:func:`repro.core.greedy.anchored_greedy`,
:func:`repro.core.greedy.pair_greedy`) and connection step
(:func:`repro.core.connect.connect_and_deploy`) rank candidates with the
batched arrays of a :class:`repro.core.context.SolverContext`.  The
functions below are the per-candidate scalar loops those batched forms
replaced: each gain comes from the graph's own lookups
(``hops_to_set``, ``coverage_weight``, ``coverable_array``) and the
engine's scalar ``direct_gain_bound``.  They share no ranking code with
production, so agreement over the grid here licenses the batched path.

The functions keep the production signatures (``context`` is accepted
and ignored) so a test can monkeypatch them into
:mod:`repro.core.approx` and run a whole ``appro_alg`` sweep on them.
"""

from __future__ import annotations

from itertools import combinations, islice

import pytest

from repro import obs
from repro.core.connect import ConnectedSolution, connect_and_deploy
from repro.core.context import SolverContext
from repro.core.greedy import GreedyResult, anchored_greedy, pair_greedy
from repro.core.segments import optimal_segments
from repro.flow.bipartite import new_engine_for
from repro.matroid.hop import HopCountingMatroid, IncrementalHopFilter
from repro.workload.scenarios import paper_scenario
from tests.test_core_approx import random_tiny_problem

# -- the scalar oracles -------------------------------------------------------


def scalar_anchored_greedy(
    problem, anchors, plan, order=None, gain_mode="exact",
    context=None, engine=None,
) -> GreedyResult:
    """Algorithm 2 lines 5-12 with one scalar gain per candidate."""
    if gain_mode not in ("exact", "fast"):
        raise ValueError(f"gain_mode must be 'exact' or 'fast', got {gain_mode!r}")
    graph = problem.graph
    fleet = problem.fleet
    anchor_set = set(anchors)
    if len(anchor_set) != plan.s:
        raise ValueError(
            f"expected {plan.s} distinct anchors, got {sorted(anchor_set)}"
        )
    if order is None:
        order = problem.capacity_order()

    hops = graph.hops_to_set(list(anchor_set))
    matroid = HopCountingMatroid(hops, plan.q_bounds())
    hop_filter = IncrementalHopFilter(matroid)
    universe = sorted(matroid.ground_set())
    if engine is None:
        engine = new_engine_for(graph)

    chosen: list = []
    used_locations: set = set()
    rounds = min(plan.lmax, len(order))
    for k_pos in range(rounds):
        k = order[k_pos]
        uav = fleet[k]
        first_iteration = not chosen

        candidates = [
            v for v in universe
            if v not in used_locations and hop_filter.can_add(v)
        ]
        if not candidates:
            break
        if first_iteration or gain_mode == "fast":
            # With no open stations, min(capacity, |cover|) is the exact
            # gain; in fast mode the direct bound is the selection score.
            best_gain = -1
            best_v = -1
            best_is_anchor = False
            for v in candidates:
                if first_iteration:
                    gain = min(
                        uav.capacity, graph.coverage_weight(v, uav)
                    )
                else:
                    gain = engine.direct_gain_bound(
                        graph.coverable_array(v, uav), uav.capacity
                    )
                is_anchor = v in anchor_set
                if gain > best_gain or (
                    gain == best_gain and is_anchor and not best_is_anchor
                ):
                    best_gain, best_v, best_is_anchor = gain, v, is_anchor
        else:
            static = [
                min(uav.capacity, graph.coverage_weight(v, uav))
                for v in candidates
            ]
            best_v = _scalar_exact_scan(
                engine, graph, uav, k, anchor_set, static, candidates
            )

        assert best_v >= 0
        engine.open(
            (k, best_v), graph.coverable_array(best_v, fleet[k]), fleet[k].capacity
        )
        hop_filter.add(best_v)
        used_locations.add(best_v)
        chosen.append((k, best_v))

    missing = anchor_set - used_locations
    assert not missing, (
        f"anchors {sorted(missing)} not selected; the Q_h counting bounds "
        "should force all anchors into the solution"
    )
    obs.counter_inc("greedy.runs")
    obs.counter_inc("greedy.placements", len(chosen))
    return GreedyResult(chosen=chosen, engine=engine, served=engine.served_count)


def _scalar_exact_scan(
    engine, graph, uav, k, anchor_set, static_bounds, candidates
) -> int:
    """Bound-ordered exact-gain scan (try/rollback per candidate)."""
    scored = sorted(zip(static_bounds, candidates), key=lambda t: (-t[0], t[1]))
    best_gain = -1
    best_v = -1
    best_is_anchor = False
    for bound, v in scored:
        if bound < best_gain or (bound == best_gain and best_is_anchor):
            break  # no remaining candidate can strictly improve
        obs.counter_inc("greedy.oracle_calls")
        gain = engine.try_open(
            (k, v), graph.coverable_array(v, uav), uav.capacity
        )
        engine.rollback()
        is_anchor = v in anchor_set
        if gain > best_gain or (
            gain == best_gain and is_anchor and not best_is_anchor
        ):
            best_gain, best_v, best_is_anchor = gain, v, is_anchor
    return best_v


def scalar_pair_greedy(
    problem, anchors, plan, context=None, engine=None
) -> GreedyResult:
    """The FNW greedy over (UAV, location) pairs, bounds from the graph."""
    graph = problem.graph
    fleet = problem.fleet
    anchor_set = set(anchors)
    if len(anchor_set) != plan.s:
        raise ValueError(
            f"expected {plan.s} distinct anchors, got {sorted(anchor_set)}"
        )
    hops = graph.hops_to_set(list(anchor_set))
    matroid = HopCountingMatroid(hops, plan.q_bounds())
    hop_filter = IncrementalHopFilter(matroid)
    universe = sorted(matroid.ground_set())
    if engine is None:
        engine = new_engine_for(graph)

    chosen: list = []
    used_uavs: set = set()
    used_locations: set = set()
    for _round in range(min(plan.lmax, len(fleet))):
        free_uavs = [k for k in range(len(fleet)) if k not in used_uavs]
        candidates = [
            v for v in universe
            if v not in used_locations and hop_filter.can_add(v)
        ]
        if not free_uavs or not candidates:
            break
        scored = []
        for k in free_uavs:
            uav = fleet[k]
            for v in candidates:
                count = graph.coverage_weight(v, uav)
                scored.append((min(uav.capacity, count), k, v))
        scored.sort(key=lambda t: (-t[0], t[1], t[2]))

        best = (-1, -1, -1, False)  # gain, k, v, is_anchor
        for bound, k, v in scored:
            if bound < best[0] or (bound == best[0] and best[3]):
                break
            if chosen:
                obs.counter_inc("greedy.oracle_calls")
                gain = engine.try_open(
                    (k, v), graph.coverable_array(v, fleet[k]),
                    fleet[k].capacity,
                )
                engine.rollback()
            else:
                gain = bound
            is_anchor = v in anchor_set
            if gain > best[0] or (
                gain == best[0] and is_anchor and not best[3]
            ):
                best = (gain, k, v, is_anchor)
        _gain, k, v, _ = best
        assert k >= 0 and v >= 0
        engine.open((k, v), graph.coverable_array(v, fleet[k]),
                    fleet[k].capacity)
        hop_filter.add(v)
        used_uavs.add(k)
        used_locations.add(v)
        chosen.append((k, v))

    missing = anchor_set - used_locations
    assert not missing, "anchors must end up in the pair-greedy solution"
    obs.counter_inc("greedy.runs")
    obs.counter_inc("greedy.placements", len(chosen))
    return GreedyResult(chosen=chosen, engine=engine, served=engine.served_count)


def scalar_connect_and_deploy(
    problem, greedy, order=None, augment_leftover=True, gain_mode="exact",
    context=None,
) -> "ConnectedSolution | None":
    """Algorithm 2 lines 13-18 with one scalar gain per relay/frontier
    location."""
    graph = problem.graph
    fleet = problem.fleet
    if order is None:
        order = problem.capacity_order()

    terminals = [loc for _, loc in greedy.chosen]
    nodes, _tree = graph.connect_terminals(terminals)
    if len(nodes) > problem.num_uavs:
        return None

    placements = {k: loc for k, loc in greedy.chosen}
    used_uavs = set(placements)
    relays = sorted(nodes - set(terminals))
    remaining = [k for k in order if k not in used_uavs]
    assert len(remaining) >= len(relays), "q_j <= K must leave enough UAVs"

    engine = greedy.engine
    fast = gain_mode == "fast"
    pending = list(relays)
    for k in remaining[: len(relays)]:
        uav = fleet[k]
        best_gain = -1
        best_loc = pending[0]
        for loc in pending:
            if fast:
                gain = engine.direct_gain_bound(
                    graph.coverable_array(loc, uav), uav.capacity
                )
            else:
                gain = engine.try_open(
                    (k, loc), graph.coverable_array(loc, uav), uav.capacity
                )
                engine.rollback()
            if gain > best_gain:
                best_gain, best_loc = gain, loc
        engine.open(
            (k, best_loc), graph.coverable_array(best_loc, uav), uav.capacity
        )
        placements[k] = best_loc
        pending.remove(best_loc)

    occupied = set(nodes)
    if augment_leftover:
        adjacency = graph.location_graph
        frontier = {
            w
            for v in occupied
            for w in adjacency.neighbours(v)
            if w not in occupied
        }
        for k in remaining[len(relays):]:
            if not frontier:
                break
            uav = fleet[k]
            best_gain = 0
            best_loc = -1
            for loc in sorted(frontier):
                count = graph.coverage_weight(loc, uav)
                if min(uav.capacity, count) <= best_gain:
                    continue
                if fast:
                    gain = engine.direct_gain_bound(
                        graph.coverable_array(loc, uav), uav.capacity
                    )
                else:
                    gain = engine.try_open(
                        (k, loc), graph.coverable_array(loc, uav),
                        uav.capacity,
                    )
                    engine.rollback()
                if gain > best_gain:
                    best_gain, best_loc = gain, loc
            if best_loc < 0:
                break  # nothing adjacent helps; stop deploying
            engine.open(
                (k, best_loc),
                graph.coverable_array(best_loc, fleet[k]),
                fleet[k].capacity,
            )
            placements[k] = best_loc
            occupied.add(best_loc)
            frontier.discard(best_loc)
            frontier.update(
                w for w in adjacency.neighbours(best_loc) if w not in occupied
            )

    return ConnectedSolution(
        placements=placements,
        served=engine.served_count,
        relay_locations=relays,
        subgraph_nodes=occupied,
    )


# -- the equivalence grid -----------------------------------------------------

TINY_SEEDS = range(60)
SCENARIO_SEEDS = (1, 2, 3)
SUBSETS_PER_S = 60


def _scenario(seed: int):
    """Heterogeneous 200-user fleet over two altitude layers (m = 18)."""
    return paper_scenario(
        num_users=200, num_uavs=6, scale="small", seed=seed,
        altitude_layers_m=(200.0, 300.0),
    )


def _outcome(greedy_fn, connect_fn, problem, anchors, plan, order,
             inner, gain_mode, context):
    """``(chosen, greedy served, placements, final served)`` of one
    anchor set, or the exception type both paths must raise alike."""
    engine = new_engine_for(problem.graph)
    try:
        if inner == "pairs":
            greedy = greedy_fn["pairs"](
                problem, anchors, plan, context=context, engine=engine
            )
        else:
            greedy = greedy_fn["sorted"](
                problem, anchors, plan, order, gain_mode=gain_mode,
                context=context, engine=engine,
            )
        chosen, served = list(greedy.chosen), greedy.served
        solution = connect_fn(
            problem, greedy, order, gain_mode=gain_mode, context=context
        )
    except AssertionError as exc:
        return type(exc)
    if solution is None:
        return chosen, served, None, None
    return chosen, served, solution.placements, solution.served


_ORACLE = {"sorted": scalar_anchored_greedy, "pairs": scalar_pair_greedy}
_PRODUCTION = {"sorted": anchored_greedy, "pairs": pair_greedy}


def _check_problem(problem) -> int:
    context = SolverContext.from_problem(problem)
    order = problem.capacity_order()
    cases = 0
    for s in (1, 2):
        plan = optimal_segments(problem.num_uavs, s)
        for anchors in islice(
            combinations(range(problem.num_locations), s), SUBSETS_PER_S
        ):
            anchors = list(anchors)
            for inner in ("sorted", "pairs"):
                for gain_mode in ("exact", "fast"):
                    expected = _outcome(
                        _ORACLE, scalar_connect_and_deploy, problem,
                        anchors, plan, order, inner, gain_mode, None,
                    )
                    got = _outcome(
                        _PRODUCTION, connect_and_deploy, problem, anchors,
                        plan, order, inner, gain_mode, context,
                    )
                    assert got == expected, (anchors, s, inner, gain_mode)
                    cases += 1
    return cases


@pytest.mark.parametrize("seed", TINY_SEEDS)
def test_tiny_problem_matches_scalar_oracle(seed):
    # 3x3 grid: 9 singletons + 36 pairs, times 2 inners x 2 gain modes.
    assert _check_problem(random_tiny_problem(seed)) == 180


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_two_layer_scenario_matches_scalar_oracle(seed):
    # 18 locations: 18 singletons + the first 60 pairs, times 4.
    assert _check_problem(_scenario(seed)) == 312


def test_default_context_is_built_when_absent():
    """Direct callers that pass no context get the production path with
    a freshly built one — same result as passing it explicitly."""
    problem = _scenario(1)
    plan = optimal_segments(problem.num_uavs, 2)
    context = SolverContext.from_problem(problem)
    for gain_mode in ("exact", "fast"):
        with_ctx = anchored_greedy(
            problem, [0, 1], plan, gain_mode=gain_mode, context=context
        )
        without = anchored_greedy(problem, [0, 1], plan, gain_mode=gain_mode)
        assert with_ctx.chosen == without.chosen
        a = connect_and_deploy(problem, with_ctx, gain_mode=gain_mode,
                               context=context)
        b = connect_and_deploy(problem, without, gain_mode=gain_mode)
        assert a.placements == b.placements and a.served == b.served
