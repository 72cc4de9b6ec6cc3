"""Connection step of Algorithm 2 (lines 13-18).

The greedy's chosen locations may induce a disconnected subgraph; build the
complete hop-weighted graph over them, take an MST, expand each MST edge
into a shortest path in the location graph, and deploy the remaining UAVs
(in decreasing capacity order) on the relay nodes so the final network is
connected.  If the connected subgraph needs more than ``K`` nodes the
anchor set is infeasible and ``None`` is returned.

Candidate relay and frontier locations are ranked from a
:class:`~repro.core.context.SolverContext`: fast mode scores them all in
one batched reduction, exact mode tries them one by one on the flow
engine behind a static coverage-count pre-filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.context import SolverContext
from repro.core.greedy import GreedyResult
from repro.core.problem import ProblemInstance


@dataclass
class ConnectedSolution:
    """A feasible connected deployment candidate for one anchor set."""

    placements: dict   # uav_index -> location_index (greedy picks + relays)
    served: int         # optimal served users for these placements
    relay_locations: list
    subgraph_nodes: set


def connect_and_deploy(
    problem: ProblemInstance,
    greedy: GreedyResult,
    order: "list | None" = None,
    augment_leftover: bool = True,
    gain_mode: str = "exact",
    context: "SolverContext | None" = None,
) -> "ConnectedSolution | None":
    """Connect the greedy's locations and staff the relays with UAVs.

    ``context`` (a :class:`repro.core.context.SolverContext`, built from
    ``problem`` when ``None``) supplies the coverage counts and packed
    coverage rows the candidate scans read; the connection itself always
    runs on the graph's cached hop rows.

    Relay staffing follows the paper's "arbitrary, e.g. greedy" guidance:
    remaining UAVs are taken in decreasing capacity order and each is put on
    the relay location with the largest marginal gain (relays can serve
    users too, so this only helps).  Returns ``None`` when the connected
    subgraph would need more than ``K`` UAVs.

    When ``augment_leftover`` is true (default) the ``K - q_j`` UAVs that
    Algorithm 2 as written would leave on the ground are deployed too: each
    goes, in decreasing capacity order, to the unoccupied location adjacent
    to the current network with the largest gain, stopping at zero gain.
    This preserves connectivity and can only increase coverage; the
    ablation bench quantifies its effect (it is our addition, not the
    paper's — see DESIGN.md §3).

    Gains follow ``gain_mode`` as in the greedy: ``"exact"`` tries each
    candidate on the engine (try/rollback), ``"fast"`` ranks all of them
    by the direct gain bound in one masked popcount and takes the first
    maximum.
    """
    graph = problem.graph
    fleet = problem.fleet
    if order is None:
        order = problem.capacity_order()
    if context is None:
        context = SolverContext.from_problem(problem)

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
        if fast:
            gains = engine.direct_gain_bounds(
                context.coverage_rows(k)[np.asarray(pending)], uav.capacity
            )
            best_loc = pending[int(np.argmax(gains))]
        else:
            best_gain = -1
            best_loc = pending[0]
            for loc in pending:
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
            locs = sorted(frontier)
            if fast:
                gains = engine.direct_gain_bounds(
                    context.coverage_rows(k)[np.asarray(locs)], uav.capacity
                )
                pos = int(np.argmax(gains))
                best_loc = locs[pos] if int(gains[pos]) > 0 else -1
            else:
                counts = context.counts_for_uav(k)
                best_gain = 0
                best_loc = -1
                for loc in locs:
                    # Static pre-filter: min(capacity, |cover|) bounds the
                    # exact gain, so skip what cannot strictly improve.
                    if min(uav.capacity, int(counts[loc])) <= best_gain:
                        continue
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
                (k, best_loc), graph.coverable_array(best_loc, uav),
                uav.capacity,
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
