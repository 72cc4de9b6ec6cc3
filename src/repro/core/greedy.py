"""The anchored submodular greedy — Algorithm 2, lines 5-12.

For a fixed anchor set ``V*_j`` the greedy deploys UAVs in decreasing
capacity order; in the k-th iteration it places the k-th UAV at the hop-
matroid-feasible location with the largest *exact* marginal gain in served
users (marginal gains are computed with the incremental max-flow engine,
so they equal re-solving Section II-D from scratch).

Every round is numpy-native over a :class:`~repro.core.context.
SolverContext` (built from the problem when the caller passes none):

* matroid feasibility is one comparison against the hop array
  (:meth:`IncrementalHopFilter.max_addable_hop`);
* ``min(capacity, |coverable|)`` upper-bounds any station's marginal gain
  and is one lookup in the context's coverage counts; in the first
  iteration it *is* the gain (no other stations to interact with), so no
  flow computation is needed;
* candidate direct gains are one masked popcount over the context's
  packed coverage matrix (:meth:`IncrementalAssignment.direct_gain_bounds`);
* in exact mode candidates are scanned in decreasing static-bound order
  and the scan stops once the bound falls to the best exact gain found;
  the batched direct gains are *lower* bounds, so any candidate whose
  static bound is below the best of them can never be scanned before the
  cutoff fires and is dropped up front.

Zero-gain ties are broken in favour of anchors, then lowest location index
(determinism).  The counting bounds ``Q_h`` guarantee all ``s`` anchors are
in the solution at termination; this is asserted.
``tests/test_solver_oracle.py`` checks these batched forms against
per-candidate scalar loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.context import SolverContext
from repro.core.problem import ProblemInstance
from repro.core.segments import SegmentPlan
from repro.flow.bipartite import IncrementalAssignment, new_engine_for
from repro.matroid.hop import HopCountingMatroid, IncrementalHopFilter


@dataclass
class GreedyResult:
    """Outcome of the anchored greedy for one anchor set."""

    chosen: list            # [(uav_index, location_index)] in deployment order
    engine: IncrementalAssignment  # live assignment state over the chosen stations
    served: int              # users served by the chosen stations


def _pick_max(cand: np.ndarray, gains: np.ndarray,
              cand_anchor: np.ndarray) -> "tuple[int, int]":
    """Vectorised winner rule over ascending candidate indices: among the
    max-gain candidates prefer anchors, then the lowest location index —
    exactly what the scalar scan's ``gain > best or (tie and anchor)``
    update converges to."""
    best_gain = int(gains.max())
    ties = gains == best_gain
    tie_anchor = ties & cand_anchor
    pick = tie_anchor if tie_anchor.any() else ties
    return int(cand[pick][0]), best_gain


def anchored_greedy(
    problem: ProblemInstance,
    anchors: list,
    plan: SegmentPlan,
    order: "list | None" = None,
    gain_mode: str = "exact",
    context: "SolverContext | None" = None,
    engine: "IncrementalAssignment | None" = None,
) -> GreedyResult:
    """Run the greedy for anchor set ``anchors`` under segment plan ``plan``.

    ``order`` is the UAV deployment order (defaults to decreasing capacity);
    at most ``plan.lmax`` UAVs are placed.

    ``gain_mode`` selects how candidates are compared in each iteration:

    * ``"exact"`` (paper-faithful): the exact marginal gain of every
      feasible candidate is computed via try/rollback augmentation;
    * ``"fast"``: candidates are ranked by the *direct* gain bound (the
      unassigned users they cover, capped by capacity — a lower bound that
      omits alternating-chain gains); only the winner is opened, exactly.
      The maintained assignment stays an exact maximum either way; only the
      selection score is approximated.  The ablation bench quantifies the
      difference (typically nil to a fraction of a percent of coverage).

    ``context`` (a :class:`repro.core.context.SolverContext`) supplies the
    hop rows, coverage counts and packed coverage matrix every round reads;
    when ``None`` one is built from ``problem``, as :func:`repro.core.
    approx.appro_alg` does.

    ``engine`` optionally supplies a warm :class:`IncrementalAssignment`
    with no open stations — typically one the caller has :meth:`~
    repro.flow.bipartite.IncrementalAssignment.fork`-ed so the subset
    sweep reuses a single engine.  All stations this greedy opens are
    committed into the caller's fork scope.
    """
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
    if context is None:
        context = SolverContext.from_problem(problem)

    hops = context.hops_to_set(list(anchor_set))
    matroid = HopCountingMatroid(hops, plan.q_bounds())
    hop_filter = IncrementalHopFilter(matroid)
    if engine is None:
        engine = new_engine_for(graph)

    universe = np.asarray(sorted(matroid.ground_set()), dtype=np.int64)
    uhops = np.asarray(hops, dtype=np.int64)[universe]
    anchor_flags = np.isin(universe, np.fromiter(anchor_set, dtype=np.int64))
    avail = np.ones(universe.size, dtype=bool)

    chosen: list = []
    for k in order[: plan.lmax]:
        uav = fleet[k]
        # Feasibility is one hop comparison, gains one batched reduction
        # over the coverage matrix.
        cand_mask = avail & (uhops <= hop_filter.max_addable_hop())
        if not cand_mask.any():
            break
        cand = universe[cand_mask]
        cand_anchor = anchor_flags[cand_mask]
        static = np.minimum(
            uav.capacity, context.counts_for_uav(k)[cand].astype(np.int64)
        )
        if not chosen:
            # With no open stations the static bound is the exact gain.
            best_v, _ = _pick_max(cand, static, cand_anchor)
        elif gain_mode == "fast":
            gains = engine.direct_gain_bounds(
                context.coverage_rows(k)[cand], uav.capacity
            )
            best_v, _ = _pick_max(cand, gains, cand_anchor)
        else:
            # Exact mode: the batched direct bounds are *lower* bounds, so
            # any candidate whose static upper bound falls below the best
            # of them would only ever be reached after the scan cutoff
            # fires — dropping it changes nothing, including the
            # oracle-call count.
            lower = engine.direct_gain_bounds(
                context.coverage_rows(k)[cand], uav.capacity
            )
            keep = static >= int(lower.max())
            best_v = _exact_scan(
                engine, graph, uav, k, anchor_set,
                static[keep].tolist(), cand[keep].tolist(),
            )
        avail[np.searchsorted(universe, best_v)] = False
        engine.open(
            (k, best_v), graph.coverable_array(best_v, uav), uav.capacity
        )
        hop_filter.add(best_v)
        chosen.append((k, best_v))

    missing = anchor_set - {v for _, v in chosen}
    assert not missing, (
        f"anchors {sorted(missing)} not selected; the Q_h counting bounds "
        "should force all anchors into the solution"
    )
    obs.counter_inc("greedy.runs")
    obs.counter_inc("greedy.placements", len(chosen))
    return GreedyResult(chosen=chosen, engine=engine, served=engine.served_count)


def _exact_scan(
    engine: IncrementalAssignment,
    graph,
    uav,
    k: int,
    anchor_set: set,
    static_bounds: list,
    candidates: list,
) -> int:
    """Bound-ordered exact-gain scan: try candidates in decreasing
    ``min(capacity, |cover|)`` order, stopping once the bound can no longer
    strictly improve (or tie in the anchors' favour).  The coverage list
    itself is only fetched for candidates that survive the cutoff."""
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


def pair_greedy(
    problem: ProblemInstance,
    anchors: list,
    plan: SegmentPlan,
    context: "SolverContext | None" = None,
    engine: "IncrementalAssignment | None" = None,
) -> GreedyResult:
    """Textbook FNW greedy over the full ``X × V`` ground set.

    Unlike Algorithm 2's capacity-sorted specialisation (UAV ``k`` is fixed
    in iteration ``k``), each iteration here picks the best *(UAV,
    location)* pair among those feasible in both matroids — ``M1`` (each
    UAV once; plus each location once, which deployments require) and
    ``M2`` (hop counting).  This is the form the 1/3 guarantee is stated
    for; the ablation bench compares it against Algorithm 2's loop.

    Gains are exact (try/rollback); the ``min(capacity, |cover|)`` bound
    prunes the pair scan.  Zero-gain ties prefer anchor locations so the
    anchors always enter the solution.  ``context`` and ``engine`` work as
    in :func:`anchored_greedy`.
    """
    graph = problem.graph
    fleet = problem.fleet
    anchor_set = set(anchors)
    if len(anchor_set) != plan.s:
        raise ValueError(
            f"expected {plan.s} distinct anchors, got {sorted(anchor_set)}"
        )
    if context is None:
        context = SolverContext.from_problem(problem)
    hops = context.hops_to_set(list(anchor_set))
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
            capacity = fleet[k].capacity
            counts = context.counts_for_uav(k).tolist()
            scored.extend((min(capacity, counts[v]), k, v) for v in candidates)
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
