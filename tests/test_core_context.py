"""SolverContext: the precomputed arrays must agree exactly with the
graph's scalar lookups, survive pickling, warm worker caches faithfully,
and the vectorized subset operations must match their scalar references."""

from __future__ import annotations

import pickle
from itertools import combinations

import numpy as np
import pytest

from repro.core.approx import appro_alg
from repro.core.context import SolverContext, prunable_mask, subset_bounds
from repro.core.problem import ProblemInstance
from repro.graphs.bfs import UNREACHABLE, bfs_hops
from repro.network.coverage import CoverageGraph
from repro.workload.scenarios import paper_scenario
from tests.conftest import make_line_instance


def _prunable(problem: ProblemInstance, subset: tuple) -> bool:
    """Scalar oracle for the connectivity prune
    (:func:`repro.core.context.prunable_mask` must agree with it).  True
    if the anchors provably cannot appear in any feasible solution: some
    pair is disconnected, or the path joining the two farthest anchors
    alone already needs more than ``K`` nodes (a valid lower bound on any
    connected subgraph containing the anchors; see
    :func:`repro.graphs.steiner.connection_cost_lower_bound`)."""
    graph = problem.graph
    worst = 0
    for a_pos in range(len(subset) - 1):
        row = graph.hops_from(subset[a_pos])
        for b in subset[a_pos + 1:]:
            d = row[b]
            if d == UNREACHABLE:
                return True
            worst = max(worst, d)
    return max(len(subset), worst + 1) > problem.num_uavs


@pytest.fixture(scope="module")
def problem():
    return paper_scenario(num_users=150, num_uavs=5, scale="small", seed=11)


@pytest.fixture(scope="module")
def context(problem):
    return SolverContext.from_problem(problem)


def test_hop_matrix_matches_bfs(problem, context):
    graph = problem.graph
    for v in range(problem.num_locations):
        assert context.hop_matrix[v].tolist() == bfs_hops(
            graph.location_graph, v
        )


def test_hops_to_set_matches_graph(problem, context):
    graph = problem.graph
    for sources in ([0], [1, 4], list(range(problem.num_locations))):
        assert context.hops_to_set(sources) == graph.hops_to_set(sources)


def test_coverage_counts_match_cover_lists(problem, context):
    graph = problem.graph
    for k, uav in enumerate(problem.fleet):
        for v in range(problem.num_locations):
            users = graph.coverable_users(v, uav)
            assert context.coverage_count(v, k) == len(users)
            assert context.coverable_users(v, k) == users


def test_union_counts_match_set_unions(problem, context):
    graph = problem.graph
    for k, uav in enumerate(problem.fleet):
        for subset in combinations(range(problem.num_locations), 3):
            expected = set()
            for v in subset:
                expected.update(graph.coverable_users(v, uav))
            assert context.union_coverage_count(list(subset), k) == len(
                expected
            )


def test_best_counts_is_max_over_radios(problem, context):
    for v in range(problem.num_locations):
        best = max(
            len(problem.graph.coverable_users(v, uav))
            for uav in problem.fleet
        )
        assert int(context.best_counts[v]) == best


def test_pickle_roundtrip(context):
    clone = pickle.loads(pickle.dumps(context))
    assert np.array_equal(clone.hop_matrix, context.hop_matrix)
    assert np.array_equal(clone.coverage_bits, context.coverage_bits)
    assert clone.radio_keys == context.radio_keys
    assert clone.capacities == context.capacities
    assert clone.num_users == context.num_users


def test_install_into_warms_cold_graph(problem, context):
    graph = problem.graph
    cold = CoverageGraph(
        users=graph.users,
        locations=graph.locations,
        uav_range_m=graph.uav_range_m,
        channel=graph.channel,
    )
    context.install_into(cold)
    for v in range(problem.num_locations):
        assert cold.hops_from(v) == graph.hops_from(v)
        for uav in problem.fleet:
            assert cold.coverable_users(v, uav) == graph.coverable_users(
                v, uav
            )


def test_matches_rejects_other_shapes(problem, context):
    assert context.matches(problem)
    other = paper_scenario(num_users=90, num_uavs=4, scale="small", seed=2)
    assert not context.matches(other)
    with pytest.raises(ValueError, match="context"):
        appro_alg(other, s=2, context=context)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_prunable_mask_matches_scalar_reference(problem, context, s):
    subsets = np.array(
        list(combinations(range(problem.num_locations), s)), dtype=np.int32
    )
    mask = prunable_mask(context, subsets, problem.num_uavs)
    for row, flag in zip(subsets, mask):
        assert bool(flag) == _prunable(problem, tuple(int(v) for v in row))


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_bounds_are_admissible(seed):
    """For every evaluated (non-pruned) subset the bound must dominate the
    served count actually achieved — the losslessness precondition."""
    problem = paper_scenario(
        num_users=120, num_uavs=4, scale="small", seed=seed
    )
    context = SolverContext.from_problem(problem)
    subsets = np.array(
        list(combinations(range(problem.num_locations), 2)), dtype=np.int32
    )
    bounds = subset_bounds(context, subsets, problem.num_uavs)
    best = appro_alg(problem, s=2).served
    mask = prunable_mask(context, subsets, problem.num_uavs)
    # The overall best is achieved by some surviving subset, so the max
    # surviving bound must be at least the best served count.
    assert bounds[~mask].max() >= best
    for row, bound in zip(subsets, bounds):
        anchors = [int(v) for v in row]
        if _prunable(problem, tuple(anchors)):
            continue
        result = appro_alg(problem, s=2, anchor_candidates=anchors)
        assert bound >= result.served, (
            f"bound {bound} below achievable {result.served} for {anchors}"
        )


def test_bounds_prune_far_anchor_pairs():
    """On a line with all users at one end, anchor pairs at the empty end
    must get bounds strictly below what the loaded end achieves."""
    p = make_line_instance(
        num_locations=10,
        users_per_location=[30, 30, 20, 0, 0, 0, 0, 0, 0, 2],
        capacities=[25, 20, 15, 10],
    )
    context = SolverContext.from_problem(p)
    subsets = np.array([[0, 1], [8, 9]], dtype=np.int32)
    bounds = subset_bounds(context, subsets, p.num_uavs)
    assert bounds[0] > bounds[1]
