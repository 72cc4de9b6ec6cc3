"""Tests for the anchored matroid greedy (Algorithm 2 inner loop)."""

import pytest

from repro.core.greedy import anchored_greedy
from repro.core.segments import optimal_segments
from tests.conftest import make_line_instance


def line_problem(num_locations=6, capacities=None):
    return make_line_instance(
        num_locations=num_locations,
        users_per_location=3,
        capacities=capacities or tuple([3] * num_locations),
    )


class TestAnchoredGreedy:
    def test_anchors_always_selected(self):
        problem = line_problem()
        plan = optimal_segments(problem.num_uavs, 2)
        for anchors in ([0, 5], [2, 3], [1, 4]):
            result = anchored_greedy(problem, anchors, plan)
            chosen_locations = {loc for _, loc in result.chosen}
            assert set(anchors) <= chosen_locations

    def test_respects_lmax(self):
        problem = line_problem()
        plan = optimal_segments(problem.num_uavs, 2)
        result = anchored_greedy(problem, [0, 1], plan)
        assert len(result.chosen) <= plan.lmax

    def test_capacity_order(self):
        """UAVs deploy in decreasing capacity order (Algorithm 2 line 5)."""
        problem = line_problem(capacities=(1, 5, 2, 4, 3, 6))
        plan = optimal_segments(problem.num_uavs, 2)
        result = anchored_greedy(problem, [2, 3], plan)
        caps = [problem.fleet[k].capacity for k, _ in result.chosen]
        assert caps == sorted(caps, reverse=True)

    def test_each_uav_placed_at_most_once(self):
        """Matroid M1 (Section III-B) holds by construction: one UAV per
        iteration."""
        problem = line_problem(capacities=(1, 5, 2, 4, 3, 6))
        plan = optimal_segments(problem.num_uavs, 2)
        for anchors in ([0, 5], [2, 3], [1, 4]):
            result = anchored_greedy(problem, anchors, plan)
            uavs = [k for k, _ in result.chosen]
            assert len(uavs) == len(set(uavs))

    def test_no_location_reused(self):
        problem = line_problem()
        plan = optimal_segments(problem.num_uavs, 2)
        result = anchored_greedy(problem, [0, 5], plan)
        locations = [loc for _, loc in result.chosen]
        assert len(locations) == len(set(locations))

    def test_served_matches_engine(self):
        problem = line_problem()
        plan = optimal_segments(problem.num_uavs, 2)
        result = anchored_greedy(problem, [1, 4], plan)
        assert result.served == result.engine.served_count

    def test_hop_matroid_respected(self):
        """No chosen location may exceed hmax hops from the anchors, and
        per-hop counts must respect Q_h."""
        problem = line_problem(num_locations=6)
        plan = optimal_segments(4, 2)  # tighter plan than the fleet size
        result = anchored_greedy(problem, [2, 3], plan,
                                 order=list(range(4)))
        hops = problem.graph.hops_to_set([2, 3])
        q = plan.q_bounds()
        chosen_locs = [loc for _, loc in result.chosen]
        for h in range(len(q)):
            count = sum(1 for v in chosen_locs if hops[v] >= h)
            assert count <= q[h]
        assert all(hops[v] <= plan.hmax for v in chosen_locs)

    def test_fast_and_exact_agree_on_disjoint_coverage(self):
        """With disjoint per-location coverage the direct bound equals the
        exact gain, so both modes must choose identically."""
        problem = line_problem()
        plan = optimal_segments(problem.num_uavs, 2)
        exact = anchored_greedy(problem, [1, 4], plan, gain_mode="exact")
        fast = anchored_greedy(problem, [1, 4], plan, gain_mode="fast")
        assert exact.served == fast.served
        assert {loc for _, loc in exact.chosen} == {
            loc for _, loc in fast.chosen
        }

    def test_fast_mode_never_worse_than_two_thirds_here(self):
        problem = make_line_instance(
            num_locations=5, users_per_location=4, spacing=350.0,
            capacities=(4, 3, 2, 2, 1),
        )
        plan = optimal_segments(problem.num_uavs, 2)
        exact = anchored_greedy(problem, [0, 4], plan, gain_mode="exact")
        fast = anchored_greedy(problem, [0, 4], plan, gain_mode="fast")
        assert fast.served >= 0.66 * exact.served

    def test_rejects_bad_gain_mode(self):
        problem = line_problem()
        plan = optimal_segments(problem.num_uavs, 2)
        with pytest.raises(ValueError, match="gain_mode"):
            anchored_greedy(problem, [0, 1], plan, gain_mode="wrong")

    def test_rejects_wrong_anchor_count(self):
        problem = line_problem()
        plan = optimal_segments(problem.num_uavs, 2)
        with pytest.raises(ValueError, match="anchors"):
            anchored_greedy(problem, [0, 1, 2], plan)

    def test_greedy_prefers_dense_locations(self):
        """With one UAV per iteration and unequal user piles the greedy
        must pick the densest feasible location first."""
        problem = make_line_instance(
            num_locations=4, users_per_location=2,
            capacities=(8, 8, 8, 8),
        )
        # Add extra users under location 2 by rebuilding with uneven piles.
        from repro.network.coverage import CoverageGraph
        from repro.network.users import users_from_points
        from repro.core.problem import ProblemInstance

        points = []
        piles = {0: 1, 1: 2, 2: 6, 3: 1}
        for j, count in piles.items():
            for i in range(count):
                points.append((500.0 * (j + 1) + 4.0 * i, 0.0))
        graph = CoverageGraph(
            users=users_from_points(points),
            locations=problem.graph.locations,
            uav_range_m=600.0,
        )
        uneven = ProblemInstance(graph=graph, fleet=problem.fleet)
        plan = optimal_segments(4, 1)
        result = anchored_greedy(uneven, [2], plan)
        # First pick is the anchorless densest = location 2 itself (anchor
        # and densest coincide); first deployed UAV must sit there.
        assert result.chosen[0][1] == 2
