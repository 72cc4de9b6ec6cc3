"""Tests for the incremental assignment engine, cross-checked against an
independent max-flow solution of the same bipartite instance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.bipartite import IncrementalAssignment
from repro.flow.dinic import Dinic


def dinic_value(num_users: int, stations: list) -> int:
    """Optimal assignment value via Dinic: stations = [(covers, cap)]."""
    source = 0
    sink = num_users + len(stations) + 1
    d = Dinic(sink + 1)
    for u in range(num_users):
        d.add_edge(source, 1 + u, 1)
    for st_idx, (covers, cap) in enumerate(stations):
        node = num_users + 1 + st_idx
        for u in covers:
            d.add_edge(1 + u, node, 1)
        d.add_edge(node, sink, cap)
    return d.max_flow(source, sink)


def random_instance(seed: int, num_users: int, num_stations: int):
    rng = np.random.default_rng(seed)
    stations = []
    for _ in range(num_stations):
        size = int(rng.integers(0, num_users + 1))
        covers = list(
            rng.choice(num_users, size=size, replace=False)
        ) if size else []
        cap = int(rng.integers(0, num_users + 2))
        stations.append(([int(u) for u in covers], cap))
    return stations


class TestBasics:
    def test_empty_engine(self):
        eng = IncrementalAssignment(5)
        assert eng.served_count == 0
        assert eng.assignment() == {}

    def test_open_simple(self):
        eng = IncrementalAssignment(4)
        gain = eng.open("a", [0, 1, 2], capacity=2)
        assert gain == 2
        assert eng.served_count == 2
        assert eng.load_of("a") == 2

    def test_capacity_zero(self):
        eng = IncrementalAssignment(3)
        assert eng.open("a", [0, 1, 2], capacity=0) == 0

    def test_rejects_duplicate_station(self):
        eng = IncrementalAssignment(2)
        eng.open("a", [0], 1)
        with pytest.raises(ValueError, match="already"):
            eng.open("a", [1], 1)

    def test_rejects_bad_user(self):
        eng = IncrementalAssignment(2)
        with pytest.raises(IndexError):
            eng.open("a", [5], 1)

    def test_rejects_negative_capacity(self):
        eng = IncrementalAssignment(2)
        with pytest.raises(ValueError):
            eng.open("a", [0], -1)


class TestChains:
    def test_reassignment_chain(self):
        """Station B takes user 0 from A; A recovers with user 1."""
        eng = IncrementalAssignment(2)
        assert eng.open("A", [0, 1], capacity=1) == 1
        assert eng.open("B", [0], capacity=1) == 1
        assert eng.served_count == 2
        assignment = eng.assignment()
        assert sorted(assignment["A"] + assignment["B"]) == [0, 1]
        assert assignment["B"] == [0]

    def test_two_level_chain(self):
        eng = IncrementalAssignment(3)
        eng.open("A", [0, 1], 1)   # A takes 0
        eng.open("B", [1, 2], 1)   # B takes 1 or 2
        gain = eng.open("C", [0], 1)  # C needs 0 -> chain through A (and B)
        assert gain == 1
        assert eng.served_count == 3


class TestTryRollback:
    def test_rollback_restores_everything(self):
        eng = IncrementalAssignment(4)
        eng.open("A", [0, 1], 2)
        before_assignment = {u: eng.station_of(u) for u in range(4)}
        before_served = eng.served_count
        gain = eng.try_open("B", [0, 1, 2, 3], 4)
        assert gain == 2  # users 2, 3 direct (0, 1 already maxed by A)
        eng.rollback()
        assert eng.served_count == before_served
        assert {u: eng.station_of(u) for u in range(4)} == before_assignment
        assert "B" not in eng.stations()

    def test_rollback_restores_chain_moves(self):
        eng = IncrementalAssignment(2)
        eng.open("A", [0, 1], 1)
        taken = next(u for u in (0, 1) if eng.station_of(u) == "A")
        eng.try_open("B", [taken], 1)
        eng.rollback()
        assert eng.station_of(taken) == "A"
        assert eng.served_count == 1

    def test_commit_keeps(self):
        eng = IncrementalAssignment(2)
        gain = eng.try_open("A", [0], 1)
        eng.commit()
        assert gain == 1 and eng.served_count == 1

    def test_pending_discipline(self):
        eng = IncrementalAssignment(2)
        eng.try_open("A", [0], 1)
        with pytest.raises(RuntimeError, match="pending"):
            eng.try_open("B", [1], 1)
        eng.commit()
        with pytest.raises(RuntimeError):
            eng.commit()
        with pytest.raises(RuntimeError):
            eng.rollback()

    def test_gain_equals_committed_delta(self):
        rng = np.random.default_rng(9)
        eng = IncrementalAssignment(30)
        for i in range(8):
            covers = [int(u) for u in rng.choice(30, size=12, replace=False)]
            before = eng.served_count
            gain = eng.try_open(i, covers, int(rng.integers(1, 6)))
            eng.commit()
            assert eng.served_count - before == gain


class TestOptimality:
    @given(st.integers(0, 100_000), st.integers(1, 15), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_dinic(self, seed, num_users, num_stations):
        stations = random_instance(seed, num_users, num_stations)
        eng = IncrementalAssignment(num_users)
        for i, (covers, cap) in enumerate(stations):
            eng.open(i, covers, cap)
        assert eng.served_count == dinic_value(num_users, stations)

    @given(st.integers(0, 100_000), st.integers(1, 12), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_order_independent(self, seed, num_users, num_stations):
        stations = random_instance(seed, num_users, num_stations)
        values = []
        for order_seed in (0, 1):
            rng = np.random.default_rng(order_seed)
            order = rng.permutation(len(stations))
            eng = IncrementalAssignment(num_users)
            for i in order:
                covers, cap = stations[int(i)]
                eng.open(int(i), covers, cap)
            values.append(eng.served_count)
        assert values[0] == values[1]

    @given(st.integers(0, 100_000), st.integers(1, 12), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_try_open_gain_is_exact_flow_delta(self, seed, num_users, n_st):
        stations = random_instance(seed, num_users, n_st)
        eng = IncrementalAssignment(num_users)
        for i, (covers, cap) in enumerate(stations[:-1]):
            eng.open(i, covers, cap)
        covers, cap = stations[-1]
        gain = eng.try_open("last", covers, cap)
        eng.rollback()
        full = dinic_value(num_users, stations)
        partial = dinic_value(num_users, stations[:-1])
        assert gain == full - partial


class TestInvariants:
    @given(st.integers(0, 100_000), st.integers(1, 20), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_loads_and_coverage_respected(self, seed, num_users, n_st):
        stations = random_instance(seed, num_users, n_st)
        eng = IncrementalAssignment(num_users)
        for i, (covers, cap) in enumerate(stations):
            eng.open(i, covers, cap)
        assignment = eng.assignment()
        seen_users: set = set()
        for i, users in assignment.items():
            covers, cap = stations[i]
            assert len(users) <= cap
            assert set(users) <= set(covers)
            assert eng.load_of(i) == len(users)
            assert not (set(users) & seen_users)
            seen_users |= set(users)
        assert len(seen_users) == eng.served_count


def engine_state(eng: IncrementalAssignment) -> tuple:
    """Full observable state, for exact snapshot comparisons."""
    return (
        eng.served_count,
        eng.stations(),
        eng.assignment(),
        [eng.load_of(s) for s in eng.stations()],
        [eng.station_of(u) for u in range(eng.num_users)],
    )


class TestForkRollback:
    def test_rollback_restores_exact_state(self):
        eng = IncrementalAssignment(6)
        eng.open("a", [0, 1, 2], 2)
        before = engine_state(eng)
        eng.fork()
        eng.open("b", [0, 1, 3], 2)   # forces chain reassignments
        eng.open("c", [2, 4, 5], 3)
        assert eng.served_count > 4 - 1
        eng.rollback_fork()
        assert engine_state(eng) == before

    def test_release_keeps_mutations(self):
        eng = IncrementalAssignment(4)
        eng.fork()
        eng.open("a", [0, 1], 2)
        eng.release_fork()
        assert eng.served_count == 2
        eng.fork()  # scope reusable after release
        eng.rollback_fork()
        assert eng.served_count == 2

    def test_rollback_fork_clears_pending_first(self):
        eng = IncrementalAssignment(4)
        eng.fork()
        eng.try_open("a", [0, 1], 2)
        eng.rollback_fork()
        assert eng.served_count == 0
        assert eng.stations() == []

    def test_fork_discipline(self):
        eng = IncrementalAssignment(3)
        with pytest.raises(RuntimeError):
            eng.rollback_fork()
        with pytest.raises(RuntimeError):
            eng.release_fork()
        eng.fork()
        with pytest.raises(RuntimeError):
            eng.fork()
        eng.try_open("a", [0], 1)
        with pytest.raises(RuntimeError):
            eng.fork()
        eng.commit()
        eng.release_fork()

    @given(st.integers(0, 100_000), st.integers(1, 24), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_fork_cycle_is_lossless(self, seed, num_users, n_st):
        """fork -> arbitrary opens -> rollback_fork is an exact no-op, and
        the engine afterwards behaves identically to one that never
        forked (same committed instance appended)."""
        stations = random_instance(seed, num_users, n_st)
        half = len(stations) // 2
        eng = IncrementalAssignment(num_users)
        for i, (covers, cap) in enumerate(stations[:half]):
            eng.open(i, covers, cap)
        before = engine_state(eng)
        eng.fork()
        for i, (covers, cap) in enumerate(stations[half:]):
            eng.open(("fork", i), covers, cap)
        eng.rollback_fork()
        assert engine_state(eng) == before
        # Post-rollback opens still reach the exact optimum.
        for i, (covers, cap) in enumerate(stations[half:]):
            eng.open(("again", i), covers, cap)
        assert eng.served_count == dinic_value(num_users, stations)


class TestChainModes:
    @given(st.integers(0, 100_000), st.integers(1, 24), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_bfs_values_match_dinic_after_every_open(
        self, seed, num_users, n_st
    ):
        """The bitset-BFS engine realises the independent Dinic maximum
        of the opened prefix after every open, and each gain is the
        difference of consecutive maxima."""
        stations = random_instance(seed, num_users, n_st)
        bfs = IncrementalAssignment(num_users)
        previous = 0
        for i, (covers, cap) in enumerate(stations):
            gain = bfs.open(i, covers, cap)
            expected = dinic_value(num_users, stations[: i + 1])
            assert bfs.served_count == expected
            assert gain == expected - previous
            previous = expected

    def test_chain_replay_stress(self):
        """A wide last station after many tight ones forces long runs of
        chain augmentations — the replay fast path — and must still land
        on the independent max-flow value."""
        rng = np.random.default_rng(42)
        num_users = 120
        stations = []
        for _ in range(10):
            covers = sorted(
                int(u) for u in rng.choice(num_users, size=30, replace=False)
            )
            stations.append((covers, 8))
        stations.append((list(range(num_users)), 60))
        eng = IncrementalAssignment(num_users)
        for i, (covers, cap) in enumerate(stations):
            eng.open(i, covers, cap)
        assert eng.served_count == dinic_value(num_users, stations)
