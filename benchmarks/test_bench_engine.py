"""Perf trajectory of the appro_alg engine: serial seed path vs the
vectorized/bound-pruned/parallel engine on a Fig.-4-style scenario.

The serial and engine runs must agree exactly on ``(served, anchors)`` —
the engine's optimisations are lossless by construction, and this bench
re-checks that on a realistic instance every run.  Wall-clock points for
both paths land in ``BENCH_approx.json`` so the speedup trajectory is
recorded per machine; the speedup itself is only *asserted* under
``REPRO_BENCH_ASSERT_SPEEDUP`` (meaningless on single-core runners).

CI smoke: ``REPRO_BENCH_USERS=800 REPRO_BENCH_WORKERS=2`` keeps this
under a minute while still exercising the process pool.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import ANCHOR_POOL, BENCH_USERS, BENCH_WORKERS
from repro.core.approx import appro_alg
from repro.core.context import SolverContext
from repro.flow.bipartite import IncrementalAssignment
from repro.obs.profile import peak_rss_mb

NUM_UAVS = 12
S = 2
SEED = 7
SCENARIO = f"engine:n={BENCH_USERS},K={NUM_UAVS},s={S}"


def _params() -> dict:
    params = {"s": S, "gain_mode": "fast"}
    if ANCHOR_POOL is not None:
        params["max_anchor_candidates"] = ANCHOR_POOL
    return params


def test_engine_matches_serial_and_records_speedup(
    scenario_cache, perf_trajectory
):
    problem = scenario_cache(BENCH_USERS, NUM_UAVS, seed=SEED)

    start = time.perf_counter()
    serial = appro_alg(problem, **_params())
    serial_s = time.perf_counter() - start
    perf_trajectory.record(
        SCENARIO, "approAlg", serial.served, serial_s, workers=1,
        subsets_evaluated=serial.stats.subsets_evaluated,
    )

    # Engine run: shared context (built once, reused), lossless bound
    # pruning, process-parallel subset fan-out.
    context = SolverContext.from_problem(problem)
    start = time.perf_counter()
    engine = appro_alg(
        problem, workers=BENCH_WORKERS, bound_prune=True, context=context,
        **_params(),
    )
    engine_s = time.perf_counter() - start
    speedup = serial_s / engine_s if engine_s > 0 else float("inf")
    perf_trajectory.record(
        SCENARIO, "approAlg+engine", engine.served, engine_s,
        workers=BENCH_WORKERS, speedup=round(speedup, 2),
        subsets_evaluated=engine.stats.subsets_evaluated,
        subsets_bound_skipped=engine.stats.subsets_bound_skipped,
        context_build_s=round(context.build_seconds, 4),
        peak_rss_mb=peak_rss_mb(),
    )

    # Losslessness: identical result regardless of workers/pruning.
    assert engine.served == serial.served
    assert engine.anchors == serial.anchors
    assert engine.stats.subsets_total == serial.stats.subsets_total
    assert (
        engine.stats.subsets_pruned
        + engine.stats.subsets_bound_skipped
        + engine.stats.subsets_evaluated
        == engine.stats.subsets_total
    )

    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP"):
        assert speedup >= 3.0, (
            f"engine speedup {speedup:.2f}x below the 3x target "
            f"(serial {serial_s:.2f}s, engine {engine_s:.2f}s, "
            f"workers={BENCH_WORKERS})"
        )


class KuhnAssignment(IncrementalAssignment):
    """The scalar reference engine the headline speedup is measured
    against: every augmentation is a Kuhn-style alternating-path DFS that
    walks cover lists user by user, with no chain replay.

    A path is root -> u1 (covered by root, assigned to T1) -> T1 -> u2
    (covered by T1, assigned to T2) -> ... -> uk unassigned; augmenting
    reassigns each user one station up the path, netting exactly one newly
    served user.  It runs on the parent class's state (owner array, slot
    bitsets, loads, journal), so try/rollback and fork scopes work
    unchanged and the served counts equal the bitset-BFS engine's.
    """

    def __init__(self, num_users: int) -> None:
        super().__init__(num_users)
        self._cover_list_cache: dict = {}   # slot -> (cover array, list)

    def _replay_chain(self, chain: list) -> bool:
        return False

    def _augment(self, root: int, chain: list) -> bool:
        # The assignment only changes once a path is found (then the
        # search returns), so one list copy of the owner array serves the
        # whole search at list-indexing speed.
        owner_of = self._assigned_id.tolist()
        visited = bytearray(self.num_users)
        # A station is explored at most once per search: by the time it
        # is popped its whole cover is visited (Kuhn left-vertex marking),
        # so total work is O(E).  A frame is [station, cover, scan index,
        # claim user] — the claim user (assigned to ``station``) is the
        # one the parent frame's station takes over on success.
        explored = {root}
        frames: list = [[root, self._cover_list(root), 0, -1]]
        while frames:
            frame = frames[-1]
            station, cover, idx = frame[0], frame[1], frame[2]
            cover_len = len(cover)
            pushed = False
            while idx < cover_len:
                u = cover[idx]
                idx += 1
                if visited[u]:
                    continue
                visited[u] = 1
                owner = owner_of[u]
                if owner < 0:
                    self._assign(u, station)
                    for depth in range(len(frames) - 1, 0, -1):
                        self._assign(frames[depth][3], frames[depth - 1][0])
                    self._served += 1
                    return True
                if owner not in explored:
                    explored.add(owner)
                    frame[2] = idx
                    frames.append([owner, self._cover_list(owner), 0, u])
                    pushed = True
                    break
            if not pushed:
                frames.pop()
        return False

    def _cover_list(self, slot: int) -> list:
        """The slot's cover as a Python list, converted once per opened
        cover array (a slot is reused after a rollback, so the cache
        entry keeps the array it was made from)."""
        arr = self._cover_arrs[slot]
        entry = self._cover_list_cache.get(slot)
        if entry is None or entry[0] is not arr:
            entry = self._cover_list_cache[slot] = (arr, arr.tolist())
        return entry[1]

    def _assign(self, user: int, slot: int) -> None:
        """Move ``user`` to ``slot``, journalled for rollback."""
        old = int(self._assigned_id[user])
        self._journal.append((user, old))
        bit = 1 << user
        self._slot_ints[slot] |= bit
        if old >= 0:
            self._slot_ints[old] &= ~bit
            self._loads[old] -= 1
        else:
            self._assigned_int |= bit
            self._assigned_mask[user] = True
        self._assigned_id[user] = slot
        self._loads[slot] += 1


def _kuhn_engine_for(graph) -> KuhnAssignment:
    return KuhnAssignment(graph.num_users)


def test_kuhn_reference_is_exact():
    """The baseline is only a fair reference if it is a correct engine:
    on random instances every gain, try/rollback and served count equals
    the production engine's."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        num_users = int(rng.integers(1, 40))
        kuhn = KuhnAssignment(num_users)
        bfs = IncrementalAssignment(num_users)
        for i in range(int(rng.integers(1, 8))):
            size = int(rng.integers(0, num_users + 1))
            cover = np.sort(rng.choice(num_users, size=size, replace=False))
            cap = int(rng.integers(0, 8))
            assert kuhn.try_open(i, cover, cap) == bfs.try_open(i, cover, cap)
            kuhn.rollback()
            bfs.rollback()
            assert kuhn.open(i, cover, cap) == bfs.open(i, cover, cap)
            assert kuhn.served_count == bfs.served_count


HEADLINE_UAVS = 20
# The vectorisation win scales with the user count while the per-subset
# floor (connect step, per-round Python) does not, so the headline is
# never measured below 2000 users — at CI-smoke scale (n=800) the point
# would gate on the floor, not on the kernels this bench exists to pin.
HEADLINE_USERS = max(BENCH_USERS, 2000)
HEADLINE_SCENARIO = (
    f"paper-headline:n={HEADLINE_USERS},K={HEADLINE_UAVS},s={S}"
)
# The headline sweeps the full anchor enumeration (no candidate-pool cap):
# it is the point quoted in README/PERF and the one the pre-PR serial
# baseline was measured on.
HEADLINE_PARAMS = {"s": S, "gain_mode": "fast"}


def test_paper_headline_speedup(scenario_cache, perf_trajectory, monkeypatch):
    """The headline point of the vectorised engine: the paper-scale
    scenario (K=20), solved by the numpy-native path at workers 1/2/4,
    against the same sweep on the scalar :class:`KuhnAssignment` flow
    engine (Kuhn DFS chains, no chain replay).

    The reference realises the same greedy by construction in exact mode;
    in fast mode only the direct-bound *ranking* realisation may differ,
    so served counts are compared with a small tolerance instead of
    bit-equality (the golden-equivalence suite pins bit-equality across
    serial/parallel/bound-pruned runs of the vectorised path itself).
    """
    problem = scenario_cache(HEADLINE_USERS, HEADLINE_UAVS, seed=SEED)

    with monkeypatch.context() as patch:
        patch.setattr("repro.core.approx.new_engine_for", _kuhn_engine_for)
        patch.setattr("repro.core.greedy.new_engine_for", _kuhn_engine_for)
        start = time.perf_counter()
        reference = appro_alg(problem, **HEADLINE_PARAMS)
        reference_s = time.perf_counter() - start
    perf_trajectory.record(
        HEADLINE_SCENARIO, "approAlg+scalar-reference", reference.served,
        reference_s, workers=1,
        subsets_evaluated=reference.stats.subsets_evaluated,
    )

    context = SolverContext.from_problem(problem)
    headline_speedup = 0.0
    for workers in (1, 2, 4):
        start = time.perf_counter()
        engine = appro_alg(
            problem, workers=workers, context=context, **HEADLINE_PARAMS
        )
        wall = time.perf_counter() - start
        speedup = reference_s / wall if wall > 0 else float("inf")
        if workers == 1:
            headline_speedup = speedup
        perf_trajectory.record(
            HEADLINE_SCENARIO, "approAlg+engine", engine.served, wall,
            workers=workers, speedup=round(speedup, 2),
            subsets_evaluated=engine.stats.subsets_evaluated,
            context_build_s=round(context.build_seconds, 4),
            peak_rss_mb=peak_rss_mb(),
        )
        # Fast-mode realisation tolerance, one-sided: the two engines may
        # realise different equal-value assignments, so the direct-bound
        # ranking may pick a different subset, but the vectorised path
        # must never be meaningfully worse (at n=3000 both serve 2784).
        # Exact equality across the vectorised path's own variants is
        # pinned elsewhere (see docstring).
        assert engine.served >= reference.served - max(
            2, reference.served // 50
        )

    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP"):
        assert headline_speedup >= 2.0, (
            f"paper-headline serial speedup {headline_speedup:.2f}x below "
            f"the 2x gate (reference {reference_s:.2f}s)"
        )


def test_fig4_smoke_wall_time(perf_trajectory):
    """Fig.-4 smoke (approAlg only, tracing disabled): the observability
    layer must cost nothing when off, so this wall-clock point is the
    regression sentinel for the instrumented hot path."""
    from repro import obs
    from repro.sim.experiments import fig4_sweep

    assert not obs.is_enabled(), "tracing must be off for the perf sentinel"
    ks = (2, 4, 6, 8, 10, 12)
    start = time.perf_counter()
    result = fig4_sweep(
        ks=ks, num_users=2000, s=2, scale="bench", seed=SEED,
        algorithms=("approAlg",), max_anchor_candidates=ANCHOR_POOL,
    )
    wall = time.perf_counter() - start
    served_total = sum(rec.served for _, rec in result.records)
    perf_trajectory.record(
        f"fig4-smoke:n=2000,ks={'-'.join(map(str, ks))}",
        "approAlg", served_total, wall, workers=1,
    )
    assert served_total > 0
    assert not obs.snapshot_spans(), "disabled run must record no spans"


def test_parallel_only_agrees_with_serial(scenario_cache, perf_trajectory):
    """Pure fan-out (no bound pruning) must also be bit-identical; its
    wall-clock point isolates the pool overhead from the pruning win."""
    problem = scenario_cache(BENCH_USERS, NUM_UAVS, seed=SEED)

    start = time.perf_counter()
    parallel = appro_alg(problem, workers=BENCH_WORKERS, **_params())
    wall = time.perf_counter() - start
    serial = appro_alg(problem, **_params())

    perf_trajectory.record(
        SCENARIO, "approAlg+parallel", parallel.served, wall,
        workers=BENCH_WORKERS,
        subsets_evaluated=parallel.stats.subsets_evaluated,
    )
    assert (parallel.served, parallel.anchors) == (serial.served, serial.anchors)
    assert parallel.stats.subsets_evaluated == serial.stats.subsets_evaluated
