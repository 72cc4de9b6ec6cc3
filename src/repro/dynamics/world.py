"""The single mutable world every dynamics event source acts on.

:class:`WorldState` owns the live population (users arrive, depart and
move), the fleet's current placements and health, and one persistent
working :class:`~repro.network.coverage.CoverageGraph` —
location-derived structure (hop matrix, Steiner memo) survives every
churn event, which is what makes warm epoch re-solves cheap.

Users carry stable ids across their lifetime so the engine can attribute
"time to serve" per arrival: :meth:`WorldState.evaluate` reports the
exact Section II-D served count for the current placements and stamps
the first time each user id was actually served.

Observation is incremental.  The world keeps a maximum user↔UAV
matching for the current placements live, keyed by user id
(:class:`LiveMatching`), so each event costs at most one augmenting-path
search over the deployed stations instead of a max-flow over all users:

* an **arrival** runs one forward search from the new user;
* the **departure of a matched user** frees its slot and runs one
  backward search into that station — any augmenting path must end
  there, because the matching was maximum before the slot opened;
* the **departure of an unmatched user** changes nothing;
* a **mobility step**, or any change of the active station set (a new
  plan adopted, a rotation, a crash or a restore), rebuilds the
  matching once through :func:`~repro.core.assignment.optimal_assignment`.

The working graph is synced lazily: arrivals and departures only mark it
stale, and the :attr:`WorldState.graph` property flushes the pending
population with one :meth:`~CoverageGraph.replace_users` before any
reader (a re-solve, a relocation, a rotation plan, a rebuild) sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import optimal_assignment
from repro.core.problem import ProblemInstance
from repro.geometry.point import Point3D
from repro.network.coverage import CoverageGraph
from repro.network.users import DEFAULT_MIN_RATE_BPS, User


class LiveMatching:
    """A maximum matching of user ids to deployed UAVs, kept maximum
    under single-user arrivals and departures.

    ``stations`` maps each deployed UAV index to its location and
    ``capacity`` to its ``C_k``.  The coverage adjacency is held both
    ways — ``reach[uid]`` (stations covering the user) and
    ``covered[k]`` (users station ``k`` covers) — and dicts stand in for
    ordered sets so every search is deterministic.
    """

    def __init__(
        self, stations: dict, capacity: dict, covered: dict,
        assignment: dict,
    ) -> None:
        """Adopt a maximum ``assignment`` (uid -> UAV index) for
        ``stations``, where ``covered[k]`` lists the uids station ``k``
        covers."""
        self.stations = stations
        self.capacity = capacity
        self.covered = {k: dict.fromkeys(covered[k]) for k in stations}
        reach: dict = {}
        for k in stations:
            for uid in covered[k]:
                reach.setdefault(uid, []).append(k)
        self.reach = {uid: tuple(ks) for uid, ks in reach.items()}
        self.owner: dict = {}                        # uid -> UAV index
        self.load: dict = {k: {} for k in stations}  # k -> {uid: None}
        self.newly_served: list = []                 # since the last drain
        for uid, k in assignment.items():
            self._assign(uid, k)

    @property
    def served(self) -> int:
        return len(self.owner)

    def insert(self, uid: int, reach: tuple) -> None:
        """Add a user covered by ``reach`` and restore maximality."""
        self.reach[uid] = reach
        for k in reach:
            self.covered[k][uid] = None
        self._augment_from(uid)

    def delete(self, uid: int) -> None:
        """Drop a user and restore maximality."""
        for k in self.reach.pop(uid, ()):
            del self.covered[k][uid]
        station = self.owner.pop(uid, None)
        if station is not None:
            del self.load[station][uid]
            self._augment_into(station)

    def _assign(self, uid: int, k: int) -> None:
        old = self.owner.get(uid)
        if old is None:
            self.newly_served.append(uid)
        else:
            del self.load[old][uid]
        self.owner[uid] = k
        self.load[k][uid] = None

    def _augment_from(self, uid: int) -> None:
        """Breadth-first over stations from an unmatched user.  Reaching
        station ``t`` from full station ``k`` means a user ``v`` of ``k``
        can move to ``t``; a station with a free slot ends the path."""
        parent = {k: (None, uid) for k in self.reach[uid]}
        queue = list(parent)
        for k in queue:
            if len(self.load[k]) < self.capacity[k]:
                while k is not None:
                    prev, v = parent[k]
                    self._assign(v, k)
                    k = prev
                return
            for v in self.load[k]:
                for t in self.reach[v]:
                    if t not in parent:
                        parent[t] = (k, v)
                        queue.append(t)

    def _augment_into(self, station: int) -> None:
        """Breadth-first backwards from a station with a free slot.
        Reaching ``t`` from ``k`` means a user ``v`` of ``t`` can move to
        ``k``; an unmatched user covered by a reached station ends the
        path."""
        parent = {station: None}
        queue = [station]
        for k in queue:
            for v in self.covered[k]:
                t = self.owner.get(v)
                if t is None:
                    self._assign(v, k)
                    while parent[k] is not None:
                        k, moved = parent[k]
                        self._assign(moved, k)
                    return
                if t not in parent:
                    parent[t] = (k, v)
                    queue.append(t)


@dataclass
class WorldState:
    """Mutable mission state shared by every event handler."""

    base_problem: ProblemInstance
    _graph: CoverageGraph                 # persistent working graph
    users: list = field(default_factory=list)
    user_ids: list = field(default_factory=list)
    placements: dict = field(default_factory=dict)
    down: set = field(default_factory=set)        # grounded UAV indices
    degraded_links: set = field(default_factory=set)
    arrival_s: dict = field(default_factory=dict)     # uid -> arrival time
    first_served_s: dict = field(default_factory=dict)  # uid -> first served
    _next_uid: int = 0
    _graph_stale: bool = False            # users changed since last sync
    _matching: "LiveMatching | None" = None   # None: rebuild on evaluate

    @classmethod
    def from_problem(cls, problem: ProblemInstance) -> "WorldState":
        """Start a mission world from a built (static) scenario.

        The working graph is a :meth:`~CoverageGraph.with_users` clone, so
        the caller's problem keeps its pristine graph while the world
        mutates its own.
        """
        graph = problem.graph.with_users(problem.graph.users)
        world = cls(base_problem=problem, _graph=graph)
        world.users = list(graph.users)
        world.user_ids = list(range(len(world.users)))
        world._next_uid = len(world.users)
        world.arrival_s = {uid: 0.0 for uid in world.user_ids}
        return world

    # -- sizes / views -------------------------------------------------------

    @property
    def graph(self) -> CoverageGraph:
        """The working graph, synced with the population on access."""
        if self._graph_stale:
            self._graph.replace_users(self.users)
            self._graph_stale = False
        return self._graph

    @property
    def fleet(self) -> list:
        return self.base_problem.fleet

    @property
    def num_active(self) -> int:
        return len(self.users)

    def available_uavs(self) -> list:
        return sorted(set(range(len(self.fleet))) - self.down)

    def active_placements(self) -> dict:
        """Current placements minus grounded UAVs."""
        return {
            k: loc for k, loc in self.placements.items()
            if k not in self.down
        }

    def assignment(self) -> dict:
        """The live matching as ``uid -> UAV index`` (empty until the
        first :meth:`evaluate`)."""
        return dict(self._matching.owner) if self._matching else {}

    def bounds(self) -> tuple:
        """(lo_x, hi_x, lo_y, hi_y) box spanning users and locations."""
        xs = [loc.x for loc in self.graph.locations]
        ys = [loc.y for loc in self.graph.locations]
        xs += [u.position.x for u in self.users]
        ys += [u.position.y for u in self.users]
        return (
            min(xs, default=0.0), max(xs, default=0.0),
            min(ys, default=0.0), max(ys, default=0.0),
        )

    def problem_now(self) -> ProblemInstance:
        """The current instantaneous problem over the working graph."""
        return ProblemInstance(graph=self.graph, fleet=self.fleet)

    # -- population updates --------------------------------------------------

    def add_user(
        self, x: float, y: float, now: float,
        min_rate_bps: float = DEFAULT_MIN_RATE_BPS,
    ) -> int:
        uid = self._next_uid
        self._next_uid += 1
        user = User(
            position=Point3D(float(x), float(y), 0.0),
            min_rate_bps=min_rate_bps,
        )
        self.users.append(user)
        self.user_ids.append(uid)
        self.arrival_s[uid] = now
        self._graph_stale = True
        matching = self._matching
        if matching is not None:
            matching.insert(uid, tuple(
                k for k, loc in matching.stations.items()
                if self._graph.user_covered(user, loc, self.fleet[k])
            ))
        return uid

    def remove_user(self, uid: int) -> bool:
        """Depart a user by id; False when already gone."""
        try:
            idx = self.user_ids.index(uid)
        except ValueError:
            return False
        self.users.pop(idx)
        self.user_ids.pop(idx)
        self._graph_stale = True
        if self._matching is not None:
            self._matching.delete(uid)
        return True

    def move_users(self, xy: np.ndarray) -> None:
        """Relocate the active population (aligned with ``self.users``)."""
        graph = self.graph
        graph.move_users(xy)
        self.users = list(graph.users)
        self._matching = None

    def user_xy(self) -> np.ndarray:
        return np.array(
            [[u.position.x, u.position.y] for u in self.users], dtype=float
        ).reshape(len(self.users), 2)

    # -- serving evaluation --------------------------------------------------

    def evaluate(self, now: float) -> int:
        """The maximum served count for the current placements; stamps
        each newly served user id's first-served time."""
        active = self.active_placements()
        if self._matching is None or self._matching.stations != active:
            self._rebuild(active)
        matching = self._matching
        for uid in matching.newly_served:
            if uid in matching.owner:
                self.first_served_s.setdefault(uid, now)
        matching.newly_served = []
        return matching.served

    def _rebuild(self, active: dict) -> None:
        """A from-scratch maximum matching for ``active`` placements."""
        graph, ids = self.graph, self.user_ids
        deployment = optimal_assignment(graph, self.fleet, active)
        self._matching = LiveMatching(
            dict(sorted(active.items())),
            {k: self.fleet[k].capacity for k in active},
            {
                k: [ids[i] for i in graph.coverable_users(loc, self.fleet[k])]
                for k, loc in active.items()
            },
            {ids[i]: k for i, k in deployment.assignment.items()},
        )

    def coverage_fraction(self, served: int) -> float:
        return served / self.num_active if self.num_active else 1.0
