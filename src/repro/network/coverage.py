"""The coverage graph ``G = (U ∪ V, E)`` of Section II-C.

``U`` is the set of ground users, ``V`` the set of candidate hovering
locations.  Location-location edges exist within the UAV-to-UAV range
``R_uav``; user-location edges exist when the user is within the UAV's
coverage radius ``R_user^k`` *and* its achievable rate meets the user's
minimum requirement.  Because the latter depends on the UAV's radio, the
coverage sets are exposed per (location, UAV) and cached by radio signature.

This object is the single substrate every placement algorithm (approAlg and
all baselines) consumes.
"""

from __future__ import annotations

import numpy as np

from repro.channel.atg import AirToGroundChannel
from repro.channel.constants import DEFAULT_BANDWIDTH_HZ
from repro.channel.link import noise_power_dbm, shannon_rate_bps
from repro.channel.presets import URBAN
from repro.geometry.grid import SpatialHash
from repro.geometry.point import Point3D
from repro.graphs.adjacency import Graph
from repro.graphs.bfs import (
    UNREACHABLE,
    all_pairs_hops,
    bfs_hops,
    is_connected,
    multi_source_hops,
)
from repro.graphs.steiner import steiner_connect
from repro.network.uav import UAV
from repro.network.users import User
from repro.util.bits import pack_indices, popcount


class CoverageGraph:
    """Users, candidate locations, radio model and all derived structure.

    ``users`` is the ground population, either as a list of
    :class:`~repro.network.users.User` or as the ``(xy, min_rate)`` array
    pair the workload generators return (``(n, 2)`` ground positions and
    the aligned ``(n,)`` minimum rates).  Either way the graph keeps the
    population as those two arrays; :attr:`users` is a view built from
    them on first access.
    """

    def __init__(
        self,
        users: "list | tuple",
        locations: list,
        uav_range_m: float,
        channel: "AirToGroundChannel | None" = None,
        bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
        noise_figure_db: float = 7.0,
    ) -> None:
        if uav_range_m <= 0:
            raise ValueError(f"UAV range must be positive, got {uav_range_m}")
        for loc in locations:
            if loc.z <= 0:
                raise ValueError(
                    f"hovering locations must be airborne (z > 0), got {loc}"
                )
        self.locations: list = list(locations)
        self.uav_range_m = uav_range_m
        self.channel = channel if channel is not None else AirToGroundChannel(URBAN)
        self.bandwidth_hz = bandwidth_hz
        self.noise_dbm = noise_power_dbm(bandwidth_hz, noise_figure_db)

        self._install_users(users)

        self.location_graph = self._build_location_graph()
        self._coverage_cache: dict = {}
        self._hop_cache: dict = {}
        self._steiner_cache: dict = {}
        self._hop_matrix: "np.ndarray | None" = None

    # -- construction -------------------------------------------------------

    def _install_users(self, users: "list | tuple") -> None:
        """Install a population given either way (see the class doc); a
        :class:`User` list is converted to arrays here and kept as the
        :attr:`users` view."""
        if isinstance(users, tuple) and len(users) == 2 and isinstance(
            users[0], np.ndarray
        ):
            self._install_arrays(*users)
            return
        users = list(users)
        self._install_arrays(
            np.array(
                [[u.position.x, u.position.y] for u in users], dtype=float
            ).reshape(len(users), 2),
            np.array([u.min_rate_bps for u in users], dtype=float),
        )
        self._users = users

    def _install_arrays(self, xy: np.ndarray, min_rate: np.ndarray) -> None:
        """The one install path: the population's ``(n, 2)`` ground
        positions and ``(n,)`` minimum rates, and their spatial hash."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        min_rate = np.asarray(min_rate, dtype=float)
        if min_rate.shape != (len(xy),):
            raise ValueError(
                f"min_rate shape {min_rate.shape} != ({len(xy)},)"
            )
        self._user_xy = xy
        self._user_min_rate = min_rate
        self._users: "list | None" = None
        self._user_hash = SpatialHash(
            xy, cell_size=max(self.uav_range_m, 1.0),
        ) if len(xy) else None

    @property
    def users(self) -> list:
        """The population as :class:`User` objects, aligned with the
        arrays.  Built on first access; solving reads only the arrays."""
        if self._users is None:
            self._users = [
                User(Point3D(x, y, 0.0), rate)
                for (x, y), rate in zip(
                    self._user_xy.tolist(), self._user_min_rate.tolist()
                )
            ]
        return self._users

    def _build_location_graph(self) -> Graph:
        graph = Graph(len(self.locations))
        if not self.locations:
            return graph
        loc_hash = SpatialHash(
            [[p.x, p.y] for p in self.locations], cell_size=self.uav_range_m
        )
        for j, loc in enumerate(self.locations):
            for k in loc_hash.query_disc(loc.ground(), self.uav_range_m):
                if k > j and self.locations[j].distance_to(self.locations[k]) <= self.uav_range_m:
                    graph.add_edge(j, k)
        return graph

    # -- incremental user updates -------------------------------------------
    #
    # The dynamic mission engine changes *users* every epoch while the
    # candidate locations — and therefore the location graph, the hop
    # matrix and the Steiner memo — stay fixed.  These methods update only
    # the user-dependent half of the structure, so an epoch re-solve skips
    # the hop-matrix rebuild entirely.

    def replace_users(self, users: "list | tuple") -> None:
        """Swap the user population in place (given either way, see the
        class doc).

        Invalidates only the user-dependent coverage cache; the location
        graph, hop matrix, hop cache and Steiner memo are untouched (they
        depend on locations alone).
        """
        self._install_users(users)
        self._coverage_cache = {}

    def move_users(self, xy: np.ndarray) -> None:
        """Move the existing users to new ground coordinates.

        ``xy`` is an ``(n, 2)`` array aligned with the population; each
        user keeps its minimum-rate requirement.  Equivalent to
        :meth:`replace_users` with the moved arrays.
        """
        xy = np.array(xy, dtype=float)
        if xy.shape != (self.num_users, 2):
            raise ValueError(
                f"xy shape {xy.shape} != ({self.num_users}, 2)"
            )
        self._install_arrays(xy, self._user_min_rate)
        self._coverage_cache = {}

    def with_users(self, users: "list | tuple") -> "CoverageGraph":
        """A new graph over the same locations but a different user set
        (given either way, see the class doc).

        Location-derived structure (location graph, hop cache/matrix,
        Steiner memo) is *shared by reference* with ``self`` — it is
        deterministic in the locations, which are identical — so the clone
        costs only the user-side arrays.  The coverage cache starts empty.
        """
        clone = object.__new__(type(self))
        clone.locations = self.locations
        clone.uav_range_m = self.uav_range_m
        clone.channel = self.channel
        clone.bandwidth_hz = self.bandwidth_hz
        clone.noise_dbm = self.noise_dbm
        clone.location_graph = self.location_graph
        clone._hop_cache = self._hop_cache
        clone._steiner_cache = self._steiner_cache
        clone._hop_matrix = self._hop_matrix
        clone._coverage_cache = {}
        clone._install_users(users)
        return clone

    # -- sizes ---------------------------------------------------------------

    @property
    def num_users(self) -> int:
        return len(self._user_xy)

    @property
    def num_locations(self) -> int:
        return len(self.locations)

    # -- link evaluation -----------------------------------------------------

    def rate_bps(self, user_index: int, loc_index: int, uav: UAV) -> float:
        """Exact achievable rate of one user from a UAV at one location."""
        x, y = self._user_xy[user_index].tolist()
        loc: Point3D = self.locations[loc_index]
        pl = self.channel.pathloss_db(Point3D(x, y, 0.0), loc)
        snr = 10.0 ** (
            (uav.tx_power_dbm + uav.antenna_gain_db - pl - self.noise_dbm) / 10.0
        )
        return shannon_rate_bps(snr, self.bandwidth_hz)

    def _radio_key(self, uav: UAV) -> tuple:
        return (uav.user_range_m, uav.tx_power_dbm, uav.antenna_gain_db)

    def radio_signature(self, uav: UAV) -> tuple:
        """The (range, power, gain) tuple identifying a UAV's radio; all
        coverage caches are keyed by it, so UAVs sharing a signature share
        coverage sets."""
        return self._radio_key(uav)

    def _covered_mask(
        self, xy: np.ndarray, min_rate: np.ndarray, loc: Point3D, uav: UAV
    ) -> np.ndarray:
        """The per-(user, location, radio) coverage test, vectorised over
        the ``(k, 2)`` ground positions ``xy``: within ``R_user^k`` in 3-D
        and rate >= the user's ``min_rate``.  The one formula behind both
        :meth:`coverable_users` and :meth:`user_covered`."""
        horiz = np.hypot(xy[:, 0] - loc.x, xy[:, 1] - loc.y)
        dist3 = np.hypot(horiz, loc.z)
        covered = dist3 <= uav.user_range_m
        if not covered.any():
            return covered
        pl = self.channel.pathloss_vector_db(horiz[covered], loc.z)
        snr_db_arr = uav.tx_power_dbm + uav.antenna_gain_db - pl - self.noise_dbm
        rates = self.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr_db_arr / 10.0))
        covered[covered] = rates >= min_rate[covered]
        return covered

    def user_covered(self, user: User, loc_index: int, uav: UAV) -> bool:
        """Whether ``uav`` at ``loc_index`` could serve ``user`` — who need
        not be in this graph's population (an arriving user is tested
        before the graph is synced)."""
        covered = self._covered_mask(
            np.array([[user.position.x, user.position.y]], dtype=float),
            np.array([user.min_rate_bps], dtype=float),
            self.locations[loc_index], uav,
        )
        return bool(covered[0])

    def coverable_users(self, loc_index: int, uav: UAV) -> list:
        """Users the given UAV could serve from ``loc_index``: within
        ``R_user^k`` and with rate >= their minimum requirement.  Cached per
        (location, radio signature); once the radio's
        :meth:`coverage_bits_matrix` is built, a location's list is decoded
        from its row on first read."""
        radio = self._radio_key(uav)
        key = (loc_index, radio)
        cached = self._coverage_cache.get(key)
        if cached is not None:
            return cached
        matrix = self._coverage_cache.get(("matrix", radio))
        if matrix is not None:
            covered = np.flatnonzero(
                np.unpackbits(matrix[loc_index], count=self.num_users)
            ).tolist()
            self._coverage_cache[key] = covered
            return covered
        loc: Point3D = self.locations[loc_index]
        if self._user_hash is None:
            self._coverage_cache[key] = []
            return []
        # Range pre-filter on ground projection, then exact 3-D distance and
        # rate check, vectorised over the candidate users.
        max_ground = uav.user_range_m  # 3-D range implies ground range <= it
        candidates = self._user_hash.query_disc(loc.ground(), max_ground)
        if not candidates:
            self._coverage_cache[key] = []
            return []
        idx = np.array(sorted(candidates), dtype=int)
        ok = self._covered_mask(
            self._user_xy[idx], self._user_min_rate[idx], loc, uav
        )
        covered = [int(i) for i in idx[ok]]
        self._coverage_cache[key] = covered
        return covered

    def coverable_array(self, loc_index: int, uav: UAV):
        """:meth:`coverable_users` as a cached numpy int array (used by the
        vectorised gain bounds in the greedy)."""
        key = (loc_index, self._radio_key(uav), "np")
        cached = self._coverage_cache.get(key)
        if cached is None:
            cached = np.asarray(
                self.coverable_users(loc_index, uav), dtype=np.int64
            )
            self._coverage_cache[key] = cached
        return cached

    def coverable_bits(self, loc_index: int, uav: UAV) -> np.ndarray:
        """:meth:`coverable_users` as a packed ``uint8`` bitset (one bit per
        user, :func:`numpy.packbits` layout).  Cached per (location, radio
        signature); the substrate of the vectorised popcount bounds in
        :class:`repro.core.context.SolverContext`."""
        radio = self._radio_key(uav)
        key = (loc_index, radio, "bits")
        cached = self._coverage_cache.get(key)
        if cached is None:
            matrix = self._coverage_cache.get(("matrix", radio))
            cached = (
                matrix[loc_index] if matrix is not None
                else pack_indices(
                    self.coverable_array(loc_index, uav), self.num_users
                )
            )
            self._coverage_cache[key] = cached
        return cached

    #: Whether :meth:`coverage_bits_matrix` may use the batched all-
    #: locations mask.  Subclasses that redefine membership (e.g. the
    #: demand-cell graph's padded-radius test) set this False and fall
    #: back to stacking their own :meth:`coverable_bits` rows.
    _BATCHED_COVERAGE = True

    # The batched mask materialises (m, n) float temporaries; beyond this
    # many cells (~hundreds of MB) the matrix form is a memory hazard and
    # the bits build falls back to the per-location path.
    _MASK_CHUNK_CELLS = 8_000_000

    def _geometry(self) -> tuple:
        """Radio-independent ``(m, n)`` geometry shared by every radio's
        batched mask: 3-D user distances and expected pathloss, computed
        once per user population (grouped by altitude so the vectorised
        pathloss sees a scalar ``z``) and cached until the users change."""
        cached = self._coverage_cache.get(("geometry",))
        if cached is not None:
            return cached
        m, n = self.num_locations, self.num_users
        dist3 = np.zeros((m, n), dtype=float)
        pl = np.zeros((m, n), dtype=float)
        loc_xy = np.array(
            [[p.x, p.y] for p in self.locations], dtype=float
        ).reshape(m, 2)
        loc_z = np.array([p.z for p in self.locations], dtype=float)
        for z in np.unique(loc_z):
            sel = np.flatnonzero(loc_z == z)
            dx = loc_xy[sel, 0][:, None] - self._user_xy[None, :, 0]
            dy = loc_xy[sel, 1][:, None] - self._user_xy[None, :, 1]
            horiz = np.hypot(dx, dy)
            dist3[sel] = np.hypot(horiz, z)
            pl[sel] = self.channel.pathloss_vector_db(horiz, z)
        cached = (dist3, pl)
        self._coverage_cache[("geometry",)] = cached
        return cached

    def _coverage_mask(self, uav: UAV) -> np.ndarray:
        """Boolean ``(m, n)`` coverage membership under one radio.

        Applies the radio's range and rate tests to the shared
        :meth:`_geometry` arrays.  Elementwise ops only — values are
        bit-identical to the per-location :meth:`coverable_users` path."""
        m, n = self.num_locations, self.num_users
        if m == 0 or n == 0:
            return np.zeros((m, n), dtype=bool)
        dist3, pl = self._geometry()
        snr_db = (
            uav.tx_power_dbm + uav.antenna_gain_db - pl - self.noise_dbm
        )
        rates = self.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr_db / 10.0))
        return (dist3 <= uav.user_range_m) & (
            rates >= self._user_min_rate[None, :]
        )

    def coverage_bits_matrix(self, uav: UAV) -> np.ndarray:
        """Packed ``(m, words)`` coverage bitsets for *all* locations under
        one radio — the batched form of :meth:`coverable_bits`, cached per
        radio signature and used by
        :meth:`repro.core.context.SolverContext._build` so a context build
        costs one vectorised pass instead of one numpy call per location.
        Later per-location lookups under the same radio
        (:meth:`coverable_users`, :meth:`coverable_bits`) read their row
        from this matrix on first use, with identical values."""
        radio = self._radio_key(uav)
        key = ("matrix", radio)
        cached = self._coverage_cache.get(key)
        if cached is not None:
            return cached
        batched = (
            self._BATCHED_COVERAGE
            and self.num_locations * self.num_users <= self._MASK_CHUNK_CELLS
        )
        if not batched:
            words = np.packbits(np.zeros(self.num_users, dtype=bool)).size
            bits = np.zeros((self.num_locations, words), dtype=np.uint8)
            for v in range(self.num_locations):
                bits[v, :] = self.coverable_bits(v, uav)
            self._coverage_cache[key] = bits
            return bits
        mask = self._coverage_mask(uav)
        bits = np.packbits(mask, axis=1) if self.num_users else np.zeros(
            (self.num_locations, 0), dtype=np.uint8
        )
        self._coverage_cache[key] = bits
        return bits

    def union_coverage_count(self, loc_indices: list, uav: UAV) -> int:
        """Number of distinct users coverable from any of ``loc_indices``
        with the given UAV's radio (vectorised bitset union + popcount)."""
        acc: "np.ndarray | None" = None
        for v in loc_indices:
            bits = self.coverable_bits(v, uav)
            acc = bits.copy() if acc is None else np.bitwise_or(acc, bits)
        return 0 if acc is None else popcount(acc)

    def coverage_count(self, loc_index: int, uav: UAV) -> int:
        return len(self.coverable_users(loc_index, uav))

    def coverage_weight(self, loc_index: int, uav: UAV) -> int:
        """Demand-weighted coverage — the unit the greedy's static gains
        are measured in.  Per-user graphs have unit demand everywhere, so
        this equals :meth:`coverage_count`; demand-cell graphs
        (:class:`repro.workload.aggregate.CellCoverageGraph`) override it
        with the coverable cells' total member count."""
        return self.coverage_count(loc_index, uav)

    def warm_coverage(self, loc_index: int, radio_key: tuple,
                      covered: list) -> None:
        """Seed the coverage cache with a precomputed sorted user list (used
        by :meth:`repro.core.context.SolverContext.install_into` so worker
        processes skip the geometric/rate computation entirely)."""
        self._coverage_cache.setdefault((loc_index, radio_key), list(covered))

    # -- hop structure over the location graph -------------------------------

    def hops_from(self, loc_index: int) -> list:
        """BFS hop distances from one location to all locations (cached;
        served from the all-pairs hop matrix when one has been built)."""
        row = self._hop_cache.get(loc_index)
        if row is None:
            if self._hop_matrix is not None:
                row = self._hop_matrix[loc_index].tolist()
            else:
                row = bfs_hops(self.location_graph, loc_index)
            self._hop_cache[loc_index] = row
        return row

    def hop_matrix(self) -> np.ndarray:
        """The all-pairs hop matrix as an ``int16`` array (``UNREACHABLE``
        entries are ``-1``).  Built once by a level-synchronous search from
        every location at once and cached; the per-run hot data of the
        appro_alg engine."""
        if self._hop_matrix is None:
            self._hop_matrix = all_pairs_hops(self.location_graph)
        return self._hop_matrix

    def warm_hops(self, matrix: np.ndarray) -> None:
        """Adopt a precomputed all-pairs hop matrix (worker processes get it
        from the shipped :class:`~repro.core.context.SolverContext` instead
        of rebuilding it)."""
        matrix = np.asarray(matrix, dtype=np.int16)
        expected = (self.num_locations, self.num_locations)
        if matrix.shape != expected:
            raise ValueError(
                f"hop matrix shape {matrix.shape} != {expected}"
            )
        self._hop_matrix = matrix

    def hops_between(self, a: int, b: int) -> int:
        """Hop distance between two locations (-1 if disconnected)."""
        return self.hops_from(a)[b]

    def hops_to_set(self, sources: list) -> list:
        """Hop distance from each location to the nearest of ``sources``
        (the ``d_l`` of Section III-C)."""
        return multi_source_hops(self.location_graph, sources)

    def locations_connected(self, loc_indices: list) -> bool:
        """Whether the induced location subgraph is connected."""
        return is_connected(self.location_graph, loc_indices)

    def connect_terminals(self, terminals: list) -> "tuple[set, list]":
        """Section III-E connection step: MST over hop metric, expanded to
        shortest paths.  Returns (node set of G_j, expanded tree edges).
        Hop rows come from the per-instance cache, so repeated calls across
        anchor subsets stop re-running BFS per terminal; whole results are
        additionally memoised per exact terminal sequence — different
        anchor subsets often converge on the same greedy deployment.
        (Keyed by sequence, not set: MST tie-breaks may be order-
        sensitive.)  Callers must treat the returned set/list as
        read-only (they all do: the connect step copies before
        mutating)."""
        key = tuple(terminals)
        cached = self._steiner_cache.get(key)
        if cached is None:
            cached = steiner_connect(
                self.location_graph, terminals, hop_rows=self.hops_from
            )
            self._steiner_cache[key] = cached
        return cached

    def reachable_from(self, loc_index: int) -> list:
        """All locations in the same connected component as ``loc_index``."""
        row = self.hops_from(loc_index)
        return [j for j, d in enumerate(row) if d != UNREACHABLE]
