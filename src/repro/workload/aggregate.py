"""Spatial demand-cell aggregation: the million-user scaling layer.

The paper's objective treats every ground user as an individual flow
node, which caps tractable instances far below the "millions of users"
north star.  Disaster-area planning work (Malandrino et al.) aggregates
users into spatial *demand cells* for exactly this reason: users are
binned into a square grid, each non-empty bin becomes one
:class:`DemandCell` with an integer demand (its member count), a
centroid, a covering radius (the farthest member's distance from the
centroid) and a minimum-rate requirement (the most demanding member's).

The aggregated problem is *conservative*: a cell is declared coverable
from a location only if its **farthest, most demanding** member provably
is (the coverage test pads the centroid distance by the cell radius, and
path loss is monotone in ground distance).  Any cell-level assignment
therefore induces a feasible per-user assignment, so the aggregated
served count is a lower bound on the per-user optimum:

* ``served_cells_units <= served_users_optimum`` (admissibility);
* ``sum(cell demands) == num_users`` (demand conservation);
* with **singleton cells** (radius 0, demand 1, centroid = the exact
  user position) the padded test degenerates to the per-user test
  bit-for-bit, so the aggregated solve runs the identical code path and
  returns identical results — the equivalence the oracle suite pins.

The fat-tailed hotspot generator clusters most users around a few
centres, so a modest grid (``cell_size_m`` of 100–200 m) collapses
10^6 users into a few hundred cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import ProblemInstance
from repro.geometry.grid import group_by_key
from repro.network.coverage import CoverageGraph
from repro.network.uav import UAV


@dataclass(frozen=True)
class DemandCell:
    """One aggregated spatial demand cell.

    Attributes
    ----------
    index:
        The cell's position in its cell list (stable, sorted by grid key).
    x, y:
        Member centroid (metres).
    radius_m:
        Maximum member ground distance from the centroid; the coverage
        test pads by this, so every member is provably in range.
    min_rate_bps:
        Maximum member minimum-rate requirement (most demanding member).
    demand:
        Integer member count — the cell's flow supply.
    members:
        Original user indices, sorted ascending.
    """

    index: int
    x: float
    y: float
    radius_m: float
    min_rate_bps: float
    demand: int
    members: tuple

    def __post_init__(self) -> None:
        if self.demand < 1:
            raise ValueError(f"cell demand must be >= 1, got {self.demand}")
        if self.radius_m < 0:
            raise ValueError(
                f"cell radius must be non-negative, got {self.radius_m}"
            )
        if len(self.members) != self.demand:
            raise ValueError(
                f"cell lists {len(self.members)} members but demand "
                f"{self.demand}"
            )


def aggregate_users(
    xy: "np.ndarray", min_rate: "np.ndarray", cell_size_m: float
) -> list:
    """Bin users into a square grid of ``cell_size_m`` demand cells.

    ``xy`` is the users' ``(n, 2)`` ground positions and ``min_rate``
    their aligned minimum rates — a coverage graph's ``_user_xy`` and
    ``_user_min_rate``, so no per-user object is walked.  Cells are
    ordered by grid key (lexicographic on the integer bin coordinates),
    so the output is a deterministic function of the arrays.  Empty bins
    produce no cell; ``sum(c.demand) == n``.
    """
    if cell_size_m <= 0:
        raise ValueError(f"cell_size_m must be positive, got {cell_size_m}")
    if not len(xy):
        return []
    keys = np.floor_divide(xy, float(cell_size_m)).astype(np.int64)
    order, bounds = group_by_key(keys)
    num_cells = len(bounds) - 1
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.repeat(np.arange(num_cells), np.diff(bounds))
    counts = np.bincount(inverse, minlength=num_cells)
    cx = np.bincount(inverse, weights=xy[:, 0], minlength=num_cells) / counts
    cy = np.bincount(inverse, weights=xy[:, 1], minlength=num_cells) / counts
    spread = np.hypot(xy[:, 0] - cx[inverse], xy[:, 1] - cy[inverse])
    radius = np.zeros(num_cells, dtype=float)
    np.maximum.at(radius, inverse, spread)
    rate = np.zeros(num_cells, dtype=float)
    np.maximum.at(rate, inverse, min_rate)
    members = order.tolist()
    return [
        DemandCell(
            index=c, x=x, y=y, radius_m=r, min_rate_bps=m, demand=n,
            members=tuple(members[bounds[c]:bounds[c + 1]]),
        )
        for c, (x, y, r, m, n) in enumerate(zip(
            cx.tolist(), cy.tolist(), radius.tolist(), rate.tolist(),
            counts.tolist(),
        ))
    ]


def singleton_cells(xy: "np.ndarray", min_rate: "np.ndarray") -> list:
    """One cell per user: radius 0, demand 1, centroid = exact position.

    ``xy`` and ``min_rate`` are the population arrays, as for
    :func:`aggregate_users`.  The degenerate aggregation whose solve is
    bit-identical to the per-user path (see module docstring)."""
    return [
        DemandCell(
            index=i, x=x, y=y, radius_m=0.0, min_rate_bps=rate, demand=1,
            members=(i,),
        )
        for i, ((x, y), rate) in enumerate(zip(xy.tolist(), min_rate.tolist()))
    ]


class CellCoverageGraph(CoverageGraph):
    """A coverage graph whose "users" are demand cells.

    The node set reuses the whole :class:`CoverageGraph` machinery (the
    spatial hash, bitset caches, hop structure) with one node per cell,
    installed as the arrays of cell centroids and cell minimum rates;
    only the coverability test changes — it pads the centroid distance
    by the cell radius so that *every* member of a coverable cell is
    provably within range and rate.  With singleton cells the pad is 0.0
    and the test is bit-identical to the base class.
    """

    def __init__(self, cells: list, locations: list, uav_range_m: float,
                 channel=None, bandwidth_hz=None, **kwargs) -> None:
        centroids = np.array(
            [[c.x, c.y] for c in cells], dtype=float
        ).reshape(len(cells), 2)
        rates = np.array([c.min_rate_bps for c in cells], dtype=float)
        extra = {} if bandwidth_hz is None else {"bandwidth_hz": bandwidth_hz}
        extra.update(kwargs)
        super().__init__(
            users=(centroids, rates), locations=locations,
            uav_range_m=uav_range_m, channel=channel, **extra,
        )
        self.cells: list = list(cells)
        self.cell_radii = np.array([c.radius_m for c in cells], dtype=float)
        self.cell_demands = np.array([c.demand for c in cells], dtype=np.int64)

    # The padded-radius membership test below differs from the base
    # geometry, so the batched all-locations mask does not apply; the
    # bits matrix falls back to stacking this class's coverable_bits.
    _BATCHED_COVERAGE = False

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def total_demand(self) -> int:
        """Total member count over all cells (== original user count)."""
        return int(self.cell_demands.sum())

    def coverable_users(self, loc_index: int, uav: UAV) -> list:
        """Cells whose farthest, most demanding member is provably
        coverable from ``loc_index`` (padded-radius test)."""
        key = (loc_index, self._radio_key(uav))
        cached = self._coverage_cache.get(key)
        if cached is not None:
            return cached
        loc = self.locations[loc_index]
        if self._user_hash is None:
            self._coverage_cache[key] = []
            return []
        # Any cell passing the padded test has a centroid ground distance
        # <= range, so the base prefilter disc still over-covers it.
        candidates = self._user_hash.query_disc(loc.ground(), uav.user_range_m)
        if not candidates:
            self._coverage_cache[key] = []
            return []
        idx = np.array(sorted(candidates), dtype=int)
        dx = self._user_xy[idx, 0] - loc.x
        dy = self._user_xy[idx, 1] - loc.y
        # Pad the centroid distance by the cell radius: the worst-placed
        # member sits at most this far out, and path loss is monotone in
        # ground distance.  radius 0.0 reduces to the per-user test
        # bit-for-bit (x + 0.0 == x in IEEE arithmetic).
        horiz = np.hypot(dx, dy) + self.cell_radii[idx]
        dist3 = np.hypot(horiz, loc.z)
        in_range = dist3 <= uav.user_range_m
        idx = idx[in_range]
        if idx.size == 0:
            self._coverage_cache[key] = []
            return []
        horiz = horiz[in_range]
        pl = self.channel.pathloss_vector_db(horiz, loc.z)
        snr_db = uav.tx_power_dbm + uav.antenna_gain_db - pl - self.noise_dbm
        rates = self.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr_db / 10.0))
        ok = rates >= self._user_min_rate[idx]
        covered = [int(i) for i in idx[ok]]
        self._coverage_cache[key] = covered
        return covered

    def coverage_weight(self, loc_index: int, uav: UAV) -> int:
        """Total demand coverable from ``loc_index`` — the greedy's gain
        unit on cell graphs."""
        key = (loc_index, self._radio_key(uav), "wt")
        cached = self._coverage_cache.get(key)
        if cached is None:
            cached = int(
                self.cell_demands[self.coverable_array(loc_index, uav)].sum()
            )
            self._coverage_cache[key] = cached
        return cached


def aggregate_problem(
    problem: ProblemInstance, cell_size_m: "float | None" = None
) -> ProblemInstance:
    """Re-express a per-user problem over demand cells (same fleet, same
    candidate locations).

    ``cell_size_m=None`` builds singleton cells — the bit-identical
    degenerate aggregation used by the equivalence oracles.
    """
    graph = problem.graph
    cells = (
        singleton_cells(graph._user_xy, graph._user_min_rate)
        if cell_size_m is None
        else aggregate_users(
            graph._user_xy, graph._user_min_rate, cell_size_m
        )
    )
    cell_graph = CellCoverageGraph(
        cells=cells,
        locations=graph.locations,
        uav_range_m=graph.uav_range_m,
        channel=graph.channel,
        bandwidth_hz=graph.bandwidth_hz,
    )
    # The base graph stores only the derived noise power; copy it so the
    # cell graph's rate test matches the per-user one exactly.
    cell_graph.noise_dbm = graph.noise_dbm
    return ProblemInstance(graph=cell_graph, fleet=problem.fleet)
