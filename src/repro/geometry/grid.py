"""Spatial indexing for range queries.

Coverage-graph construction needs "all users within radius R of location v"
for every location; a uniform-cell spatial hash turns that from O(n*m) naive
pair scans into O(n + m * hits) in practice.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.geometry.point import Point2D, Point3D


def group_by_key(keys: "np.ndarray") -> tuple:
    """Group the rows of an ``(n, 2)`` integer key array.

    Returns ``(order, bounds)``: ``order`` is the stable lexicographic
    sort of the rows by ``(kx, ky)``, and group ``g`` is
    ``order[bounds[g]:bounds[g + 1]]`` — its row indices, ascending.
    ``bounds`` is a list of ``num_groups + 1`` offsets.
    """
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    return order, np.append(np.flatnonzero(starts), len(order)).tolist()


class SpatialHash:
    """Uniform-grid spatial hash over 2-D ground positions.

    Built from an ``(n, 2)`` array of ``(x, y)`` coordinates.  Points are
    bucketed by ``floor(coord / cell_size)``; a radius query scans only
    the buckets overlapping the query disc's bounding square and then
    filters by exact distance.  Hits come back bucket by bucket (in
    ``(kx, ky)`` order), ascending within a bucket.
    """

    def __init__(self, xy: "np.ndarray", cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = cell_size
        self._xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        keys = np.floor(self._xy / cell_size).astype(np.int64)
        order, bounds = group_by_key(keys)
        self._buckets: dict = {
            (kx, ky): order[start:end]
            for (kx, ky), start, end in zip(
                keys[order[bounds[:-1]]].tolist(), bounds[:-1], bounds[1:]
            )
        }

    def _key(self, x: float, y: float) -> tuple:
        return (math.floor(x / self._cell_size), math.floor(y / self._cell_size))

    def __len__(self) -> int:
        return len(self._xy)

    def query_disc(self, center: Point2D, radius: float) -> list:
        """Indices of stored points within ``radius`` of ``center``."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        cx0, cy0 = self._key(center.x - radius, center.y - radius)
        cx1, cy1 = self._key(center.x + radius, center.y + radius)
        runs = [
            bucket
            for cx in range(cx0, cx1 + 1)
            for cy in range(cy0, cy1 + 1)
            if (bucket := self._buckets.get((cx, cy))) is not None
        ]
        if not runs:
            return []
        idx = np.concatenate(runs)
        dx = self._xy[idx, 0] - center.x
        dy = self._xy[idx, 1] - center.y
        return idx[dx * dx + dy * dy <= radius * radius].tolist()


class Grid:
    """Convenience wrapper pairing a set of aerial locations with a spatial
    hash over their ground projections.

    Used to find candidate-location neighbours within the UAV-to-UAV range
    (same altitude, so the 3-D distance equals the ground distance).
    """

    def __init__(self, locations: Sequence[Point3D], cell_size: float) -> None:
        self._locations = list(locations)
        self._hash = SpatialHash(
            [[p.x, p.y] for p in self._locations], cell_size
        )

    def __len__(self) -> int:
        return len(self._locations)

    def locations(self) -> list:
        return list(self._locations)

    def neighbours_within(self, index: int, radius: float) -> list:
        """Indices of locations within ``radius`` of location ``index``
        (excluding ``index`` itself)."""
        center = self._locations[index].ground()
        return [i for i in self._hash.query_disc(center, radius) if i != index]

    def within_radius(self, center: Point2D, radius: float) -> list:
        return self._hash.query_disc(center, radius)


def pairwise_within(
    points: Iterable[Point3D], radius: float
) -> list:
    """All unordered pairs (i, j), i < j, with Euclidean distance <= radius.

    Small-input helper used in tests as an oracle for the spatial hash.
    """
    pts = list(points)
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i].distance_to(pts[j]) <= radius:
                out.append((i, j))
    return out
