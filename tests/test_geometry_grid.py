"""Tests for repro.geometry.grid (spatial hashing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.grid import Grid, SpatialHash, pairwise_within
from repro.geometry.point import Point2D, Point3D


def random_points(rng, count, extent=1000.0):
    return [
        Point2D(float(x), float(y))
        for x, y in rng.uniform(0, extent, size=(count, 2))
    ]


def coords(points):
    """The ``(n, 2)`` coordinate array a :class:`SpatialHash` takes."""
    return np.array([[p.x, p.y] for p in points], dtype=float).reshape(-1, 2)


class TestSpatialHash:
    def test_empty(self):
        sh = SpatialHash([], cell_size=10.0)
        assert sh.query_disc(Point2D(0, 0), 100.0) == []

    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError, match="positive"):
            SpatialHash([], cell_size=0)

    def test_rejects_negative_radius(self):
        sh = SpatialHash(np.zeros((1, 2)), cell_size=10.0)
        with pytest.raises(ValueError, match="non-negative"):
            sh.query_disc(Point2D(0, 0), -1.0)

    def test_exact_boundary_included(self):
        sh = SpatialHash(np.array([[10.0, 0.0]]), cell_size=5.0)
        assert sh.query_disc(Point2D(0, 0), 10.0) == [0]
        assert sh.query_disc(Point2D(0, 0), 9.999) == []

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(0)
        points = random_points(rng, 200)
        sh = SpatialHash(coords(points), cell_size=97.0)
        for _ in range(20):
            cx, cy = rng.uniform(0, 1000, size=2)
            radius = float(rng.uniform(0, 400))
            center = Point2D(float(cx), float(cy))
            expected = sorted(
                i for i, p in enumerate(points)
                if p.distance_to(center) <= radius
            )
            assert sorted(sh.query_disc(center, radius)) == expected

    @given(st.integers(0, 60), st.floats(1.0, 500.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_hash_equals_naive_property(self, count, cell, seed):
        rng = np.random.default_rng(seed)
        points = random_points(rng, count)
        sh = SpatialHash(coords(points), cell_size=cell)
        center = Point2D(500.0, 500.0)
        radius = float(rng.uniform(0, 600))
        expected = sorted(
            i for i, p in enumerate(points) if p.distance_to(center) <= radius
        )
        assert sorted(sh.query_disc(center, radius)) == expected


class TestGrid:
    def test_neighbours_exclude_self(self):
        locations = [Point3D(0, 0, 300), Point3D(100, 0, 300), Point3D(500, 0, 300)]
        grid = Grid(locations, cell_size=200.0)
        assert grid.neighbours_within(0, 150.0) == [1]
        assert 0 not in grid.neighbours_within(0, 1000.0)

    def test_len(self):
        assert len(Grid([Point3D(0, 0, 1)], 10.0)) == 1


class TestPairwiseWithin:
    def test_small_case(self):
        pts = [Point3D(0, 0, 0), Point3D(5, 0, 0), Point3D(100, 0, 0)]
        assert pairwise_within(pts, 10.0) == [(0, 1)]

    def test_consistent_with_grid(self):
        rng = np.random.default_rng(1)
        locations = [
            Point3D(float(x), float(y), 300.0)
            for x, y in rng.uniform(0, 2000, size=(50, 2))
        ]
        radius = 600.0
        expected = set(pairwise_within(locations, radius))
        grid = Grid(locations, cell_size=radius)
        got = set()
        for i in range(len(locations)):
            for j in grid.neighbours_within(i, radius):
                got.add((min(i, j), max(i, j)))
        assert got == expected
