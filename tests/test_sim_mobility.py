"""Tests for the user-mobility model."""

import numpy as np
import pytest

from repro.sim.mobility import GaussianWalk


class TestGaussianWalk:
    def test_zero_sigma_is_static(self):
        walk = GaussianWalk(sigma_m=0.0)
        xy = np.array([[10.0, 20.0], [30.0, 40.0]])
        rng = np.random.default_rng(0)
        out = walk.step(xy, (0.0, 100.0, 0.0, 100.0), rng)
        assert np.allclose(out, xy)

    def test_stays_in_bounds(self):
        walk = GaussianWalk(sigma_m=50.0)
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 100, size=(200, 2))
        for _ in range(20):
            xy = walk.step(xy, (0.0, 100.0, 0.0, 100.0), rng)
            assert (xy >= 0.0).all() and (xy <= 100.0).all()

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            GaussianWalk(sigma_m=-1.0)
