"""User mobility model (extension; Section II-C notes "users in the
disaster zone may move around ... we thus need to re-deploy the UAVs").

:class:`GaussianWalk` is the bounded random walk the dynamics engine
(:mod:`repro.dynamics`) applies to every user on each mobility tick;
re-deployment under that drift is the engine's epoch re-solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianWalk:
    """Per-step displacement ~ N(0, sigma^2) in each axis, reflected at the
    area boundary (users stay inside the disaster zone)."""

    sigma_m: float = 30.0

    def __post_init__(self) -> None:
        if self.sigma_m < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma_m}")

    def step(self, xy: np.ndarray, bounds: tuple, rng: np.random.Generator) -> np.ndarray:
        moved = xy + rng.normal(0.0, self.sigma_m, size=xy.shape)
        lo_x, hi_x, lo_y, hi_y = bounds
        out = moved.copy()
        # Reflect into the box (one reflection suffices for sigma << span).
        out[:, 0] = np.clip(
            np.where(out[:, 0] < lo_x, 2 * lo_x - out[:, 0], out[:, 0]),
            lo_x, hi_x,
        )
        out[:, 0] = np.where(out[:, 0] > hi_x, 2 * hi_x - out[:, 0], out[:, 0])
        out[:, 1] = np.clip(
            np.where(out[:, 1] < lo_y, 2 * lo_y - out[:, 1], out[:, 1]),
            lo_y, hi_y,
        )
        out[:, 1] = np.where(out[:, 1] > hi_y, 2 * hi_y - out[:, 1], out[:, 1])
        return np.clip(out, [lo_x, lo_y], [hi_x, hi_y])
