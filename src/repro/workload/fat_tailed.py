"""Fat-tailed hotspot user distribution (Section IV-A, after Song et al.).

Hotspot centres are uniform over the area; hotspot popularity follows a
Pareto (power-law) distribution, so a few hotspots attract most users —
the "fat tail".  Each hotspot user is displaced from its centre by an
isotropic Gaussian; a small background fraction is uniform.  Samples
falling outside the area are redrawn (truncation, not clipping, so no
artificial mass piles up on the boundary).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.geometry.area import DisasterArea
from repro.network.users import DEFAULT_MIN_RATE_BPS
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class FatTailedWorkload:
    """Pareto-weighted Gaussian hotspots over a uniform background.

    Parameters
    ----------
    num_hotspots:
        Number of hotspot centres.
    pareto_alpha:
        Pareto shape for hotspot popularity; smaller = heavier tail
        (Song et al. report exponents near 1.5 for human mobility).
    hotspot_sigma_m:
        Gaussian spread of users around their hotspot centre.
    background_fraction:
        Fraction of users placed uniformly instead of at hotspots.
    rate_classes:
        Optional mixed QoS classes as ``((fraction, min_rate_bps), ...)``;
        fractions must sum to 1.  Users are split into the classes at
        random (e.g. 80% voice at 2 kbps, 20% video at 2.5 Mbps).  When
        ``None`` every user requires ``min_rate_bps``.
    """

    num_hotspots: int = 12
    pareto_alpha: float = 1.5
    hotspot_sigma_m: float = 220.0
    background_fraction: float = 0.15
    min_rate_bps: float = DEFAULT_MIN_RATE_BPS
    rate_classes: "tuple | None" = None

    def __post_init__(self) -> None:
        if self.num_hotspots < 1:
            raise ValueError(
                f"need at least one hotspot, got {self.num_hotspots}"
            )
        if self.pareto_alpha <= 0:
            raise ValueError(
                f"pareto_alpha must be positive, got {self.pareto_alpha}"
            )
        if self.hotspot_sigma_m <= 0:
            raise ValueError(
                f"hotspot_sigma_m must be positive, got {self.hotspot_sigma_m}"
            )
        if not (0.0 <= self.background_fraction <= 1.0):
            raise ValueError(
                "background_fraction must be in [0, 1], got "
                f"{self.background_fraction}"
            )
        if self.rate_classes is not None:
            total = sum(f for f, _ in self.rate_classes)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"rate-class fractions must sum to 1, got {total}"
                )
            if any(f < 0 or r < 0 for f, r in self.rate_classes):
                raise ValueError("rate-class entries must be non-negative")

    def generate(
        self,
        area: DisasterArea,
        count: int,
        seed: "int | np.random.Generator | None" = None,
    ) -> tuple:
        """Generate ``count`` users inside ``area``.

        Returns the population as arrays: ``xy`` of shape ``(count, 2)``
        (background users first, then hotspot users) and the aligned
        ``min_rate`` of shape ``(count,)``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        rng = ensure_rng(seed)
        centres = np.column_stack(
            [
                rng.uniform(0.0, area.length, size=self.num_hotspots),
                rng.uniform(0.0, area.width, size=self.num_hotspots),
            ]
        )
        weights = rng.pareto(self.pareto_alpha, size=self.num_hotspots) + 1.0
        weights /= weights.sum()

        num_background = int(round(count * self.background_fraction))
        num_hotspot_users = count - num_background

        xy = np.empty((count, 2), dtype=float)
        if num_background:
            xy[:num_background, 0] = rng.uniform(
                0.0, area.length, size=num_background
            )
            xy[:num_background, 1] = rng.uniform(
                0.0, area.width, size=num_background
            )

        assignments = rng.choice(
            self.num_hotspots, size=num_hotspot_users, p=weights
        )
        xy[num_background:] = _truncated_gaussian(
            rng, assignments, centres, self.hotspot_sigma_m, area
        )

        if self.rate_classes is None:
            return xy, np.full(count, float(self.min_rate_bps))
        # Mixed QoS: draw each user's class from the configured mix.
        fractions = [f for f, _ in self.rate_classes]
        rates = np.array([r for _, r in self.rate_classes], dtype=float)
        picks = rng.choice(len(rates), size=count, p=fractions)
        return xy, rates[picks]


#: Draws per hotspot user before it falls back to its hotspot centre.
MAX_TRIES = 1000

#: Budget, in acceptance bytes (pairs x hotspots), of one batch of normals.
_BATCH_BYTES = 1 << 22


def _truncated_gaussian(
    rng: np.random.Generator, hotspots: np.ndarray, centres: np.ndarray,
    sigma: float, area: DisasterArea,
) -> np.ndarray:
    """One point per entry of ``hotspots``: a Gaussian around that
    hotspot's centre, redrawn until it lands inside ``area`` (after
    :data:`MAX_TRIES` misses, the centre itself).

    Replays the per-user scalar stream exactly.  User after user, each
    try consumes the next pair ``(z_x, z_y)`` of standard normals and
    tests ``(cx + sigma * z_x, cy + sigma * z_y)``, which is the
    arithmetic of ``rng.normal(cx, sigma)``.  The normals are drawn in
    batches of at most one pair per user still unplaced.  Each such user
    consumes at least one more pair, so no normal is drawn that the
    scalar loop would not have drawn and ``rng`` ends in the same state.
    Within a batch, a hotspot's accept/reject verdict on every pair is
    one vectorised test, and a user's accepted pair is the next accepted
    byte of that verdict row.
    """
    length, width, sigma = area.length, area.width, float(sigma)
    n = len(hotspots)
    batch = max(1, _BATCH_BYTES // len(centres))
    zx_parts: list = []
    zy_parts: list = []
    accepted = array("q")   # per user: global index of its pair, or -1
    base = size = q = 0     # current batch: first pair's index, size, cursor
    for i, h in enumerate(hotspots.tolist()):
        tries = 0
        while True:
            if q == size:
                base += size
                size = min(n - i, batch)
                z = rng.standard_normal(2 * size)
                zx, zy = z[0::2], z[1::2]
                zx_parts.append(zx)
                zy_parts.append(zy)
                rows: dict = {}
                q = 0
            row = rows.get(h)
            if row is None:
                x = centres[h, 0] + sigma * zx
                y = centres[h, 1] + sigma * zy
                row = rows[h] = (
                    (0.0 <= x) & (x <= length) & (0.0 <= y) & (y <= width)
                ).tobytes()
            stop = q + MAX_TRIES - tries
            if stop > size:
                stop = size
            hit = row.find(1, q, stop)
            if hit >= 0:
                accepted.append(base + hit)
                q = hit + 1
                break
            tries += stop - q
            q = stop
            if tries == MAX_TRIES:
                accepted.append(-1)
                break
    xy = centres[hotspots]
    pair = np.frombuffer(accepted, dtype=np.int64)
    ok = pair >= 0
    if ok.any():
        zx = np.concatenate(zx_parts)[pair[ok]]
        zy = np.concatenate(zy_parts)[pair[ok]]
        xy[ok, 0] = xy[ok, 0] + sigma * zx
        xy[ok, 1] = xy[ok, 1] + sigma * zy
    return xy
