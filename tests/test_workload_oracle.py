"""The array-native generators against the scalar reference they replace.

:func:`scalar_fat_tailed` is the fat-tailed generator as it used to be,
its per-user redraw loop kept verbatim (one ``rng.normal`` call per
coordinate); only its result is returned as arrays rather than
:class:`User` objects.  The batched generator must
yield the same points, the same rates and leave the random generator in
the same state, so everything drawn after it (the fleet) is unchanged
too.
"""

import numpy as np
import pytest

import repro.workload.fat_tailed as fat_tailed
from repro.geometry.area import DisasterArea
from repro.network.fleet import heterogeneous_fleet
from repro.network.users import users_from_points
from repro.scenario.spec import PRESETS
from repro.util.rng import ensure_rng
from repro.workload.aggregate import aggregate_users
from repro.workload.fat_tailed import FatTailedWorkload
from repro.workload.uniform import UniformWorkload

AREA = DisasterArea(3000.0, 3000.0)


def scalar_fat_tailed(self, area, count, seed=None) -> tuple:
    """The scalar fat-tailed generator (the reference)."""
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

    points = []
    if num_background:
        xs = rng.uniform(0.0, area.length, size=num_background)
        ys = rng.uniform(0.0, area.width, size=num_background)
        points.extend(zip(xs, ys))

    assignments = rng.choice(
        self.num_hotspots, size=num_hotspot_users, p=weights
    )
    for h in assignments:
        cx, cy = centres[h]
        # Redraw until inside the area (truncated Gaussian).
        for _ in range(1000):
            x = rng.normal(cx, self.hotspot_sigma_m)
            y = rng.normal(cy, self.hotspot_sigma_m)
            if 0.0 <= x <= area.length and 0.0 <= y <= area.width:
                points.append((x, y))
                break
        else:
            points.append((cx, cy))

    xy = np.array(points, dtype=float).reshape(len(points), 2)
    if self.rate_classes is None:
        return xy, np.full(len(points), float(self.min_rate_bps))
    # Mixed QoS: draw each user's class from the configured mix.
    fractions = [f for f, _ in self.rate_classes]
    rates = [r for _, r in self.rate_classes]
    picks = rng.choice(len(rates), size=len(points), p=fractions)
    return xy, np.array([rates[int(cls)] for cls in picks], dtype=float)


def scalar_uniform(self, area, count, seed=None) -> tuple:
    """The object-building uniform generator (the reference)."""
    rng = ensure_rng(seed)
    xs = rng.uniform(0.0, area.length, size=count)
    ys = rng.uniform(0.0, area.width, size=count)
    users = users_from_points(zip(xs, ys), self.min_rate_bps)
    xy = np.array(
        [[u.position.x, u.position.y] for u in users], dtype=float
    ).reshape(len(users), 2)
    return xy, np.array([u.min_rate_bps for u in users], dtype=float)


def assert_same_stream(workload, area, count, seed):
    """Arrays, rates and the generator's state afterwards all agree."""
    reference = (
        scalar_uniform if isinstance(workload, UniformWorkload)
        else scalar_fat_tailed
    )
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    want_xy, want_rate = reference(workload, area, count, rng_ref)
    xy, rate = workload.generate(area, count, rng_new)
    assert xy.dtype == rate.dtype == np.float64
    assert xy.shape == (count, 2) and rate.shape == (count,)
    assert np.array_equal(xy, want_xy)
    assert np.array_equal(rate, want_rate)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("background", [0.0, 0.15, 1.0])
@pytest.mark.parametrize("count", [0, 1, 3000])
@pytest.mark.parametrize("seed", range(31))
def test_fat_tailed_matches_scalar(seed, count, background):
    workload = FatTailedWorkload(background_fraction=background)
    assert_same_stream(workload, AREA, count, seed)


@pytest.mark.parametrize("background", [0.0, 0.15, 1.0])
@pytest.mark.parametrize("seed", [0, 3, 7, 30])
def test_fat_tailed_matches_scalar_at_1e5(seed, background):
    # Seed 3 rejects about a quarter of its hotspot draws.
    workload = FatTailedWorkload(background_fraction=background)
    assert_same_stream(workload, AREA, 100_000, seed)


@pytest.mark.parametrize("seed", range(31))
def test_heavy_rejection_extends_the_buffer(seed):
    """Wide hotspots on a small area reject most draws, so most users
    need several batches of normals."""
    workload = FatTailedWorkload(num_hotspots=3, hotspot_sigma_m=400.0)
    assert_same_stream(workload, DisasterArea(500.0, 300.0), 3000, seed)


@pytest.mark.parametrize("seed", range(31))
def test_small_batches_match(seed, monkeypatch):
    """Batches capped at a few pairs cross a batch edge mid-user."""
    monkeypatch.setattr(fat_tailed, "_BATCH_BYTES", 40)
    workload = FatTailedWorkload(num_hotspots=4, hotspot_sigma_m=600.0)
    assert_same_stream(workload, DisasterArea(1000.0, 800.0), 500, seed)


@pytest.mark.parametrize("seed", range(5))
def test_centre_fallback_after_max_tries(seed):
    """No draw can land on a 1 m area: every hotspot user consumes all
    of its tries and falls back to its hotspot centre."""
    workload = FatTailedWorkload(
        num_hotspots=2, hotspot_sigma_m=1e9, background_fraction=0.2
    )
    area = DisasterArea(1.0, 1.0)
    assert_same_stream(workload, area, 5, seed)
    rng = np.random.default_rng(seed)
    xy, _ = workload.generate(area, 5, rng)
    assert ((0.0 <= xy) & (xy <= 1.0)).all()


@pytest.mark.parametrize("count", [0, 1, 3000])
@pytest.mark.parametrize("seed", range(31))
def test_rate_classes_match(seed, count):
    workload = FatTailedWorkload(
        rate_classes=((0.7, 2_000.0), (0.2, 64_000.0), (0.1, 2.5e6)),
    )
    assert_same_stream(workload, AREA, count, seed)


@pytest.mark.parametrize("count", [0, 1, 3000])
@pytest.mark.parametrize("seed", range(5))
def test_uniform_matches_reference(seed, count):
    assert_same_stream(UniformWorkload(), AREA, count, seed)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_build_the_reference_population(name):
    """Every preset builds the scalar reference's users (as cells, when
    it aggregates) and the fleet drawn after them."""
    spec = PRESETS[name]
    config = spec.to_config()
    rng = np.random.default_rng(spec.seed)
    area = DisasterArea(config.area_length_m, config.area_width_m)
    reference = (
        scalar_uniform if isinstance(config.workload, UniformWorkload)
        else scalar_fat_tailed
    )
    want_xy, want_rate = reference(
        config.workload, area, config.num_users, rng
    )
    want_fleet = heterogeneous_fleet(
        config.num_uavs, capacity_min=config.capacity_min,
        capacity_max=config.capacity_max, user_range_m=config.user_range_m,
        seed=rng,
    )
    problem = spec.build()
    assert [u.capacity for u in problem.fleet] == [
        u.capacity for u in want_fleet
    ]
    graph = problem.graph
    if spec.aggregation == "cells":
        assert graph.cells == aggregate_users(
            want_xy, want_rate, spec.cell_size_m
        )
    else:
        assert np.array_equal(graph._user_xy, want_xy)
        assert np.array_equal(graph._user_min_rate, want_rate)
