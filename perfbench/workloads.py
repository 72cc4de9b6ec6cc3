"""The benchmark's workloads and the map from layers to end-to-end metrics.

Each workload's spec is frozen here as its full ``to_dict()`` form, so an
edit to the program's ``PRESETS`` / ``DYNAMIC_PRESETS`` cannot silently
change what the benchmark measures.  The ``seed`` field is a placeholder:
request ``i`` of a run uses seed ``base_seed + i``.

Every workload is a closed loop with one client (``LOOP``): it sends one
request, waits for the reply, checks it, and only then sends the next, the
way a planner waits on a plan.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How every workload drives the program; ``run.closed_loop`` implements it.
LOOP = "closed loop, 1 client"

PAPER_HEADLINE = {
    "format": 1, "kind": "scenario-spec", "name": "paper-headline",
    "scale": "paper", "num_users": 3000, "num_uavs": 20,
    "grid_side_m": None, "altitude_m": None, "altitude_layers_m": [],
    "environment": None, "workload": None, "workload_params": {},
    "capacity_min": None, "capacity_max": None, "seed": 7,
    "algorithm": "approAlg",
    "algorithm_params": {"s": 3, "gain_mode": "fast",
                         "max_anchor_candidates": 10},
    "workers": 1, "bound_prune": False, "validate": True,
    "aggregation": "users", "cell_size_m": None, "tiles": None,
    "tile_overlap_m": 0.0, "tile_index": None,
}

SCALE_SMOKE = {
    "format": 1, "kind": "scenario-spec", "name": "scale-smoke",
    "scale": "bench", "num_users": 100000, "num_uavs": 12,
    "grid_side_m": None, "altitude_m": None, "altitude_layers_m": [],
    "environment": None, "workload": None, "workload_params": {},
    "capacity_min": None, "capacity_max": None, "seed": 7,
    "algorithm": "approAlg",
    "algorithm_params": {"s": 1, "gain_mode": "fast",
                         "max_anchor_candidates": 4},
    "workers": 1, "bound_prune": False, "validate": True,
    "aggregation": "cells", "cell_size_m": 150.0, "tiles": "2x2",
    "tile_overlap_m": 300.0, "tile_index": None,
}

DYNAMIC_HEADLINE = {
    "format": 1, "kind": "dynamic-spec", "name": "dynamic-headline",
    "scale": "paper", "num_users": 800, "num_uavs": 10,
    "grid_side_m": None, "altitude_m": None,
    "altitude_layers_m": [200.0, 300.0, 400.0],
    "environment": None, "workload": None, "workload_params": {},
    "capacity_min": None, "capacity_max": None, "seed": 7,
    "algorithm": "approAlg",
    "algorithm_params": {"s": 1, "gain_mode": "fast",
                         "max_anchor_candidates": 6},
    "workers": 1, "bound_prune": False, "validate": True,
    "aggregation": "users", "cell_size_m": None, "tiles": None,
    "tile_overlap_m": 0.0, "tile_index": None,
    "duration_s": 600.0, "epoch_s": 100.0, "resolve_policy": "periodic",
    "drift_threshold": 0.15, "arrival_rate_per_s": 0.2,
    "mean_dwell_s": 400.0, "num_hotspots": 3, "hotspot_sigma_m": 150.0,
    "hotspot_drift_mps": 2.0, "mobility_sigma_m": 40.0,
    "mobility_step_s": 30.0, "recharge_s": None, "num_crashes": 0,
    "num_links": 0, "relocation_speed_mps": None, "warm_start": True,
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "static": SolvePipeline.run; "dynamic": run_dynamic
    spec: dict
    why: str
    #: ``served_frac`` pools the first this-many requests, and a run sends
    #: at least this many, so the metric depends on ``--seed`` alone.
    quality_requests: int

    def build_spec(self, seed: int):
        """The program's spec object for one request."""
        if self.kind == "dynamic":
            from repro.dynamics.spec import DynamicSpec as cls
        else:
            from repro.scenario.spec import ScenarioSpec as cls
        return cls.from_dict({**self.spec, "seed": seed})


WORKLOADS = {
    "paper-headline": Workload(
        name="paper-headline", kind="static", spec=PAPER_HEADLINE,
        why="Solver-bound: a 3000-user, K=20, s=3 plan on the paper grid "
            "spends most of its time in appro_alg and the solver context; "
            "building the population is under 5%.",
        quality_requests=24,
    ),
    "scale-smoke": Workload(
        name="scale-smoke", kind="static", spec=SCALE_SMOKE,
        why="Build-bound: 10^5 users aggregated into cells and solved on "
            "2x2 tiles; each plan builds the population five times and "
            "solving is under 1%. It also shows memory.",
        quality_requests=5,
    ),
    "dynamic-headline": Workload(
        name="dynamic-headline", kind="dynamic", spec=DYNAMIC_HEADLINE,
        why="Observe-bound: a 600 s churn mission re-evaluates coverage "
            "after each of ~840 events; writes (arrivals, departures, "
            "moves) run beside reads (per-event max-flow).",
        quality_requests=6,
    ),
}

#: The workload on which each traced layer is exercised; the benchmark's
#: tests check that its wrapper records at least one call there.  Which
#: end-to-end metric each layer should move is tabled in README.md.
LAYER_MAP = {
    # population build
    "workload.generate": "scale-smoke",
    "workload.build_scenario": "scale-smoke",
    "workload.aggregate": "scale-smoke",
    "scenario.build": "scale-smoke",
    "scenario.carve": "scale-smoke",
    "scenario.solve_tiled": "scale-smoke",
    # solver
    "core.appro_alg": "paper-headline",
    "core.context": "paper-headline",
    "core.context_update": "dynamic-headline",
    "network.validate": "paper-headline",
    # per-event observation
    "dynamics.evaluate": "dynamic-headline",
    "core.assign": "dynamic-headline",
    "flow.max_flow": "dynamic-headline",
    "network.replace_users": "dynamic-headline",
    "network.move_users": "dynamic-headline",
}
