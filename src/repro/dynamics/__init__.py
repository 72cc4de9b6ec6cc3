"""repro.dynamics — the unified long-horizon dynamic mission engine.

This layer sits **above** scenario, sim, simnet and ops (it may import
all of them; none of them may import it — see ARCHITECTURE.md).  It
replaces the five siloed time loops with one discrete-event mission:

* :class:`DynamicSpec` — a :class:`~repro.scenario.spec.ScenarioSpec`
  extended with the time dimension (churn, mobility, rotation, faults,
  epochs) plus named presets;
* :class:`WorldState` — the single mutable world every event acts on:
  a lazily synced working coverage graph plus the live maximum
  user↔UAV matching each event patches by one augmenting path;
* :func:`run_dynamic` — the mission loop over one shared
  :class:`~repro.simnet.events.EventQueue`, with warm-started epoch
  re-solves (result-identical to cold, pinned by the oracle suite);
* :func:`run_seed_grid` — multi-seed batches with an aggregate table.
"""

from repro.dynamics.engine import DynamicResult, EpochSolve, run_dynamic
from repro.dynamics.grid import GridResult, run_seed_grid
from repro.dynamics.policy import (
    DriftPolicy,
    EventPolicy,
    PeriodicPolicy,
    make_policy,
)
from repro.dynamics.spec import (
    DYNAMIC_PRESETS,
    DynamicSpec,
    dynamic_preset_names,
    get_dynamic_preset,
)
from repro.dynamics.world import WorldState

__all__ = [
    "DYNAMIC_PRESETS",
    "DriftPolicy",
    "DynamicResult",
    "DynamicSpec",
    "EpochSolve",
    "EventPolicy",
    "GridResult",
    "PeriodicPolicy",
    "WorldState",
    "dynamic_preset_names",
    "get_dynamic_preset",
    "make_policy",
    "run_dynamic",
    "run_seed_grid",
]
