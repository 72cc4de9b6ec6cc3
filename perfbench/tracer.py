"""Outside-in layer tracer: times calls into each layer's public functions.

The tracer never edits the program.  It replaces each named function with
a timing wrapper *where it is looked up*: on the class for methods, and in
every loaded ``repro`` module that holds a reference for module-level
functions (``from x import f`` copies the name, so patching only the
defining module would leave, for example, ``repro.dynamics.world`` calling
the unwrapped ``optimal_assignment``).

Each wrapper records calls, inclusive seconds and self seconds.  Self time
is the call's duration minus the time spent in wrapped calls it made, so
the self times of all layers add up to the traced wall time less the time
spent outside every layer ("unattributed").
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Layer name -> the functions it covers, as ``"module:attr"`` for a
#: module-level function or ``"module:Class.method"`` for a method.
LAYERS = {
    "workload.generate": (
        "repro.workload.fat_tailed:FatTailedWorkload.generate",
    ),
    "workload.build_scenario": ("repro.workload.scenarios:build_scenario",),
    "workload.aggregate": ("repro.workload.aggregate:aggregate_problem",),
    "scenario.build": ("repro.scenario.spec:ScenarioSpec.build",),
    "scenario.carve": ("repro.scenario.tiling:carve_tiles",),
    "scenario.solve_tiled": ("repro.scenario.tiling:solve_tiled",),
    "core.appro_alg": ("repro.core.approx:appro_alg",),
    "core.context": ("repro.core.context:SolverContext.from_problem",),
    "core.context_update": ("repro.core.context:SolverContext.updated",),
    "network.validate": (
        "repro.network.validate:validate_deployment",
        "repro.network.validate:validate_cell_deployment",
    ),
    "dynamics.evaluate": ("repro.dynamics.world:WorldState.evaluate",),
    "core.assign": (
        "repro.core.assignment:optimal_assignment",
        "repro.core.assignment:optimal_cell_assignment",
    ),
    "flow.max_flow": ("repro.flow.dinic:Dinic.max_flow",),
    "network.replace_users": (
        "repro.network.coverage:CoverageGraph.replace_users",
    ),
    "network.move_users": (
        "repro.network.coverage:CoverageGraph.move_users",
    ),
}


@dataclass
class LayerStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    """Install timing wrappers for :data:`LAYERS`; record while active.

    Wrappers are installed by :meth:`installed` and only record inside
    :meth:`recording`, so the benchmark's own output checks, which call
    the same functions, stay out of the numbers.
    """

    def __init__(self):
        self.stats = {name: LayerStats() for name in LAYERS}
        self.wall_s = 0.0
        self._active = False
        self._stack: list = []      # child seconds of each open call

    # -- recording -----------------------------------------------------------

    @contextmanager
    def recording(self):
        """Record wrapped calls made inside the block; add its wall time."""
        start = time.perf_counter()
        self._active = True
        try:
            yield self
        finally:
            self._active = False
            self.wall_s += time.perf_counter() - start

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stats.calls += 1
                stats.inclusive_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return wrapper

    # -- patching ------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        undo = []
        try:
            for name, targets in LAYERS.items():
                for target in targets:
                    undo.extend(self._patch(name, target))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _patch(self, name: str, target: str) -> list:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            setattr(cls, method, patched)
            return [(cls, method, raw)]
        original = getattr(module, path)
        wrapper = self._wrap(name, original)
        undo = []
        for loaded in list(sys.modules.values()):
            if loaded is None or not loaded.__name__.startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)
                    undo.append((loaded, attr, original))
        return undo

    # -- results -------------------------------------------------------------

    def unattributed_frac(self) -> float:
        """Share of recorded wall time spent outside every layer."""
        if self.wall_s <= 0:
            return 0.0
        covered = sum(stats.self_s for stats in self.stats.values())
        return 1.0 - covered / self.wall_s

    def table(self) -> str:
        """Layers by self time, as a fixed-width text table."""
        rows = sorted(
            self.stats.items(), key=lambda item: -item[1].self_s
        )
        wall = self.wall_s or 1.0
        lines = [
            f"{'layer':<24} {'calls':>8} {'incl_s':>9} {'self_s':>9} "
            f"{'self%':>6}"
        ]
        for name, stats in rows:
            lines.append(
                f"{name:<24} {stats.calls:>8} {stats.inclusive_s:>9.3f} "
                f"{stats.self_s:>9.3f} {100 * stats.self_s / wall:>5.1f}%"
            )
        lines.append(
            f"{'(unattributed)':<24} {'':>8} {'':>9} "
            f"{wall * self.unattributed_frac():>9.3f} "
            f"{100 * self.unattributed_frac():>5.1f}%"
        )
        return "\n".join(lines)
