#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-headline --seed 1 \\
        --seconds 30 --trace 0

The run imports the program from ``src/``, times set-up (a fresh
interpreter importing the program and building the first request's
scenario, repeated), then drives a closed loop with one client
for ``--seconds``: request ``i`` uses seed ``seed + i``, and every reply
is checked before the next request is sent.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the loop untraced for half the
time, repeats the same requests with the layer tracer installed, and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every reply passed its check, 1 when one did not (a
request that raises counts as failed), and 2 when the program cannot be
imported or set up, or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The workload runs single-threaded: no solver pool and no BLAS threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up runs this many times, each in a fresh interpreter, and
#: ``setup_s`` is the median, so one slow import or build does not move it.
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "request_s_p50": "s",
    "served_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: ``<layer>.calls`` and ``<layer>.self_s`` are per
#: request, from the traced pass; the ``dynamics.*`` latencies come from
#: the untraced pass of the same run.
PER_LAYER = {
    "workload.generate.calls": "calls/req",
    "workload.generate.self_s": "s/req",
    "workload.build_scenario.self_s": "s/req",
    "workload.aggregate.self_s": "s/req",
    "scenario.build.calls": "calls/req",
    "scenario.carve.self_s": "s/req",
    "scenario.solve_tiled.self_s": "s/req",
    "core.appro_alg.calls": "calls/req",
    "core.appro_alg.self_s": "s/req",
    "core.context.self_s": "s/req",
    "core.context_update.calls": "calls/req",
    "core.context_update.self_s": "s/req",
    "network.validate.self_s": "s/req",
    "dynamics.evaluate.calls": "calls/req",
    "core.assign.calls": "calls/req",
    "core.assign.self_s": "s/req",
    "flow.max_flow.calls": "calls/req",
    "flow.max_flow.self_s": "s/req",
    "network.replace_users.calls": "calls/req",
    "network.replace_users.self_s": "s/req",
    "network.move_users.self_s": "s/req",
    "dynamics.observe_changed_frac": "frac",
    "dynamics.event_p50_ms": "ms",
    "dynamics.event_p90_ms": "ms",
    "dynamics.resolve_p50_ms": "ms",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}


@dataclass
class Reply:
    """One request's outcome, reduced to what the metrics need."""

    seed: int
    wall_s: float
    errors: list
    identity: dict
    served: float = 0.0          # static: units served; dynamic: coverage
    servable: float = 0.0        # static: min(total demand, fleet capacity)
    event_gaps_s: list = field(default_factory=list)
    resolves_s: list = field(default_factory=list)
    changed_pairs: int = 0
    timeline_pairs: int = 0


# -- static workloads: SolvePipeline.run ------------------------------------


def static_request(workload, seed: int, tracer=None) -> Reply:
    from repro.scenario.pipeline import SolvePipeline

    spec = workload.build_spec(seed)
    pipeline = SolvePipeline(strict=False)
    with tracer.recording() if tracer is not None else nullcontext():
        start = time.perf_counter()
        state = pipeline.run(spec)
        wall_s = time.perf_counter() - start
    problem = state.problem
    graph = problem.graph
    demand = int(getattr(graph, "total_demand", graph.num_users))
    identity = {
        "scenario_key": list(spec.scenario_key()),
        "users": demand, "nodes": graph.num_users,
        "uavs": problem.num_uavs, "aggregation": spec.aggregation,
        "tiles": spec.tiles, "status": state.status,
    }
    return Reply(
        seed=seed, wall_s=wall_s, errors=check_static(state),
        identity=identity, served=float(state.served),
        servable=float(min(demand, sum(u.capacity for u in problem.fleet))),
    )


def check_static(state) -> list:
    """Errors in a static reply: a failed status, an infeasible or
    disconnected deployment, or a served count that a fresh exact
    assignment over the same placements does not reproduce."""
    from repro.core.assignment import (
        optimal_assignment,
        optimal_cell_assignment,
    )
    from repro.network.deployment import CellDeployment
    from repro.network.validate import (
        ValidationError,
        validate_cell_deployment,
        validate_deployment,
    )

    if state.status != "ok" or state.deployment is None:
        return [f"status {state.status}: {state.error}"]
    problem, deployment = state.problem, state.deployment
    if isinstance(deployment, CellDeployment):
        validate, assign = validate_cell_deployment, optimal_cell_assignment
    else:
        validate, assign = validate_deployment, optimal_assignment
    errors = []
    try:
        validate(problem.graph, problem.fleet, deployment,
                 require_connected=True)
    except ValidationError as exc:
        errors.append(f"invalid deployment: {exc}")
    fresh = assign(problem.graph, problem.fleet, dict(deployment.placements))
    if fresh.served_count != deployment.served_count:
        errors.append(
            f"served {deployment.served_count} but a fresh assignment over "
            f"the same placements serves {fresh.served_count}"
        )
    return errors


# -- dynamic workload: run_dynamic ------------------------------------------


class MarkClock:
    """A recorder for ``obs.set_active_recorder``: the engine calls
    ``record()`` after every event, so the gaps between the stamps are the
    per-event step latencies."""

    def __init__(self):
        self.stamps: list = []

    def record(self) -> None:
        self.stamps.append(time.perf_counter())


def dynamic_request(workload, seed: int, tracer=None) -> Reply:
    from repro import obs
    from repro.dynamics import run_dynamic

    spec = workload.build_spec(seed)
    clock = MarkClock()
    obs.set_active_recorder(clock)
    start = time.perf_counter()
    try:
        with tracer.recording() if tracer is not None else nullcontext():
            start = time.perf_counter()
            result = run_dynamic(spec)
            wall_s = time.perf_counter() - start
    except Exception as exc:  # a crashed mission is a failed reply
        return Reply(
            seed=seed, wall_s=time.perf_counter() - start,
            errors=[f"run_dynamic raised {exc!r}"],
            identity={"scenario_key": list(spec.scenario_key())},
        )
    finally:
        obs.set_active_recorder(None)
    config = spec.to_config()
    timeline = result.timeline
    identity = {
        "scenario_key": list(spec.scenario_key()),
        "users": config.num_users, "uavs": config.num_uavs,
        "aggregation": spec.aggregation, "tiles": spec.tiles,
        "timeline_points": len(timeline), "resolves": len(result.epochs),
    }
    return Reply(
        seed=seed, wall_s=wall_s, errors=check_dynamic(result),
        identity=identity, served=time_averaged_coverage(timeline),
        event_gaps_s=[b - a for a, b in zip(clock.stamps, clock.stamps[1:])],
        resolves_s=list(result.resolve_latencies_s),
        changed_pairs=sum(
            a[1] != b[1] for a, b in zip(timeline, timeline[1:])
        ),
        timeline_pairs=max(len(timeline) - 1, 0),
    )


def check_dynamic(result) -> list:
    """Errors in a mission: a timeline point outside 0 <= served <= active,
    time running backwards, or no epoch re-solve at all."""
    errors = []
    if not result.timeline:
        errors.append("empty timeline")
    previous = float("-inf")
    for t_s, served, active in result.timeline:
        if not 0 <= served <= active:
            errors.append(f"t={t_s}: served {served} of {active} active")
        if t_s < previous:
            errors.append(f"t={t_s} after t={previous}")
        previous = t_s
    if not result.resolve_latencies_s:
        errors.append("no epoch re-solve happened")
    return errors


def time_averaged_coverage(timeline: list) -> float:
    """Served share of active users, weighted by how long each timeline
    point held."""
    span = timeline[-1][0] - timeline[0][0] if timeline else 0.0
    if span <= 0:
        return 0.0
    total = 0.0
    for (t0, served, active), (t1, _, _) in zip(timeline, timeline[1:]):
        total += (served / active if active else 1.0) * (t1 - t0)
    return total / span


# -- the closed loop ---------------------------------------------------------


def closed_loop(request, workload, base_seed: int, seconds: float,
                min_requests: int = 1) -> list:
    """Send requests one at a time until ``seconds`` have passed and at
    least ``min_requests`` replies have come back."""
    replies = []
    start = time.perf_counter()
    while True:
        reply = request(workload, base_seed + len(replies))
        print_reply(len(replies), reply)
        replies.append(reply)
        if (len(replies) >= min_requests
                and time.perf_counter() - start >= seconds):
            return replies


def print_reply(index: int, reply: Reply) -> None:
    verdict = "ok" if not reply.errors else "FAILED " + "; ".join(reply.errors)
    fields = " ".join(
        f"{key}={json.dumps(value)}" for key, value in reply.identity.items()
    )
    print(f"request {index} seed={reply.seed} wall_s={reply.wall_s:.4f} "
          f"{verdict} {fields}", flush=True)


def end_to_end_metrics(workload, replies: list, setup_s: float) -> dict:
    from repro.obs.profile import peak_rss_mb

    # Quality pools a fixed number of leading requests, so it does not
    # change with how many requests fit in the run.  A static plan can
    # serve at most min(demand, fleet capacity); on scale-smoke the fleet's
    # capacity, drawn per seed, binds, and dividing by demand alone would
    # mostly measure that draw rather than the plan.
    leading = replies[:workload.quality_requests]
    if workload.kind == "static":
        servable = sum(r.servable for r in leading)
        served = sum(r.served for r in leading) / servable
    else:
        served = statistics.fmean(r.served for r in leading)
    return {
        "setup_s": setup_s,
        "request_s_p50": statistics.median(r.wall_s for r in replies),
        "served_frac": served,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(untraced: list, traced: list, tracer) -> dict:
    import numpy as np

    n = len(traced)
    metrics = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer in tracer.stats:
            value = getattr(tracer.stats[layer], stat)
            metrics[name] = value / n
    gaps = [gap for r in untraced for gap in r.event_gaps_s]
    resolves = [s for r in untraced for s in r.resolves_s]
    pairs = sum(r.timeline_pairs for r in untraced)
    metrics["dynamics.observe_changed_frac"] = (
        sum(r.changed_pairs for r in untraced) / pairs if pairs else 0.0
    )
    p50, p90 = np.percentile(gaps, [50, 90]) if gaps else (0.0, 0.0)
    metrics["dynamics.event_p50_ms"] = 1e3 * float(p50)
    metrics["dynamics.event_p90_ms"] = 1e3 * float(p90)
    metrics["dynamics.resolve_p50_ms"] = (
        1e3 * float(np.median(resolves)) if resolves else 0.0
    )
    metrics["trace.unattributed_frac"] = tracer.unattributed_frac()
    metrics["trace.overhead_frac"] = (
        sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced) - 1.0
    )
    return metrics


# -- entry point -------------------------------------------------------------


def setup_seconds(workload_name: str, seed: int) -> float:
    """One set-up in a fresh interpreter: import the program and build the
    first request's scenario once."""
    code = "\n".join((
        "import sys, time",
        "start = time.perf_counter()",
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})",
        "import run, workloads",
        "run.import_program()",
        f"workloads.WORKLOADS[{workload_name!r}].build_spec({seed}).build()",
        "print(time.perf_counter() - start)",
    ))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
    )
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines() or [f"exit {done.returncode}"]
        raise RuntimeError(lines[-1])
    return float(done.stdout)


def parse_args(argv: "list | None") -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro
    import repro.dynamics
    import repro.scenario.pipeline
    import repro.workload.aggregate  # noqa: F401 - imported lazily by builds

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro was imported from {repro.__file__}")


def main(argv: "list | None" = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    from tracer import LayerTracer
    from workloads import LOOP, WORKLOADS

    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.kind}, {LOOP}, "
          f"base seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
          flush=True)
    request = static_request if workload.kind == "static" else dynamic_request
    if args.trace:
        replies = closed_loop(request, workload, args.seed, args.seconds / 2)
        tracer = LayerTracer()
        traced = []
        with tracer.installed():
            for reply in replies:
                traced.append(request(workload, reply.seed, tracer))
                print_reply(len(traced) - 1, traced[-1])
        print(tracer.table())
        metrics = per_layer_metrics(replies, traced, tracer)
        units = PER_LAYER
        replies = replies + traced
    else:
        try:
            setup_s = statistics.median(
                setup_seconds(args.workload, args.seed)
                for _ in range(SETUP_REPEATS)
            )
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        replies = closed_loop(request, workload, args.seed, args.seconds,
                              workload.quality_requests)
        metrics = end_to_end_metrics(workload, replies, setup_s)
        units = END_TO_END

    failed = sum(1 for r in replies if r.errors)
    for name, value in metrics.items():
        print(f"{name:<32} {value:>14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(replies),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
