"""The benchmark's own tests: layer wrappers see their calls, every
printed metric is declared in BENCHMARK.json, and the output checks catch
wrong replies.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

import run
from tracer import LAYERS, LayerTracer
from workloads import LAYER_MAP, WORKLOADS

run.import_program()

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: Small versions of each workload: same code paths (cells + tiles,
#: warm re-solves, churn and mobility), a fraction of the work.
TINY = {
    "paper-headline": {"scale": "small", "num_users": 200, "num_uavs": 4,
                       "algorithm_params": {"s": 2, "gain_mode": "fast",
                                            "max_anchor_candidates": 4}},
    "scale-smoke": {"num_users": 4000, "num_uavs": 8},
    "dynamic-headline": {"scale": "small", "num_users": 80, "num_uavs": 4,
                         "duration_s": 120.0, "epoch_s": 40.0},
}


def tiny(name: str):
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, spec={**workload.spec, **TINY[name]})


def request_for(workload):
    return run.static_request if workload.kind == "static" \
        else run.dynamic_request


@pytest.fixture(scope="module")
def traced_runs():
    """One untraced and one traced tiny request per workload."""
    runs = {}
    for name in WORKLOADS:
        workload = tiny(name)
        request = request_for(workload)
        untraced = request(workload, 3)
        tracer = LayerTracer()
        with tracer.installed():
            traced = request(workload, 3, tracer)
        runs[name] = (workload, untraced, traced, tracer)
    return runs


def test_layer_map_covers_every_traced_layer():
    assert sorted(LAYER_MAP) == sorted(LAYERS)
    assert set(LAYER_MAP.values()) <= set(WORKLOADS)


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_wrapper_records_calls_on_its_workload(traced_runs, layer):
    workload_name = LAYER_MAP[layer]
    _, _, traced, tracer = traced_runs[workload_name]
    assert not traced.errors
    assert tracer.stats[layer].calls >= 1, (
        f"{layer} saw no call on {workload_name}: a patch missed an "
        "import site"
    )


def test_wrappers_see_every_call_site(traced_runs):
    """Calls that go through an imported name are counted too: every
    per-event evaluation reaches core.assign (imported into the dynamics
    world) and a max-flow, and every tiled plan builds the scenario once
    globally plus once per tile."""
    calls = {
        name: {layer: stats.calls for layer, stats in runs[3].stats.items()}
        for name, runs in traced_runs.items()
    }
    dynamic = calls["dynamic-headline"]
    assert dynamic["core.assign"] >= dynamic["dynamics.evaluate"] > 0
    assert dynamic["flow.max_flow"] >= dynamic["dynamics.evaluate"]
    assert dynamic["core.context_update"] >= 1
    tiled = calls["scale-smoke"]
    assert tiled["scenario.build"] == 5
    assert tiled["workload.generate"] == tiled["workload.aggregate"] == 5
    assert tiled["scenario.carve"] == 5
    assert calls["paper-headline"]["core.appro_alg"] == 1


def test_tracer_restores_the_program():
    from repro.core.context import SolverContext
    from repro.dynamics import world
    from repro.network.coverage import CoverageGraph

    def current():
        return (world.optimal_assignment,
                CoverageGraph.__dict__["replace_users"],
                SolverContext.__dict__["from_problem"])

    before = current()
    with LayerTracer().installed():
        assert all(a is not b for a, b in zip(current(), before))
    assert all(a is b for a, b in zip(current(), before))


def test_traced_reply_matches_untraced(traced_runs):
    for _, untraced, traced, _ in traced_runs.values():
        assert traced.served == untraced.served
        assert traced.identity == untraced.identity


def test_printed_metric_names_are_declared(traced_runs):
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for workload, untraced, traced, tracer in traced_runs.values():
        printed = {
            "end_to_end": run.end_to_end_metrics(
                workload, [untraced], setup_s=1.0
            ),
            "per_layer": run.per_layer_metrics([untraced], [traced], tracer),
        }
        tables = {"end_to_end": run.END_TO_END, "per_layer": run.PER_LAYER}
        for section, metrics in printed.items():
            assert set(metrics) == set(declared[section])
            for name in metrics:
                assert NAME_RE.fullmatch(name)
                assert tables[section][name] == declared[section][name]


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_frozen_spec_is_complete(name):
    workload = WORKLOADS[name]
    spec = workload.build_spec(workload.spec["seed"])
    assert spec.to_dict() == workload.spec
    assert spec.workers == 1


def test_static_check_rejects_a_wrong_served_count():
    from repro.scenario.pipeline import SolvePipeline

    workload = tiny("paper-headline")
    state = SolvePipeline(strict=False).run(workload.build_spec(3))
    assert run.check_static(state) == []
    state.deployment = dataclasses.replace(state.deployment, assignment={})
    assert any("fresh assignment" in e for e in run.check_static(state))
    state.status = "error"
    assert run.check_static(state)


def test_dynamic_check_rejects_a_bad_timeline():
    class Result:
        timeline = [(0.0, 5, 10), (1.0, 11, 10), (0.5, 3, 10)]
        resolve_latencies_s = []

    errors = run.check_dynamic(Result())
    assert any("served 11 of 10" in e for e in errors)
    assert any("after" in e for e in errors)
    assert any("re-solve" in e for e in errors)


def test_time_averaged_coverage_weights_by_duration():
    timeline = [(0.0, 10, 10), (10.0, 0, 10), (40.0, 0, 10)]
    assert run.time_averaged_coverage(timeline) == pytest.approx(0.25)


def test_served_frac_pools_only_the_leading_requests():
    workload = dataclasses.replace(tiny("paper-headline"), quality_requests=2)

    def reply(served):
        return run.Reply(seed=0, wall_s=1.0, errors=[], identity={},
                         served=served, servable=10.0)

    metrics = run.end_to_end_metrics(
        workload, [reply(5.0), reply(7.0), reply(0.0)], setup_s=1.0
    )
    assert metrics["served_frac"] == pytest.approx(0.6)


def test_closed_loop_sends_at_least_min_requests():
    def request(workload, seed):
        return run.Reply(seed=seed, wall_s=0.0, errors=[], identity={})

    replies = run.closed_loop(request, None, 10, seconds=0.0, min_requests=3)
    assert [r.seed for r in replies] == [10, 11, 12]


def test_a_crashed_mission_is_a_failed_reply(monkeypatch):
    import repro.dynamics

    def crash(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(repro.dynamics, "run_dynamic", crash)
    reply = run.dynamic_request(tiny("dynamic-headline"), 3)
    assert reply.errors == ["run_dynamic raised RuntimeError('boom')"]


def test_a_failed_setup_exits_2(monkeypatch, capsys):
    def fail(workload_name, seed):
        raise RuntimeError("no scenario")

    monkeypatch.setattr(run, "setup_seconds", fail)
    for var in run.THREAD_VARS:  # main() pins these; restore them after
        monkeypatch.setenv(var, "1")
    argv = ["--workload", "paper-headline", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 2
    captured = capsys.readouterr()
    assert "set-up failed: no scenario" in captured.err
    assert "correct" not in captured.out
