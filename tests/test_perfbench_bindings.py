"""perfbench runs against oclbudget: its tracer's bindings and its workloads.

perfbench/spans.py wraps oclbudget functions under the names each caller
bound (controller.compute_urge, baselines.build_snapshot, ...), and each
workload in perfbench/workloads.py checks its own output. A rename or
removal in src/ would otherwise surface only in a benchmark run.
"""

import dataclasses
from pathlib import Path

import pytest

import oclbudget.controller as controller
from oclbudget import InfeasibleBudgetError, Outcome, build_environment, load_bundled_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # AttributeError if a patched name is gone
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.unpatch()

    names = {(owner, attr) for owner, attr, _ in patched}
    for attr in ("build_snapshot", "compute_urge", "derive_knobs", "update_budgets"):
        assert (controller, attr) in names, attr
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_patched_step_sees_every_call_of_a_controller_run(monkeypatch):
    # perfbench times derive_knobs, update_budgets and build_snapshot by
    # replacing them on oclbudget.controller; run_control_loop must reach
    # each through that binding on every experience, failing steps included.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    for name, outcome in [
        ("server-er", Outcome.COMPLETED),
        ("orin-er", Outcome.OOM_FAILED),
        ("xavier-gss", Outcome.INFEASIBLE),
    ]:
        scenario = dataclasses.replace(load_bundled_scenario(name), num_experiences=60)
        env = build_environment(scenario)
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            trace = controller.run_control_loop(scenario, env)
        except InfeasibleBudgetError as exc:
            trace = exc.partial_trace
        finally:
            tracer.unpatch()
        assert trace.outcome is outcome
        counts = {}
        for span in tracer.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        attempted = len(trace.records) + (outcome is Outcome.INFEASIBLE)
        scored = attempted - (outcome is Outcome.OOM_FAILED)
        assert counts["controller.derive"] == counts["simulator.train"] == attempted
        assert counts["metrics.snapshot"] == counts["controller.update"] == scored
        assert counts["controller.loop"] == 1


@pytest.mark.parametrize("name", ["bundled-suite", "long-horizon", "controller-stress", "cli"])
def test_one_untraced_pass_of_each_workload_passes_its_checks(monkeypatch, tmp_path, name):
    # The benchmark's workloads call oclbudget through more of its API than
    # the traced bindings above (budget_cap_mb, from_scenario, partial_trace,
    # the CLI); one pass each keeps a break there from reaching the benchmark.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    tally = workloads.Tally()
    workload = workloads.WORKLOADS[name](1, tally, tmp_path, run.child_env())
    stats = workload.run_pass()
    assert tally.failed == 0, tally.reasons
    assert tally.attempted > 0
    assert stats.ops and workload.quality is not None
