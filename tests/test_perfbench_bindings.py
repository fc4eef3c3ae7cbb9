"""perfbench's span tracer finds, patches and restores every binding it names.

perfbench/spans.py wraps oclbudget functions under the names each caller
bound (controller.compute_urge, baselines.build_snapshot, ...). A rename or
removal in src/ would otherwise surface only in a traced benchmark run.
"""

import dataclasses
from pathlib import Path

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
