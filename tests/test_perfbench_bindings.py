"""perfbench's span tracer finds, patches and restores every binding it names.

perfbench/spans.py wraps oclbudget functions under the names each caller
bound (controller.compute_urge, baselines.build_snapshot, ...). A rename or
removal in src/ would otherwise surface only in a traced benchmark run.
"""

from pathlib import Path

import oclbudget.controller as controller

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
