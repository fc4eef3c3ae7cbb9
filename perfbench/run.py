"""oclbudget benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload bundled-suite --seed 1 --seconds 15 --trace 0

Runs against the package in this checkout's ``src/``. With ``--trace 0`` it
times passes of the workload for ``--seconds`` seconds with tracing off and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed number of
passes untraced and then traced, and reports the per-layer metrics from the
spans. Every pass checks the program's outputs. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. A results
file (with machine and versions) and, when traced, the spans are written
under ``perfbench/out/``. See ``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
MIN_PASSES = 3
TRACED_PASSES = {"bundled-suite": 2, "long-horizon": 3, "controller-stress": 1, "cli": 2}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_times(scenarios, samples: int, env: dict, importtime: bool) -> tuple[list[float], list[str]]:
    """Fresh-interpreter set-up times; one untimed spawn first warms the file cache."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "probe.py"), *scenarios]
    times, stderrs = [], []
    for i in range(samples + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
            stderrs.append(proc.stderr)
    return times, stderrs


def machine_info() -> dict:
    import numpy
    import scipy
    import yaml

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bundled-suite", "long-horizon", "controller-stress", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oclbudget" / "__init__.py").is_file():
        print(f"error: no oclbudget package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    env = child_env()
    cls = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    try:
        if args.trace:
            metrics, info = traced(cls, args, tally, workdir, env, spans)
        else:
            metrics, info = untraced(cls, args, tally, workdir, env)
    finally:
        for leftover in workdir.iterdir():
            leftover.unlink()
        workdir.rmdir()

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_info(), info=info,
                  failures=tally.reasons)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(record["machine"]))
    for key, value in info.items():
        print(f"info {key}: {json.dumps(value)}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(f"results written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def rate(ops, time_field: str) -> float:
    """Simulated experiences per unit of the ops' time (seconds or reference units)."""
    return sum(op.experiences for op in ops) / sum(getattr(op, time_field) for op in ops)


def untraced(cls, args, tally, workdir, env) -> tuple[dict, dict]:
    workload = cls(args.seed, tally, workdir, env)
    setup, _ = setup_times(workload.probe_scenarios, SETUP_SAMPLES, env, importtime=False)
    workload.run_pass()  # warm-up: caches fill, lazy set-up finishes; checked too
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(workload.run_pass())
    quality = workload.quality
    ops = [op for p in passes for op in p.ops]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "exp_per_ref": (statistics.median(rate(p.ops, "ref_units") for p in passes), "1/ref"),
        "op_ref": (statistics.median(op.ref_units for op in ops), "ref"),
        "peak_rss_mb": (peak_rss_mb(cls.in_process), "MB"),
        "completed_share": (quality.completed_share, "1"),
        "controller_overhead_ref": (
            statistics.median(r for p in passes for r in p.overhead_refs), "ref/sim_s"),
        "sim_latency_s": (quality.sim_latency_s, "sim_s"),
        "sim_plasticity": (quality.sim_plasticity, "1"),
        "sim_stability": (quality.sim_stability, "1"),
    }
    info = dict(
        workload.info(),
        exp_per_s=statistics.median(rate(p.ops, "seconds") for p in passes),
        op_s=statistics.median(op.seconds for op in ops),
        controller_overhead_ratio=statistics.median(
            r for p in passes for r in p.overhead_ratios),
        reference_s=statistics.median(ref for op in ops for ref in op.refs),
        passes=len(passes),
        operations_timed=len(ops),
        setup_samples=len(setup),
    )
    return metrics, info


def traced(cls, args, tally, workdir, env, spans) -> tuple[dict, dict]:
    untraced_workload = cls(args.seed, tally, workdir, env)
    _, stderrs = setup_times(untraced_workload.probe_scenarios, 3, env, importtime=True)
    imports = [spans.parse_importtime(e) for e in stderrs]
    import_times = {k: statistics.median(i[k] for i in imports) for k in imports[0]}

    n = TRACED_PASSES[cls.name]
    untraced_workload.run_pass()  # warm-up
    plain = [untraced_workload.run_pass() for _ in range(n)]

    tracer = spans.Tracer()
    if cls.in_process:
        spans.install(tracer)
    try:
        workload = cls(args.seed, tally, workdir, env, tracer=tracer)
        traced_passes = [workload.run_pass() for _ in range(n)]
    finally:
        tracer.unpatch()
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    untraced_rate = rate([op for p in plain for op in p.ops], "seconds")
    traced_rate = rate([op for p in traced_passes for op in p.ops], "seconds")
    info = {
        "exp_per_s_untraced": untraced_rate,
        "exp_per_s_traced": traced_rate,
        "tracing_overhead_share": 1.0 - traced_rate / untraced_rate,
        "passes": n,
        "spans": len(tracer.spans),
    }
    return spans.layer_metrics(tracer, import_times), info


if __name__ == "__main__":
    sys.exit(main())
