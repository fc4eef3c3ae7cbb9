"""Summarize the result files under perfbench/out/ into one JSON document.

    python3 perfbench/summarize.py > perfbench/baseline/<name>.json

For each workload it lists every untraced run's metrics and, per metric, the
median, quartiles and the spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them). Traced runs are copied as
they are.
"""

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main() -> int:
    workloads: dict[str, dict] = {}
    machine = None
    for path in sorted(OUT.glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        machine = machine or record["machine"]
        entry = workloads.setdefault(record["workload"], {"runs": [], "traced": []})
        slim = {k: record[k] for k in ("seed", "seconds", "correct", "attempted", "failed", "info")}
        slim["metrics"] = {k: v["value"] for k, v in record["metrics"].items()}
        entry["traced" if record["trace"] else "runs"].append(slim)
    for entry in workloads.values():
        entry["runs"].sort(key=lambda r: r["seed"])
        summary = {}
        for name in entry["runs"][0]["metrics"] if entry["runs"] else ():
            values = [r["metrics"][name] for r in entry["runs"]]
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": q2, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / q2 if q2 else None, "n": len(values)}
        entry["summary"] = summary
    json.dump({"machine": machine, "workloads": workloads}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
