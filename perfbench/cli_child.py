"""Traced CLI invocation, run in a fresh interpreter by the benchmark.

Installs the span tracer, runs ``oclbudget.cli.main`` on the remaining
arguments and writes the spans to the file named first.

    PYTHONPATH=src python3 perfbench/cli_child.py spans.jsonl calibrate
"""

import sys

import spans

tracer = spans.Tracer()
spans.install(tracer)
import oclbudget.cli as cli  # noqa: E402  (patched by install)

try:
    code = cli.main(sys.argv[2:])
finally:
    tracer.unpatch()
    tracer.dump(sys.argv[1])
sys.exit(code)
