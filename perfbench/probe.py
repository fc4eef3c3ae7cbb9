"""Set-up probe, run in a fresh interpreter by the benchmark.

Imports oclbudget, loads the named bundled scenarios and prints the
CLOCK_MONOTONIC reading at that moment, so the parent can time set-up from
the moment it spawned this process.

    PYTHONPATH=src python3 perfbench/probe.py xavier-gss server-er
"""

import sys
import time

import oclbudget

for name in sys.argv[1:]:
    oclbudget.load_bundled_scenario(name)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
