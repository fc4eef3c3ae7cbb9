"""Fixtures shared by the test modules."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import spec

# Property tests draw the same examples on every run: each test's random
# generator is seeded from the test itself, so a run's durations and any
# failure repeat exactly. A test's own @settings (max_examples, deadline)
# still applies on top of this profile.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def spec_reports():
    """name: (CSV bytes, JSONL bytes, oracle best) of the spec's report of
    each bundled scenario with all five policies, built once per session."""
    from oclbudget import bundled_scenario_names, load_bundled_scenario

    reports = {}
    for name in bundled_scenario_names():
        scenario = load_bundled_scenario(name)
        runs, best = spec.suite(scenario)
        reports[name] = (*spec.reports(scenario.name, runs), best)
    return reports


@pytest.fixture(scope="session")
def other_interpreters():
    """One working CPython 3.10-3.13 per minor version other than this one,
    from PATH or a pyenv installation."""
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    found = {}
    for minor in range(10, 14):
        if minor == sys.version_info.minor:
            continue
        candidates = [shutil.which(f"python3.{minor}")]
        candidates += sorted(pyenv.glob(f"versions/3.{minor}.*/bin/python3.{minor}"))
        for exe in filter(None, candidates):
            probe = subprocess.run(
                [str(exe), "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60,
            )
            if probe.returncode == 0 and probe.stdout.strip() == f"(3, {minor})":
                found[minor] = str(exe)
                break
    return [found[minor] for minor in sorted(found)]
