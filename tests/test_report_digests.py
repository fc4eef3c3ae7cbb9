"""Bundled report bytes: sha256 of every scenario's CSV and JSONL report.

The digests were taken from run_suite over all 12 bundled scenarios with all
five policies, at their bundled seeds, and the spec (tests/spec.py) gives the
same bytes. A change that moves any report byte fails here; one that means
to edits the spec first, and records the spec's new digests.

The digests hold on CPython 3.10-3.13: every metric sum adds its terms
newest first with plain float +, never with sum(), which is compensated
from 3.12 on (see metrics). test_report_bytes_equal_on_other_interpreters
repeats the check on each other CPython 3.10-3.13 it finds, and skips when
there is none.
"""

import hashlib
import pickle
import subprocess
from pathlib import Path

import pytest

from oclbudget import bundled_scenario_names, emit_report, load_bundled_scenario, run_suite

SRC = Path(__file__).resolve().parents[1] / "src"
POLICIES = ["controller", "max_a", "max_p", "fixed", "oracle"]

# name: (CSV sha256, JSONL sha256)
GOLDEN = {
    "orin-agem": ("fe42ce784fb2bfae39080303b7814977c51d97cc94d86a396de5573438ba8f9f", "f2e311a8946912a99cb239765b3fcfa27a5baa2b048d2d2f6857b9af13ab49d2"),
    "orin-er": ("15bfc0b0cf307fc4efa7713c0ebb5c2750d5dea3f0be93389318a672303abbf8", "c7e56e741ef6e2bc3dc7a23d83abca25213b5ea18590ff060f59ad5a3d61405b"),
    "orin-gem": ("514fee853a5c231adfca33a7b66364452ecc97ef2c450b9397cc4f1d1c15cd83", "eb08a1e3e7178cf4f6aeb96578398a2858e4e5a43b1e685590ab111e14137cdb"),
    "orin-gss": ("7bea3563607f81d258088986f79bc17eda75caedf73e9e59446749374c8a35fb", "51f7d901cbf5e8682b55f054d69b5916a8a5e14e50c8a73a9f72f2e7d30cef08"),
    "server-agem": ("f1a32d4f250fc5486585f638475f869333a49b8eb84e6b4056f972dc5cb67ad7", "c5a8ea6d19a3a80b47f3072adaebec8c8a6d34ba1276a78563803010559dfff5"),
    "server-er": ("cca66eae78e69d5946ac527ea28a1bd539d36d8106ba2125058386520c73a476", "ffffce73f2a379bd42bc1c5dd7547bf7bfd2dd06cbb2c9c823fadc3335300192"),
    "server-gem": ("8669bb251a4770afb3070ae1a676f7713511a6dda19ae0b4a3056ce85b5b0604", "8b28f8364c12f047c0293a72a1d8aba452f2f06abecf940e20cb9cffa6ff7ff3"),
    "server-gss": ("1f22a816df963fb5eacf8a05f7c2b8801de094a46e9ca6d52ab560434732336e", "f3598d255330c7dd0257459b7457636039bc4efdaa268975035ab7eadaaa9391"),
    "xavier-agem": ("66ca2f3a58b352cd410e3f86610a39c02a2e5fc7d55e752cf57333c7c1713813", "5e41a4f6f21dd88e4763a80ad69a0fed5fd86171f2514c37d8757a086dd139f0"),
    "xavier-er": ("55f506d07be9d56ca7a04733b35738fbbc641e4cecb0f4ab1a33cb42dbeb3201", "db78a60f9c000e25b268c651b45fcc389f9d9b010d2aa01725937594e3a2cf1e"),
    "xavier-gem": ("08e5b648c965ef1e12b4fe98366f76dfa35ad283963e116c1e7abf276bba67d4", "18b140ce737f939b9e7923e9f67fab606e45d1dc400d31963ac9f0b45f9f70c1"),
    "xavier-gss": ("16e8224e49b195ecdaaffacbcafc3ee08790850e649aa6be086c0882a535af1e", "77d0c655919453fd5ed662630b0939f2ad3bc655c6962b221c0ffd4011237c43"),
}


def test_every_bundled_scenario_has_a_digest():
    assert sorted(GOLDEN) == sorted(bundled_scenario_names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_unchanged(name, spec_reports):
    report = run_suite(load_bundled_scenario(name), POLICIES)
    csv_digest, jsonl_digest = GOLDEN[name]
    assert hashlib.sha256(emit_report(report, "csv")).hexdigest() == csv_digest
    assert hashlib.sha256(emit_report(report, "log")).hexdigest() == jsonl_digest
    assert report.oracle_best == spec_reports[name][2]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_spec_report_bytes_hash_to_the_digests(name, spec_reports):
    """The spec's own reports (tests/spec.py) are the package's bytes."""
    csv, jsonl, _ = spec_reports[name]
    assert (hashlib.sha256(csv).hexdigest(), hashlib.sha256(jsonl).hexdigest()) == GOLDEN[name]


# Runs in a fresh interpreter, which may lack PyYAML: yaml is stubbed before
# the package is imported, and the scenarios arrive pickled on stdin.
DIGEST_SCRIPT = """
import hashlib, pickle, sys, types
sys.modules["yaml"] = types.ModuleType("yaml")
sys.path.insert(0, sys.argv[1])
from oclbudget import emit_report, run_suite

for scenario in pickle.load(sys.stdin.buffer):
    report = run_suite(scenario, sys.argv[2:])
    digests = (hashlib.sha256(emit_report(report, fmt)).hexdigest() for fmt in ("csv", "log"))
    print(scenario.name, *digests)
"""


def test_report_bytes_equal_on_other_interpreters(other_interpreters):
    if not other_interpreters:
        pytest.skip("no other CPython 3.10-3.13 found")
    scenarios = pickle.dumps([load_bundled_scenario(name) for name in sorted(GOLDEN)])
    for exe in other_interpreters:
        done = subprocess.run(
            [exe, "-c", DIGEST_SCRIPT, str(SRC), *POLICIES],
            input=scenarios, capture_output=True, timeout=600,
        )
        assert done.returncode == 0, (exe, done.stderr.decode())
        lines = done.stdout.decode().splitlines()
        assert {name: (csv, jsonl) for name, csv, jsonl in map(str.split, lines)} == GOLDEN, exe
