"""Bundled report bytes: sha256 of every scenario's CSV and JSONL report.

The digests were taken from run_suite over all 12 bundled scenarios with all
five policies, at their bundled seeds. A change that moves any report byte
fails here; one that means to must say so and record the new digests.

The digests hold on CPython 3.10-3.11. From 3.12, sum() of floats is
compensated, so the metric means change in their last bits: every JSONL
digest then differs, while the CSV digests, whose values are rounded to six
significant digits, still match.
"""

import hashlib

import pytest

from oclbudget import bundled_scenario_names, emit_report, load_bundled_scenario, run_suite

POLICIES = ["controller", "max_a", "max_p", "fixed", "oracle"]

# name: (CSV sha256, JSONL sha256)
GOLDEN = {
    "orin-agem": ("fe42ce784fb2bfae39080303b7814977c51d97cc94d86a396de5573438ba8f9f", "f14d03b1c561dde6325d0b98f32e0b9c07c89b5b4d5150bca5e9e24e64ceea78"),
    "orin-er": ("15bfc0b0cf307fc4efa7713c0ebb5c2750d5dea3f0be93389318a672303abbf8", "22ba8f8f65c2ca28476d258b104421d285fb5b97f8fff245c92c8a2e016ba11b"),
    "orin-gem": ("514fee853a5c231adfca33a7b66364452ecc97ef2c450b9397cc4f1d1c15cd83", "11b820000b6aaba8cec25926f794c3432e1ac89fe542aa4cd8a7c4a36905ff22"),
    "orin-gss": ("7bea3563607f81d258088986f79bc17eda75caedf73e9e59446749374c8a35fb", "547cd1689d5efbf0ae1cc637f75d1f96e4e93616b521ce79590cd1a8efbe9f17"),
    "server-agem": ("f1a32d4f250fc5486585f638475f869333a49b8eb84e6b4056f972dc5cb67ad7", "a5c6bee750622004cb981bf4d8f162193106db13966be4159b2e2889af8ffd08"),
    "server-er": ("cca66eae78e69d5946ac527ea28a1bd539d36d8106ba2125058386520c73a476", "cb59a1c74b8b8ae805c4ef186c15b4f897c77e6a40fedb71ded22b71ba630a09"),
    "server-gem": ("8669bb251a4770afb3070ae1a676f7713511a6dda19ae0b4a3056ce85b5b0604", "71baaf2a63f3c8edee492c3a5ca74f53f0d21587dce910e6f10efb8bcf4afe43"),
    "server-gss": ("1f22a816df963fb5eacf8a05f7c2b8801de094a46e9ca6d52ab560434732336e", "7f6e570c849e66b9ddc2e3769f120bf0a79925e41745f2a3ed0026117c17d7b0"),
    "xavier-agem": ("66ca2f3a58b352cd410e3f86610a39c02a2e5fc7d55e752cf57333c7c1713813", "9d5a928c6b15d8b2b69d316767132fa45b04b523a69638e376a4f9e5757d4ad1"),
    "xavier-er": ("55f506d07be9d56ca7a04733b35738fbbc641e4cecb0f4ab1a33cb42dbeb3201", "635acda6c96853dced6f49425dfa54b2c2de3807886224464e7ba88f2d77f0ba"),
    "xavier-gem": ("08e5b648c965ef1e12b4fe98366f76dfa35ad283963e116c1e7abf276bba67d4", "52979168ff0d2d6dff1e8bbf2db45bfe27fe7cc688e32f94627f9d6c90302b90"),
    "xavier-gss": ("16e8224e49b195ecdaaffacbcafc3ee08790850e649aa6be086c0882a535af1e", "380abd4f8961e93019e87c54ebbd73009d6944c15419823ffbf5f398aa290e6b"),
}


def test_every_bundled_scenario_has_a_digest():
    assert sorted(GOLDEN) == sorted(bundled_scenario_names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_unchanged(name):
    report = run_suite(load_bundled_scenario(name), POLICIES)
    csv_digest, jsonl_digest = GOLDEN[name]
    assert hashlib.sha256(emit_report(report, "csv")).hexdigest() == csv_digest
    assert hashlib.sha256(emit_report(report, "log")).hexdigest() == jsonl_digest
