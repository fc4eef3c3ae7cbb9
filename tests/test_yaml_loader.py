"""The libyaml loader and the pure-Python fallback read every file alike.

yamlcfg parses with yaml.CSafeLoader when PyYAML was built with libyaml and
with yaml.SafeLoader otherwise. Each check here loads once as installed and
once with CSafeLoader removed from yaml, which is what a PyYAML built
without libyaml looks like, and asserts that both give the same result.
"""

import math

import pytest
import yaml

import oclbudget.scenario as scenario_module
from oclbudget import SchemaError, bundled_scenario_names, bundled_scenario_path, load_scenario
from oclbudget.scenario import default_calibration_targets_path, default_profile_library_path
from oclbudget.yamlcfg import _loader, load_yaml_mapping

pytestmark = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml"
)

BUNDLED_FILES = [bundled_scenario_path(name) for name in bundled_scenario_names()] + [
    default_profile_library_path(),
    default_calibration_targets_path(),
]


def both(monkeypatch, load):
    """load() with the libyaml loader, then with the SafeLoader fallback."""
    _loader.cache_clear()
    assert issubclass(_loader(), yaml.CSafeLoader)
    fast = load()
    with monkeypatch.context() as m:
        m.delattr(yaml, "CSafeLoader")
        m.setattr(scenario_module, "_library_cache", {})  # re-read profiles.yaml
        _loader.cache_clear()
        try:
            assert issubclass(_loader(), yaml.SafeLoader)
            slow = load()
        finally:
            _loader.cache_clear()
    return fast, slow


def raised(load):
    with pytest.raises(SchemaError) as info:
        load()
    return str(info.value)


def test_bundled_file_count():
    assert len(BUNDLED_FILES) == 14


@pytest.mark.parametrize("path", BUNDLED_FILES, ids=lambda p: p.name)
def test_bundled_file_reads_the_same(monkeypatch, path):
    fast, slow = both(monkeypatch, lambda: load_yaml_mapping(path))
    assert fast == slow
    assert fast  # a non-empty mapping


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_scenario_loads_the_same(monkeypatch, name):
    fast, slow = both(monkeypatch, lambda: load_scenario(bundled_scenario_path(name)))
    assert fast == slow
    assert fast.name == name


SCALARS = """\
plain_exponent: 1e-3
upper_exponent: 1E-3
dotted_exponent: 1.0e-3
wide_exponent: 10e-4
zero_exponent: 8192e0
signed_exponent: 8.192E+3
negative_exponent: -2.5e2
yaml11_float: 6.8e+1
plain_float: 0.001
integer: 8192
underscored: 1_000
infinity: .inf
not_a_number: .nan
single_quoted: '1e-3'
double_quoted: "1e-3"
quoted_integer: '8192'
word: e3
yes_word: yes
null_word: ~
"""

EXPECTED = {
    "plain_exponent": 0.001,
    "upper_exponent": 0.001,
    "dotted_exponent": 0.001,
    "wide_exponent": 0.001,
    "zero_exponent": 8192.0,
    "signed_exponent": 8192.0,
    "negative_exponent": -250.0,
    "yaml11_float": 68.0,
    "plain_float": 0.001,
    "integer": 8192,
    "underscored": 1000,
    "infinity": math.inf,
    "single_quoted": "1e-3",
    "double_quoted": "1e-3",
    "quoted_integer": "8192",
    "word": "e3",
    "yes_word": True,
    "null_word": None,
}


def test_exponent_floats_and_quoted_strings_read_the_same(monkeypatch, tmp_path):
    path = tmp_path / "scalars.yaml"
    path.write_text(SCALARS, encoding="utf-8")
    for doc in both(monkeypatch, lambda: load_yaml_mapping(path)):
        assert math.isnan(doc.pop("not_a_number"))
        assert doc == EXPECTED
        assert all(type(doc[k]) is type(v) for k, v in EXPECTED.items())


MALFORMED = {
    "unclosed_flow": b"schema_version: 1\nname: [xavier, gss\n",
    "bad_indent": b"schema_version: 1\nname: x\n  platform: y\n",
    "unterminated_quote": b'schema_version: 1\nname: "xavier\n',
    "undefined_alias": b"schema_version: 1\nname: *nope\n",
    "tab_indent": b"schema_version: 1\ncontroller:\n\tdecay: 1\n",
    "unhashable_key": b"? [1, 2]\n: x\n",
    "not_utf8": b"schema_version: 1\nname: caf\xe9\n",
    "top_level_list": b"- schema_version\n- 1\n",
    "empty": b"",
}


@pytest.mark.parametrize("content", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_raises_schema_error_naming_the_path(monkeypatch, tmp_path, content):
    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    for load in (lambda: load_yaml_mapping(path), lambda: load_scenario(path)):
        for message in both(monkeypatch, lambda: raised(load)):
            assert message.startswith(f"{path}: ")
