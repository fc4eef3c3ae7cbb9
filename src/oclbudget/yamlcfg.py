"""Strict helpers for the declarative YAML files (profiles, targets, scenarios).

Every loader only reads: it consumes known keys, checks the structure (a
section is a mapping, a point list a list of pairs, a name a str), looks up
names and fills defaults, and rejects anything left over, reporting the full
dotted key path so a typo is immediately visible. It checks no value: every
value rule, a number's type and range included, belongs to the record the
loader builds, and build() turns a record's rejection into a SchemaError
naming the file's key, so a file and a record built in code obey the same
rules.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path

import yaml

from .errors import MAX_FLOAT, OclBudgetError, SchemaError

SCHEMA_VERSION = 1

# PyYAML follows YAML 1.1, whose floats need a dot and a signed exponent,
# so 1e-3, 1e4 and 1.0e3 would be strings. YAML 1.2 reads them as floats.
_EXPONENT_FLOAT = r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"


@functools.cache
def _loader() -> type:
    """The safe loader with a second float resolver for exponent forms. Built
    on first use, so importing this module reads nothing from yaml.

    It parses with libyaml (yaml.CSafeLoader) when PyYAML was built with it,
    about four times faster on the bundled files than the pure-Python
    yaml.SafeLoader, which it falls back to otherwise. Both build the same
    documents: only the parser differs, and the resolvers and constructors
    are the same Python classes.
    """

    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float", re.compile(_EXPONENT_FLOAT), list("-+0123456789.")
    )
    return Loader


def load_yaml_mapping(path: str | Path) -> dict:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_loader())
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be a mapping")
    return doc


def check_schema_version(doc: dict, path: str) -> None:
    version = doc.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )


def as_float(value):
    """value as a file's float field is stored: an int a float can hold
    becomes that float, so a file's 8192 loads as 8192.0; anything else, a
    bool included, is returned as it is for the record to check."""
    if value.__class__ is int and -MAX_FLOAT <= value <= MAX_FLOAT:
        return float(value)
    return value


def build(record: type, path: str, values: dict, keys: dict[str, str] | None = None):
    """record(**values), built from the section at path. A field the record
    rejects is re-raised as path.<key>: its rule, with key from keys when it
    is not the field's name."""
    try:
        return record(**values)
    except OclBudgetError as exc:
        if exc.field is None:
            raise
        key = keys.get(exc.field, exc.field) if keys else exc.field
        raise SchemaError(f"{path}.{key}: {exc.rule}") from exc


class Section:
    """A mapping being consumed key by key; leftovers are schema errors."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise SchemaError(f"{path}: expected a mapping, got {type(data).__name__}")
        self._data = dict(data)
        self.path = path

    def take(self, key: str, kind: type | None = None, default=...):
        """The value at key, or default when it is missing. kind is a
        structural type (dict, list or str); a value's own rules are its
        record's."""
        if key in self._data:
            value = self._data.pop(key)
        elif default is not ...:
            return default
        else:
            raise SchemaError(f"{self.path}.{key}: required key is missing")
        if kind is not None and not isinstance(value, kind):
            raise SchemaError(f"{self.path}.{key}: expected a {kind.__name__}, got {value!r}")
        return value

    def take_number(self, key: str, default=...):
        """The value at key for a float field, through as_float."""
        return as_float(self.take(key, default=default))

    def keys(self) -> list[str]:
        return list(self._data)

    def section(self, key: str) -> "Section":
        return Section(self.take(key, kind=dict), f"{self.path}.{key}")

    def finish(self) -> None:
        if self._data:
            unknown = sorted(self._data)
            raise SchemaError(f"{self.path}: unknown key(s) {unknown}")
