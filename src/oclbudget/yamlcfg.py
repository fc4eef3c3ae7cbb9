"""Strict helpers for the declarative YAML files (profiles, targets, scenarios).

Every loader only parses: it reads the document, consumes known keys with
type checks, and rejects anything left over, reporting the full dotted key
path so a typo is immediately visible. Ranges and cross-field rules belong
to the records the loader builds; build() turns a record's rejection into
a SchemaError naming the file's key, so a file and a record built in code
obey the same rules.
"""

from __future__ import annotations

import functools
import re
import sys
from pathlib import Path

import yaml

from .errors import OclBudgetError, SchemaError

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


def finite_number(value, where: str) -> float:
    """value, an int or float, as a float. NaN passes every bound test, so it,
    the infinities and ints past the float range raise here, naming where."""
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise SchemaError(f"{where}: must be a finite number, got {value!r}")
    return float(value)


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

    def take(self, key: str, kind=None, default=...):
        if key in self._data:
            value = self._data.pop(key)
        elif default is not ...:
            return default
        else:
            raise SchemaError(f"{self.path}.{key}: required key is missing")
        if kind is not None and not self._check_kind(value, kind):
            raise SchemaError(
                f"{self.path}.{key}: expected {self._kind_name(kind)}, got {value!r}"
            )
        return value

    def take_number(self, key: str, default=...) -> float:
        value = self.take(key, kind=(int, float), default=default)
        return finite_number(value, f"{self.path}.{key}")

    def keys(self) -> list[str]:
        return list(self._data)

    def section(self, key: str) -> "Section":
        return Section(self.take(key, kind=dict), f"{self.path}.{key}")

    def finish(self) -> None:
        if self._data:
            unknown = sorted(self._data)
            raise SchemaError(f"{self.path}: unknown key(s) {unknown}")

    @staticmethod
    def _check_kind(value, kind) -> bool:
        if kind == (int, float):
            # bool is an int subclass but never a valid number here
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind is int:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, kind)

    @staticmethod
    def _kind_name(kind) -> str:
        if kind == (int, float):
            return "a number"
        return f"a {getattr(kind, '__name__', kind)}"
