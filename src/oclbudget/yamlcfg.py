"""Strict helpers for the declarative YAML files (profiles, targets, scenarios).

Every loader works on the same principle: read the document, consume known
keys with type checks, and reject anything left over, reporting the full
dotted key path so a typo is immediately visible.
"""

from __future__ import annotations

import functools
import re
import sys
from pathlib import Path

import yaml

from .errors import SchemaError

SCHEMA_VERSION = 1

# PyYAML follows YAML 1.1, whose floats need a dot and a signed exponent,
# so 1e-3, 1e4 and 1.0e3 would be strings. YAML 1.2 reads them as floats.
_EXPONENT_FLOAT = r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"


@functools.cache
def _loader() -> type:
    """yaml.SafeLoader with a second float resolver for exponent forms. Built
    on first use, so importing this module reads nothing from yaml."""

    class Loader(yaml.SafeLoader):
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
    except yaml.YAMLError as exc:
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

    def take_number(self, key: str, default=..., minimum=None, maximum=None) -> float:
        value = self.take(key, kind=(int, float), default=default)
        if default is not ... and value is default and not isinstance(value, (int, float)):
            return value
        value = finite_number(value, f"{self.path}.{key}")
        if minimum is not None and value < minimum:
            raise SchemaError(f"{self.path}.{key}: must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise SchemaError(f"{self.path}.{key}: must be <= {maximum}, got {value}")
        return value

    def take_int(self, key: str, default=..., minimum=None) -> int:
        value = self.take(key, kind=int, default=default)
        if not isinstance(value, int):
            return value
        if minimum is not None and value < minimum:
            raise SchemaError(f"{self.path}.{key}: must be >= {minimum}, got {value}")
        return value

    def keys(self) -> list[str]:
        return list(self._data)

    def section(self, key: str, default=...) -> "Section":
        value = self.take(key, kind=dict, default=default)
        if not isinstance(value, dict):
            return value
        return Section(value, f"{self.path}.{key}")

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
