"""Validated immutable records: tuple subclasses with named fields.

The per-experience records (controller.Knobs, controller.BudgetState,
metrics.MetricSnapshot, urge.UrgeScore, simulator.TrainResult and
controller.TraceRecord) are built thousands of times a suite pass, so they
are tuples, not frozen dataclasses. A record class lists its fields as
annotations, in order, and defines a __new__ that takes the same names
(defaults allowed), runs the record's checks and returns
tuple.__new__(cls, values). Every construction path runs that __new__:
positional and keyword calls, and pickle and copy, which rebuild a record
by calling its class with its values. There is no _make or _replace.

Each field is a read-only property reading its index, and a record has no
instance dictionary, so assigning a field or any other attribute raises
AttributeError. repr is Name(field=value, ...), as a dataclass writes it.
Hashing and equality are the tuple's: a record equals a plain tuple of the
same values.
"""

from __future__ import annotations

from operator import itemgetter


class Record(tuple):
    """Base of the record types; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        code = cls.__new__.__code__
        if code.co_varnames[1 : code.co_argcount] != fields:
            raise TypeError(f"{cls.__name__}.__new__ must take the fields {fields} in order")
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must set __slots__ = ()")
        cls._fields = cls.__match_args__ = fields
        for index, name in enumerate(fields):
            setattr(cls, name, property(itemgetter(index), doc=f"Field {index}, {name}."))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # Rebuild through the class, so unpickling and copying run the checks.
        return type(self), tuple(self)
