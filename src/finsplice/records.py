"""Immutable records for the types a `NamedTuple` cannot hold.

The base `__init__` sets the `_fields` slots from the positional
arguments, in order; a subclass that validates or derives does so in its
own `__init__`, which sets each slot once through `object.__setattr__`.
`_fields` names the compared fields, in constructor order: equality,
hashing, `repr` and pickling read them alone.  A value built on first
read is a `functools.cached_property`, which needs `__dict__` among the
slots.  Assignment raises `AttributeError`.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
