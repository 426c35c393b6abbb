"""Immutable value classes, built without generating code.

A subclass lists its fields as annotations in its class body, in order,
with defaults as plain class attributes.  Instances construct from
positional or keyword arguments, compare equal only to instances of the
exact same class with equal fields, hash alike when equal, and refuse
assignment.  A field annotated ``int`` refuses a bool or a non-int with a
``TypeError`` that names the class and the field.  Fields named in
``derived`` (``class C(Record, derived=...)``) are held and pickled but
take no part in equality, hashing or ``repr``.
"""

from __future__ import annotations

from .number_theory import _require_type

__all__ = ["Record", "replace"]


class Record:
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _ints: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, derived: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        own = tuple(annotations)
        cls._fields = cls._fields + own
        cls._ints = cls._ints + tuple(f for f in own if annotations[f] == "int")
        cls._compared = cls._compared + tuple(f for f in own if f not in derived)
        cls._defaults = {**cls._defaults,
                         **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}

    def __init__(self, *args: object, **kwargs: object) -> None:
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} arguments, got {len(args)}")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in given:
                raise TypeError(f"{name} got an unexpected or repeated argument {key!r}")
        values = {**self._defaults, **given, **kwargs}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name} is missing {', '.join(missing)}")
        for f in self._ints:
            _require_type(values[f], int, f"{name}.{f}")
        vars(self).update((f, values[f]) for f in fields)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple[object, ...]:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({fields})"


def replace(obj: Record, /, **changes: object) -> Record:
    """A copy of ``obj`` with the named fields changed."""
    return type(obj)(**{**vars(obj), **changes})
