"""``Record``, the package's value-class base: what ``dataclasses`` did
here, without that import (``inspect``, ``ast``, ...) or generated code.

A subclass lists its fields as annotations, in order, each with an
optional default; names in its own ``__slots__`` are slots, not fields.
Its module must use ``from __future__ import annotations``, which keeps
``__annotations__`` in the class body on every Python. A record takes its
fields as positional or keyword arguments and then calls
``__post_init__``; it equals a record of its class with equal fields.
With ``frozen=True`` a class is hashable and refuses assignment.
"""


def _refuse(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")


class _RecordType(type):
    def __new__(mcls, name, bases, ns, frozen=False):
        if "__annotate__" in ns and "__annotations__" not in ns:
            raise TypeError(f"{name}: a Record's module needs "
                            "'from __future__ import annotations'")
        fields = ns["_fields"] = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = fields + tuple(ns.get("__slots__", ()))
        if frozen:
            ns["__setattr__"] = ns["__delattr__"] = _refuse
            ns["__hash__"] = lambda self: hash(self._values())
        return super().__new__(mcls, name, bases, ns)


class Record(metaclass=_RecordType):
    def __init__(self, *args, **kwargs):
        names = self._fields
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or len(values) != len(names)
                or not kwargs.keys() <= set(names[len(args):])):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{names}, got {args!r} and {kwargs!r}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):  # pickle and copy through __init__
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
