"""The immutable base of the package's value classes.

A value class lists its fields in ``__slots__`` and writes its own
``__init__``, which sets them with ``object.__setattr__`` and then calls
``__post_init__`` to validate them.  :class:`Value` adds what a frozen
dataclass would: equality and hashing over the fields in slot order, a
``Name(field=value, ...)`` repr, and refusal to assign or delete.  It
stands in for ``@dataclass(frozen=True)``, whose import (``inspect`` and
what that loads) and per-class code generation would cost about twice the
rest of importing :mod:`lenslinks.cli`.

A slot whose name starts with ``_`` is not a field: it holds a value that
``__init__`` derives from the fields, or one that a private constructor
stores to derive the fields from on first read, and it takes no part in
equality, hashing, repr or pickling.
"""

from __future__ import annotations


class Value:
    """An immutable record whose fields are its class's public ``__slots__``.

    The fields are read from ``type(self).__slots__``, so a subclass of a
    value class declares no ``__slots__`` of its own.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__ if name[0] != "_"])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_"])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Slot state would be restored by setattr, which refuses; rebuilding
        # through __init__ serves copy, deepcopy and pickle alike, and derives
        # the underscore slots again.
        return type(self), self._fields()
