"""The immutable base of the library's value types.

Each type is a plain `__slots__` class: its fields come first in
`__slots__` and are named again in `_fields`; any further slots hold
values derived from the fields.  The methods are written out here, not
generated at import by `dataclasses`: that module and the methods it
generated took about half of a fresh `import qmap_synth`.
"""
from __future__ import annotations


class Value:
    """Immutable value semantics: ==, hash and repr over `_fields`, in
    order (== only between instances of one class, hash that of the
    field tuple), and assignment or deletion raises AttributeError.  A
    subclass's `__init__` sets its fields through `_init`, which stores
    a list as a tuple, and a derived slot through `object.__setattr__`;
    derived slots take no part in ==, hash or repr.  No slot is written
    once `__init__` returns, and no field holds a list its caller can
    still change, so a value hashes and can be shared across threads.
    Pickling and `copy` rebuild an instance through its constructor,
    which checks the fields and derives the rest again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            if isinstance(value, list):
                value = tuple(value)
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
