"""The one base of the package's immutable value records."""

from __future__ import annotations


class _Record:
    """An immutable record: its fields are fixed when it is constructed.

    A subclass names its fields in order in ``_fields`` and stores them in
    its ``__init__`` with ``vars(self).update(...)``. Two records are equal
    when they are of the same class and their fields are equal; a record
    never equals a record of another class or a tuple. The hash is that of
    the field values, and the repr reads ``Name(field=value, ...)``.
    Assigning or deleting any attribute raises AttributeError; a
    ``functools.cached_property`` still works, since it writes to the
    instance ``__dict__`` directly.
    """

    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
