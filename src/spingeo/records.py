"""Plain record classes for the modules a CLI subcommand loads.

``dataclasses`` imports ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, a large share of a CLI process's start-up; these bases give
records the same field-wise ``==``, ``repr`` and frozen behaviour.
"""


class Record:
    """Fields named by ``_fields`` and kept in ``__slots__``; ``==`` and ``repr`` go field by field."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A record that refuses assignment and hashes by its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return hash(self._values())
