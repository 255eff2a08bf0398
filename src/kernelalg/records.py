"""Plain value records: the reports, scopes and syntax nodes of the package.

A record class names its fields in `__slots__` and writes its own
`__init__`.  Two records are equal when they are of one class with equal
fields, and the hash and the repr read the same fields, as for a dataclass;
the package imports neither `dataclasses` nor `typing`, which together cost
a CLI call about 12 ms.
"""

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
