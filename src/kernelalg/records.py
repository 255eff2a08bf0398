"""Plain value records: the reports, scopes and syntax nodes of the package.

A record class names its fields once, in `__slots__`, and every record is
built by the one constructor here: it takes the fields by position, in
`__slots__` order, or by name, as a dataclass does.  A field listed in the
class's `_defaults` dict may be left out and takes that value; too many,
unknown, repeated or missing fields raise TypeError.  Two records are equal
when they are of one class with equal fields, and the hash and the repr read
the same fields; the package imports neither `dataclasses` nor `typing`,
which together cost a CLI call about 12 ms.
"""

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__} takes {len(names)} fields, got {len(args)} by position"
            )
        fields = dict(cls._defaults)
        fields.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            fields[name] = value
        missing = [name for name in names if name not in fields]
        if missing:
            raise TypeError(f"{cls.__name__} is missing fields {missing}")
        for name in names:
            setattr(self, name, fields[name])

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
