"""Immutable records: tuples with named fields that cost nothing to define.

A class names its fields once, as _fields in order; `_defaults` holds
defaults and `_loose` the fields that == and hash leave out. A record is a
tuple of its fields, so it can be indexed, iterated and unpacked, but it
equals only a record of its own class. A record holding a list is
unhashable, as the list is.
"""

from operator import itemgetter


class Record(tuple):
    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}
    _loose: tuple = ()

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))
        compared = [i for i, n in enumerate(cls._fields) if n not in cls._loose]
        if compared:
            cls._key = itemgetter(*compared)

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._complete(args, kwargs)
        return tuple.__new__(cls, args)

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> tuple:
        """All field values in order: positional, then keyword, then default."""
        names = cls._fields
        values = dict(zip(names, args))
        if len(args) > len(names) or values.keys() & kwargs or kwargs.keys() - set(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}")
        values.update(kwargs)
        for name in names:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__}() is missing {name!r}")
                values[name] = cls._defaults[name]
        return tuple(values[name] for name in names)

    def __getnewargs__(self) -> tuple:  # copy and pickle pass each field
        return tuple(self)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    # never NotImplemented, which would let tuple equality compare the fields
    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key(self) == self._key(other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        """A copy with some fields changed, checked like a new record."""
        return type(self)(**{**dict(zip(self._fields, self)), **changes})
