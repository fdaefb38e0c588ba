"""Immutable records: value classes over __slots__ that cost nothing to define.

A class names its fields once, as __slots__ in order; `_defaults` holds
defaults (a callable one is called per instance) and `_loose` the fields that
== and hash leave out. A record holding a list is unhashable, as the list is.
"""

from operator import attrgetter

set_field = object.__setattr__


class Record:
    __slots__ = ()
    _defaults: dict = {}
    _loose: tuple = ()

    def __init_subclass__(cls) -> None:
        compared = [n for n in cls.__slots__ if n not in cls._loose]
        if compared:
            cls._key = attrgetter(*compared)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self.__slots__):
            args = self._complete(args, kwargs)
        for name, value in zip(self.__slots__, args):
            set_field(self, name, value)
        self.__post_init__()

    def _complete(self, args: tuple, kwargs: dict) -> tuple:
        """All field values in order: positional, then keyword, then default."""
        names = self.__slots__
        values = dict(zip(names, args))
        if len(args) > len(names) or values.keys() & kwargs or kwargs.keys() - set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        values.update(kwargs)
        for name in names:
            if name not in values:
                if name not in self._defaults:
                    raise TypeError(f"{type(self).__name__}() is missing {name!r}")
                default = self._defaults[name]
                values[name] = default() if callable(default) else default
        return tuple(values[name] for name in names)

    def __post_init__(self) -> None:
        """Validate the fields; runs on every construction, replace included."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        """A copy with some fields changed, validated like a new record."""
        return type(self)(**{**{n: getattr(self, n) for n in self.__slots__}, **changes})
