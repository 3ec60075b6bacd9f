"""Frozen records: the base class of the package's parameter and result types.

A record lists its fields, in order, in ``__slots__``.  :class:`Record`'s
positional ``__init__`` takes one value per field and stores each through
the class's slot setters (:func:`field_setters`), which
``__init_subclass__`` computes once; it refuses a wrong number of values
with a ``TypeError`` naming the class.  A record that checks its arguments
writes its own ``__init__``, which checks them and then calls
``Record.__init__``; a record that checks nothing writes none.
``EvalResult`` and ``HypParams``, built once per series sum or grid read,
call their setters themselves, which costs less than the loop for three
fields.  :class:`Record` gives each the rest of an immutable value type:
assignment and deletion raise ``AttributeError``, equality and hashing go
by the field tuple, the repr is ``Name(field=value, ...)``, ``match`` takes
the fields positionally, and pickling and copying restore the fields
through ``Record.__init__`` without running the record's own checks again.
It imports only ``operator``, which ``functools`` and ``fractions`` load
anyway, so building the records costs every process no more than their
class statements.
"""

from operator import attrgetter


def field_setters(cls) -> tuple:
    """The slot setter of each of cls's fields, in field order.

    Each stores its field past the frozen ``__setattr__`` in one C call that
    looks up no name.
    """
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__
        # The field tuple in one C call, so == and hash cost about what a frozen
        # dataclass's did (a getattr loop took 4-5x as long); attrgetter of a
        # single name returns the bare value, so that case is wrapped.
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda record: (get(record),))
        cls._setters = field_setters(cls)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(setters)} field values, got {len(values)}")
        for setter, value in zip(setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return _rebuild, (self.__class__, self._values(self))


def _rebuild(cls, values):
    """The record of class cls with the given field values, its checks not rerun."""
    record = object.__new__(cls)
    Record.__init__(record, *values)
    return record


def as_dict(record: Record) -> dict:
    """The record's fields by name, in field order."""
    return {name: getattr(record, name) for name in record.__slots__}
