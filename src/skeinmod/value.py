"""The base of the package's immutable value classes: a subclass's fields are
the parameters of its __init__, which sets them with object.__setattr__.
Values of one class are equal, and hash, as the tuples of their fields and
repr as Name(field=value, ...). Assigning or deleting an attribute raises
AttributeError, and pickle and copy rebuild a value through __init__. A
subclass names its fields again as __slots__, so its values keep no
__dict__ and take no weak reference; one that keeps cached properties
leaves __slots__ out. A subclass whose fields hold a dict sets
__hash__ = None, and one that keeps a derived slot may compare by it."""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*cls._fields)
        # attrgetter of one name gives the value itself, not a 1-tuple
        cls._astuple = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
