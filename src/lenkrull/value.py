"""The shared base of lenkrull's frozen value classes.

A value class's fields are what its ``__init__`` sets with
``object.__setattr__``, once each and in signature order, before it checks
them; nothing else enters the instance ``__dict__``, since assignment is
refused.  The base reads that dict for what ``@dataclass(frozen=True)`` would
generate: equality between instances of the same class with equal fields,
the hash of the field values, the repr ``Name(field=value, ...)``, and
assignment or deletion of any attribute raising ``AttributeError``.  The
classes are written out by hand because importing ``dataclasses`` (which
loads ``inspect``, ``ast`` and ``dis``) and running its generated code for
each class cost a fresh process more than the request itself.
"""

from __future__ import annotations


class Value:
    """Equality, hash, repr and immutability from the instance ``__dict__``."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
