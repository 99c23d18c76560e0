"""The shared base of lenkrull's frozen value classes.

A value class lists its fields in ``_fields`` and sets them in its own
``__init__`` with ``object.__setattr__``, then checks them.  The base derives
what ``@dataclass(frozen=True)`` would generate from that tuple: equality
between instances of the same class with equal fields, the hash of the field
tuple, the repr ``Name(field=value, ...)``, and assignment or deletion of any
attribute raising ``AttributeError``.  The classes are written out by hand
because importing ``dataclasses`` (which loads ``inspect``, ``ast`` and
``dis``) and running its generated code for each class cost a fresh process
more than the request itself.
"""

from __future__ import annotations


class Value:
    """Equality, hash, repr and immutability from the field names ``_fields``."""

    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        # an instance's __dict__ holds exactly its fields, since it refuses assignment
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
