"""Shared exception types, and the base of the package's records.

``InputError`` marks problems with user-supplied data (bad rays, malformed
files, out-of-envelope sizes); the CLI maps it to exit code 1.
``ConsistencyError`` marks a failed internal cross-check, i.e. two independent
computations that are guaranteed to agree did not.  It is never caught inside
the library: reaching it means a bug, and silent continuation would produce
wrong mathematics.

``MAX_WORK`` is the one limit on the size of an input.  Each loop that
dominates a stage counts its elementary steps in a local variable, charged
once per step in bulk, and passes the count to :func:`_check_work`, which
reads the limit when it is called.
"""

from dataclasses import FrozenInstanceError
from operator import attrgetter

__all__ = ["ConsistencyError", "InputError"]


class InputError(ValueError):
    """Invalid user input (validation failure, malformed file, bad options)."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""


# Cyclic 7x17, the largest cone README lists as answered, counts 1,987,568
# face-walk steps; see README's "Work limit" for the measured envelope.
MAX_WORK = 1 << 21


def _check_work(stage: str, count: int) -> None:
    """Refuse the input once a stage has counted more than ``MAX_WORK`` steps."""
    if count > MAX_WORK:
        raise InputError(f"{stage}: {count} steps pass the work limit MAX_WORK = {MAX_WORK}")


class _FieldValues:
    """The ``_values`` of a record class: looked up through the class the
    first time, it stores there ``attrgetter`` of the class's fields, which
    later lookups find first.  ``_values(record)`` is the field tuple.
    """

    def __get__(self, record, cls):
        # the dataclass sets ``__match_args__`` to its field names, in order;
        # every record has at least two, so the getter returns a tuple
        cls._values = attrgetter(*cls.__match_args__)
        return cls._values


class _Record:
    """Immutable value semantics shared by the package's records.

    Each record is a ``@dataclass(init=False, repr=False, eq=False)`` with
    its own ``__init__``, which stores the fields through
    ``object.__setattr__``.  This base gives what ``frozen=True`` would
    generate per class: fields cannot be assigned or deleted, two records
    of one class are equal when their field tuples are, the hash is that of
    the field tuple, and the repr is ``Name(field=value, ...)``.  So
    ``dataclasses.replace``, ``asdict`` and ``fields`` still work, and
    creating a record class compiles no code.
    """

    __slots__ = ()
    _values = _FieldValues()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self.__match_args__, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __reduce__(self):
        # rebuilt through ``__init__``: a slotted record has no ``__dict__`` to copy
        return self.__class__, self._values(self)
