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

:class:`_Record` gives the package's records one ``__init__``; a record
writes its own only to validate or where it is built thousands of times.
"""

from dataclasses import MISSING, FrozenInstanceError
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


class _Record:
    """Immutable value semantics shared by the package's records.

    Each record is a ``@dataclass(init=False, repr=False, eq=False)``.  This
    base gives what ``frozen=True`` would ``exec`` per class: an
    ``__init__`` taking the fields by position or by name, with declared
    defaults, that raises ``TypeError`` naming the record for a field
    missing, unknown or given twice; immutable fields; equality and hashing
    by the field tuple; the dataclass repr.  ``dataclasses.replace``,
    ``asdict`` and ``fields`` still work.

    The shared ``__init__`` stores two positional fields in about 1 us, a
    hand-written one in 0.45 us, and a ``suite200`` benchmark pass builds
    ``IntMatrix``, ``ConnectionVerdict``, ``DemazureRoot``, ``Face``,
    ``FaceOrbitData`` and ``SubgroupHandle`` 2,000 to 6,800 times each (a
    ``roots_box`` pass ``DemazureRoot`` 58,549 times): with those on it
    too, ``stratify`` took about 7% longer on those cones and
    ``enumerate_roots`` 9% on the ``roots_box`` ones.  So those six write
    their own, as ``FgAbGroup`` does to validate; every other record is
    built at most about 1,500 times per pass (``GroupElement`` 758).
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # ``_values(record)`` is the field tuple: every record has two fields
        # or more, so the getter returns a tuple
        cls._values = attrgetter(*cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__}() takes {len(names)} fields but {len(args)} were given"
            )
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            value = kwargs.pop(name, self.__dataclass_fields__[name].default)
            if value is MISSING:
                raise TypeError(f"{type(self).__name__}() missing field {name!r}")
            object.__setattr__(self, name, value)
        for name in kwargs:
            how = "twice" if name in names else "as an unknown field"
            raise TypeError(f"{type(self).__name__}() got {name!r} {how}")

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
