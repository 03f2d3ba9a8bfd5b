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

A class that subclasses :class:`_Record` is a record: the base reads its
fields off its annotations and gives it one ``__init__``; a record writes
its own only to validate or where it is built thousands of times.  The
dataclass metadata of a record is built when ``dataclasses`` first asks for
it, so importing the package does not import ``dataclasses``.
"""

from operator import attrgetter
from types import MemberDescriptorType

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


class _Fields:
    """``__dataclass_fields__`` of a record, made by ``dataclasses`` on first read.

    The first read on a record class applies ``dataclass(init=False,
    repr=False, eq=False)`` to it, which stores the fields on the class
    itself, so later reads never reach this descriptor.  On ``_Record``
    the attribute is missing: the base is not a dataclass.
    """

    def __get__(self, record, cls):
        if cls is _Record:
            raise AttributeError("__dataclass_fields__")
        from dataclasses import dataclass

        dataclass(cls, init=False, repr=False, eq=False)
        return vars(cls)["__dataclass_fields__"]


class _Record:
    """Immutable value semantics shared by the package's records.

    Subclassing this base is the whole declaration of a record: the
    subclass's annotations, in order, are its fields (``__match_args__``),
    and a plain class attribute of the same name is a field's default (a
    slotted record's slot descriptors are none).  The base gives what
    ``dataclass(frozen=True)`` would ``exec`` per class: an ``__init__``
    taking the fields by position or by name, with declared defaults, that
    raises ``TypeError`` naming the record for a field missing, unknown or
    given twice; immutable fields; equality and hashing by the field tuple;
    the dataclass repr.  ``dataclasses.replace``, ``asdict``, ``fields``
    and ``is_dataclass`` work through :class:`_Fields`, so only a process
    that uses them imports ``dataclasses``, which loads ``inspect`` too
    (7-10 ms per process on a 2-core x86_64 host).  A slotted record, such
    as ``DemazureRoot``, declares its ``__slots__``.

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
    __dataclass_fields__ = _Fields()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        own = vars(cls)
        cls.__match_args__ = names
        cls._defaults = {
            name: own[name]
            for name in names
            if name in own and not isinstance(own[name], MemberDescriptorType)
        }
        # ``_values(record)`` is the field tuple: every record has two fields
        # or more, so the getter returns a tuple
        cls._values = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__}() takes {len(names)} fields but {len(args)} were given"
            )
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        defaults = self._defaults
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in defaults:
                value = defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing field {name!r}")
            object.__setattr__(self, name, value)
        for name in kwargs:
            how = "twice" if name in names else "as an unknown field"
            raise TypeError(f"{type(self).__name__}() got {name!r} {how}")

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

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
