"""Finitely generated abelian groups in invariant-factor form.

A group is ``Z^r x Z/d_1 x ... x Z/d_t`` with ``2 <= d_1 | d_2 | ... | d_t``.
Elements carry ``r + t`` integer coordinates, free coordinates first, torsion
coordinates stored reduced modulo the invariant factors.  Outside
coordinates enter through :meth:`FgAbGroup.element`, which checks them once;
elements the package computes itself are built without a second check.

Subgroups are canonicalized as the Hermite normal form basis of their
preimage lattice in ``Z^(r+t)``, which always contains the relation lattice
spanned by ``d_j * e_(r+j)``.  Two subgroups are equal exactly when their
canonical bases are identical tuples, so handles can serve as dict keys.

:func:`semigroup_member` decides exactly, with no search bound, whether an
element is a nonnegative integer combination of others: ``"yes"`` with a
re-checked witness or ``"no"``.  Its body lives in
:mod:`toricstrata._polyhedra`, imported on the first call.  Its one search
is the first-hit lattice search over a bounded polytope, which tries
values lazily by size and raises ``InputError`` once its tries pass
``errors.MAX_WORK``: an early hit is cheap however large the target, and a
polytope whose every value fails is refused only after that many tries.
``stratify`` does not call it: the semigroup it would test there equals
the group by each face's functional, which the cone's face table
certifies when it is built, and ``divisors.build_toric`` checks the
principal classes.
"""

from __future__ import annotations

import math
from operator import add, mod, neg, sub
from typing import Iterable, Sequence

from .errors import ConsistencyError, InputError, _Record
from .linalg import (
    IntMatrix,
    IntVec,
    _invariant_factors,
    _is_int,
    _lattice_coordinates,
    _pivot_index,
    _split_units,
    hermite_normal_form,
    smith_normal_form,
)

__all__ = [
    "FgAbGroup",
    "GroupElement",
    "MembershipResult",
    "SubgroupHandle",
    "group_from_cokernel",
    "is_full",
    "quotient_group",
    "semigroup_member",
    "subgroup_canon",
    "subgroup_leq",
    "subgroup_structure",
]


class FgAbGroup(_Record):
    """``Z^free_rank x Z/torsion[0] x ...`` with a divisibility chain."""

    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank, torsion) -> None:
        if not _is_int(free_rank) or free_rank < 0:
            raise InputError("free rank must be a nonnegative integer")
        try:
            torsion = tuple(torsion)  # hashable whatever iterable came in
        except TypeError:
            raise InputError("torsion orders must be given as an iterable of integers") from None
        prev = None
        for d in torsion:
            if not _is_int(d) or d < 2:
                raise InputError("torsion orders must be integers >= 2")
            if prev is not None and d % prev:
                raise InputError("torsion orders must form a divisibility chain")
            prev = d
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    @property
    def ncoords(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.ncoords == 0

    def order(self) -> int | None:
        """Group order, or ``None`` when infinite."""
        return None if self.free_rank else math.prod(self.torsion)

    def reduce(self, coords: Sequence[int]) -> IntVec:
        """Check outside coordinates and reduce the torsion ones."""
        try:
            coords = tuple(coords)
        except TypeError:
            raise InputError("element coordinates must be a sequence") from None
        if len(coords) != self.ncoords:
            raise InputError("element coordinate length does not match the group")
        for j, x in enumerate(coords):
            if not _is_int(x):
                raise InputError(f"coordinate {j} must be an integer")
        return self._reduced(coords)

    def _reduced(self, coords: Sequence[int]) -> IntVec:
        r = self.free_rank
        return (*coords[:r], *map(mod, coords[r:], self.torsion))

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, self.reduce(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.ncoords)

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


class GroupElement(_Record):
    """An element of an :class:`FgAbGroup`, torsion coordinates reduced.

    Construct through :meth:`FgAbGroup.element`, which checks the
    coordinates; the constructor trusts its caller.
    """

    group: FgAbGroup
    coords: IntVec

    def _check_same_group(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise InputError("elements belong to different groups")

    def _element(self, coords) -> "GroupElement":
        return GroupElement(self.group, self.group._reduced(tuple(coords)))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._check_same_group(other)
        return self._element(map(add, self.coords, other.coords))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._check_same_group(other)
        return self._element(map(sub, self.coords, other.coords))

    def __neg__(self) -> "GroupElement":
        return self._element(map(neg, self.coords))

    def __rmul__(self, k: int) -> "GroupElement":
        if not _is_int(k):
            return NotImplemented
        return self._element(k * a for a in self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def free_part(self) -> IntVec:
        return self.coords[: self.group.free_rank]


def group_from_cokernel(a: IntMatrix) -> tuple[FgAbGroup, tuple[GroupElement, ...]]:
    """Cokernel of ``Z^cols -> Z^rows`` given by ``x -> a @ x``.

    Returns the quotient in invariant-factor form together with the images
    of the ``rows`` standard basis vectors of the target, read off the
    Smith transform ``U``: ``divisors.build_toric``'s divisor classes.
    """
    u, s, _ = smith_normal_form(a)  # refuses anything but an IntMatrix
    m = a.rows
    limit = min(m, a.cols)
    diag = [s.entries[i][i] for i in range(limit)]
    nonzero = [d for d in diag if d]
    torsion_rows = [i for i, d in enumerate(diag) if d >= 2]
    free_rows = [i for i in range(m) if i >= len(nonzero) or diag[i] == 0]
    # Smith ordering puts units first, so torsion orders ascend as required.
    group = FgAbGroup(len(free_rows), tuple(diag[i] for i in torsion_rows))
    images = []
    for j in range(m):
        col = u.column(j)
        coords = [col[i] for i in free_rows]
        coords += [col[i] % diag[i] for i in torsion_rows]
        images.append(GroupElement(group, tuple(coords)))
    return group, tuple(images)


def _cokernel(n: int, factors: list[int]) -> FgAbGroup:
    """``Z^n`` modulo a lattice with these invariant factors."""
    return FgAbGroup(n - len(factors), tuple(d for d in factors if d > 1))


# ---------------------------------------------------------------------------
# Subgroups


class SubgroupHandle(_Record):
    """Canonical handle: Hermite basis of the preimage lattice in Z^(r+t).

    Construct only through :func:`subgroup_canon`; identical subgroups yield
    byte-identical handles.
    """

    parent: FgAbGroup
    basis: tuple[IntVec, ...]

    def __init__(self, parent, basis) -> None:
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "basis", basis)


def _relation_rows(group: FgAbGroup) -> list[IntVec]:
    n = group.ncoords
    r = group.free_rank
    return [
        tuple(group.torsion[j] if c == r + j else 0 for c in range(n))
        for j in range(len(group.torsion))
    ]


def _check_group(group) -> None:
    if not isinstance(group, FgAbGroup):
        raise InputError("group must be an FgAbGroup")


def _check_subgroup(sub) -> None:
    if not isinstance(sub, SubgroupHandle):
        raise InputError("subgroup must be a SubgroupHandle")


def _checked_elements(group: FgAbGroup, gens: Iterable[GroupElement]) -> list[GroupElement]:
    """The generators as a list; refuses a group that is not an
    :class:`FgAbGroup` and generators that are not its elements."""
    _check_group(group)
    try:
        gens = list(gens)
    except TypeError:
        raise InputError("generators must be given as an iterable of group elements") from None
    for g in gens:
        if not isinstance(g, GroupElement):
            raise InputError("generators must be group elements")
        if g.group != group:
            raise InputError("generator belongs to a different group")
    return gens


def subgroup_canon(group: FgAbGroup, gens: Iterable[GroupElement]) -> SubgroupHandle:
    """Canonicalize the subgroup generated by ``gens``.

    Empty ``gens`` yields the zero subgroup (the relation lattice alone,
    whose rows ``d_j * e_(r+j)`` are already its Hermite basis).
    """
    gens = _checked_elements(group, gens)
    return _subgroup_join(SubgroupHandle(group, tuple(_relation_rows(group))), gens)


def _subgroup_join(sub: SubgroupHandle, gens: Iterable[GroupElement]) -> SubgroupHandle:
    """Canonical handle of ``sub + <gens>``.

    The generators' coordinates are inserted into the Hermite basis of
    ``sub``, which already holds the relation lattice (Cohen, *A Course in
    Computational Algebraic Number Theory*, 2.4): the basis is echelon, so
    each column takes at most one extended-gcd step per generator.  A
    lattice has one Hermite basis, so the handle does not depend on how the
    subgroup was built up.
    """
    group = sub.parent
    rows = [g.coords for g in gens]
    rows.extend(sub.basis)
    h = hermite_normal_form(IntMatrix(len(rows), group.ncoords, tuple(rows)))
    return SubgroupHandle(group, tuple(row for row in h.entries if any(row)))


def subgroup_leq(a: SubgroupHandle, b: SubgroupHandle) -> bool:
    """Whether subgroup ``a`` is contained in subgroup ``b``: each row of
    its Hermite basis is a row of that of ``b`` or reduces to zero
    modulo it."""
    _check_subgroup(a)
    _check_subgroup(b)
    if a.parent != b.parent:
        raise InputError("subgroups live in different parent groups")
    shared = set(b.basis)
    pivot_of = _pivot_index(b.basis)
    return all(
        row in shared or _lattice_coordinates(b.basis, pivot_of, row) is not None
        for row in a.basis
    )


def is_full(handle: SubgroupHandle) -> bool:
    """Whether the subgroup is the whole group: the Hermite basis of the
    whole preimage lattice is the identity.  A basis of full rank with
    every pivot 1 is that: the entries above a pivot lie in [0, 1)."""
    _check_subgroup(handle)
    basis = handle.basis
    return len(basis) == handle.parent.ncoords and all(row[i] == 1 for i, row in enumerate(basis))


def quotient_group(group: FgAbGroup, sub: SubgroupHandle) -> FgAbGroup:
    """Invariant-factor form of ``group / sub``: ``Z^(r+t)`` modulo the
    preimage lattice, read off the invariant factors of its Hermite basis
    with no Smith transform.  The basis is a Hermite form already, so its
    pivots 1 split off (:func:`~toricstrata.linalg._split_units`) before
    any other form is taken."""
    _check_group(group)
    _check_subgroup(sub)
    if sub.parent != group:
        raise InputError("subgroup does not belong to the given group")
    rest, units = _split_units(sub.basis)
    n = group.ncoords - units
    return _cokernel(n, _invariant_factors(rest, n))


def subgroup_structure(sub: SubgroupHandle) -> FgAbGroup:
    """Abstract invariant-factor form of the subgroup itself.

    In the coordinates of its Hermite basis the subgroup is ``Z^k``
    modulo the relation vectors ``d_j * e_(r+j)``, so their invariant
    factors give it, with no Smith transform.
    """
    _check_subgroup(sub)
    pivot_of = _pivot_index(sub.basis)
    rows = []
    for rel in _relation_rows(sub.parent):
        coords = _lattice_coordinates(sub.basis, pivot_of, rel)
        if coords is None:
            raise ConsistencyError("relation vector not contained in subgroup lattice")
        rows.append(coords)
    return _cokernel(len(sub.basis), _invariant_factors(rows, len(sub.basis)))


# ---------------------------------------------------------------------------
# Semigroup membership


class MembershipResult(_Record):
    """Verdict for nonnegative-combination membership: ``"yes"`` with
    coefficients that reach the target, or ``"no"``."""

    status: str  # "yes" | "no"
    coefficients: IntVec | None = None

    def is_yes(self) -> bool:
        return self.status == "yes"


def semigroup_member(
    group: FgAbGroup, gens: Sequence[GroupElement], target: GroupElement
) -> MembershipResult:
    """Is ``target`` a nonnegative integer combination of ``gens``?  Decided
    exactly.

    With ``R`` from :func:`~toricstrata._polyhedra._unbounded_relation`,
    the coefficients where ``R`` is positive may take any sign: adding a
    multiple of ``R`` makes them nonnegative.  The integer solutions of
    the equalities, with one multiple of each torsion order as an extra
    unknown, are a point plus a Hermite kernel basis whose rows moving the
    other, tight, coefficients come first.  Keeping the tight coefficients nonnegative bounds a
    polytope in those rows' coordinates, in which the first-hit lattice
    search finds an integer point or proves there is none; it raises
    ``InputError`` once its tries pass ``errors.MAX_WORK``.  The
    witness is re-checked against the target.
    """
    from . import _polyhedra
    return _polyhedra.semigroup_member(group, gens, target)
