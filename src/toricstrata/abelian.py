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
re-checked witness or ``"no"``.  Its one search is the first-hit lattice
search of :mod:`toricstrata.linalg` over a bounded polytope, which tries
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
from dataclasses import dataclass
from operator import add, mod, neg, sub
from typing import Iterable, Sequence

from .errors import ConsistencyError, InputError, _Record
from .linalg import (
    IntMatrix,
    IntVec,
    LinearSystem,
    _fm_chain,
    _invariant_factors,
    _is_int,
    _lattice_coordinates,
    _lattice_dfs,
    _pivot_index,
    _split_units,
    hermite_normal_form,
    rational_feasible,
    smith_normal_form,
    solve_integer_system,
)

__all__ = [
    "FgAbGroup",
    "GroupElement",
    "MembershipResult",
    "SubgroupHandle",
    "full_subgroup",
    "group_from_cokernel",
    "is_full",
    "quotient_group",
    "semigroup_member",
    "subgroup_canon",
    "subgroup_leq",
    "subgroup_structure",
    "subgroups_equal",
]


@dataclass(init=False, repr=False, eq=False)
class FgAbGroup(_Record):
    """``Z^free_rank x Z/torsion[0] x ...`` with a divisibility chain."""

    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank, torsion) -> None:
        if not isinstance(free_rank, int) or isinstance(free_rank, bool) or free_rank < 0:
            raise InputError("free rank must be a nonnegative integer")
        try:
            torsion = tuple(torsion)  # hashable whatever iterable came in
        except TypeError:
            raise InputError("torsion orders must be given as an iterable of integers") from None
        prev = None
        for d in torsion:
            if not isinstance(d, int) or d < 2:
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

    def standard_generators(self) -> tuple["GroupElement", ...]:
        n = self.ncoords
        return tuple(
            GroupElement(self, tuple(1 if i == j else 0 for j in range(n))) for i in range(n)
        )

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


@dataclass(init=False, repr=False, eq=False)
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
        self._check_same_group(other)
        return self._element(map(add, self.coords, other.coords))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        return self._element(map(sub, self.coords, other.coords))

    def __neg__(self) -> "GroupElement":
        return self._element(map(neg, self.coords))

    def __rmul__(self, k: int) -> "GroupElement":
        if not isinstance(k, int):
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


@dataclass(init=False, repr=False, eq=False)
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


def subgroups_equal(a: SubgroupHandle, b: SubgroupHandle) -> bool:
    _check_subgroup(a)
    _check_subgroup(b)
    if a.parent != b.parent:
        raise InputError("subgroups live in different parent groups")
    return a.basis == b.basis


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


def full_subgroup(group: FgAbGroup) -> SubgroupHandle:
    _check_group(group)
    return subgroup_canon(group, group.standard_generators())


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


@dataclass(init=False, repr=False, eq=False)
class MembershipResult(_Record):
    """Verdict for nonnegative-combination membership: ``"yes"`` with
    coefficients that reach the target, or ``"no"``."""

    status: str  # "yes" | "no"
    coefficients: IntVec | None = None

    def is_yes(self) -> bool:
        return self.status == "yes"


def _unbounded_relation(group: FgAbGroup, gens: Sequence[GroupElement]) -> IntVec:
    """A relation ``sum R_i * g_i == 0`` with ``R >= 0``, positive exactly on
    the coefficients that are unbounded on any nonempty ``{c >= 0 : sum c_i
    * free(g_i) == b}``.

    Those are the coefficients positive somewhere on the relation cone
    ``{c >= 0 : sum c_i * free(g_i) == 0}``, the polyhedron's recession
    cone (Schrijver, *Theory of Linear and Integer Programming*, 8.2), so
    a relative-interior point of the cone is positive on exactly them.
    Scaled by its denominators and the torsion exponent, it is ``R``.
    """
    r = group.free_rank
    units = IntMatrix.identity(len(gens)).entries
    eqs = tuple((tuple(g.coords[fc] for g in gens), 0) for fc in range(r))
    point = rational_feasible(LinearSystem(len(gens), eqs, tuple((u, 0, False) for u in units)))
    if point is None:
        raise ConsistencyError("the relation cone lost its apex")
    scale = math.lcm(*(x.denominator for x in point)) * (group.torsion[-1] if group.torsion else 1)
    return tuple(int(x * scale) for x in point)


def semigroup_member(
    group: FgAbGroup, gens: Sequence[GroupElement], target: GroupElement
) -> MembershipResult:
    """Is ``target`` a nonnegative integer combination of ``gens``?  Decided
    exactly.

    With ``R`` from :func:`_unbounded_relation`, the coefficients where
    ``R`` is positive may take any sign: adding a multiple of ``R`` makes
    them nonnegative.  The integer solutions of the equalities, with one
    multiple of each torsion order as an extra unknown, are a point plus a
    Hermite kernel basis whose rows moving the other, tight, coefficients
    come first.  Keeping the tight coefficients nonnegative bounds a
    polytope in those rows' coordinates, in which the first-hit lattice
    search finds an integer point or proves there is none; it raises
    ``InputError`` once its tries pass ``errors.MAX_WORK``.  The
    witness is re-checked against the target.
    """
    gens = _checked_elements(group, gens)
    if not isinstance(target, GroupElement):
        raise InputError("target must be a group element")
    if target.group != group:
        raise InputError("target belongs to a different group")
    relation = _unbounded_relation(group, gens)
    m = len(gens)
    order = sorted(range(m), key=lambda i: relation[i] > 0)  # tight first
    tight = relation.count(0)
    torsion = _relation_rows(group)
    eqs = tuple(
        ((*(gens[i].coords[c] for i in order), *(-row[c] for row in torsion)), target.coords[c])
        for c in range(group.ncoords)
    )
    solution = solve_integer_system(LinearSystem(m + len(torsion), eqs, ()))
    if solution is None:
        return MembershipResult("no")
    moving = [row for row in solution.kernel_basis if any(row[:tight])]
    point = solution.particular
    rows = [(tuple(row[p] for row in moving), -point[p], False) for p in range(tight)]
    chain = _fm_chain(rows, len(moving))
    found = _lattice_dfs(chain, len(moving)) if chain is not None else None
    if found is None:
        return MembershipResult("no")
    for k, row in zip(found, moving):
        point = tuple(x + k * y for x, y in zip(point, row))
    lift = max([0] + [-(point[p] // relation[i]) for p, i in enumerate(order[tight:], tight)])
    coeffs = [0] * m
    for p, i in enumerate(order):
        coeffs[i] = point[p] + lift * relation[i]
    total = group.zero()
    for c, g in zip(coeffs, gens):
        total = total + c * g
    if min(coeffs, default=0) < 0 or total != target:
        raise ConsistencyError("semigroup membership witness does not reach the target")
    return MembershipResult("yes", tuple(coeffs))
