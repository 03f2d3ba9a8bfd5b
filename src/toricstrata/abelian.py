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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mod, neg, sub
from typing import Iterable, Sequence

from .errors import ConsistencyError, InputError
from .linalg import (
    IntMatrix,
    IntVec,
    _fm_chain,
    _segment,
    first_lattice_point,
    hermite_normal_form,
    linear_system,
    smith_normal_form,
)

__all__ = [
    "FgAbGroup",
    "GroupElement",
    "MembershipResult",
    "SubgroupHandle",
    "full_subgroup",
    "group_from_cokernel",
    "quotient_group",
    "semigroup_member",
    "subgroup_canon",
    "subgroup_leq",
    "subgroup_structure",
    "subgroups_equal",
]


@dataclass(frozen=True)
class FgAbGroup:
    """``Z^free_rank x Z/torsion[0] x ...`` with a divisibility chain."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        r = self.free_rank
        if not isinstance(r, int) or isinstance(r, bool) or r < 0:
            raise InputError("free rank must be a nonnegative integer")
        prev = None
        for d in self.torsion:
            if not isinstance(d, int) or d < 2:
                raise InputError("torsion orders must be integers >= 2")
            if prev is not None and d % prev:
                raise InputError("torsion orders must form a divisibility chain")
            prev = d

    @property
    def ncoords(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.ncoords == 0

    def order(self) -> int | None:
        """Group order, or ``None`` when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def reduce(self, coords: Sequence[int]) -> IntVec:
        """Check outside coordinates and reduce the torsion ones."""
        if len(coords) != self.ncoords:
            raise InputError("element coordinate length does not match the group")
        for j, x in enumerate(coords):
            if not isinstance(x, int) or isinstance(x, bool):
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


@dataclass(frozen=True)
class GroupElement:
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
    of the ``rows`` standard basis vectors of the target.
    """
    m = a.rows
    u, s, _ = smith_normal_form(a)
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


# ---------------------------------------------------------------------------
# Subgroups


@dataclass(frozen=True)
class SubgroupHandle:
    """Canonical handle: Hermite basis of the preimage lattice in Z^(r+t).

    Construct only through :func:`subgroup_canon`; identical subgroups yield
    byte-identical handles.
    """

    parent: FgAbGroup
    basis: tuple[IntVec, ...]


def _relation_rows(group: FgAbGroup) -> list[IntVec]:
    n = group.ncoords
    r = group.free_rank
    return [
        tuple(group.torsion[j] if c == r + j else 0 for c in range(n))
        for j in range(len(group.torsion))
    ]


def subgroup_canon(group: FgAbGroup, gens: Iterable[GroupElement]) -> SubgroupHandle:
    """Canonicalize the subgroup generated by ``gens``.

    Empty ``gens`` yields the zero subgroup (the relation lattice alone).
    """
    rows = []
    for g in gens:
        if g.group != group:
            raise InputError("generator belongs to a different group")
        rows.append(g.coords)
    rows.extend(_relation_rows(group))
    h = hermite_normal_form(IntMatrix(len(rows), group.ncoords, tuple(rows)))
    basis = tuple(row for row in h.entries if any(row))
    return SubgroupHandle(group, basis)


def _lattice_coordinates(basis: tuple[IntVec, ...], vec: IntVec) -> IntVec | None:
    """Coordinates of an integer vector in a Hermite basis, by one
    back-substitution; ``None`` when it is not in the row lattice."""
    pivot_of = {}
    for idx, row in enumerate(basis):
        for col, x in enumerate(row):
            if x:
                pivot_of[col] = idx
                break
    coords = [0] * len(basis)
    v = list(vec)
    for col in range(len(vec)):
        if v[col] == 0:
            continue
        idx = pivot_of.get(col)
        if idx is None:
            return None
        p = basis[idx][col]
        if v[col] % p:
            return None
        coords[idx] = q = v[col] // p
        v = [x - q * y for x, y in zip(v, basis[idx])]
    return None if any(v) else tuple(coords)


def subgroups_equal(a: SubgroupHandle, b: SubgroupHandle) -> bool:
    if a.parent != b.parent:
        raise InputError("subgroups live in different parent groups")
    return a.basis == b.basis


def subgroup_leq(a: SubgroupHandle, b: SubgroupHandle) -> bool:
    """Whether subgroup ``a`` is contained in subgroup ``b``."""
    if a.parent != b.parent:
        raise InputError("subgroups live in different parent groups")
    return all(_lattice_coordinates(b.basis, row) is not None for row in a.basis)


def full_subgroup(group: FgAbGroup) -> SubgroupHandle:
    return subgroup_canon(group, group.standard_generators())


def is_full(handle: SubgroupHandle) -> bool:
    return subgroups_equal(handle, full_subgroup(handle.parent))


def quotient_group(group: FgAbGroup, sub: SubgroupHandle) -> FgAbGroup:
    """Invariant-factor form of ``group / sub``."""
    if sub.parent != group:
        raise InputError("subgroup does not belong to the given group")
    n = group.ncoords
    k = len(sub.basis)
    cols = IntMatrix(n, k, tuple(tuple(sub.basis[j][i] for j in range(k)) for i in range(n)))
    quotient, _ = group_from_cokernel(cols)
    return quotient


def subgroup_structure(sub: SubgroupHandle) -> FgAbGroup:
    """Abstract invariant-factor form of the subgroup itself."""
    k = len(sub.basis)
    # Express each relation vector in basis coordinates; the subgroup is the
    # cokernel-free presentation L / R in those coordinates.
    cols = []
    for rel in _relation_rows(sub.parent):
        coords = _lattice_coordinates(sub.basis, rel)
        if coords is None:
            raise ConsistencyError("relation vector not contained in subgroup lattice")
        cols.append(coords)
    mat = IntMatrix(k, len(cols), tuple(tuple(col[i] for col in cols) for i in range(k)))
    structure, _ = group_from_cokernel(mat)
    return structure


# ---------------------------------------------------------------------------
# Semigroup membership


@dataclass(frozen=True)
class MembershipResult:
    """Tri-state verdict for nonnegative-combination membership."""

    status: str  # "yes" | "no" | "inconclusive"
    coefficients: IntVec | None = None

    def is_yes(self) -> bool:
        return self.status == "yes"


def _yes(coeffs: Sequence[int]) -> MembershipResult:
    return MembershipResult("yes", tuple(coeffs))


_NO = MembershipResult("no")
_INCONCLUSIVE = MembershipResult("inconclusive")


@lru_cache(maxsize=4096)
def _torsion_closure(
    group: FgAbGroup, gens: tuple[IntVec, ...]
) -> dict[IntVec, IntVec]:
    """Reachable elements of a finite group with one coefficient vector each."""
    zero = tuple(0 for _ in range(group.ncoords))
    none = tuple(0 for _ in range(len(gens)))
    seen: dict[IntVec, IntVec] = {zero: none}
    frontier = [zero]
    while frontier:
        nxt = []
        for coords in frontier:
            base = seen[coords]
            for i, g in enumerate(gens):
                new = group._reduced(tuple(a + b for a, b in zip(coords, g)))
                if new not in seen:
                    seen[new] = tuple(
                        c + (1 if j == i else 0) for j, c in enumerate(base)
                    )
                    nxt.append(new)
        frontier = nxt
    return seen


def _coefficient_suprema(
    gens: Sequence[GroupElement], target: GroupElement
) -> list[Fraction | None] | None:
    """sup of each coefficient over the rational polytope
    ``{c >= 0 : sum c_i * free(g_i) == free(target)}``.

    Returns ``None`` when the polytope is empty (a certified miss); entries
    are ``None`` when the coefficient is unbounded above.
    """
    m = len(gens)
    r = gens[0].group.free_rank
    tf = target.free_part()
    sups: list[Fraction | None] = []
    for i in range(m):
        # Fourier-Motzkin chain with coefficient i placed first, so the
        # deepest projection bounds exactly that coefficient.
        order = [i] + [j for j in range(m) if j != i]
        rows: list[tuple[IntVec, int, bool]] = []
        for fc in range(r):
            coeffs = tuple(gens[order[p]].coords[fc] for p in range(m))
            rows.append((coeffs, tf[fc], False))
            rows.append((tuple(-x for x in coeffs), -tf[fc], False))
        for q in range(m):
            rows.append((tuple(1 if p == q else 0 for p in range(m)), 0, False))
        chain = _fm_chain(rows, m)
        if chain is None:
            return None
        _, upper = _segment(chain[1], 0, [])
        sups.append(upper[0] if upper is not None else None)
    return sups


def _mixed_search(
    group: FgAbGroup,
    gens: Sequence[GroupElement],
    target: GroupElement,
    cbounds: Sequence[int],
) -> IntVec | None:
    """First nonnegative integer combination within per-coefficient bounds.

    Torsion congruences are encoded with one auxiliary integer per torsion
    coordinate; the search box is widened so the auxiliaries are never
    clipped.
    """
    m = len(gens)
    r = group.free_rank
    t = len(group.torsion)
    dim = m + t
    eqs = []
    for fc in range(r):
        coeffs = tuple(g.coords[fc] for g in gens) + tuple(0 for _ in range(t))
        eqs.append((coeffs, target.coords[fc]))
    for j, d in enumerate(group.torsion):
        coeffs = tuple(g.coords[r + j] for g in gens) + tuple(
            -d if jj == j else 0 for jj in range(t)
        )
        eqs.append((coeffs, target.coords[r + j]))
    ineqs = []
    for i in range(m):
        unit = tuple(1 if p == i else 0 for p in range(dim))
        ineqs.append((unit, 0, False))
        ineqs.append((tuple(-x for x in unit), -cbounds[i], False))
    cmax = max(cbounds, default=0)
    gmax = max(
        (abs(g.coords[r + j]) for g in gens for j in range(t)), default=0
    )
    tmax = max((abs(target.coords[r + j]) for j in range(t)), default=0)
    aux = (m * cmax * gmax + tmax) // 2 + 1 if t else 0
    box = max(cmax, aux)
    pt = first_lattice_point(linear_system(dim, eqs, ineqs), box)
    return pt[:m] if pt is not None else None


def semigroup_member(
    group: FgAbGroup,
    gens: Sequence[GroupElement],
    target: GroupElement,
    coeff_bound: int = 16,
) -> MembershipResult:
    """Is ``target`` a nonnegative integer combination of ``gens``?

    Complete for finite groups (closure walk) and whenever the rational
    coefficient polytope is bounded (exhaustive boxed search); otherwise a
    bounded search up to ``coeff_bound`` that may honestly return
    inconclusive.
    """
    for g in gens:
        if g.group != group:
            raise InputError("generator belongs to a different group")
    if target.group != group:
        raise InputError("target belongs to a different group")
    if coeff_bound < 1:
        raise InputError("coefficient bound must be positive")

    if target.is_zero():
        return _yes(tuple(0 for _ in gens))
    if not gens:
        return _NO

    if group.free_rank == 0:
        closure = _torsion_closure(group, tuple(g.coords for g in gens))
        hit = closure.get(target.coords)
        return _yes(hit) if hit is not None else _NO

    found = _mixed_search(group, gens, target, [coeff_bound] * len(gens))
    if found is not None:
        return _yes(found)

    sups = _coefficient_suprema(gens, target)
    if sups is None:
        return _NO
    if any(s is None for s in sups):
        return _INCONCLUSIVE
    bounds = [int(s) for s in sups]  # floor of exact rational suprema
    size = 1
    for b in bounds:
        size *= b + 1
    if size > 2_000_000:
        return _INCONCLUSIVE
    if all(b <= coeff_bound for b in bounds):
        return _NO  # the first search already exhausted the polytope
    found = _mixed_search(group, gens, target, bounds)
    return _yes(found) if found is not None else _NO
