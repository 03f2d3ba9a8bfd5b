"""Luna strata of a diagonal quasitorus action on affine space.

The action is given by a finitely generated abelian group (the character
group of the quasitorus) and one character weight per coordinate.  Points
are classified by their support, the set of coordinates that are nonzero:

* a support is *closed* when the orbits of points with that support are
  closed, which happens exactly when the rational cone spanned by the
  weights in the support is a linear subspace;
* two points with closed orbits lie in the same Luna stratum of the
  quotient exactly when their supports generate the same subgroup of the
  character group (equal stabilizers).

The module also provides the two bridges to toric geometry: reading the
weight system off divisor classes, and Gale duality, which rebuilds the
cone from a strongly stable weight system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import (
    FgAbGroup,
    GroupElement,
    SubgroupHandle,
    rank_over_rationals,
    subgroup_canon,
    subgroup_structure,
    is_full,
)
from .cones import Cone, Face, build_cone
from .divisors import ToricData
from .errors import ConsistencyError, InputError
from .linalg import (
    IntMatrix,
    IntVec,
    hermite_normal_form,
    linear_system,
    primitive_vector,
    rational_feasible,
    solve_integer_system,
)

__all__ = [
    "GaleDual",
    "LunaStratum",
    "StabilityFailure",
    "StabilityReport",
    "WeightSystem",
    "check_strongly_stable",
    "cox_weight_system",
    "face_support_bridge",
    "gale_dual",
    "is_closed_support",
    "luna_strata",
    "weight_subgroup",
    "weight_system",
]

MAX_WEIGHTS = 20


@dataclass(frozen=True)
class WeightSystem:
    """A quasitorus action: character group plus one weight per coordinate."""

    group: FgAbGroup
    weights: tuple[GroupElement, ...]

    @property
    def ncoordinates(self) -> int:
        return len(self.weights)


def weight_system(group: FgAbGroup, rows) -> WeightSystem:
    """Build a weight system from raw coordinate rows (free coords first)."""
    weights = []
    for idx, row in enumerate(rows):
        row = tuple(row)
        try:
            for j, x in enumerate(row):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InputError(f"coordinate {j} must be an integer")
            weights.append(group.element(row))
        except InputError as exc:
            raise InputError(f"weight {idx}: {exc}")
    return WeightSystem(group, tuple(weights))


def cox_weight_system(toric: ToricData) -> WeightSystem:
    """The characteristic quasitorus action attached to a toric variety."""
    return WeightSystem(toric.class_group, toric.divisor_classes)


def _checked_support(ws: WeightSystem, support) -> tuple[int, ...]:
    idx = sorted(set(support))
    if idx and (idx[0] < 0 or idx[-1] >= ws.ncoordinates):
        raise InputError("support index out of range")
    return tuple(idx)


@lru_cache(maxsize=65536)
def _spans_rational_subspace(parts: frozenset[IntVec]) -> bool:
    """Do the vectors positively span a linear subspace?

    Equivalent to a single feasibility question: some rational combination
    with every coefficient at least 1 sums to zero.
    """
    vs = sorted(parts)
    if not vs:
        return True
    dim = len(vs[0])
    eqs = [(tuple(v[k] for v in vs), 0) for k in range(dim)]
    ineqs = [
        (tuple(1 if j == i else 0 for j in range(len(vs))), 1, False)
        for i in range(len(vs))
    ]
    return rational_feasible(linear_system(len(vs), eqs, ineqs)) is not None


def is_closed_support(ws: WeightSystem, support) -> bool:
    """Are the orbits of points with this support closed?"""
    support = _checked_support(ws, support)
    parts = frozenset(
        ws.weights[i].free_part()
        for i in support
        if any(ws.weights[i].free_part())
    )
    return _spans_rational_subspace(parts)


def weight_subgroup(ws: WeightSystem, support) -> SubgroupHandle:
    """Canonical subgroup generated by the weights in the support.

    Two closed supports lie in the same Luna stratum exactly when these
    subgroups coincide.
    """
    support = _checked_support(ws, support)
    return subgroup_canon(ws.group, tuple(ws.weights[i] for i in support))


@dataclass(frozen=True)
class LunaStratum:
    """One stratum of the quotient: a subgroup class of closed supports."""

    subgroup: SubgroupHandle
    structure: FgAbGroup
    supports: tuple[tuple[int, ...], ...]
    dim: int


def luna_strata(ws: WeightSystem) -> tuple[LunaStratum, ...]:
    """All Luna strata, sorted by descending dimension.

    Enumerates every index subset, so the number of weights is capped.
    Stratum dimension is the largest ``|support| - rational rank`` over the
    supports in the class.
    """
    m = ws.ncoordinates
    if m > MAX_WEIGHTS:
        raise InputError(
            f"stratification enumerates all index subsets; "
            f"{m} weights exceed the limit of {MAX_WEIGHTS}"
        )
    classes: dict[tuple, tuple[SubgroupHandle, list[tuple[int, ...]]]] = {}
    for mask in range(1 << m):
        support = tuple(i for i in range(m) if mask >> i & 1)
        if not is_closed_support(ws, support):
            continue
        sub = weight_subgroup(ws, support)
        entry = classes.get(sub.basis)
        if entry is None:
            classes[sub.basis] = (sub, [support])
        else:
            entry[1].append(support)
    strata = []
    for sub, supports in classes.values():
        gens = tuple(ws.group.element(b) for b in sub.basis)
        rank = rank_over_rationals(ws.group, gens)
        dim = max(len(s) for s in supports) - rank
        strata.append(
            LunaStratum(sub, subgroup_structure(sub), tuple(sorted(supports)), dim)
        )
    strata.sort(key=lambda s: (-s.dim, s.subgroup.basis))
    return tuple(strata)


@dataclass(frozen=True)
class StabilityFailure:
    support: tuple[int, ...]
    reason: str  # "orbit-not-closed" | "stabilizer-nontrivial"


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    failures: tuple[StabilityFailure, ...]


def check_strongly_stable(ws: WeightSystem) -> StabilityReport:
    """Is the action free with closed orbits away from codimension two?

    Checked on the full support and every support missing one coordinate:
    each must be closed and must generate the whole character group
    (trivial stabilizer).
    """
    m = ws.ncoordinates
    supports = [tuple(range(m))]
    supports.extend(
        tuple(j for j in range(m) if j != i) for i in range(m)
    )
    failures = []
    for support in supports:
        if not is_closed_support(ws, support):
            failures.append(StabilityFailure(support, "orbit-not-closed"))
        if not is_full(weight_subgroup(ws, support)):
            failures.append(StabilityFailure(support, "stabilizer-nontrivial"))
    return StabilityReport(not failures, tuple(failures))


@dataclass(frozen=True)
class GaleDual:
    """Result of Gale duality: the rebuilt cone and the character sublattice.

    ``lattice_basis`` rows span, inside the coordinate lattice of the
    affine space, the characters invariant under the quasitorus; ray ``i``
    of the cone is the primitivized ``i``-th coordinate functional written
    in that basis.
    """

    cone: Cone
    lattice_basis: IntMatrix


def gale_dual(ws: WeightSystem) -> GaleDual:
    """Rebuild the toric variety presented by a strongly stable action."""
    report = check_strongly_stable(ws)
    if not report.stable:
        what = ", ".join(
            f"{f.reason} at support {f.support}" for f in report.failures[:3]
        )
        raise InputError(f"Gale duality needs a strongly stable action; found {what}")
    m = ws.ncoordinates
    r = ws.group.free_rank
    torsion = ws.group.torsion
    t = len(torsion)
    if m <= r:
        raise InputError("need more weights than the free rank to span a cone")

    # Kernel of (a, k) |-> sum a_i * w_i - sum k_j * d_j * e_j over the
    # free-plus-torsion coordinate presentation; its projection to the a
    # coordinates is the invariant-character lattice.
    eqs = []
    for row in range(r + t):
        coeffs = [ws.weights[i].coords[row] for i in range(m)]
        coeffs.extend(
            -torsion[j] if row == r + j else 0 for j in range(t)
        )
        eqs.append((tuple(coeffs), 0))
    solution = solve_integer_system(linear_system(m + t, eqs))
    if solution is None:
        raise ConsistencyError("homogeneous system lost its zero solution")
    projected = [vec[:m] for vec in solution.kernel_basis]
    d = m - r
    if len(projected) != d:
        raise ConsistencyError(
            f"invariant-character lattice has rank {len(projected)}, expected {d}"
        )
    hnf, _ = hermite_normal_form(IntMatrix.from_rows(projected, cols=m))
    basis = IntMatrix.from_rows([hnf.row(k) for k in range(d)], cols=m)
    rays = []
    for i in range(m):
        column = basis.column(i)
        if not any(column):
            raise InputError(
                f"coordinate {i} pairs to zero with every invariant character"
            )
        rays.append(primitive_vector(column))
    try:
        cone = build_cone(d, rays)
    except InputError as exc:
        raise InputError(f"weights do not present a pointed cone: {exc}")
    return GaleDual(cone, basis)


def face_support_bridge(toric: ToricData) -> dict[Face, tuple[int, ...]]:
    """Map each face to the support of the closed orbits above its orbit.

    The support is the set of rays outside the face.  Every such support
    must be closed for the characteristic action; a failure means the two
    computation routes disagree.
    """
    ws = cox_weight_system(toric)
    mapping: dict[Face, tuple[int, ...]] = {}
    for face in toric.faces:
        inside = set(face.ray_indices)
        support = tuple(i for i in range(toric.cone.nrays) if i not in inside)
        if not is_closed_support(ws, support):
            raise ConsistencyError(
                f"support {support} of face {face.ray_indices} is not closed"
            )
        mapping[face] = support
    return mapping
