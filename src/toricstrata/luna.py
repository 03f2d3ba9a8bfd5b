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

Closedness depends only on the set of nonzero free parts in the support,
which is closed exactly when it supports a point of the pointed relation
cone ``{c >= 0 : sum c_p * p = 0}``.  The extreme rays of that cone are the
positive circuits, minimal dependent sets of parts whose relation has one
sign (Ziegler, *Lectures on Polytopes*, ch. 6), so the closed sets are the
unions of positive circuits, found with no linear program: the rank-3 cone
over a lattice 16-gon has 16 positive circuits and 34 closed supports among
the 65,536 subsets of its rays.  One Hermite form of the parts gives their
rank and Gale vectors; the circuits are read off the supporting hyperplanes
of the Gale vectors, or off the subsets of parts when those need smaller
minors, with the hyperplane scan and candidate limit of
:mod:`toricstrata.cones`.

The module also provides the two bridges to toric geometry: reading the
weight system off divisor classes, and Gale duality, which rebuilds the
cone from a strongly stable weight system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

from .abelian import (
    FgAbGroup,
    GroupElement,
    SubgroupHandle,
    subgroup_canon,
    subgroup_structure,
    is_full,
)
from . import cones
from .cones import Cone, Face, build_cone
from .divisors import ToricData
from .errors import ConsistencyError, InputError
from .linalg import (
    IntMatrix,
    IntVec,
    _equation_form,
    _form_kernel,
    _maximal_minors,
    _pivot_index,
    hermite_normal_form,
    primitive_vector,
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

# Limit on the listed closed supports, checked before they are listed; the
# circuit candidates share ``cones.MAX_FACET_CANDIDATES``.
MAX_SUPPORTS = 1 << 20


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
    if not isinstance(group, FgAbGroup):
        raise InputError("group must be an FgAbGroup")
    weights = []
    try:
        rows = iter(rows)
    except TypeError:
        raise InputError("weights must be given as an iterable of rows") from None
    for idx, row in enumerate(rows):
        try:
            weights.append(group.element(tuple(row)))
        except TypeError:
            raise InputError(f"weight {idx} is not a sequence of coordinates") from None
        except InputError as exc:
            raise InputError(f"weight {idx}: {exc}")
    return WeightSystem(group, tuple(weights))


def cox_weight_system(toric: ToricData) -> WeightSystem:
    """The characteristic quasitorus action attached to a toric variety."""
    return WeightSystem(toric.class_group, toric.divisor_classes)


def _checked_support(ws: WeightSystem, support) -> tuple[int, ...]:
    idx = list(support)
    if any(not isinstance(i, int) or isinstance(i, bool) for i in idx):
        raise InputError("support index must be an integer")
    idx = sorted(set(idx))
    if idx and (idx[0] < 0 or idx[-1] >= ws.ncoordinates):
        raise InputError("support index out of range")
    return tuple(idx)


def _positive_circuits(parts: frozenset[IntVec]) -> set[frozenset[IntVec]]:
    """The positive circuits of ``parts``: the minimal sets of parts with a
    relation whose coefficients all have one sign.

    One Hermite form of ``[V | I]``, ``V`` the parts as rows, gives their
    rank ``r``, ``r`` coordinates on which they stay independent (the
    pivots of its first ``r`` rows), and a basis of their relations (its
    last rows), whose columns are the ``e = n - r`` Gale vectors.  Both
    sides below scan the same C(n, r+1) = C(n, e-1) candidates, each one
    ``k x (k+1)`` minor vector, so the side with ``k = min(r, e-1)`` is
    taken: many parts of low rank would otherwise cost large minors (40
    distinct weights in Z take about 0.01 s on the subset side and 5.6 s on
    the Gale side).
    """
    vs = sorted(parts)
    if not vs:
        return set()
    n = len(vs)
    form = _equation_form(tuple(zip(*vs)), n)
    relations = _form_kernel(form, len(vs[0]))
    rank = n - len(relations)
    candidates = math.comb(n, rank + 1)
    if candidates > cones.MAX_FACET_CANDIDATES:
        raise InputError(
            f"{candidates} positive-circuit candidates ({rank + 1}-subsets of "
            f"{n} parts) exceed the limit of {cones.MAX_FACET_CANDIDATES}"
        )
    if not relations:
        return set()
    if len(relations) - 1 <= rank:
        return _gale_side_circuits(vs, relations)
    pivots = list(_pivot_index(form[:rank]))
    return _subset_side_circuits(vs, [tuple(v[j] for j in pivots) for v in vs])


def _gale_side_circuits(
    vs: list[IntVec], relations: tuple[IntVec, ...]
) -> set[frozenset[IntVec]]:
    """Positive circuits from a basis of the relations among ``vs``.

    Part ``i``'s Gale vector holds the ``i``-th coefficients of the basis
    relations, so every relation is the pairing of the Gale vectors with a
    functional (Ziegler, *Lectures on Polytopes*, ch. 6).  A circuit, a
    minimal support, is the set of parts whose Gale vectors lie off a
    hyperplane spanned by Gale vectors, and its relation has one sign
    exactly when that hyperplane supports their cone, which need not be
    pointed.
    """
    hyperplanes = cones._supporting_hyperplanes(list(zip(*relations)), len(relations))
    return {
        frozenset(v for v, p in zip(vs, pairings) if p)
        for pairings in hyperplanes.values()
    }


def _subset_side_circuits(
    vs: list[IntVec], projected: list[IntVec]
) -> set[frozenset[IntVec]]:
    """Positive circuits of ``vs`` from their images ``projected`` on ``r``
    coordinates where they keep rank ``r``: a circuit extended by parts
    independent of it is an ``(r+1)``-subset whose maximal minors are the
    circuit's one relation."""
    circuits = set()
    for subset in combinations(range(len(vs)), len(projected[0]) + 1):
        relation = _maximal_minors(tuple(zip(*(projected[i] for i in subset))))
        if any(relation) and (min(relation) >= 0 or max(relation) <= 0):
            circuits.add(frozenset(vs[i] for i, c in zip(subset, relation) if c))
    return circuits


def _closed_part_sets(parts: frozenset[IntVec]) -> Iterator[frozenset[IntVec]]:
    """Every closed subset of ``parts``: the union closure of the positive
    circuits, the empty set first, yielded as found so a caller can stop."""
    circuits = _positive_circuits(parts)
    found = [frozenset()]
    seen = set(found)
    for s in found:
        yield s
        for circuit in circuits:
            t = s | circuit
            if t not in seen:
                seen.add(t)
                found.append(t)


def _free_parts(ws: WeightSystem, support) -> frozenset[IntVec]:
    parts = (ws.weights[i].free_part() for i in support)
    return frozenset(p for p in parts if any(p))


def _covered(parts: frozenset[IntVec], circuits: set[frozenset[IntVec]]) -> bool:
    """Do the positive circuits inside ``parts`` cover it?  A subset's
    circuits are those of the whole inside it, so one list serves them all."""
    return frozenset().union(*(c for c in circuits if c <= parts)) == parts


def is_closed_support(ws: WeightSystem, support) -> bool:
    """Are the orbits of points with this support closed, that is, do the
    positive circuits among its nonzero free parts cover them?"""
    parts = _free_parts(ws, _checked_support(ws, support))
    return _covered(parts, _positive_circuits(parts))


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


def _subsets(indices: list[int]) -> list[tuple[int, ...]]:
    """All subsets of ``indices``, the empty one first."""
    return [
        tuple(i for k, i in enumerate(indices) if mask >> k & 1)
        for mask in range(1 << len(indices))
    ]


def _closed_supports(ws: WeightSystem) -> list[tuple[int, ...]]:
    """Every closed index support.

    A support is closed exactly when its set of nonzero free parts is, so
    each closed set of parts expands into the supports holding at least one
    index of every part in it, plus any indices of zero free part.
    """
    by_part: dict[IntVec, list[int]] = {}
    invariant = []
    for i, w in enumerate(ws.weights):
        part = w.free_part()
        if any(part):
            by_part.setdefault(part, []).append(i)
        else:
            invariant.append(i)
    closed_sets, count = [], 0
    for closed in _closed_part_sets(frozenset(by_part)):
        count += math.prod((1 << len(by_part[p])) - 1 for p in closed) << len(invariant)
        if count > MAX_SUPPORTS:
            raise InputError(f"more closed supports than the limit of {MAX_SUPPORTS}")
        closed_sets.append(closed)
    # Only parts in some closed set are expanded: a part in none has no
    # bound on its index subsets.
    nonempty = {p: _subsets(by_part[p])[1:] for p in frozenset().union(*closed_sets)}
    free = _subsets(invariant)
    supports = []
    for closed in closed_sets:
        for pieces in product(*(nonempty[p] for p in closed), free):
            supports.append(tuple(sorted(i for piece in pieces for i in piece)))
    return supports


def luna_strata(ws: WeightSystem) -> tuple[LunaStratum, ...]:
    """All Luna strata, sorted by descending dimension.

    The closed sets of free parts are the unions of positive circuits (see
    ``_closed_part_sets``), so the work follows the number of closed
    supports, not the 2^m index subsets; the circuit candidates and the
    supports are limited before they are computed.  A stratum's dimension
    is ``max |support| - free_rank`` of its subgroup's structure: the free
    rank of the subgroup is the rational rank of its weights.
    """
    classes: dict[tuple, tuple[SubgroupHandle, list[tuple[int, ...]]]] = {}
    # The subgroup depends only on the set of weights, and supports that
    # differ by repeated weights share it.
    by_weights: dict[frozenset[IntVec], SubgroupHandle] = {}
    for support in _closed_supports(ws):
        key = frozenset(ws.weights[i].coords for i in support)
        sub = by_weights.get(key)
        if sub is None:
            sub = by_weights[key] = subgroup_canon(ws.group, [ws.weights[i] for i in support])
        entry = classes.get(sub.basis)
        if entry is None:
            classes[sub.basis] = (sub, [support])
        else:
            entry[1].append(support)
    strata = []
    for sub, supports in classes.values():
        structure = subgroup_structure(sub)
        dim = max(len(s) for s in supports) - structure.free_rank
        strata.append(LunaStratum(sub, structure, tuple(sorted(supports)), dim))
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
    circuits = _positive_circuits(_free_parts(ws, range(m)))
    failures = []
    for support in supports:
        if not _covered(_free_parts(ws, support), circuits):
            failures.append(StabilityFailure(support, "orbit-not-closed"))
        if not is_full(subgroup_canon(ws.group, [ws.weights[i] for i in support])):
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
    eqs = [
        tuple(w.coords[row] for w in ws.weights)
        + tuple(-d if row == r + j else 0 for j, d in enumerate(torsion))
        for row in range(r + t)
    ]
    kernel = _form_kernel(_equation_form(eqs, m + t), r + t)
    projected = [vec[:m] for vec in kernel]
    d = m - r
    if len(projected) != d:
        raise ConsistencyError(
            f"invariant-character lattice has rank {len(projected)}, expected {d}"
        )
    hnf = hermite_normal_form(IntMatrix(d, m, tuple(projected)))
    basis = IntMatrix(d, m, hnf.entries[:d])
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
    circuits = _positive_circuits(_free_parts(ws, range(ws.ncoordinates)))
    mapping: dict[Face, tuple[int, ...]] = {}
    for face in toric.faces:
        inside = set(face.ray_indices)
        support = tuple(i for i in range(toric.cone.nrays) if i not in inside)
        if not _covered(_free_parts(ws, support), circuits):
            raise ConsistencyError(
                f"support {support} of face {face.ray_indices} is not closed"
            )
        mapping[face] = support
    return mapping
