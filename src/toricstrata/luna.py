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
the 65,536 subsets of its rays.  One kernel fold over the coordinates of
the parts gives their Gale vectors, and each circuit is the bitset of the
parts off a facet of their cone, from the double description of
:mod:`toricstrata.cones`; closed sets are bitsets over the same sorted
parts.  The double description, the union closure and the listing of the
supports each count their work against ``errors.MAX_WORK``.

The module also provides the two bridges to toric geometry: reading the
weight system off divisor classes, and Gale duality, which rebuilds the
cone from a strongly stable weight system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import or_
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
from .divisors import ToricData, _check_toric
from .errors import ConsistencyError, InputError, _Record, _check_work
from .linalg import (
    IntMatrix,
    IntVec,
    _kernel,
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

@dataclass(init=False, repr=False, eq=False)
class WeightSystem(_Record):
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
    _check_toric(toric)
    return WeightSystem(toric.class_group, toric.divisor_classes)


def _check_weight_system(ws) -> None:
    if not isinstance(ws, WeightSystem):
        raise InputError("weight system must be a WeightSystem")


def _checked_support(ws: WeightSystem, support) -> tuple[int, ...]:
    _check_weight_system(ws)
    try:
        idx = list(support)
    except TypeError:
        raise InputError("support must be given as an iterable of indices") from None
    if any(not isinstance(i, int) or isinstance(i, bool) for i in idx):
        raise InputError("support index must be an integer")
    idx = sorted(set(idx))
    if idx and (idx[0] < 0 or idx[-1] >= ws.ncoordinates):
        raise InputError("support index out of range")
    return tuple(idx)


def _part_bits(weights) -> tuple[list[IntVec], list[int]]:
    """The distinct nonzero free parts of ``weights``, sorted, over which
    circuits and closed sets are bitsets, and each weight's bit among them:
    ``1 << k`` for part ``k``, 0 for a zero part."""
    free = [w.free_part() for w in weights]
    parts = sorted({p for p in free if any(p)})
    bit = {p: 1 << k for k, p in enumerate(parts)}
    return parts, [bit.get(p, 0) for p in free]


def _positive_circuits(parts: list[IntVec]) -> list[int]:
    """The positive circuits of the distinct nonzero ``parts`` as bitsets:
    the minimal sets of parts with a relation of one sign.

    Part ``i``'s Gale vector holds the ``i``-th coefficients of the Hermite
    basis of the relations among the parts, so every relation pairs the
    Gale vectors with a functional (Ziegler, *Lectures on Polytopes*,
    ch. 6).  A minimal support is the set of parts off a hyperplane spanned
    by Gale vectors, with a one-signed relation exactly when that
    hyperplane is a facet of their cone, which need not be pointed: each
    circuit is the complement of a facet's zero set.
    """
    relations = _kernel(list(zip(*parts)), len(parts))
    if not relations:
        return []
    hyperplanes = cones._supporting_hyperplanes(list(zip(*relations)), len(relations))
    every = (1 << len(parts)) - 1
    return [every ^ zeros for zeros in hyperplanes.values()]


def _closed_part_sets(parts: list[IntVec]) -> Iterator[int]:
    """Every closed subset of the distinct nonzero ``parts``, as a bitset:
    the union closure of the positive circuits, the empty set first,
    yielded as found so a caller can stop.  Each set yielded is then joined
    with every circuit, and those joins are counted against ``MAX_WORK``
    before they are made; they bound the sets found, too.  Depth first, the
    joins soon reach large unions, which they mostly find again."""
    circuits = _positive_circuits(parts)
    seen, frontier, joins = {0}, [0], 0
    while frontier:
        s = frontier.pop()
        yield s
        joins += len(circuits)
        _check_work("union closure", joins)
        for circuit in circuits:
            t = s | circuit
            if t not in seen:
                seen.add(t)
                frontier.append(t)


def _covered(mask: int, circuits: list[int]) -> bool:
    """Do the positive circuits inside ``mask`` cover it?  A subset's
    circuits are those of the whole inside it, so one list serves them all."""
    return reduce(or_, (c for c in circuits if c | mask == mask), 0) == mask


def is_closed_support(ws: WeightSystem, support) -> bool:
    """Are the orbits of points with this support closed, that is, do the
    positive circuits among its nonzero free parts cover them?"""
    parts, _ = _part_bits(ws.weights[i] for i in _checked_support(ws, support))
    return _covered((1 << len(parts)) - 1, _positive_circuits(parts))


def weight_subgroup(ws: WeightSystem, support) -> SubgroupHandle:
    """Canonical subgroup generated by the weights in the support.

    Two closed supports lie in the same Luna stratum exactly when these
    subgroups coincide.
    """
    support = _checked_support(ws, support)
    return subgroup_canon(ws.group, tuple(ws.weights[i] for i in support))


@dataclass(init=False, repr=False, eq=False)
class LunaStratum(_Record):
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
    index of every part in it, plus any indices of zero free part.  Each
    support is counted against ``MAX_WORK`` by the most indices it can hold,
    before any is listed.
    """
    parts, bits = _part_bits(ws.weights)
    indices = [[i for i, bit in enumerate(bits) if bit == 1 << k] for k in range(len(parts))]
    invariant = [i for i, bit in enumerate(bits) if not bit]
    closed_sets, count = [], 0
    for mask in _closed_part_sets(parts):
        closed = cones._ray_list_of(mask)
        supports = math.prod((1 << len(indices[k])) - 1 for k in closed) << len(invariant)
        count += supports * (len(invariant) + sum(len(indices[k]) for k in closed))
        _check_work("closed supports", count)
        closed_sets.append(closed)
    # Only parts in some closed set are expanded: a part in none has no
    # bound on its index subsets.
    nonempty = {k: _subsets(indices[k])[1:] for k in set().union(*closed_sets)}
    free = _subsets(invariant)
    supports = []
    for closed in closed_sets:
        for pieces in product(*(nonempty[k] for k in closed), free):
            supports.append(tuple(sorted(i for piece in pieces for i in piece)))
    return supports


def luna_strata(ws: WeightSystem) -> tuple[LunaStratum, ...]:
    """All Luna strata, sorted by descending dimension.

    The closed sets of free parts are the unions of positive circuits (see
    ``_closed_part_sets``), so the work follows the number of closed
    supports, not the 2^m index subsets.  A stratum's dimension is ``max
    |support| - free_rank`` of its subgroup's structure: the free rank of
    the subgroup is the rational rank of its weights.
    """
    _check_weight_system(ws)
    classes: dict[tuple, tuple[SubgroupHandle, list[tuple[int, ...]]]] = {}
    # The subgroup depends only on the set of weights, and supports that
    # differ by repeated weights share it.
    by_weights: dict[frozenset[IntVec], SubgroupHandle] = {}
    for support in _closed_supports(ws):
        key = frozenset(ws.weights[i].coords for i in support)
        sub = by_weights.get(key)
        if sub is None:
            sub = by_weights[key] = subgroup_canon(ws.group, [ws.weights[i] for i in support])
        classes.setdefault(sub.basis, (sub, []))[1].append(support)
    strata = []
    for sub, supports in classes.values():
        structure = subgroup_structure(sub)
        dim = max(len(s) for s in supports) - structure.free_rank
        strata.append(LunaStratum(sub, structure, tuple(sorted(supports)), dim))
    strata.sort(key=lambda s: (-s.dim, s.subgroup.basis))
    return tuple(strata)


@dataclass(init=False, repr=False, eq=False)
class StabilityFailure(_Record):
    """A support, as sorted coordinate indices, on which strong stability
    fails, and why."""

    support: tuple[int, ...]
    reason: str  # "orbit-not-closed" | "stabilizer-nontrivial"


@dataclass(init=False, repr=False, eq=False)
class StabilityReport(_Record):
    """Result of :func:`check_strongly_stable`: ``stable`` exactly when
    ``failures`` is empty."""

    stable: bool
    failures: tuple[StabilityFailure, ...]


def check_strongly_stable(ws: WeightSystem) -> StabilityReport:
    """Is the action free with closed orbits away from codimension two?

    Checked on the full support and every support missing one coordinate:
    each must be closed and must generate the whole character group
    (trivial stabilizer).
    """
    _check_weight_system(ws)
    m = ws.ncoordinates
    supports = [tuple(range(m))]
    supports.extend(
        tuple(j for j in range(m) if j != i) for i in range(m)
    )
    parts, bits = _part_bits(ws.weights)
    circuits = _positive_circuits(parts)
    failures = []
    for support in supports:
        if not _covered(reduce(or_, (bits[i] for i in support), 0), circuits):
            failures.append(StabilityFailure(support, "orbit-not-closed"))
        if not is_full(subgroup_canon(ws.group, [ws.weights[i] for i in support])):
            failures.append(StabilityFailure(support, "stabilizer-nontrivial"))
    return StabilityReport(not failures, tuple(failures))


@dataclass(init=False, repr=False, eq=False)
class GaleDual(_Record):
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
    # coordinates is the invariant-character lattice.  A kernel vector with
    # a = 0 has k = 0, so the projection is injective: every pivot of the
    # kernel's Hermite basis lies among the a coordinates, and the projected
    # rows are the Hermite basis of the invariant-character lattice.
    eqs = [
        tuple(w.coords[row] for w in ws.weights)
        + tuple(-d if row == r + j else 0 for j, d in enumerate(torsion))
        for row in range(r + t)
    ]
    kernel = _kernel(eqs, m + t)
    projected = tuple(vec[:m] for vec in kernel)
    d = m - r
    if len(projected) != d:
        raise ConsistencyError(
            f"invariant-character lattice has rank {len(projected)}, expected {d}"
        )
    basis = IntMatrix(d, m, projected)
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
    parts, bits = _part_bits(ws.weights)
    circuits = _positive_circuits(parts)
    mapping: dict[Face, tuple[int, ...]] = {}
    for face in toric.faces:
        inside = set(face.ray_indices)
        support = tuple(i for i in range(toric.cone.nrays) if i not in inside)
        if not _covered(reduce(or_, (bits[i] for i in support), 0), circuits):
            raise ConsistencyError(
                f"support {support} of face {face.ray_indices} is not closed"
            )
        mapping[face] = support
    return mapping
