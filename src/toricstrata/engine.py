"""Orbit stratification of an affine toric variety, cross-validated.

The stratification is computed three independent ways and the results are
compared before a report is returned:

* route one groups faces of the cone by the subgroup of the divisor class
  group generated by the classes of rays outside the face;
* route two finds the closed supports of the characteristic quasitorus
  action on the total coordinate space from its positive circuits and
  checks that they are exactly the face complements;
* route three connects orbits by explicit one-parameter automorphism
  subgroups, each backed by a re-validated root.

The quasitorus weights are the divisor classes, so the subgroup of a
closed support is route one's subgroup of the face it complements: route
two's independent evidence is the supports themselves and each stratum's
Luna dimension (its largest support less the free rank of its subgroup),
which must equal its orbit dimension.  Routes one and two must agree
exactly, and the components of route three must reproduce the strata
exactly: every connection verdict is decided, so no comparison is left
open.  The semigroup-equals-group identity holds for every face: its
face functional is certified when the cone's face table is built, and the
principal classes by ``divisors.build_toric``.  Any disagreement raises
:class:`~toricstrata.errors.ConsistencyError` because it can only mean a
bug, never a property of the input.  The closure order of the strata is
read off the facet covers of the cone's face table, and each covering pair
is re-checked against route one's subgroups.  Route one's quotients and
subgroup structures come from invariant factors alone; the one Smith form
with transforms is the class group's, in ``divisors.build_toric``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import luna
from .abelian import FgAbGroup, GroupElement, SubgroupHandle, subgroup_leq, subgroup_structure
from .cones import Cone, Face, _check_cone, _face_entry, _ray_list_of, _split
from .divisors import FaceOrbitData, build_toric, face_orbit_data
from .errors import ConsistencyError, InputError, _Record
from .linalg import IntVec
from .luna import cox_weight_system
from .roots import ConnectionGraph, connection_graph, graph_components

__all__ = [
    "CrossChecks",
    "StratificationReport",
    "Stratum",
    "closure_edges",
    "stratify",
]


@dataclass(init=False, repr=False, eq=False)
class Stratum(_Record):
    """One orbit of the connected automorphism group.

    ``faces`` lists the cone faces whose torus orbits this stratum unites;
    dimensions include the torus factor of a degenerate input.
    """

    index: int
    subgroup: SubgroupHandle
    structure: FgAbGroup
    local_class_group: FgAbGroup
    faces: tuple[Face, ...]
    orbit_dims: tuple[int, ...]
    dim: int
    smooth: bool


@dataclass(init=False, repr=False, eq=False)
class CrossChecks(_Record):
    """Outcome of the independent-route comparisons.

    Every field is a hard guarantee: a report is only returned when they
    all hold.
    """

    subgroup_vs_luna: bool
    connections_refine: bool
    connections_equal: bool
    semigroup_verified: bool
    smooth_iff_trivial_local_class: bool


@dataclass(init=False, repr=False, eq=False)
class StratificationReport(_Record):
    """Result of :func:`stratify`: the orbit strata of the variety.

    ``input_rays`` are the rays as given, ``cone`` the pointed cone left
    once a torus factor of rank ``torus_rank`` is split off, and
    ``divisor_classes`` the classes of its rays in ``class_group``.
    ``closure`` lists the covering pairs ``(lower, upper)`` of the strata
    and ``connections`` route three's graph; ``cross_checks`` records the
    comparisons every returned report has passed.
    """

    ambient_rank: int
    input_rays: tuple[IntVec, ...]
    torus_rank: int
    cone: Cone
    class_group: FgAbGroup
    divisor_classes: tuple[GroupElement, ...]
    strata: tuple[Stratum, ...]
    closure: tuple[tuple[int, int], ...]
    connections: ConnectionGraph
    cross_checks: CrossChecks


def closure_edges(cone: Cone, strata: tuple[Stratum, ...]) -> tuple[tuple[int, int], ...]:
    """Covering pairs ``(lower, upper)`` of the closure order on ``strata``,
    strata of the stratification of ``cone``.

    If G is a facet of F, the orbit of F lies in the closure of the orbit
    of G (Cox–Little–Schenck, Thm 3.2.6), so the order is the transitive
    closure of the face table's facet covers mapped to the strata.  One
    pass up the table, from small faces to large, ORs into each face the
    bitset of the strata with a face inside it, and of the nearest of
    them.  Faces of strata not given are walked through, so a sub-tuple of
    the strata gets its part of the whole order.  A stratum's covers are
    its nearest strata above, less every stratum above those.  Each
    covering pair is re-checked by one subgroup containment.  Faces are
    keyed by their rays, so strata that share a face (copies, or strata of
    two cones) are refused.
    """
    _check_cone(cone)
    table = cone._faces
    try:
        strata = tuple(strata)
    except TypeError:
        raise InputError("strata must be Stratum objects") from None
    stratum_of: dict[int, int] = {}
    for t, s in enumerate(strata):
        if not isinstance(s, Stratum):
            raise InputError("strata must be Stratum objects")
        if not isinstance(s.faces, tuple):
            raise InputError(f"stratum {t} has faces {s.faces!r}, not a tuple of faces")
        for face in s.faces:
            rays = face.ray_indices if isinstance(face, Face) else None
            entry = None if rays is None else _face_entry(cone, rays)
            if entry is None or entry.face != face:
                shown = list(rays) if isinstance(rays, tuple) else repr(face)
                raise InputError(f"stratum {t} has {shown}, not a face of the cone")
            bits = sum(1 << i for i in rays)
            seen = stratum_of.setdefault(bits, t)
            if seen != t:
                raise InputError(f"strata {seen} and {t} share the face {list(rays)}")
    # Faces come by dimension, so a face's facets are done before it: into
    # each face go the strata with a face inside it, and the nearest of
    # them, met through faces of strata not given.
    inner: dict[int, int] = {}
    near: dict[int, int] = {}
    for bits, entry in table.items():
        inside = nearest = 0
        for child in entry.children:
            t = stratum_of.get(child)
            bit = 0 if t is None else 1 << t
            inside |= inner[child] | bit
            nearest |= bit or near[child]
        inner[bits], near[bits] = inside, nearest
    up, next_up = [0] * len(strata), [0] * len(strata)
    for bits, t in stratum_of.items():
        up[t] |= inner[bits] & ~(1 << t)
        next_up[t] |= near[bits] & ~(1 << t)
    edges = []
    for s, above in enumerate(next_up):
        covers = above
        for t in _ray_list_of(above):
            covers &= ~up[t]
        for t in _ray_list_of(covers):
            if not subgroup_leq(strata[s].subgroup, strata[t].subgroup):
                raise ConsistencyError(f"face covers put stratum {s} below {t}, subgroups do not")
            edges.append((s, t))
    return tuple(edges)


def stratify(ambient_rank: int, rays, normalize: bool = False) -> StratificationReport:
    """Full orbit decomposition of the affine toric variety of a cone.

    Accepts any rational polyhedral cone given by extremal ray generators;
    a degenerate cone is split off as a torus factor first, and
    ``normalize`` scales non-primitive generators down as in
    :func:`~toricstrata.cones.build_cone`.  See the module docstring for
    the three routes and the checks between them.
    """
    input_rays, _, split = _split(ambient_rank, rays, normalize, torus=True)
    cone = split.cone
    toric = build_toric(cone)

    # Route one: group faces by the subgroup attached to their orbit.
    orbit_data = face_orbit_data(toric)
    by_subgroup: dict[tuple, list[FaceOrbitData]] = {}
    for data in orbit_data.values():
        by_subgroup.setdefault(data.subgroup.basis, []).append(data)

    # Route two: the closed supports of the characteristic quasitorus
    # action, found from its circuits, must be exactly the face
    # complements.  Its weights are the divisor classes, so a support's
    # subgroup is route one's subgroup of the face it complements, and each
    # stratum's Luna dimension is checked against its orbit dimensions.
    supports = sorted(luna._closed_supports(cox_weight_system(toric)))
    complements = sorted(data.dset for data in orbit_data.values())
    if supports != complements:
        raise ConsistencyError(
            f"the {len(supports)} closed supports of the Cox weights are not "
            f"the {len(complements)} face complements"
        )

    # The faces come in (dim, rays) order, so a group's first face has the
    # largest orbit: ordering by it lists the strata by descending dimension.
    strata: list[Stratum] = []
    for basis, members in sorted(
        by_subgroup.items(), key=lambda item: (item[1][0].face.dim, item[0])
    ):
        first = members[0]
        structure = subgroup_structure(first.subgroup)
        luna_dim = max(len(m.dset) for m in members) - structure.free_rank
        dims = tuple(m.orbit_dim + split.torus_rank for m in members)
        if luna_dim + split.torus_rank != max(dims):
            raise ConsistencyError(
                f"stratum of subgroup basis {basis}: Luna dimension "
                f"{luna_dim} does not match orbit dimensions {dims}"
            )
        # One quotient per subgroup: the faces share one local class group.
        smooth = first.local_class_group.is_trivial()
        if any(m.smooth != smooth for m in members):
            raise ConsistencyError(
                f"stratum of subgroup basis {basis}: smoothness and local class group "
                f"triviality disagree across faces {[m.face.ray_indices for m in members]}"
            )
        strata.append(
            Stratum(
                index=len(strata),
                subgroup=first.subgroup,
                structure=structure,
                local_class_group=first.local_class_group,
                faces=tuple(m.face for m in members),
                orbit_dims=dims,
                dim=max(dims),
                smooth=smooth,
            )
        )

    # Route three: explicit one-parameter connections.
    graph = connection_graph(cone)
    position = {face: i for i, face in enumerate(graph.faces)}
    component_partition = sorted(graph_components(graph))
    stratum_partition = sorted(tuple(sorted(position[f] for f in s.faces)) for s in strata)
    # Equal partitions also mean no "yes" edge joins two strata: a component
    # holding faces of two strata would match no stratum.
    if component_partition != stratum_partition:
        raise ConsistencyError("connection components do not match the strata")

    checks = CrossChecks(
        subgroup_vs_luna=True,
        connections_refine=True,
        connections_equal=True,
        semigroup_verified=True,
        smooth_iff_trivial_local_class=True,
    )
    return StratificationReport(
        ambient_rank=ambient_rank,
        input_rays=input_rays,
        torus_rank=split.torus_rank,
        cone=cone,
        class_group=toric.class_group,
        divisor_classes=toric.divisor_classes,
        strata=tuple(strata),
        closure=closure_edges(cone, tuple(strata)),
        connections=graph,
        cross_checks=checks,
    )
