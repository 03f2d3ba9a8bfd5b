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
read off face meets: route one's subgroups satisfy H(σ ∩ τ) = H(σ) + H(τ).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import luna
from .abelian import FgAbGroup, GroupElement, SubgroupHandle, subgroup_leq, subgroup_structure
from .cones import Cone, Face, _split
from .divisors import build_toric, face_orbit_data
from .errors import ConsistencyError, InputError
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


@dataclass(frozen=True)
class Stratum:
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


@dataclass(frozen=True)
class CrossChecks:
    """Outcome of the independent-route comparisons.

    Every field is a hard guarantee: a report is only returned when they
    all hold.
    """

    subgroup_vs_luna: bool
    connections_refine: bool
    connections_equal: bool
    semigroup_verified: bool
    smooth_iff_trivial_local_class: bool


@dataclass(frozen=True)
class StratificationReport:
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


def closure_edges(strata: tuple[Stratum, ...]) -> tuple[tuple[int, int], ...]:
    """Covering pairs ``(lower, upper)`` of the stratum closure order.

    A stratum lies in the closure of another exactly when its subgroup is
    contained in the other's.  The rays off σ ∩ τ are those off σ or τ, so
    H(σ ∩ τ) = H(σ) + H(τ): for strata of one cone, S lies below T exactly
    when the meet of their first faces is a face of T.  Each covering pair
    is re-checked by one containment.  Faces are keyed by their rays, so
    strata that share a face (copies, or strata of two cones) are refused.
    """
    stratum_of: dict[int, int] = {}
    for t, s in enumerate(strata):
        for face in s.faces:
            seen = stratum_of.setdefault(sum(1 << i for i in face.ray_indices), t)
            if seen != t:
                raise InputError(f"strata {seen} and {t} share the face {list(face.ray_indices)}")
    heads = [sum(1 << i for i in s.faces[0].ray_indices) for s in strata]
    up = [
        {t for t, head_t in enumerate(heads) if t != s and stratum_of.get(head_s & head_t) == t}
        for s, head_s in enumerate(heads)
    ]
    edges = []
    for s, above in enumerate(up):
        for t in sorted(above.difference(*(up[k] for k in above))):
            if not subgroup_leq(strata[s].subgroup, strata[t].subgroup):
                raise ConsistencyError(f"face meets put stratum {s} below {t}, subgroups do not")
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
    by_subgroup: dict[tuple, list[Face]] = {}
    for face, data in orbit_data.items():
        by_subgroup.setdefault(data.subgroup.basis, []).append(face)

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
    for basis, faces in sorted(by_subgroup.items(), key=lambda item: (item[1][0].dim, item[0])):
        first = orbit_data[faces[0]]
        structure = subgroup_structure(first.subgroup)
        luna_dim = max(len(orbit_data[f].dset) for f in faces) - structure.free_rank
        dims = tuple(orbit_data[f].orbit_dim + split.torus_rank for f in faces)
        if luna_dim + split.torus_rank != max(dims):
            raise ConsistencyError(
                f"stratum of subgroup basis {basis}: Luna dimension "
                f"{luna_dim} does not match orbit dimensions {dims}"
            )
        # One quotient per subgroup: the faces share one local class group.
        smooth = first.local_class_group.is_trivial()
        if any(orbit_data[f].smooth != smooth for f in faces):
            raise ConsistencyError(
                f"stratum of subgroup basis {basis}: smoothness and local class "
                f"group triviality disagree across faces {[f.ray_indices for f in faces]}"
            )
        strata.append(
            Stratum(
                index=len(strata),
                subgroup=first.subgroup,
                structure=structure,
                local_class_group=first.local_class_group,
                faces=tuple(faces),
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
        closure=closure_edges(tuple(strata)),
        connections=graph,
        cross_checks=checks,
    )
