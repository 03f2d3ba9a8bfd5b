"""Divisor class groups of affine toric varieties and per-orbit data.

For a full-dimensional pointed cone the rays index the prime invariant
divisors.  The class group is the cokernel of the ray-pairing map
``Z^rank -> Z^rays``, ``x -> (<ray_i, x>)_i``; the tuple of images of the
standard basis vectors gives the divisor classes in ray order.

Each face carries the subgroup of the class group generated by the divisors
*not* containing the corresponding orbit (the complement ray set, ``dset``),
and the local class group is the quotient by that subgroup.
:func:`face_orbit_data` computes both for every face in one pass down the
face lattice.  A face's subgroup is its parent's (a face one dimension up)
with the classes of the parent's rays off the face inserted into the
parent's Hermite basis; the subgroup only grows on the way down, so a face
below one whose subgroup is the whole group takes that handle with no
normal form, and a face of a smooth face is smooth.  One quotient is taken
per distinct subgroup, which the faces of a stratum share.  The subgroup
coincides with the semigroup the same classes generate;
:func:`verify_semigroup_equals_group` certifies that identity with one
character ``u`` per face: u >= 1 off the face, principal class zero, the
latter checked once per cone by :func:`build_toric`.  It is a hard
invariant (a failed certificate aborts the run).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .abelian import (
    FgAbGroup,
    GroupElement,
    SubgroupHandle,
    _subgroup_join,
    group_from_cokernel,
    is_full,
    quotient_group,
    subgroup_canon,
)
from .cones import Cone, Face, _functional_with_pairings, face_lattice, is_smooth_face
from .errors import ConsistencyError
from .linalg import IntMatrix, IntVec

__all__ = [
    "FaceOrbitData",
    "SemigroupCheck",
    "ToricData",
    "build_toric",
    "face_orbit_data",
    "verify_semigroup_equals_group",
]


@dataclass(frozen=True)
class ToricData:
    """Cone with its class group, divisor classes (ray order) and faces
    (in :func:`~toricstrata.cones.face_lattice` order: by dimension, then
    rays)."""

    cone: Cone
    class_group: FgAbGroup
    divisor_classes: tuple[GroupElement, ...]
    faces: tuple[Face, ...]


@dataclass(frozen=True)
class FaceOrbitData:
    """Orbit-level invariants attached to one face.

    ``dset`` holds the indices of the rays outside the face: the divisors
    whose classes generate ``subgroup``.  ``local_class_group`` is the class
    group of the variety near the orbit, the quotient by ``subgroup``.
    """

    face: Face
    dset: tuple[int, ...]
    subgroup: SubgroupHandle
    local_class_group: FgAbGroup
    orbit_dim: int
    smooth: bool


@dataclass(frozen=True)
class SemigroupCheck:
    """Certificate of the semigroup-equals-group identity for one face.

    ``functional`` is the character whose pairings with the rays outside
    the face give the coefficients of every inverse (see
    :func:`verify_semigroup_equals_group`).
    """

    verified: bool
    functional: IntVec


def build_toric(cone: Cone) -> ToricData:
    """Compute class-group data for a full-dimensional pointed cone.

    The face lattice comes first: its facet scan refuses a cone that is
    not full-dimensional, so the class group's free rank checks the Smith
    form against the scan, with no rank of its own.  The principal class
    ``sum_j <p_j, e_c> [D_j]`` of each coordinate character is checked to
    be zero, one sum per column of the ray matrix; the class map is linear,
    so that of every character ``u`` is ``sum_c u_c`` times these.
    """
    faces = face_lattice(cone)
    pairing = IntMatrix(cone.nrays, cone.ambient_rank, cone.rays)
    group, classes = group_from_cokernel(pairing)
    if group.free_rank != cone.nrays - cone.ambient_rank:
        raise ConsistencyError("class group free rank differs from rays - rank")
    if not is_full(subgroup_canon(group, classes)):
        raise ConsistencyError("divisor classes fail to generate the class group")
    class_columns = tuple(zip(*(g.coords for g in classes)))
    for c, column in enumerate(zip(*cone.rays)):
        reduced = group._reduced([sum(map(mul, column, k)) for k in class_columns])
        if any(reduced):
            raise ConsistencyError(
                f"coordinate character e_{c} has divisor class {reduced}, not zero"
            )
    return ToricData(cone, group, classes, faces)


def face_orbit_data(toric: ToricData) -> dict[Face, FaceOrbitData]:
    """Divisor subgroup, local class group and smoothness of every face, in
    the order of ``toric.faces``.

    One pass walks the face lattice down from the cone, each face after a
    face F one dimension up (see ``cones._face_walk``).  The rays off a
    face G are those off F and those of F missing from G, so H(G) = H(F) +
    <[D_i] : i in F ∖ G>: the classes of the few rays of F missing from G
    are inserted into the Hermite basis of H(F).  H grows as faces shrink,
    so a face below a face whose subgroup is the whole group has the whole
    group too, and shares that handle with no normal form.  Smoothness is
    inherited the same way: a face of a smooth face is smooth, and only
    the other faces go through :func:`~toricstrata.cones.is_smooth_face`.
    Faces with the same subgroup have the same local class group, so one
    quotient is taken per distinct subgroup.
    """
    cone = toric.cone
    group = toric.class_group
    classes = toric.divisor_classes
    local_of: dict[tuple[IntVec, ...], FgAbGroup] = {}
    data = {}
    for face, (parent, _, _) in cone._faces.items():
        inside = set(face.ray_indices)
        dset = tuple(i for i in range(cone.nrays) if i not in inside)
        if parent is None:
            subgroup = subgroup_canon(group, [classes[i] for i in dset])
            smooth = is_smooth_face(cone, face)
        else:
            up = data[parent]
            subgroup = up.subgroup
            if not is_full(subgroup):
                missing = [classes[i] for i in parent.ray_indices if i not in inside]
                subgroup = _subgroup_join(subgroup, missing)
            smooth = up.smooth or is_smooth_face(cone, face)
        local = local_of.get(subgroup.basis)
        if local is None:
            local = local_of[subgroup.basis] = quotient_group(group, subgroup)
        data[face] = FaceOrbitData(
            face=face,
            dset=dset,
            subgroup=subgroup,
            local_class_group=local,
            orbit_dim=cone.ambient_rank - face.dim,
            smooth=smooth,
        )
    return {face: data[face] for face in toric.faces}


def verify_semigroup_equals_group(toric: ToricData, face: Face) -> SemigroupCheck:
    """Certify that the dset classes generate a semigroup closed under inverses.

    The subgroup generated by the dset classes always contains their
    nonnegative-combination semigroup; equality holds exactly when every
    generator's inverse is reachable.  The certificate is the character
    ``u`` of :func:`~toricstrata.cones.face_functional`: u >= 1 on every
    ray off the face, and the principal class ``sum_j <p_j, u> [D_j]`` is
    zero.  Then ``-[D_i] = sum_j (<p_j, u> - delta_ij) [D_j]`` over the
    dset with nonnegative coefficients.  The pairings, read off the cone's
    face table, are checked here; the principal class rests on
    :func:`build_toric`, as the :class:`ToricData` constructor trusts its
    caller.  A failure contradicts the theory and aborts the run.
    """
    u, pairings = _functional_with_pairings(toric.cone, face)  # refuses a foreign face
    inside = set(face.ray_indices)
    for j, p in enumerate(pairings):
        if p < 1 and j not in inside:
            raise ConsistencyError(
                f"face functional {list(u)} pairs to {p} with ray #{j} outside "
                f"face {list(face.ray_indices)}"
            )
    return SemigroupCheck(verified=True, functional=u)
