"""Divisor class groups of affine toric varieties and per-orbit data.

For a full-dimensional pointed cone the rays index the prime invariant
divisors.  The class group is the cokernel of the ray-pairing map
``Z^rank -> Z^rays``, ``x -> (<ray_i, x>)_i``; the tuple of images of the
standard basis vectors gives the divisor classes in ray order.

Each face carries the subgroup of the class group generated by the divisors
*not* containing the corresponding orbit (the complement ray set, ``dset``),
and the local class group is the quotient by that subgroup.
:func:`face_orbit_data` computes both for every face in one pass down the
cone's face table, one quotient per distinct subgroup, and reads each
face's smoothness off that table for ``engine.stratify`` to check against
the local class group.  The subgroup
coincides with the semigroup the same classes generate;
:func:`verify_semigroup_equals_group` certifies that identity with one
character ``u`` per face: u >= 1 off the face, checked once per face when
the cone's face table is built, and principal class zero, checked once
per cone by :func:`build_toric`.  It is a hard invariant (a failed
certificate aborts the run).
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
from .cones import Cone, Face, _check_cone, _entry_of, _ray_list_of, face_lattice
from .errors import ConsistencyError, InputError, _Record, _check_work
from .linalg import IntMatrix, IntVec

__all__ = [
    "FaceOrbitData",
    "SemigroupCheck",
    "ToricData",
    "build_toric",
    "face_orbit_data",
    "verify_semigroup_equals_group",
]


@dataclass(init=False, repr=False, eq=False)
class ToricData(_Record):
    """Cone with its class group, divisor classes (ray order) and faces
    (in :func:`~toricstrata.cones.face_lattice` order: by dimension, then
    rays)."""

    cone: Cone
    class_group: FgAbGroup
    divisor_classes: tuple[GroupElement, ...]
    faces: tuple[Face, ...]


@dataclass(init=False, repr=False, eq=False)
class FaceOrbitData(_Record):
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

    def __init__(self, face, dset, subgroup, local_class_group, orbit_dim, smooth) -> None:
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "dset", dset)
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "local_class_group", local_class_group)
        object.__setattr__(self, "orbit_dim", orbit_dim)
        object.__setattr__(self, "smooth", smooth)


@dataclass(init=False, repr=False, eq=False)
class SemigroupCheck(_Record):
    """Certificate of the semigroup-equals-group identity for one face.

    ``functional`` is the character whose pairings with the rays outside
    the face give the coefficients of every inverse (see
    :func:`verify_semigroup_equals_group`).
    """

    verified: bool
    functional: IntVec


def _check_toric(toric) -> None:
    if not isinstance(toric, ToricData):
        raise InputError("toric data must be a ToricData")


def build_toric(cone: Cone) -> ToricData:
    """Compute class-group data for a full-dimensional pointed cone.

    The face lattice comes first: its facet scan refuses a cone that is
    not full-dimensional, so the class group's free rank checks the Smith
    form against the scan, with no rank of its own.  The principal class
    ``sum_j <p_j, e_c> [D_j]`` of each coordinate character is checked to
    be zero, one sum per column of the ray matrix; the class map is linear,
    so that of every character ``u`` is ``sum_c u_c`` times these.
    """
    _check_cone(cone)
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
    """Divisor subgroup, local class group and smoothness (read off the
    cone's face table) of every face, in the order of ``toric.faces``.

    One pass walks the cone's face table backwards, from the cone, so each
    face G comes after every face F one dimension up, and takes its data
    from the first F that lists it as a child.  The rays off G are those
    off F and those of F missing from G, so H(G) = H(F) + <[D_i] : i in F ∖
    G>: the classes of the few rays of F missing from G are inserted into
    the Hermite basis of H(F).  H grows as faces shrink, so a face below a face
    whose subgroup is the whole group has the whole group too, and shares
    that handle with no normal form.  Faces with the same subgroup have the
    same local class group, so one quotient is taken per distinct subgroup.
    The entries of the matrices the insertions hand to the Hermite form are
    counted against ``errors.MAX_WORK``.
    """
    _check_toric(toric)
    cone = toric.cone
    group = toric.class_group
    classes = toric.divisor_classes
    every_ray = (1 << cone.nrays) - 1
    local_of: dict[tuple[IntVec, ...], FgAbGroup] = {}
    data = {}
    above: dict[int, tuple[int, FaceOrbitData]] = {}
    entries = 0
    for bits, entry in reversed(cone._faces.items()):
        dset = tuple(_ray_list_of(every_ray ^ bits))
        if bits not in above:
            subgroup = subgroup_canon(group, [classes[i] for i in dset])
        else:
            up_bits, up = above[bits]
            subgroup = up.subgroup
            if not is_full(subgroup):
                missing = [classes[i] for i in _ray_list_of(up_bits ^ bits)]
                entries += (len(missing) + len(subgroup.basis)) * group.ncoords
                _check_work("route one", entries)
                subgroup = _subgroup_join(subgroup, missing)
        local = local_of.get(subgroup.basis)
        if local is None:
            local = local_of[subgroup.basis] = quotient_group(group, subgroup)
        orbit = data[entry.face] = FaceOrbitData(
            face=entry.face,
            dset=dset,
            subgroup=subgroup,
            local_class_group=local,
            orbit_dim=cone.ambient_rank - entry.face.dim,
            smooth=entry.smooth,
        )
        for child in entry.children:
            above.setdefault(child, (bits, orbit))
    return {face: data[face] for face in toric.faces}


def verify_semigroup_equals_group(toric: ToricData, face: Face) -> SemigroupCheck:
    """Certify that the dset classes generate a semigroup closed under inverses.

    The subgroup generated by the dset classes always contains their
    nonnegative-combination semigroup; equality holds exactly when every
    generator's inverse is reachable.  The certificate is the character
    ``u`` of :func:`~toricstrata.cones.face_functional`: u >= 1 on every
    ray off the face, and the principal class ``sum_j <p_j, u> [D_j]`` is
    zero.  Then ``-[D_i] = sum_j (<p_j, u> - delta_ij) [D_j]`` over the
    dset with nonnegative coefficients.  The pairings are certified when
    the cone's face table is built, so this reads the face's entry and
    refuses a foreign face; the principal class rests on
    :func:`build_toric`, as the :class:`ToricData` constructor trusts its
    caller.  A failure contradicts the theory and aborts the run.
    """
    _check_toric(toric)
    return SemigroupCheck(verified=True, functional=_entry_of(toric.cone, face).functional)
