"""Demazure roots and one-parameter connections between torus orbits.

A root of a cone is a lattice functional pairing to -1 with exactly one
(distinguished) ray and nonnegatively with all others.  Each root ``e``
induces an additive one-parameter subgroup of automorphisms; it moves the
orbit of a face ``f2`` onto the orbit of a facet ``f1`` of ``f2`` exactly
when ``e`` vanishes on the rays of ``f1``, pairs -1 with the single extra
ray of ``f2``, and is nonnegative on all rays outside ``f2``.

:func:`connection_graph` decides that condition exactly for every candidate
pair, one upper face ``f2`` at a time: the pairs below ``f2`` share the
matrix of its rays and differ only in the right-hand side, so one Hermite
form per face, the factor-once, solve-many pair that solves every integer
system in :mod:`toricstrata.linalg`, decides all of them.  A "no" is
certified combinatorially or by the integer equalities having no
solution.  Once the equalities are solvable a root always exists: adding a
large enough multiple of :func:`~toricstrata.cones.face_functional` of
``f2`` to any solution keeps the equalities and makes every outside
pairing nonnegative.  The witness is canonical: the solver returns the one
solution reduced modulo the Hermite basis of the integer kernel, and the
least such multiple is added.  Each witness is re-validated before it is
returned.  :func:`connection_exists` decides one pair the same way.  Only
:func:`enumerate_roots`, which lists all roots in a coordinate box,
depends on a search bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .cones import Cone, Face, _functional_with_pairings, face_lattice
from . import linalg
from .errors import ConsistencyError, InputError
from .linalg import (
    IntVec,
    LinearSystem,
    _boxed_solutions,
    _check_box_bound,
    _check_point_total,
    _equation_form,
    _is_int,
    _pivot_index,
    _solve_in_form,
)

__all__ = [
    "ConnectionGraph",
    "ConnectionVerdict",
    "DemazureRoot",
    "IsolatedFace",
    "connection_exists",
    "connection_graph",
    "default_box_bound",
    "demazure_root",
    "enumerate_roots",
    "graph_components",
    "isolated_faces",
]


@dataclass(frozen=True, slots=True)
class DemazureRoot:
    """A validated root.

    Built by :func:`demazure_root`, or by :func:`enumerate_roots` from
    lattice points that the boxed search re-checked against the same
    conditions.
    """

    vector: IntVec
    distinguished_ray: int


def demazure_root(cone: Cone, vector: IntVec, distinguished_ray: int) -> DemazureRoot:
    """Validate the defining pairings and freeze the root."""
    if not _is_int(distinguished_ray):
        raise InputError("distinguished ray index must be an integer")
    if not 0 <= distinguished_ray < cone.nrays:
        raise InputError("distinguished ray index out of range")
    try:
        vector = tuple(vector)
    except TypeError:
        raise InputError("root vector must be a sequence") from None
    if len(vector) != cone.ambient_rank:
        raise InputError("root vector length does not match the ambient rank")
    if not all(map(_is_int, vector)):
        raise InputError("root vector entries must be integers")
    for i, ray in enumerate(cone.rays):
        p = sum(a * b for a, b in zip(ray, vector))
        if i == distinguished_ray:
            if p != -1:
                raise InputError("root must pair to -1 with its distinguished ray")
        elif p < 0:
            raise InputError("root must pair nonnegatively with all other rays")
    return DemazureRoot(vector, distinguished_ray)


def default_box_bound(cone: Cone) -> int:
    """Default search box: ten times the largest ray coordinate."""
    biggest = max((abs(x) for ray in cone.rays for x in ray), default=1)
    return 10 * biggest


def enumerate_roots(
    cone: Cone, box_bound: int | None = None
) -> tuple[tuple[DemazureRoot, ...], ...]:
    """All roots with coordinates in the box, grouped by distinguished ray.

    Groups follow ray order; roots inside a group are in lexicographic
    order of their vectors.  The roots of ray ``tau`` are the lattice points
    of ``ray_tau . x == -1``, ``ray_j . x >= 0`` (j != tau) in the box, and
    the boxed search of :func:`~toricstrata.linalg.lattice_points_bounded`
    re-checks every point against exactly those conditions, so each is
    wrapped without a second validation.  The roots of all rays count
    against ``MAX_LATTICE_POINTS``: a box holding more raises
    :class:`InputError` before any root is built.
    """
    if box_bound is None:
        box_bound = default_box_bound(cone)
    _check_box_bound(box_bound)
    n = cone.ambient_rank
    systems = [
        LinearSystem(
            n,
            ((cone.rays[tau], -1),),
            tuple((cone.rays[j], 0, False) for j in range(cone.nrays) if j != tau),
        )
        for tau in range(cone.nrays)
    ]
    # A ray's roots differ on the n - 1 pivot coordinates of the Hermite
    # kernel basis of its equation, all in the box, so only a box that may
    # hold more than the limit needs the count before the listing.
    if len(systems) * (2 * box_bound + 1) ** (n - 1) > linalg.MAX_LATTICE_POINTS:
        _check_point_total(systems, box_bound)
    return tuple(
        tuple(DemazureRoot(p, tau) for p in sorted(_boxed_solutions(system, box_bound, False)))
        for tau, system in enumerate(systems)
    )


@dataclass(frozen=True)
class ConnectionVerdict:
    """Yes (with live witness) or certified no (with the certificate kind)."""

    status: str  # "yes" | "no"
    witness: DemazureRoot | None = None
    certificate: str | None = None  # "combinatorial" | "integral-equalities"

    def is_yes(self) -> bool:
        return self.status == "yes"


def connection_exists(cone: Cone, face1: Face, face2: Face) -> ConnectionVerdict:
    """Can some root move the orbit of ``face2`` onto the orbit of ``face1``?

    A pair whose ray sets do not differ by exactly one ray is a
    combinatorial "no".  Any other pair goes through the routine that
    :func:`connection_graph` runs once per upper face, so both return the
    same verdict: one Hermite form of the rays of ``face2`` decides the
    integer equalities, and a "yes" carries the witness made canonical by
    Hermite reduction modulo the integer kernel, re-validated before it is
    returned.
    """
    if face1 not in cone._faces or face2 not in cone._faces:
        raise InputError("faces must belong to the cone's face lattice")

    inner, outer = set(face1.ray_indices), set(face2.ray_indices)
    extra = outer - inner
    if not inner <= outer or len(extra) != 1:
        return ConnectionVerdict("no", certificate="combinatorial")
    return _connections_down_from(cone, face2, ((extra.pop(), face1),))[0]


def _connections_down_from(
    cone: Cone, face2: Face, lower: Sequence[tuple[int, Face]]
) -> tuple[ConnectionVerdict, ...]:
    """Verdicts for the pairs ``(face1, face2)``, one per ``(tau, face1)``
    in ``lower``, where ``face1`` is ``face2`` without its ray ``tau``.

    A root for such a pair is a solution ``x`` of ``A x == -e_tau``, with
    ``A`` the rays of ``face2``, that pairs nonnegatively with every ray
    outside ``face2``.  The Hermite form of ``[A^T | I]``
    (:func:`~toricstrata.linalg._equation_form`) is taken once per face,
    and each pair is one reduction modulo it: no solution is the
    certificate ``"integral-equalities"``, and otherwise the solution comes
    back reduced modulo the Hermite basis of the integer kernel of ``A``,
    the same point whichever solution one starts from.  A "yes" shifts
    that solution by the least multiple of the face functional of ``face2``
    (also computed once, with its pairings, off the cone's ray x facet
    table) that makes every outside pairing nonnegative.
    """
    form = _equation_form(tuple(cone.rays[i] for i in face2.ray_indices), cone.ambient_rank)
    pivot_of = _pivot_index(form)
    # u vanishes on face2 (so the equalities still hold) and is positive on
    # every outside ray.
    u, pairings = _functional_with_pairings(cone, face2)
    inside = set(face2.ray_indices)
    outside = []
    for j, ray in enumerate(cone.rays):
        if j not in inside:
            if pairings[j] <= 0:
                raise ConsistencyError("face functional vanishes off the face")
            outside.append((ray, pairings[j]))

    verdicts = []
    for tau, face1 in lower:
        e0 = _solve_in_form(form, pivot_of, [-int(i == tau) for i in face2.ray_indices])
        if e0 is None:
            verdicts.append(ConnectionVerdict("no", certificate="integral-equalities"))
            continue
        m = max([0] + [-(sum(map(mul, ray, e0)) // p_u) for ray, p_u in outside])
        point = tuple(a + m * b for a, b in zip(e0, u))
        try:
            witness = demazure_root(cone, point, tau)
        except InputError as exc:
            raise ConsistencyError(f"face functional produced an invalid root: {exc}")
        if any(sum(map(mul, cone.rays[i], point)) for i in face1.ray_indices):
            raise ConsistencyError("root does not vanish on the lower face")
        if face2.dim != face1.dim + 1:
            raise ConsistencyError("connected faces must differ by one dimension")
        verdicts.append(ConnectionVerdict("yes", witness=witness))
    return tuple(verdicts)


@dataclass(frozen=True)
class ConnectionGraph:
    """All candidate face pairs of a cone with their connection verdicts.

    ``verdicts`` entries are ``(i1, i2, verdict)`` with ``i1``/``i2``
    indices into ``faces``; candidates are the pairs whose ray sets differ
    by exactly one ray (the only pairs any root can connect).
    """

    cone: Cone
    faces: tuple[Face, ...]
    verdicts: tuple[tuple[int, int, ConnectionVerdict], ...]


def connection_graph(cone: Cone) -> ConnectionGraph:
    """Evaluate every candidate pair of the face lattice, grouped by upper
    face so that each face is factored once."""
    faces = face_lattice(cone)
    index_of = {face.ray_indices: i for i, face in enumerate(faces)}
    verdicts = []
    for i2, face2 in enumerate(faces):
        lower = []
        for tau in face2.ray_indices:
            i1 = index_of.get(tuple(i for i in face2.ray_indices if i != tau))
            if i1 is not None:
                lower.append((tau, i1))
        if lower:
            found = _connections_down_from(cone, face2, [(tau, faces[i1]) for tau, i1 in lower])
            verdicts.extend((i1, i2, v) for (_, i1), v in zip(lower, found))
    return ConnectionGraph(cone, faces, tuple(verdicts))


def graph_components(graph: ConnectionGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components over the yes-edges, as sorted face index tuples."""
    parent = list(range(len(graph.faces)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i1, i2, verdict in graph.verdicts:
        if verdict.is_yes():
            a, b = find(i1), find(i2)
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for i in range(len(graph.faces)):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


@dataclass(frozen=True)
class IsolatedFace:
    """A face with no incident yes-edge.

    ``fully_certified`` is true when every incident candidate pair came back
    as a certified no.
    """

    face: Face
    fully_certified: bool


def isolated_faces(graph: ConnectionGraph) -> tuple[IsolatedFace, ...]:
    """The faces with no incident yes-edge, in face order.

    Every verdict is a "yes" or a certified "no", so these are the
    singleton components of :func:`graph_components` and each is fully
    certified.
    """
    return tuple(
        IsolatedFace(graph.faces[c[0]], fully_certified=True)
        for c in graph_components(graph)
        if len(c) == 1
    )
