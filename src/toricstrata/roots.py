"""Demazure roots and one-parameter connections between torus orbits.

A root of a cone is a lattice functional pairing to -1 with exactly one
(distinguished) ray and nonnegatively with all others.  Each root ``e``
induces an additive one-parameter subgroup of automorphisms; it moves the
orbit of a face ``f2`` onto the orbit of a facet ``f1`` of ``f2`` exactly
when ``e`` vanishes on the rays of ``f1``, pairs -1 with the single extra
ray of ``f2``, and is nonnegative on all rays outside ``f2``.

:func:`connection_graph` decides that condition exactly for every candidate
pair: a face and a child with one ray fewer in the cone's face table (see
``cones._face_table``), which keeps the Hermite basis ``K_F`` of each
face's orthogonal lattice ``M_F = {x in Z^n : <p_i, x> = 0 for i in F}``.
A root for the pair ``(f1, f2)``, ``f2 = f1 + tau``, is a point ``x`` of
``M_f1`` with ``<p_tau, x> = -1`` that pairs nonnegatively with the rays
outside ``f2``.  The values of ``<p_tau, .>`` on ``M_f1`` are the integer
combinations of its values on the rows of ``K_f1``, so such an ``x``
exists exactly when their gcd is 1; one extended-gcd pass, the step of
the package's integer solver, decides the pair and gives ``-x``, and a
gcd ``g != 1`` is the certificate ``"integral-equalities"``.  Once the
equalities are solvable a root always exists: adding a large enough
multiple of :func:`~toricstrata.cones.face_functional` of ``f2``, which
the face table certifies to pair to 0 on ``f2`` and to at least 1 off it,
to any solution keeps the equalities and makes every outside pairing
nonnegative.  The
witness is canonical: ``x`` reduced modulo ``K_f2`` is the same point
whichever solution one starts from, and the least such multiple is added.
Each witness is re-validated before it is returned, and
:func:`connection_exists` decides one pair with the same step.  Only
:func:`enumerate_roots`, which lists all roots in a coordinate box,
depends on a search bound.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .cones import Cone, Face, _check_cone, _entry_of, _FaceEntry, face_lattice
from .errors import ConsistencyError, InputError, _Record, _check_work
from .linalg import (
    IntVec,
    LinearSystem,
    _check_box_bound,
    _gcd_vector,
    _is_int,
    _pivot_index,
    _reduce,
    lattice_points_bounded,
)

__all__ = [
    "ConnectionGraph",
    "ConnectionVerdict",
    "DemazureRoot",
    "connection_exists",
    "connection_graph",
    "default_box_bound",
    "demazure_root",
    "enumerate_roots",
    "graph_components",
    "isolated_faces",
]


class DemazureRoot(_Record):
    """A validated root.

    Built by :func:`demazure_root`, by :func:`enumerate_roots` from
    lattice points that the boxed search re-checked against the same
    conditions, or by the connection route once its re-validation of the
    witness passed.
    """

    __slots__ = ("vector", "distinguished_ray")
    vector: IntVec
    distinguished_ray: int

    def __init__(self, vector, distinguished_ray) -> None:
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "distinguished_ray", distinguished_ray)


def demazure_root(cone: Cone, vector: IntVec, distinguished_ray: int) -> DemazureRoot:
    """Validate the defining pairings and freeze the root."""
    _check_cone(cone)
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
    _root_pairings(cone, vector, distinguished_ray)
    return DemazureRoot(vector, distinguished_ray)


def _root_pairings(cone: Cone, vector: IntVec, distinguished_ray: int) -> list[int]:
    """The pairings of ``vector`` with the rays, checked in ray order: -1
    on the distinguished ray and >= 0 on the others."""
    pairings = [sum(map(mul, ray, vector)) for ray in cone.rays]
    for i, p in enumerate(pairings):
        if i == distinguished_ray:
            if p != -1:
                raise InputError("root must pair to -1 with its distinguished ray")
        elif p < 0:
            raise InputError("root must pair nonnegatively with all other rays")
    return pairings


def default_box_bound(cone: Cone) -> int:
    """Default search box: ten times the largest ray coordinate."""
    _check_cone(cone)
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
    wrapped without a second validation.  That search lists points in
    the order of its size-reduced kernel basis of ``ray_tau . x == -1``,
    so its sort sets the order of each group.  The coordinates of the roots
    of all rays count against ``errors.MAX_WORK``, each ray's as its search
    lists them and all rays' once more after each search, so the roots held
    at once stay within twice the limit.
    """
    _check_cone(cone)
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
    groups, listed = [], 0
    for tau, system in enumerate(systems):
        points = lattice_points_bounded(system, box_bound)
        listed += len(points) * n
        _check_work("root listing", listed)
        groups.append(tuple(DemazureRoot(p, tau) for p in points))
    return tuple(groups)


class ConnectionVerdict(_Record):
    """Yes (with live witness) or certified no (with the certificate kind)."""

    status: str  # "yes" | "no"
    witness: DemazureRoot | None = None
    certificate: str | None = None  # "combinatorial" | "integral-equalities"

    def __init__(self, status, witness=None, certificate=None) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "certificate", certificate)

    def is_yes(self) -> bool:
        return self.status == "yes"


def connection_exists(cone: Cone, face1: Face, face2: Face) -> ConnectionVerdict:
    """Can some root move the orbit of ``face2`` onto the orbit of ``face1``?

    A pair whose ray sets do not differ by exactly one ray is a
    combinatorial "no".  Any other pair goes through the step that
    :func:`connection_graph` runs once per upper face, on the same entries
    of the cone's face table, so both return the same verdict and the same
    re-validated witness.
    """
    _check_cone(cone)
    entry1, entry2 = _entry_of(cone, face1), _entry_of(cone, face2)
    inner, outer = set(face1.ray_indices), set(face2.ray_indices)
    extra = outer - inner
    if not inner <= outer or len(extra) != 1:
        return ConnectionVerdict("no", certificate="combinatorial")
    return _connections_down_from(cone, entry2, ((extra.pop(), entry1),))[0]


def _checked_root(cone: Cone, point: IntVec, tau: int, face1: Face) -> DemazureRoot:
    """Re-validate a witness of the pair ``(face1, face1 + tau)`` in one
    pass over the rays: -1 on ``tau``, 0 on ``face1``, >= 0 elsewhere.
    The route built these integers itself, so the input checks of
    :func:`demazure_root` are skipped."""
    try:
        pairings = _root_pairings(cone, point, tau)
    except InputError as exc:
        raise ConsistencyError(f"face functional produced an invalid root: {exc}")
    if any(pairings[i] for i in face1.ray_indices):
        raise ConsistencyError("root does not vanish on the lower face")
    return DemazureRoot(point, tau)


def _connections_down_from(
    cone: Cone, upper: _FaceEntry, lower: Sequence[tuple[int, _FaceEntry]]
) -> tuple[ConnectionVerdict, ...]:
    """The verdicts for the pairs ``(face1, face2)``, one per ``(tau,
    entry1)`` in ``lower``: ``upper`` and ``entry1`` are the face table
    entries of ``face2`` and of ``face1``, ``face2`` without its ray ``tau``.

    A pair with no point of the orthogonal lattice of ``face1`` pairing to
    -1 with ray ``tau`` is the certificate ``"integral-equalities"``;
    otherwise that point, reduced modulo the basis of ``face2``, is the
    same whichever one is found, here the negative of the gcd vector of
    ray ``tau`` on the basis of ``face1``.  A "yes" shifts it by the least
    multiple of the face functional of ``face2`` that makes every outside
    pairing nonnegative.
    """
    pivot_of = _pivot_index(upper.lattice)
    # The face table certified that the functional vanishes exactly on
    # face2 (so the equalities still hold) and is >= 1 on every outside ray.
    outside = [(cone.rays[j], p) for j, p in enumerate(upper.pairings) if p]

    verdicts = []
    for tau, entry1 in lower:
        g, x = _gcd_vector(entry1.lattice, cone.rays[tau])
        if g != 1:
            verdicts.append(ConnectionVerdict("no", certificate="integral-equalities"))
            continue
        e0 = _reduce(upper.lattice, pivot_of, [-c for c in x])[1]
        m = max([0] + [-(sum(map(mul, ray, e0)) // p_u) for ray, p_u in outside])
        point = tuple(a + m * b for a, b in zip(e0, upper.functional))
        root = _checked_root(cone, point, tau, entry1.face)
        verdicts.append(ConnectionVerdict("yes", witness=root))
    return tuple(verdicts)


class ConnectionGraph(_Record):
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
    face in face order.  The pairs below a face are its children in the
    cone's face table with one ray fewer, taken by that ray."""
    _check_cone(cone)
    faces = face_lattice(cone)
    table = cone._faces
    verdicts = []
    for bits, upper in table.items():
        lower = sorted(
            ((bits ^ child).bit_length() - 1, table[child])
            for child in upper.children
            if (bits ^ child).bit_count() == 1
        )
        found = _connections_down_from(cone, upper, lower) if lower else ()
        verdicts.extend((entry1.index, upper.index, v) for (_, entry1), v in zip(lower, found))
    return ConnectionGraph(cone, faces, tuple(verdicts))


def graph_components(graph: ConnectionGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components over the yes-edges, as sorted face index tuples."""
    if not isinstance(graph, ConnectionGraph):
        raise InputError("graph must be a ConnectionGraph")
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


def isolated_faces(graph: ConnectionGraph) -> tuple[Face, ...]:
    """The faces with no incident yes-edge, in face order: the singleton
    components of :func:`graph_components`.  Every verdict is a "yes" or a
    certified "no", so each incident pair of such a face is a certified
    "no"."""
    return tuple(graph.faces[c[0]] for c in graph_components(graph) if len(c) == 1)
