"""Demazure roots and one-parameter connections between torus orbits.

A root of a cone is a lattice functional pairing to -1 with exactly one
(distinguished) ray and nonnegatively with all others.  Each root ``e``
induces an additive one-parameter subgroup of automorphisms; it moves the
orbit of a face ``f2`` onto the orbit of a facet ``f1`` of ``f2`` exactly
when ``e`` vanishes on the rays of ``f1``, pairs -1 with the single extra
ray of ``f2``, and is nonnegative on all rays outside ``f2``.

``connection_exists`` decides that condition exactly.  A "no" is certified
combinatorially or by the integer equalities having no solution.  Once the
equalities are solvable a root always exists: adding a large enough
multiple of :func:`~toricstrata.cones.face_functional` of ``f2`` to any
solution keeps the equalities and makes every outside pairing nonnegative.
Only :func:`enumerate_roots`, which lists all roots in a coordinate box,
depends on a search bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone, Face, face_functional, face_lattice
from .errors import ConsistencyError, InputError
from .linalg import (
    IntMatrix,
    IntVec,
    LinearSystem,
    _boxed_solutions,
    _check_box_bound,
    _reduce_mod_rows,
    hermite_normal_form,
    solve_integer_system,
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
    if not 0 <= distinguished_ray < cone.nrays:
        raise InputError("distinguished ray index out of range")
    if len(vector) != cone.ambient_rank:
        raise InputError("root vector length does not match the ambient rank")
    for i, ray in enumerate(cone.rays):
        p = sum(a * b for a, b in zip(ray, vector))
        if i == distinguished_ray:
            if p != -1:
                raise InputError("root must pair to -1 with its distinguished ray")
        elif p < 0:
            raise InputError("root must pair nonnegatively with all other rays")
    return DemazureRoot(tuple(vector), distinguished_ray)


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
    :class:`InputError` before the batch that would pass the limit is built.
    """
    if box_bound is None:
        box_bound = default_box_bound(cone)
    _check_box_bound(box_bound)
    n = cone.ambient_rank
    groups = []
    listed = 0
    for tau in range(cone.nrays):
        eqs = ((cone.rays[tau], -1),)
        ineqs = tuple(
            (cone.rays[j], 0, False) for j in range(cone.nrays) if j != tau
        )
        points = sorted(_boxed_solutions(LinearSystem(n, eqs, ineqs), box_bound, False, listed))
        listed += len(points)
        groups.append(tuple(DemazureRoot(p, tau) for p in points))
    return tuple(groups)


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

    The witness is re-validated against the full condition set before it is
    returned.
    """
    faces = face_lattice(cone)
    if face1 not in faces or face2 not in faces:
        raise InputError("faces must belong to the cone's face lattice")

    inner = set(face1.ray_indices)
    outer = set(face2.ray_indices)
    extra = outer - inner
    if not inner <= outer or len(extra) != 1:
        return ConnectionVerdict("no", certificate="combinatorial")
    tau = extra.pop()

    n = cone.ambient_rank
    eqs = ((cone.rays[tau], -1), *((cone.rays[i], 0) for i in sorted(inner)))
    solution = solve_integer_system(LinearSystem(n, eqs, ()))
    if solution is None:
        return ConnectionVerdict("no", certificate="integral-equalities")

    # A particular solution reduced modulo the Hermite kernel basis, so the
    # witness does not inherit the solver's large coordinates.
    e0, kernel = solution.particular, solution.kernel_basis
    if kernel:
        hnf, _ = hermite_normal_form(IntMatrix(len(kernel), n, kernel))
        e0 = _reduce_mod_rows(e0, hnf.entries)
    # u vanishes on face2 (so the equalities still hold) and is positive on
    # every outside ray; k is the least multiple making those pairings >= 0.
    u = face_functional(cone, face2)
    k = 0
    for j in range(cone.nrays):
        if j not in outer:
            p_e0 = sum(a * b for a, b in zip(cone.rays[j], e0))
            p_u = sum(a * b for a, b in zip(cone.rays[j], u))
            if p_u <= 0:
                raise ConsistencyError("face functional vanishes off the face")
            k = max(k, -(p_e0 // p_u))
    point = tuple(a + k * b for a, b in zip(e0, u))
    try:
        witness = demazure_root(cone, point, tau)
    except InputError as exc:
        raise ConsistencyError(f"face functional produced an invalid root: {exc}")
    if face2.dim != face1.dim + 1:
        raise ConsistencyError("connected faces must differ by one dimension")
    return ConnectionVerdict("yes", witness=witness)


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
    """Evaluate every candidate pair of the face lattice."""
    faces = face_lattice(cone)
    index_of = {face.ray_indices: i for i, face in enumerate(faces)}
    verdicts = []
    for i2, face2 in enumerate(faces):
        for tau in face2.ray_indices:
            rest = tuple(i for i in face2.ray_indices if i != tau)
            i1 = index_of.get(rest)
            if i1 is None:
                continue
            verdict = connection_exists(cone, faces[i1], face2)
            verdicts.append((i1, i2, verdict))
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
    incident: dict[int, list[ConnectionVerdict]] = {
        i: [] for i in range(len(graph.faces))
    }
    for i1, i2, verdict in graph.verdicts:
        incident[i1].append(verdict)
        incident[i2].append(verdict)
    out = []
    for i, face in enumerate(graph.faces):
        verdicts = incident[i]
        if any(v.is_yes() for v in verdicts):
            continue
        certified = all(v.status == "no" for v in verdicts)
        out.append(IsolatedFace(face, certified))
    return tuple(out)
