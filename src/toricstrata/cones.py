"""Pointed rational polyhedral cones and their face lattices.

A cone is stored by its extremal ray generators (primitive integer vectors,
input order preserved).  Validation rejects zero, non-primitive (unless
normalization is requested), duplicate and non-extremal rays, and cones that
contain a line, that is, with a ray on every facet.  The last two are read
off the integer facet incidence (Cox-Little-Schenck, *Toric Varieties*, 1.2)
of the induced cone: the rays' coordinates in the Hermite basis of their
saturated span, full-dimensional with the same faces.  Face machinery needs
a full-dimensional cone, so inputs spanning a proper subspace go through
:func:`split_degenerate` first, which returns that basis and induced cone.

Facets are enumerated by brute force over the (rank-1)-subsets of rays, at
most ``MAX_FACET_CANDIDATES`` of them.  Each subset costs one vector of
maximal minors (fraction-free elimination, no Smith form), which is zero
when the subset spans no hyperplane and is its normal otherwise.  The same
scan, on vectors that may repeat, vanish or span a cone with a line, gives
``luna`` its positive circuits on the Gale side.

The facts of a cone live on the :class:`Cone` object, computed on first
use and dropped with it: the facet scan (sorted normals, the ray x facet
pairing table and its column zero sets) and the face walk (every face, the
face one dimension up it was reached from, and its face functional with
the functional's pairings with the rays).  The face lattice, route three's
roots, the semigroup certificate and the walk down the faces in
``divisors.face_orbit_data`` all read them; no process-wide cache does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import and_, mul
from typing import Sequence

from .errors import ConsistencyError, InputError
from .linalg import (
    IntMatrix,
    IntVec,
    _equation_form,
    _form_kernel,
    _lattice_coordinates,
    _maximal_minors,
    _pivot_index,
    hermite_normal_form,
    integer_rank,
    primitive_vector,
    smith_normal_form,  # not called here; perfbench's tracer test looks the name up
)

__all__ = [
    "Cone",
    "Face",
    "SplitCone",
    "build_cone",
    "face_from_ray_indices",
    "face_functional",
    "face_lattice",
    "facet_normals",
    "is_smooth_face",
    "split_degenerate",
]


@dataclass(frozen=True)
class Cone:
    """A pointed cone: primitive, pairwise distinct, extremal generators."""

    ambient_rank: int
    rays: tuple[IntVec, ...]

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def is_full_dimensional(self) -> bool:
        mat = IntMatrix(self.nrays, self.ambient_rank, self.rays)
        return integer_rank(mat) == self.ambient_rank

    # Computed on first use into the instance ``__dict__``, so they go with
    # the cone; equality and hashing read only the two fields.
    _facets = cached_property(lambda self: _facet_scan(self))
    _faces = cached_property(lambda self: _face_walk(self))


@dataclass(frozen=True)
class Face:
    """A face of a cone, identified by the sorted indices of its rays."""

    ray_indices: tuple[int, ...]
    dim: int


@dataclass(frozen=True)
class SplitCone:
    """Degenerate-input factorization: X = (full-dimensional part) x torus.

    ``sublattice_basis`` rows are the Hermite basis of the saturated
    sublattice spanned by the input rays, so equal spans give equal bases;
    the induced cone lives in that basis and embedding its rays back
    through the basis reproduces the input rays exactly.
    """

    sublattice_basis: IntMatrix
    cone: Cone
    torus_rank: int


def _ray_list(ambient_rank: int, raw_rays, least: int) -> list:
    """Check that the ambient rank is an integer of at least ``least`` (0 or
    1), then read the rays once."""
    if not isinstance(ambient_rank, int) or isinstance(ambient_rank, bool):
        raise InputError("ambient rank must be an integer")
    if ambient_rank < least:
        raise InputError(f"ambient rank must be {'at least 1' if least else 'nonnegative'}")
    try:
        return list(raw_rays)
    except TypeError:
        raise InputError("rays must be given as an iterable of rays") from None


def _validated_rays(
    ambient_rank: int, raw_rays: Sequence[Sequence[int]], normalize: bool
) -> list[IntVec]:
    rays: list[IntVec] = []
    for idx, raw in enumerate(raw_rays):
        try:
            vec = tuple(raw)
        except TypeError:
            raise InputError(f"ray #{idx} is not a sequence of coordinates") from None
        if len(vec) != ambient_rank:
            raise InputError(
                f"ray #{idx} has {len(vec)} coordinates, expected {ambient_rank}"
            )
        for x in vec:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError(f"ray #{idx} has a non-integer coordinate")
        if not any(vec):
            raise InputError(f"ray #{idx} is the zero vector")
        prim = primitive_vector(vec)
        if prim != vec:
            if not normalize:
                raise InputError(
                    f"ray #{idx} {list(vec)} is not primitive; "
                    f"did you mean {list(prim)}? (enable normalization to accept)"
                )
            vec = prim
        rays.append(vec)
    seen: dict[IntVec, int] = {}
    for idx, vec in enumerate(rays):
        if vec in seen:
            raise InputError(f"ray #{idx} duplicates ray #{seen[vec]} ({list(vec)})")
        seen[vec] = idx
    return rays


def _split(
    ambient_rank: int, raw_rays: Sequence[Sequence[int]], normalize: bool
) -> tuple[tuple[IntVec, ...], SplitCone]:
    """Validate the rays of a pointed cone; return them and their split: the
    Hermite basis of their saturated span and the induced cone of their
    coordinates in it.  Errors name the input's rays."""
    raw_rays = _ray_list(ambient_rank, raw_rays, 1)
    if not raw_rays:
        raise InputError("at least one ray is required")
    rays = tuple(_validated_rays(ambient_rank, raw_rays, normalize))

    # Saturation = kernel of the kernel: integer kernels are saturated, and
    # the orthogonal complement of the complement of the ray span is exactly
    # the rational ray span intersected with the lattice.  With no
    # complement the rays span the lattice: the Hermite basis is the
    # identity and the rays are their own coordinates.
    sat_basis = _kernel_rows(_kernel_rows(rays, ambient_rank), ambient_rank)
    basis = IntMatrix(len(sat_basis), ambient_rank, sat_basis)
    pivot_of = _pivot_index(sat_basis)
    solved = tuple(_lattice_coordinates(sat_basis, pivot_of, ray) for ray in rays)
    if None in solved:
        raise ConsistencyError("ray coordinates in the sublattice basis miss the rays")
    induced = Cone(basis.rows, solved)

    # The induced cone has the input's faces.  A line's lineality space is
    # the smallest face, spanned by the rays in it, so some ray lies on every
    # facet (no facets: the whole space).  In a pointed cone the facets
    # through a ray meet in the smallest face containing it, so the ray is
    # extremal iff no other ray lies on all of them.
    _, _, zeros = induced._facets
    everything = (1 << len(rays)) - 1
    if reduce(and_, zeros, everything):
        raise InputError("cone is not pointed (it contains a line)")
    for i in range(len(rays)):
        face = reduce(and_, (z for z in zeros if z >> i & 1), everything)
        others = [j for j in range(len(rays)) if j != i and face >> j & 1]
        if others:
            raise InputError(
                f"ray #{i} {list(rays[i])} is not extremal: it lies inside the "
                f"face spanned by rays {', '.join(f'#{j}' for j in others)}"
            )
    return rays, SplitCone(basis, induced, ambient_rank - basis.rows)


def build_cone(
    ambient_rank: int, raw_rays: Sequence[Sequence[int]], normalize: bool = False
) -> Cone:
    """Validate generators and build a pointed cone.

    Rejects zero, non-primitive (without ``normalize``), duplicate and
    non-extremal rays, and generator sets that span a line through the
    origin.  Ray order is preserved.  A non-extremal ray is reported with
    the other rays of the smallest face containing it.
    """
    rays, split = _split(ambient_rank, raw_rays, normalize)
    # No torus factor: the basis is the identity and the scanned induced cone has these rays.
    return split.cone if split.torus_rank == 0 else Cone(ambient_rank, rays)


# Limit on the candidate subsets of one hyperplane scan, checked before the
# first: the (rank-1)-subsets of rays for facets, and the circuit candidates
# of ``luna._positive_circuits``.
MAX_FACET_CANDIDATES = 10_000


def _supporting_hyperplanes(
    vectors: Sequence[IntVec], dim: int
) -> dict[IntVec, tuple[int, ...]]:
    """The hyperplanes spanned by ``dim - 1`` of the vectors that support
    the cone they generate, each as its primitive inner normal mapped to its
    pairings with the vectors.

    The vectors may include zero or repeated vectors, and their cone need
    not be pointed.  A subset spans a hyperplane exactly when its maximal
    minors are not all zero, and they are then its normal.  Vectors that do
    not span Q^dim give no normal when their rank is below ``dim - 1``, and
    otherwise only normals pairing to zero with all of them.
    """
    found: dict[IntVec, tuple[int, ...]] = {}
    for subset in combinations(vectors, dim - 1):
        minors = _maximal_minors(subset)
        if not any(minors):
            continue
        u = primitive_vector(minors)
        # The sign of the first nonzero pairing; a pairing of the other sign
        # rules the hyperplane out, and the rest are not read.
        pairings, sign = [], 0
        for v in vectors:
            p = sum(map(mul, v, u))
            if p:
                if sign * p < 0:
                    break
                sign = 1 if p > 0 else -1
            pairings.append(p)
        else:
            if sign >= 0:
                found[u] = tuple(pairings)
            else:
                found[tuple(-x for x in u)] = tuple(-p for p in pairings)
    return found


def _facet_scan(cone: Cone) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...], tuple[int, ...]]:
    """The facets of a full-dimensional cone: the sorted primitive inner
    normals, the ray x facet pairing table (row ``i`` holds the pairings of
    ray ``i`` with the normals, in their order) and the zero sets of its
    columns (entry ``k`` is the bitset of the rays on facet ``k``).

    Brute force: every (rank-1)-subset of rays spanning a hyperplane
    proposes a normal, which is kept, with its pairings, when it supports
    the whole cone.  The scan also tells a cone that is not
    full-dimensional, with no rank of its own: rays in a hyperplane give a
    normal pairing to zero with every ray, and rays of lower rank give none.
    The rank is taken only when no normal is found, since a cone that fills
    the whole space has no facets either, and when there are too many
    candidates to scan, so that a cone that is not full-dimensional is told
    so rather than refused by size.
    """
    n = cone.ambient_rank
    candidates = math.comb(cone.nrays, n - 1) if n else 0
    if candidates <= MAX_FACET_CANDIDATES:
        found = _supporting_hyperplanes(cone.rays, n) if n else {}
        if all(map(any, found.values())) and (found or cone.is_full_dimensional()):
            normals = tuple(sorted(found))
            table = tuple(tuple(found[u][i] for u in normals) for i in range(cone.nrays))
            zeros = tuple(sum(1 << i for i, p in enumerate(found[u]) if not p) for u in normals)
            return normals, table, zeros
    elif cone.is_full_dimensional():
        raise InputError(
            f"{candidates} facet candidates ({n - 1}-subsets of {cone.nrays} rays) "
            f"exceed the limit of {MAX_FACET_CANDIDATES}"
        )
    raise InputError(
        "cone is not full-dimensional; run split_degenerate and work with "
        "the induced cone"
    )


def facet_normals(cone: Cone) -> tuple[IntVec, ...]:
    """Primitive inner normals of the facets of a full-dimensional cone,
    sorted (see :func:`_facet_scan`)."""
    return cone._facets[0]


def _face_walk(cone: Cone) -> dict[Face, tuple[Face | None, IntVec, IntVec]]:
    """Every face of a full-dimensional pointed cone, the cone first and
    each face after the face it was reached from, mapped to that face one
    dimension up (``None`` for the cone), its :func:`face_functional` and
    the functional's pairings with the rays.  Read-only.

    Faces are exactly the intersections of facets with the cone; each is
    identified by the set of rays it contains (the apex has none, the cone
    itself has all).  The walk goes down from the cone: the facets of a
    face are its maximal proper intersections with the cone's facets, and
    the face poset is graded, so each has dimension one less.  The
    functional and its pairings are sums over the facets containing the
    face, read off the zero sets of :func:`_facet_scan`: the normals for
    the functional, the table's columns for the pairings, with no dot
    product.  A cone that is not full-dimensional is refused by the scan.
    """
    normals, table, zeros = cone._facets
    everything = (1 << cone.nrays) - 1
    walk = {everything: (cone.ambient_rank, None)}
    queue = [everything]
    while queue:
        current = queue.pop()
        cuts = {current & z for z in zeros}
        cuts.discard(current)
        for cut in cuts:
            if cut not in walk and not any(cut != other and cut & other == cut for other in cuts):
                walk[cut] = (walk[current][0] - 1, current)
                queue.append(cut)
    face_of: dict[int | None, Face | None] = {None: None}
    out = {}
    for rays, (dim, parent) in walk.items():
        face = face_of[rays] = Face(tuple(i for i in range(cone.nrays) if rays >> i & 1), dim)
        through = [k for k, z in enumerate(zeros) if not rays & ~z]
        u = tuple(sum(normals[k][c] for k in through) for c in range(cone.ambient_rank))
        out[face] = (face_of[parent], u, tuple(sum(row[k] for k in through) for row in table))
    return out


# The faces live on the cone, so this caches nothing; the zero-size cache
# stays only for its ``cache_info``, which perfbench/layertrace.py reads.
@lru_cache(maxsize=0)
def face_lattice(cone: Cone) -> tuple[Face, ...]:
    """All faces of a full-dimensional pointed cone, sorted by (dim, rays).

    The faces come from the walk down the facets of :func:`_face_walk`.
    """
    return tuple(sorted(cone._faces, key=lambda f: (f.dim, f.ray_indices)))


def _functional_with_pairings(cone: Cone, face: Face) -> tuple[IntVec, IntVec]:
    """:func:`face_functional` and its pairings with every ray, from the
    cone's face walk."""
    entry = cone._faces.get(face)
    if entry is None:
        raise InputError("face does not belong to the cone's face lattice")
    return entry[1:]


def face_functional(cone: Cone, face: Face) -> IntVec:
    """A lattice functional vanishing on the face and positive off it.

    The sum of the inner normals of the facets containing the face: a face
    is the intersection of those facets, so every ray outside it misses at
    least one of them and pairs positively with that facet's normal.
    """
    return _functional_with_pairings(cone, face)[0]


def face_from_ray_indices(cone: Cone, ray_indices: Sequence[int]) -> Face:
    """Locate the face with exactly these rays; reject non-faces."""
    key = tuple(sorted(ray_indices))
    for face in cone._faces:
        if face.ray_indices == key:
            return face
    raise InputError(f"ray index set {list(key)} is not a face of the cone")


def is_smooth_face(cone: Cone, face: Face) -> bool:
    """Whether the rays of the face extend to a lattice basis.

    A face with at most one ray is smooth, since every ray of a cone is
    primitive.  Any other face needs as many rays as dimensions
    (simplicial).  Its k independent rays then extend to a basis exactly
    when their pairings map Z^n onto Z^k, that is, when the row lattice of
    the n x k transposed ray matrix is all of Z^k: its Hermite form has
    every pivot equal to 1.  This is the same answer as every invariant
    factor of the ray matrix being 1.
    """
    k = len(face.ray_indices)
    if k <= 1:
        return True
    if k != face.dim:
        return False
    columns = tuple(zip(*(cone.rays[i] for i in face.ray_indices)))
    h = hermite_normal_form(IntMatrix(cone.ambient_rank, k, columns)).entries
    return all(h[i][i] == 1 for i in range(k))


def _kernel_rows(mat_rows: Sequence[IntVec], dim: int) -> tuple[IntVec, ...]:
    """Hermite basis of the integer kernel {x : row . x == 0 for all rows}."""
    return _form_kernel(_equation_form(mat_rows, dim), len(mat_rows))


def split_degenerate(
    ambient_rank: int, raw_rays: Sequence[Sequence[int]], normalize: bool = False
) -> SplitCone:
    """Factor a possibly degenerate input into cone part and torus part.

    The rays span a saturated sublattice of some rank ``d``; they are
    re-expressed in its Hermite basis, producing a full-dimensional cone of
    rank ``d`` plus ``torus_rank = ambient_rank - d`` free directions.  An
    empty ray list is the pure torus case (zero-dimensional cone marker).
    """
    rays = _ray_list(ambient_rank, raw_rays, 0)
    if not rays:
        return SplitCone(IntMatrix(0, ambient_rank, ()), Cone(0, ()), ambient_rank)
    return _split(ambient_rank, rays, normalize)[1]
