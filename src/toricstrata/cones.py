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

Facets come from exact double description, whose work follows the facets,
not the (rank-1)-subsets of rays.  The same routine, on vectors that may
repeat, vanish or span a cone with a line, gives ``luna`` its positive
circuits.  Both it and the face table's walk count their work against
``errors.MAX_WORK``.

The facts of a cone live on the :class:`Cone` object, computed on first
use and dropped with it: the facet scan (sorted normals, the ray x facet
pairing table and its column zero sets) and the face table, which lists
every face with its facets, orthogonal lattice, face functional and
smoothness, and certifies its own completeness and every functional.
Every face query reads the table through one validated lookup; no
process-wide cache holds it.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property, lru_cache, reduce
from itertools import groupby
from operator import and_, mul
from typing import NamedTuple, Sequence

from .errors import ConsistencyError, InputError, _Record, _check_work
from .linalg import (
    IntMatrix,
    IntVec,
    _identity,
    _is_int,
    _kernel,
    _lattice_coordinates,
    _hermite_reduced,
    _orthogonal_echelon,
    _pivot_index,
    _primitive,
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


class Cone(_Record):
    """A pointed cone: primitive, pairwise distinct, extremal generators."""

    ambient_rank: int
    rays: tuple[IntVec, ...]

    @property
    def nrays(self) -> int:
        return len(self.rays)

    # Computed on first use into the instance ``__dict__``, so they go with
    # the cone; equality and hashing read only the two fields.
    _facets = cached_property(lambda self: _facet_scan(self))
    _faces = cached_property(lambda self: _face_table(self))


def _check_cone(cone) -> None:
    if not isinstance(cone, Cone):
        raise InputError("cone must be a Cone")


class Face(_Record):
    """A face of a cone, identified by the sorted indices of its rays."""

    ray_indices: tuple[int, ...]
    dim: int

    def __init__(self, ray_indices, dim) -> None:
        object.__setattr__(self, "ray_indices", ray_indices)
        object.__setattr__(self, "dim", dim)


class SplitCone(_Record):
    """Degenerate-input factorization: X = (full-dimensional part) x torus.

    ``sublattice_basis`` rows are the Hermite basis of the saturated
    sublattice spanned by the input rays, so equal spans give equal bases;
    the induced cone lives in that basis and embedding its rays back
    through the basis reproduces the input rays exactly.
    """

    sublattice_basis: IntMatrix
    cone: Cone
    torus_rank: int


def _validated_rays(
    ambient_rank: int, raw_rays: Sequence[Sequence[int]], normalize: bool
) -> tuple[list[IntVec], list[IntVec]]:
    """Read each ray once, in order, and check it before the next is read;
    return the tuples read, as given, and the validated rays."""
    given: list[IntVec] = []
    rays: list[IntVec] = []
    for idx, raw in enumerate(raw_rays):
        try:
            vec = tuple(raw)
        except TypeError:
            raise InputError(f"ray #{idx} is not a sequence of coordinates") from None
        given.append(vec)
        if len(vec) != ambient_rank:
            raise InputError(
                f"ray #{idx} has {len(vec)} coordinates, expected {ambient_rank}"
            )
        if not all(map(_is_int, vec)):
            raise InputError(f"ray #{idx} has a non-integer coordinate")
        if not any(vec):
            raise InputError(f"ray #{idx} is the zero vector")
        prim = _primitive(vec)
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
    return given, rays


def _split(
    ambient_rank: int, raw_rays: Sequence[Sequence[int]], normalize: bool, torus: bool
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...], SplitCone]:
    """Read and check the input once; return the rays as given, before
    normalization, the validated rays, and their split: the Hermite basis
    of their saturated span and the induced cone of their coordinates in
    it.  With ``torus`` the rank may be 0 and no rays are the pure torus;
    without it the rank must be at least 1 and a ray is required.  Errors
    name the input's rays."""
    if not _is_int(ambient_rank):
        raise InputError("ambient rank must be an integer")
    if ambient_rank < (0 if torus else 1):
        raise InputError(f"ambient rank must be {'nonnegative' if torus else 'at least 1'}")
    try:
        raw_rays = list(raw_rays)
    except TypeError:
        raise InputError("rays must be given as an iterable of rays") from None
    if not raw_rays:
        if not torus:
            raise InputError("at least one ray is required")
        return (), (), SplitCone(IntMatrix(0, ambient_rank, ()), Cone(0, ()), ambient_rank)
    if ambient_rank == 0:
        raise InputError("ambient rank must be at least 1")
    given, rays = map(tuple, _validated_rays(ambient_rank, raw_rays, normalize))

    # Saturation = kernel of the kernel: integer kernels are saturated, and
    # the orthogonal complement of the complement of the ray span is exactly
    # the rational ray span intersected with the lattice.  With no
    # complement the rays span the lattice: the Hermite basis is the
    # identity and the rays are their own coordinates.
    # Each fold pairs its row with the at most n x n entries of the lattice
    # so far, charged before the fold runs.
    steps = len(rays) * ambient_rank**2
    _check_work("saturation", steps)
    complement = _kernel(rays, ambient_rank)
    steps += len(complement) * ambient_rank**2
    _check_work("saturation", steps)
    sat_basis = _kernel(complement, ambient_rank)
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
    return given, rays, SplitCone(basis, induced, ambient_rank - basis.rows)


def build_cone(
    ambient_rank: int, raw_rays: Sequence[Sequence[int]], normalize: bool = False
) -> Cone:
    """Validate generators and build a pointed cone.

    Rejects zero, non-primitive (without ``normalize``), duplicate and
    non-extremal rays, and generator sets that span a line through the
    origin.  Ray order is preserved.  A non-extremal ray is reported with
    the other rays of the smallest face containing it.
    """
    _, rays, split = _split(ambient_rank, raw_rays, normalize, torus=False)
    # No torus factor: the basis is the identity and the scanned induced cone has these rays.
    return split.cone if split.torus_rank == 0 else Cone(ambient_rank, rays)


def _supporting_hyperplanes(
    vectors: Sequence[IntVec], dim: int
) -> dict[IntVec, int] | None:
    """The facets of the cone generated by ``vectors`` (zero, repeated, or
    with a line) as primitive inner normals mapped to the bitsets of the
    vectors they vanish on: none when the cone is the whole space, ``None``
    when the vectors do not span Q^dim.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
    and Prodon 1996) of the dual cone {u : <v, u> >= 0}, pointed as the
    vectors span.  One fraction-free Gauss-Jordan pass (Bareiss) takes
    ``dim`` independent vectors greedily, each one's pivot row becoming a
    generator of their simplicial dual cone, with the bitset of the vectors
    it vanishes on; :func:`_add_halfspace` adds the others, keeping those
    bitsets exact.  Work is counted against ``MAX_WORK``: once the greedy
    pass has decided that the vectors span, the ``dim x dim`` entries each
    of its ``dim`` pivots updated, and before each addition ``dim`` for each
    pair of generators it tests across the new vector.
    """
    free, gens, taken, rest, prev = list(_identity(dim)), [], 0, [], 1
    for k, v in enumerate(vectors):
        pairs = [sum(map(mul, v, u)) for u in free]
        j = next((j for j, q in enumerate(pairs) if q), None)
        if j is None:
            rest.append(k)
            continue
        pivot, p = free.pop(j), pairs.pop(j)
        if p < 0:
            pivot, p = tuple(-x for x in pivot), -p

        def step(u, q):  # one Bareiss update: every division is exact
            return tuple((p * x - q * y) // prev for x, y in zip(u, pivot))

        free = [step(u, q) for u, q in zip(free, pairs)]
        gens = [(step(u, sum(map(mul, v, u))), z | 1 << k) for u, z in gens] + [(pivot, taken)]
        taken, prev = taken | 1 << k, p
    if free:
        return None
    steps = dim**3
    _check_work("double description", steps)
    gens = [(_primitive(u), z) for u, z in gens]
    for k in rest:
        pairings = [sum(map(mul, vectors[k], u)) for u, _ in gens]
        steps += sum(a > 0 for a in pairings) * sum(a < 0 for a in pairings) * dim
        _check_work("double description", steps)
        gens = _add_halfspace(gens, pairings, k, dim)
        if not gens:
            return {}
    return dict(gens)


def _add_halfspace(
    gens: list[tuple[IntVec, int]], pairings: list[int], k: int, dim: int
) -> list[tuple[IntVec, int]]:
    """The generators, with zero sets, of the pointed cone of ``gens`` cut by
    <v, u> >= 0, ``v`` being vector ``k`` and ``pairings`` its pairings with
    the generators: those pairing >= 0 with ``v``, and for each adjacent
    pair across it the combination vanishing on ``v``.  Two are adjacent
    when no third vanishes on all the (at least ``dim - 2``) vectors both
    vanish on, which cut out the smallest face holding both: the bitsets of
    the generators vanishing on each of those vectors meet in the pair
    alone."""
    out, pos, neg = [], [], []
    for g, ((u, z), a) in enumerate(zip(gens, pairings)):
        if a:
            (pos if a > 0 else neg).append((u, z, a, g))
        else:
            out.append((u, z | 1 << k))
    out += [(u, z) for u, z, _, _ in pos]
    zeros = [z for _, z in gens]
    on: dict[int, int] = {}  # vector index -> bitset of the generators vanishing on it
    every = (1 << len(gens)) - 1
    for u, zu, a, gu in pos:
        for w, zw, b, gw in neg:
            common = zu & zw
            if common.bit_count() < dim - 2:
                continue
            meet = every
            for j in _ray_list_of(common):
                if j not in on:
                    on[j] = sum(1 << g for g, z in enumerate(zeros) if z >> j & 1)
                meet &= on[j]
            if meet == 1 << gu | 1 << gw:
                out.append((_primitive([a * y - b * x for x, y in zip(u, w)]), common | 1 << k))
    return out


def _facet_scan(cone: Cone) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...], tuple[int, ...]]:
    """The facets of a full-dimensional cone from one double description
    (:func:`_supporting_hyperplanes`): the sorted primitive inner normals,
    the ray x facet pairing table (row ``i`` holds the pairings of ray ``i``
    with the normals, in their order) and the zero sets of its columns
    (entry ``k`` is the bitset of the rays on facet ``k``).  A cone that is
    not full-dimensional is told so before any work is counted.
    """
    found = _supporting_hyperplanes(cone.rays, cone.ambient_rank)
    if found is None:
        raise InputError(
            "cone is not full-dimensional; run split_degenerate and work with "
            "the induced cone"
        )
    normals = tuple(sorted(found))
    table = tuple(tuple(sum(map(mul, ray, u)) for u in normals) for ray in cone.rays)
    zeros = tuple(found[u] for u in normals)
    return normals, table, zeros


def facet_normals(cone: Cone) -> tuple[IntVec, ...]:
    """Primitive inner normals of the facets of a full-dimensional cone,
    sorted (see :func:`_facet_scan`)."""
    _check_cone(cone)
    return cone._facets[0]


class _FaceEntry(NamedTuple):
    """One face of a cone's face table (see :func:`_face_table`)."""

    face: Face
    index: int  # position in face_lattice order
    children: tuple[int, ...]  # ray bitsets of the facets of the face
    lattice: tuple[IntVec, ...]  # Hermite basis of the face's orthogonal lattice
    functional: IntVec  # face_functional
    pairings: IntVec  # the functional's pairings with the rays
    smooth: bool  # is_smooth_face


def _face_table(cone: Cone) -> dict[int, _FaceEntry]:
    """Every face of a full-dimensional pointed cone, keyed by the bitset of
    its rays (none for the apex, all for the cone), in :func:`face_lattice`
    order.  Read-only.

    Faces are the intersections of facets with the cone.  The walk down
    keeps as children all maximal proper cuts of each face by the facets.
    Before it cuts a face it counts against ``MAX_WORK`` one step per facet
    and the ``n x n`` entries of the lattice the pass up builds for the
    face, so a refused cone builds no lattice.
    Going back up by ray count, each face F takes the Hermite basis K_F of
    M_F = {x in Z^n : <p_i, x> = 0 for i in F}: the identity at the apex,
    else K_G of a child G with most rays with :func:`_orthogonal_echelon`
    folded over the rays G lacks and :func:`_hermite_reduced` once; F has
    dimension n - len(K_F).  The functional and its pairings are sums of
    the normals and table columns of the facets on all rays of the face.

    Each functional is certified here, once for all its readers: it pairs
    to 0 with the face's rays and to at least 1 with every other ray, or
    :class:`ConsistencyError` is raised.  The columns are nonnegative, so
    the sum vanishes on a ray exactly when every facet through the face
    holds it: the check says that these facets cut out the face exactly
    (Cox-Little-Schenck, 1.2), and u >= 1 off the face is the witness that
    the semigroup certificate and route three read.

    Smoothness (the rays extend to a lattice basis; Cox-Little-Schenck,
    Thm 1.3.12) comes from the same step: the apex is smooth, and F is
    smooth exactly when G is, F has one ray tau more, and the pairings of
    p_tau with the rows of K_G have gcd 1.  Proof: faces of smooth faces are
    smooth, and smooth faces are simplicial, so each facet of a smooth F has
    one ray fewer.  A smooth G's rays are a basis of its saturated span S_G,
    and Z^n / S_G is free and dual to M_G, so adding tau keeps a basis
    exactly when p_tau is primitive modulo S_G: gcd <p_tau, K_G> = 1.
    """
    normals, table, zeros = cone._facets
    n = cone.ambient_rank
    children: dict[int, list[int]] = {}
    queue = [(1 << cone.nrays) - 1]
    found = set(queue)
    steps = 0
    while queue:
        current = queue.pop()
        steps += len(zeros) + n * n
        _check_work("face walk", steps)
        # A cut is maximal when no cut with more rays contains it.
        kids = children[current] = []
        cuts = sorted({current & z for z in zeros} - {current}, key=int.bit_count, reverse=True)
        for _, same in groupby(cuts, int.bit_count):
            kids += [cut for cut in same if not any(cut & kid == cut for kid in kids)]
        if current and not kids:
            raise _uncertified(current, "it has rays but no facet")
        new = [kid for kid in kids if kid not in found]
        found.update(new)
        queue.extend(new)

    lattice = {0: _identity(n)}
    smooth = {0: True}
    for bits in sorted(children, key=int.bit_count)[1:]:
        child = max(children[bits], key=int.bit_count)
        missing = [cone.rays[i] for i in _ray_list_of(bits & ~child)]
        lattice[bits] = _hermite_reduced(reduce(_orthogonal_echelon, missing, lattice[child]))
        pairs = (sum(map(mul, row, missing[0])) for row in lattice[child])
        smooth[bits] = smooth[child] and len(missing) == 1 and math.gcd(*pairs) == 1
    dim = {bits: n - len(basis) for bits, basis in lattice.items()}
    _certify_faces(children, dim)

    on = [sum(1 << k for k, p in enumerate(row) if not p) for row in table]  # each ray's facets
    out = {}
    for index, bits in enumerate(sorted(children, key=lambda b: (dim[b], _ray_list_of(b)))):
        rays = _ray_list_of(bits)
        through = _ray_list_of(reduce(and_, (on[i] for i in rays), (1 << len(zeros)) - 1))
        u = tuple(sum(normals[k][c] for k in through) for c in range(n))
        pairings = tuple(sum(row[k] for k in through) for row in table)
        for j, p in enumerate(pairings):
            if (p != 0 if bits >> j & 1 else p < 1):
                raise _uncertified(bits, f"its functional {list(u)} pairs to {p} with ray #{j}")
        entry = (index, tuple(children[bits]), lattice[bits], u, pairings, smooth[bits])
        out[bits] = _FaceEntry(Face(tuple(rays), dim[bits]), *entry)
    return out


def _certify_faces(children: dict[int, list[int]], dim: dict[int, int]) -> None:
    """Certify that the face walk listed every face, or raise
    :class:`ConsistencyError`.

    Three rules: every face with a ray has a child (checked by the walk; a
    face without rays has dimension 0, and one with a ray at least 1),
    every child has dimension exactly one less than its face, and every
    face G two levels below a face F lies in exactly two children of F,
    the diamond property (Ziegler, *Lectures on Polytopes*, Thm 2.7).

    Why they certify completeness.  A listed face is an intersection of
    true facets, so a true face, and the dimension rule makes each child of
    F a true facet of F.  Induct on dimension: assume that every listed
    face of dimension below k has all its facets listed, and let F be a
    listed face of dimension k.  For k = 1 the only facet of F is the apex,
    and F has a child.  For k >= 2, suppose a facet of F is missing.  The
    facet-ridge graph of F is connected, since it is the graph of the polar
    polytope, and F has a listed child, so some ridge G joins a listed
    child C to a missing facet.  G is a facet of C, so it is listed below C
    by the induction hypothesis, and it lies in exactly two facets of F, of
    which only C is listed: the diamond count at (F, G) is 1 and the check
    fails.  Hence every listed face has all its facets listed; the cone
    itself is listed, and every face is reached from it down a chain of
    facets.
    """
    for bits, kids in children.items():
        for kid in kids:
            if dim[kid] != dim[bits] - 1:
                raise _uncertified(
                    bits, f"its facet {_ray_list_of(kid)} has dimension {dim[kid]}, "
                    f"not {dim[bits] - 1}"
                )
        for low, count in Counter(low for kid in kids for low in children[kid]).items():
            if count != 2:
                raise _uncertified(
                    bits, f"{count} of its facets, not 2, contain the face "
                    f"{_ray_list_of(low)} two levels below it"
                )


def _ray_list_of(bits: int) -> list[int]:
    out = []  # one step per set bit: facet bitsets are long and sparse
    while bits:
        out.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return out


def _uncertified(bits: int, why: str) -> ConsistencyError:
    return ConsistencyError(f"face lattice certificate fails at face {_ray_list_of(bits)}: {why}")


# The faces live on the cone, so this caches nothing; the zero-size cache
# stays only for its ``cache_info``, which perfbench/layertrace.py reads.
@lru_cache(maxsize=0)
def face_lattice(cone: Cone) -> tuple[Face, ...]:
    """All faces of a full-dimensional pointed cone, sorted by (dim, rays),
    from its certified face table (see :func:`_face_table`)."""
    _check_cone(cone)
    return tuple(entry.face for entry in cone._faces.values())


def _face_entry(cone: Cone, ray_indices: tuple) -> _FaceEntry | None:
    """The table entry of the face with exactly these rays, in increasing
    order, or ``None``: one lookup by the rays' bitset.  Anything but a
    tuple of ``int`` indices gives ``None``."""
    nrays = cone.nrays
    if isinstance(ray_indices, tuple) and all(_is_int(i) and 0 <= i < nrays for i in ray_indices):
        entry = cone._faces.get(sum(1 << i for i in ray_indices))
        if entry is not None and entry.face.ray_indices == ray_indices:
            return entry
    return None


def _entry_of(cone: Cone, face: Face) -> _FaceEntry:
    """The table entry of ``face``; anything but a face of this cone's face
    lattice is refused."""
    entry = _face_entry(cone, face.ray_indices) if isinstance(face, Face) else None
    if entry is None or entry.face != face:
        raise InputError("face does not belong to the cone's face lattice")
    return entry


def face_functional(cone: Cone, face: Face) -> IntVec:
    """A lattice functional vanishing on the face and positive off it.

    The sum of the inner normals of the facets containing the face: a face
    is the intersection of those facets, so every ray outside it misses at
    least one of them and pairs positively with that facet's normal.
    """
    return _entry_of(cone, face).functional


def face_from_ray_indices(cone: Cone, ray_indices: Sequence[int]) -> Face:
    """Locate the face with exactly these rays; reject non-faces."""
    _check_cone(cone)
    try:
        key = tuple(sorted(ray_indices))
    except TypeError:
        raise InputError("ray indices must be given as an iterable of integers") from None
    entry = _face_entry(cone, key)
    if entry is None:
        raise InputError(f"ray index set {list(key)} is not a face of the cone")
    return entry.face


def is_smooth_face(cone: Cone, face: Face) -> bool:
    """Whether the rays of the face extend to a lattice basis (see
    :func:`_face_table`); a face outside the cone's face lattice is refused."""
    return _entry_of(cone, face).smooth


def split_degenerate(
    ambient_rank: int, raw_rays: Sequence[Sequence[int]], normalize: bool = False
) -> SplitCone:
    """Factor a possibly degenerate input into cone part and torus part.

    The rays span a saturated sublattice of some rank ``d``; they are
    re-expressed in its Hermite basis, producing a full-dimensional cone of
    rank ``d`` plus ``torus_rank = ambient_rank - d`` free directions.  An
    empty ray list is the pure torus case (zero-dimensional cone marker).
    """
    return _split(ambient_rank, raw_rays, normalize, torus=True)[2]
