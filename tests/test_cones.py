"""Cone construction, face lattices, smoothness and torus-factor splitting."""

import gc
import importlib
import json
import pkgutil
import random
import time
import weakref

import pytest

import toricstrata as ts

from oracles import (
    closed_system_feasible,
    cyclic_rays,
    det_int,
    primitive_integer,
    rational_rank,
    sample_cones,
    forty_gon_rays,
    sixteen_gon_rays,
    twenty_four_gon_rays,
)


QUADRANT2 = ts.build_cone(2, [(1, 0), (0, 1)])
A1 = ts.build_cone(2, [(1, 0), (1, 2)])
RANK3 = ts.build_cone(3, [(1, 0, 0), (1, 2, 0), (0, 1, 2)])
OVER_SQUARE = ts.build_cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


# ---------------------------------------------------------------------------
# construction and validation


def test_build_cone_rejects_zero_and_duplicate_rays():
    with pytest.raises(ts.InputError):
        ts.build_cone(2, [(0, 0), (1, 0)])
    with pytest.raises(ts.InputError):
        ts.build_cone(2, [(1, 0), (1, 0)])
    with pytest.raises(ts.InputError):
        ts.build_cone(2, [(1, 0), (0, 1, 0)])


def test_build_cone_rejects_imprimitive_rays_and_suggests_normalize():
    with pytest.raises(ts.InputError) as err:
        ts.build_cone(2, [(2, 4), (1, 0)])
    assert "normaliz" in str(err.value) and "[1, 2]" in str(err.value)
    cone = ts.build_cone(2, [(2, 4), (1, 0)], normalize=True)
    assert set(cone.rays) == {(1, 2), (1, 0)}


def test_build_cone_rejects_unpointed_cones():
    with pytest.raises(ts.InputError):
        ts.build_cone(2, [(1, 0), (-1, 0)])
    with pytest.raises(ts.InputError):
        ts.build_cone(2, [(1, 0), (-1, 1), (0, -1)])
    # lines in a proper subspace: pointedness is read off the induced cone
    for rays in (
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0)],
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
        [(1, 1, 1), (-1, -1, -1)],
    ):
        for build in (ts.build_cone, ts.split_degenerate, ts.stratify):
            with pytest.raises(ts.InputError, match="not pointed"):
                build(3, rays)


def test_build_cone_rejects_non_extremal_generators():
    with pytest.raises(ts.InputError) as err:
        ts.build_cone(2, [(1, 0), (0, 1), (1, 1)])
    assert "[1, 1]" in str(err.value) and "not extremal" in str(err.value)


def test_build_cone_accepts_lower_dimensional_pointed_cones():
    cone = ts.build_cone(3, [(1, 0, 0), (1, 2, 0)])
    assert cone.ambient_rank == 3 and cone.nrays == 2
    assert rational_rank(cone.rays) < cone.ambient_rank


def test_build_cone_names_lower_dimensional_non_extremal_ray():
    with pytest.raises(ts.InputError) as err:
        ts.build_cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    message = str(err.value)
    assert "ray #2 [1, 1, 0] is not extremal" in message
    assert "#0, #1" in message


def _random_ray_set(rng):
    """Distinct primitive rays; some span a proper subspace, some a line."""
    n = rng.randint(1, 4)
    k = rng.randint(1, n - 1) if n > 1 and rng.random() < 0.3 else n
    basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    rays = set()
    for _ in range(rng.randint(1, 6)):
        c = [rng.randint(-3, 3) for _ in range(k)]
        v = tuple(sum(c[i] * basis[i][j] for i in range(k)) for j in range(n))
        if any(v):
            rays.add(primitive_integer(v))
    if 0 < len(rays) < 6 and rng.random() < 0.2:
        rays.add(tuple(-x for x in rng.choice(sorted(rays))))
    return n, sorted(rays)


def test_build_cone_agrees_with_the_vertex_enumeration_oracle():
    # oracle: the cone is pointed iff some functional is positive on every
    # ray, and a ray is extremal iff some functional vanishes on it alone
    rng = random.Random(31)
    verdicts = set()
    for _ in range(80):
        n, rays = _random_ray_set(rng)
        if not rays:
            continue
        pointed = closed_system_feasible(n, [(r, 1) for r in rays])
        expected = pointed and all(
            closed_system_feasible(
                n, [(r, 0 if j == i else 1) for j, r in enumerate(rays)]
                + [(tuple(-x for x in rays[i]), 0)]
            )
            for i in range(len(rays))
        )
        try:
            ts.build_cone(n, rays)
            accepted = True
        except ts.InputError as err:
            accepted = False
            kind = "not extremal" if pointed else "not pointed"
            assert kind in str(err), (n, rays, str(err))
        assert accepted == expected, (n, rays)
        verdicts.add((accepted, pointed))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_sixteen_ray_cone_builds_quickly():
    rays = sixteen_gon_rays()
    start = time.perf_counter()
    cone = ts.build_cone(3, rays)
    faces = ts.face_lattice(cone)
    assert time.perf_counter() - start < 5.0
    assert len(faces) == 34  # apex, 16 rays, 16 facets, the cone
    with pytest.raises(ts.InputError) as err:
        ts.build_cone(3, rays + [(0, 0, 1)])
    assert "ray #16 [0, 0, 1] is not extremal" in str(err.value)


def test_sixteen_ray_cone_stratifies_quickly():
    # the Luna route closes the 16 positive circuits (the facet complements)
    # into the 34 closed supports, not the 2^16 subsets; about 0.07 s was
    # measured on a 2-core x86_64 host (Python 3.11)
    start = time.perf_counter()
    report = ts.stratify(3, sixteen_gon_rays())
    assert time.perf_counter() - start < 10.0
    assert sum(len(stratum.faces) for stratum in report.strata) == 34


def test_twenty_four_ray_cone_stratifies_within_the_envelope():
    # 24 positive circuits, the facet complements, and 50 closed supports;
    # about 0.17 s was measured on a 2-core x86_64 host (Python 3.11)
    start = time.perf_counter()
    report = ts.stratify(3, twenty_four_gon_rays())
    assert time.perf_counter() - start < 10.0
    assert report.cone.nrays == 24
    assert sum(len(stratum.faces) for stratum in report.strata) == 50


def test_forty_ray_cone_stratifies_within_the_envelope():
    # 40 facets and 40 positive circuits, each set from double description
    # in dimension 3, and 82 faces; about 0.8 s was measured on a 2-core
    # x86_64 host (Python 3.11), most of it in the per-face class-group
    # quotients
    start = time.perf_counter()
    report = ts.stratify(3, forty_gon_rays())
    assert time.perf_counter() - start < 10.0
    assert report.cone.nrays == 40
    assert sum(len(stratum.faces) for stratum in report.strata) == 82


WORK_REFUSAL = r"^{}: \d+ steps pass the work limit MAX_WORK = {}$"


def test_past_the_work_limit_a_cone_builds_but_does_not_stratify():
    # Cyclic 8x16 has 440 facets, found by double description in about
    # 0.03 s, and 6,304 faces, each counted as its 440 cuts and the 8 x 8
    # entries of its lattice: 3,177,216 steps, over the limit, so the walk
    # stops before any orthogonal lattice is built.
    assert ts.errors.MAX_WORK == 2**21
    rays = cyclic_rays(8, range(16))
    start = time.perf_counter()
    cone = ts.build_cone(8, rays)
    assert len(ts.facet_normals(cone)) == 440
    message = WORK_REFUSAL.format("face walk", 2**21)
    with pytest.raises(ts.InputError, match=message):
        ts.face_lattice(cone)
    with pytest.raises(ts.InputError, match=message):
        ts.stratify(8, rays)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "rank, count, faces, strata", [(4, 41, 238, 155), (5, 24, 1058, 989)]
)
def test_cones_with_many_facet_candidates_stratify(rank, count, faces, strata):
    # C(41, 3) = 10,660 and C(24, 4) = 10,626 (rank-1)-subsets of rays, so
    # a limit on those subsets refused them both.  On a 2-core x86_64 host
    # (Python 3.11) they stratify in about 0.3 s and 0.9 s.
    report = ts.stratify(rank, cyclic_rays(rank, range(count)))
    assert sum(len(stratum.faces) for stratum in report.strata) == faces
    assert len(report.strata) == strata


def test_a_cone_past_the_work_limit_is_refused_within_a_second():
    # Cyclic 9x18 has 1,287 facets and 25,538 faces; its whole face table
    # takes about 6 s and 94 MB.  Double description counts 9 steps for
    # each of its pair tests and stops at the limit instead.
    rays = cyclic_rays(9, range(18))
    start = time.perf_counter()
    with pytest.raises(ts.InputError, match=WORK_REFUSAL.format("double description", 2**21)):
        ts.stratify(9, rays)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "call", [ts.stratify, ts.build_cone, ts.split_degenerate], ids=lambda call: call.__name__
)
def test_the_saturation_of_one_ray_in_a_large_rank_is_refused_within_a_second(call):
    # The 1,199 kernel rows of one ray in rank 1200 fold over the 1200 x 1200
    # identity: about 20 s before the fold was charged, which now comes first.
    start = time.perf_counter()
    with pytest.raises(ts.InputError, match=WORK_REFUSAL.format("saturation", 2**21)):
        call(1200, [(1,) + (0,) * 1199])
    assert time.perf_counter() - start < 1.0


def orthant_rays(rank):
    return [tuple(int(i == j) for j in range(rank)) for i in range(rank)]


@pytest.mark.parametrize(
    "rank, rays, faces, steps",
    [
        (13, orthant_rays(13), 8192, 1_490_944),
        (8, cyclic_rays(8, range(15)), 4834, 1_904_596),
        (9, cyclic_rays(9, range(13)), 4448, 1_169_824),
    ],
    ids=["orthant-13", "cyclic-8x15", "cyclic-9x13"],
)
def test_the_work_limit_keeps_cones_the_face_limit_refused(monkeypatch, rank, rays, faces, steps):
    # A limit of 4,096 faces refused these three; their face walks count
    # under the work limit.  A limit one step lower refuses each walk.
    assert len(ts.face_lattice(ts.build_cone(rank, rays))) == faces
    monkeypatch.setattr(ts.errors, "MAX_WORK", steps - 1)
    with pytest.raises(ts.InputError, match=rf"^face walk: {steps} steps pass"):
        ts.face_lattice(ts.build_cone(rank, rays))


def test_the_rank_13_orthant_stratifies():
    # 2^13 faces, one stratum: the class group is trivial (about 2.3 s on
    # a 2-core x86_64 host, Python 3.11)
    report = ts.stratify(13, orthant_rays(13))
    assert len(report.strata) == 1 and len(report.strata[0].faces) == 8192


def test_the_face_walk_refuses_a_face_with_rays_but_no_facet():
    # A facet scan of the quadrant whose one zero set is {0} cuts the cone
    # down to the face {0}, which no facet cuts further.
    cone = ts.Cone(2, ((1, 0), (0, 1)))
    vars(cone)["_facets"] = (((0, 1),), ((0,), (1,)), (0b01,))
    with pytest.raises(ts.ConsistencyError, match=r"at face \[0\]: it has rays but no facet"):
        ts.face_lattice(cone)


def test_facets_decide_full_dimensionality_without_a_rank(monkeypatch):
    # the greedy start of double description tells a cone that is not
    # full-dimensional before any work is counted
    assert ts.facet_normals(ts.build_cone(2, [(1, 0), (1, 2)])) == ((0, 1), (2, -1))
    flat = ts.Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    wide = ts.Cone(8, tuple(row + (0,) for row in cyclic_rays(7, range(16))))
    monkeypatch.setattr(ts.errors, "MAX_WORK", 0)
    for cone in (flat, wide):
        with pytest.raises(ts.InputError, match="cone is not full-dimensional"):
            ts.facet_normals(cone)
    with pytest.raises(ts.InputError, match=WORK_REFUSAL.format("saturation", 0)):
        ts.build_cone(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])


# ---------------------------------------------------------------------------
# facet normals and faces


def test_facet_normals_of_reference_cones():
    assert ts.facet_normals(QUADRANT2) == ((0, 1), (1, 0))
    assert ts.facet_normals(RANK3) == ((0, 0, 1), (0, 2, -1), (4, -2, 1))
    # normals really support the cone
    for cone in (QUADRANT2, A1, RANK3, OVER_SQUARE):
        for u in ts.facet_normals(cone):
            pairings = [sum(a * b for a, b in zip(ray, u)) for ray in cone.rays]
            assert all(p >= 0 for p in pairings)
            assert any(p == 0 for p in pairings)


def test_face_lattice_counts_and_order():
    faces = ts.face_lattice(QUADRANT2)
    assert [(f.dim, f.ray_indices) for f in faces] == [
        (0, ()),
        (1, (0,)),
        (1, (1,)),
        (2, (0, 1)),
    ]
    # the simplicial rank-3 cone has every ray subset as a face
    assert len(ts.face_lattice(RANK3)) == 8
    # the cone over the unit square drops the two diagonal pairs
    faces = ts.face_lattice(OVER_SQUARE)
    assert len(faces) == 10
    assert max(len(f.ray_indices) for f in faces if f.dim == 2) == 2


def test_face_dimensions_are_the_ranks_of_their_rays(suite_cones):
    # dimensions come from the rank of each face's orthogonal lattice in the
    # face table; the rank of each face's rays checks them independently
    cyclic = [
        ts.build_cone(d, [tuple(t**i for i in range(d)) for t in range(m)])
        for d, m in ((4, 14), (5, 11), (6, 12))
    ]
    polygon = ts.build_cone(3, sixteen_gon_rays())
    for cone in [*suite_cones, *cyclic, polygon, QUADRANT2, RANK3, OVER_SQUARE]:
        for face in ts.face_lattice(cone):
            assert face.dim == rational_rank([cone.rays[i] for i in face.ray_indices])


def test_face_lattice_requires_full_dimension():
    degenerate = ts.build_cone(3, [(1, 0, 0), (1, 2, 0)])
    with pytest.raises(ts.InputError):
        ts.face_lattice(degenerate)


def drop_facet(monkeypatch, k):
    """Make every facet scan lose its ``k``-th normal, with that normal's
    column of the pairing table and its zero set."""
    real = ts.cones._facet_scan

    def dropped(cone):
        normals, table, zeros = real(cone)
        return (
            normals[:k] + normals[k + 1 :],
            tuple(row[:k] + row[k + 1 :] for row in table),
            zeros[:k] + zeros[k + 1 :],
        )

    monkeypatch.setattr(ts.cones, "_facet_scan", dropped)


def test_the_face_table_certificate_catches_every_dropped_facet(fixture_path):
    # Route two's closed supports are patched to equal the face
    # complements, so only the face table's own certificate is left to
    # notice the missing facet.
    with open(fixture_path("polygon_16.json")) as f:
        polygon = json.load(f)
    cyclic = (5, cyclic_rays(5, range(12)))
    for rank, rays in (cyclic, (polygon["rank"], polygon["rays"])):
        rays = tuple(map(tuple, rays))
        for k in range(len(ts.facet_normals(ts.build_cone(rank, rays)))):
            with pytest.MonkeyPatch.context() as patch:
                drop_facet(patch, k)
                patch.setattr(
                    ts.luna,
                    "_closed_supports",
                    lambda ws: sorted(
                        tuple(i for i in range(len(rays)) if i not in face.ray_indices)
                        for face in ts.face_lattice(ts.Cone(rank, rays))
                    ),
                )
                # Cone() validates nothing, so its faces come from the scan.
                with pytest.raises(ts.ConsistencyError, match="face lattice certificate fails"):
                    ts.face_lattice(ts.Cone(rank, rays))
                if rank == 5:
                    with pytest.raises(ts.ConsistencyError, match="face lattice certificate"):
                        ts.stratify(rank, rays)
                else:
                    # Each edge of a polygon holds the only other facet of
                    # its two rays, so validation already refuses them.
                    with pytest.raises(ts.InputError, match="is not extremal"):
                        ts.stratify(rank, rays)


def zero_one_pairing(monkeypatch, k, j):
    """Make every facet scan pair ray ``j`` to 0 with the ``k``-th normal in
    its table, leaving the normals and the zero sets as they are."""
    real = ts.cones._facet_scan

    def altered(cone):
        normals, table, zeros = real(cone)
        row = table[j][:k] + (0,) + table[j][k + 1 :]
        return normals, table[:j] + (row,) + table[j + 1 :], zeros

    monkeypatch.setattr(ts.cones, "_facet_scan", altered)


@pytest.mark.parametrize("name", ["polygon_16", "cyclic_4x8"])
def test_the_face_table_refuses_a_functional_vanishing_off_its_face(fixture_path, name):
    # The zero sets stay true, so validation, the face walk and its
    # completeness certificate all pass; only the table's check of each
    # face functional sees that facet k's functional vanishes on ray j,
    # which lies off that facet.
    with open(fixture_path(f"{name}.json")) as f:
        data = json.load(f)
    rank, rays = data["rank"], tuple(map(tuple, data["rays"]))
    zeros = ts.build_cone(rank, rays)._facets[2]
    k = len(zeros) // 2
    j = next(i for i in range(len(rays)) if not zeros[k] >> i & 1)
    refused = pytest.raises(
        ts.ConsistencyError, match=rf"face lattice certificate fails .* pairs to 0 with ray #{j}$"
    )
    with pytest.MonkeyPatch.context() as patch:
        zero_one_pairing(patch, k, j)
        with refused:
            ts.face_lattice(ts.build_cone(rank, rays))
        with refused:
            ts.face_orbit_data(ts.build_toric(ts.build_cone(rank, rays)))
        with refused:
            ts.stratify(rank, rays)


def test_face_from_ray_indices_validates():
    face = ts.face_from_ray_indices(RANK3, [2, 0])
    assert face.ray_indices == (0, 2) and face.dim == 2
    with pytest.raises(ts.InputError):
        ts.face_from_ray_indices(OVER_SQUARE, [0, 3])  # a diagonal, not a face


def test_face_from_ray_indices_refuses_what_is_not_a_list_of_indices():
    # True is not the index 1, and a number is not a list of indices
    with pytest.raises(ts.InputError, match=r"ray index set \[True\] is not a face"):
        ts.face_from_ray_indices(RANK3, [True])
    for bad in (5, None, [0, "1"]):
        with pytest.raises(ts.InputError, match="ray indices must be given as an iterable"):
            ts.face_from_ray_indices(RANK3, bad)


def test_faces_are_exactly_the_supported_subsets():
    # oracle: S is a face of a pointed full-dimensional cone iff some
    # functional vanishes on S and is strictly positive on the other rays
    for cone in sample_cones(ts, 16, 8, max_rays=5):
        actual = {f.ray_indices for f in ts.face_lattice(cone)}
        nrays = cone.nrays
        for mask in range(1 << nrays):
            subset = tuple(i for i in range(nrays) if mask >> i & 1)
            ineqs = []
            for i in range(nrays):
                ray = cone.rays[i]
                if i in subset:
                    ineqs.append((ray, 0))
                    ineqs.append((tuple(-x for x in ray), 0))
                else:
                    ineqs.append((ray, 1))
            supported = closed_system_feasible(cone.ambient_rank, ineqs)
            assert (subset in actual) == supported, (cone.rays, subset)


def test_face_functional_vanishes_exactly_on_the_face():
    for cone in sample_cones(ts, 17, 20):
        for face in ts.face_lattice(cone):
            u = ts.face_functional(cone, face)
            for i, ray in enumerate(cone.rays):
                pairing = sum(a * b for a, b in zip(ray, u))
                if i in face.ray_indices:
                    assert pairing == 0, (cone.rays, face.ray_indices)
                else:
                    assert pairing > 0, (cone.rays, face.ray_indices)


def test_per_cone_facts_are_dropped_with_the_cone():
    # Facets and faces live on the cone, so nothing holds a cone once its
    # report, or the cone itself, is dropped.  The rays appear in no other
    # test, so no equal cone was seen first.
    report = ts.stratify(3, [(1, 0, 0), (1, 5, 0), (0, 1, 7)])
    cone = ts.build_cone(3, [(0, 0, 1), (2, 0, 1), (0, 3, 1), (2, 3, 1)])
    ts.connection_graph(ts.build_toric(cone).cone)
    refs = [weakref.ref(report.cone), weakref.ref(cone)]
    del report, cone
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_no_function_of_the_package_keeps_a_cache():
    # ``face_lattice`` keeps a zero-size cache for the ``cache_info`` that
    # perfbench/layertrace.py reads; no other function has one.
    cached = {}
    for info in pkgutil.iter_modules(ts.__path__):
        values = list(vars(importlib.import_module(f"toricstrata.{info.name}")).values())
        values += [v for cls in values if isinstance(cls, type) for v in vars(cls).values()]
        for value in values:
            while value is not None and not hasattr(value, "cache_info"):
                value = getattr(value, "__wrapped__", None)
            if value is not None:
                cached[id(value)] = value
    assert list(cached.values()) == [ts.cones.face_lattice]
    assert ts.cones.face_lattice.cache_info().maxsize == 0


# ---------------------------------------------------------------------------
# smoothness


def test_is_smooth_face_reference_values():
    # every face of the quadrant is smooth
    for face in ts.face_lattice(QUADRANT2):
        assert ts.is_smooth_face(QUADRANT2, face)
    # the A1 cone is singular only at its apex orbit (the full face)
    for face in ts.face_lattice(A1):
        expected = face.ray_indices != (0, 1)
        assert ts.is_smooth_face(A1, face) == expected
    # the cone over the square is singular as a whole but smooth on facets
    for face in ts.face_lattice(OVER_SQUARE):
        expected = len(face.ray_indices) < 4
        assert ts.is_smooth_face(OVER_SQUARE, face) == expected


def test_is_smooth_face_refuses_what_is_not_a_face():
    cone = ts.build_cone(2, [(1, 0), (1, 2)])
    # a ray index out of range, unsorted indices, and a wrong dimension
    for face in (ts.Face((0, 5), 2), ts.Face((1, 0), 2), ts.Face((0,), 2), ts.Face((0, 1), 1)):
        with pytest.raises(ts.InputError, match="face does not belong to the cone's face lattice"):
            ts.is_smooth_face(cone, face)


def test_every_face_query_refuses_what_is_not_a_face():
    # each query goes through one lookup of the face table entry
    toric = ts.build_toric(A1)
    face = ts.face_from_ray_indices(A1, [0])
    queries = (
        lambda f: ts.is_smooth_face(A1, f),
        lambda f: ts.face_functional(A1, f),
        lambda f: ts.verify_semigroup_equals_group(toric, f),
        lambda f: ts.connection_exists(A1, face, f),
        lambda f: ts.connection_exists(A1, f, face),
    )
    for query in queries:
        foreign = ts.face_from_ray_indices(RANK3, [0, 2])
        for bad in ((0,), "x", None, ts.Face(0, 1), ts.Face([0], 1), foreign):
            with pytest.raises(ts.InputError, match="face does not belong to the cone's face lattice"):
                query(bad)


def test_smooth_simplicial_face_means_unit_determinant():
    for cone in sample_cones(ts, 18, 15):
        for face in ts.face_lattice(cone):
            k = len(face.ray_indices)
            smooth = ts.is_smooth_face(cone, face)
            if k != face.dim:
                assert not smooth  # non-simplicial faces are never smooth
            elif k == cone.ambient_rank:
                rows = [cone.rays[i] for i in face.ray_indices]
                assert smooth == (abs(det_int(rows)) == 1)


# ---------------------------------------------------------------------------
# torus factor splitting


def test_split_degenerate_full_dimensional_is_identity():
    split = ts.split_degenerate(2, A1.rays)
    assert split.torus_rank == 0
    assert split.cone.rays == A1.rays


def test_split_degenerate_extracts_torus_factor():
    split = ts.split_degenerate(2, [(1, 0)])
    assert split.torus_rank == 1
    assert split.cone.ambient_rank == 1
    assert split.cone.rays == ((1,),)


def test_split_degenerate_no_rays_is_a_pure_torus():
    split = ts.split_degenerate(3, [])
    assert split.torus_rank == 3
    assert split.cone.nrays == 0


def test_split_degenerate_preserves_pairing_structure():
    # a plane cone embedded skewly in rank 3 splits into rank 2 + torus
    rays = [(1, 1, 1), (1, 3, 5)]
    split = ts.split_degenerate(3, rays)
    assert split.torus_rank == 1
    inner = split.cone
    assert inner.ambient_rank == 2 and inner.nrays == 2
    # primitive induced rays still span a pointed two-dimensional cone
    assert rational_rank(inner.rays) == inner.ambient_rank


def test_split_degenerate_coordinates_embed_back_onto_the_rays():
    # cones of rank d mapped into rank d + 1 or d + 2 by an injective integer
    # matrix, so the images span a proper, possibly non-saturated, sublattice
    rng = random.Random(31)
    for cone in sample_cones(ts, 32, 200, max_rank=3):
        d = cone.ambient_rank
        n = d + rng.randint(1, 2)
        while True:
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
            if rational_rank(b) == d:
                break
        rays = [
            primitive_integer([sum(r[l] * b[l][j] for l in range(d)) for j in range(n)])
            for r in cone.rays
        ]
        split = ts.split_degenerate(n, rays)
        assert split.torus_rank == n - d
        assert rational_rank(split.cone.rays) == split.cone.ambient_rank
        basis = split.sublattice_basis
        assert [basis.transpose().apply(c) for c in split.cone.rays] == rays


def test_split_degenerate_basis_depends_only_on_the_saturated_span():
    # the sublattice basis is the Hermite basis of the saturated span, so
    # ray sets spanning the same saturated sublattice share it
    plane = ts.split_degenerate(3, [(1, 1, 0), (1, -1, 0)])
    assert plane.sublattice_basis.entries == ((1, 0, 0), (0, 1, 0))
    for rays in ([(1, 0, 0), (0, 1, 0)], [(2, 1, 0), (1, 2, 0)], [(3, -1, 0), (-1, 3, 0)]):
        assert ts.split_degenerate(3, rays).sublattice_basis == plane.sublattice_basis
    skew = ts.split_degenerate(4, [(1, 1, 1, 0), (1, 3, 5, 0)]).sublattice_basis
    assert ts.split_degenerate(4, [(1, 2, 3, 0), (2, 3, 4, 0)]).sublattice_basis == skew
    assert ts.split_degenerate(4, [(1, 1, 1, 0), (1, 2, 3, 0)]).sublattice_basis == skew


def test_split_degenerate_rejects_lines():
    with pytest.raises(ts.InputError):
        ts.split_degenerate(2, [(1, 0), (-1, 0)])
