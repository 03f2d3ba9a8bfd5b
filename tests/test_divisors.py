"""Class groups, per-face orbit data and the semigroup-generation check."""

import json
from pathlib import Path

import pytest

import toricstrata as ts

from oracles import det_int, sample_cones, smooth_by_smith


A1 = ts.build_toric(ts.build_cone(2, [(1, 0), (1, 2)]))
RANK3 = ts.build_toric(ts.build_cone(3, [(1, 0, 0), (1, 2, 0), (0, 1, 2)]))
QUADRANT2 = ts.build_toric(ts.build_cone(2, [(1, 0), (0, 1)]))


def orbit(toric, ray_indices):
    face = ts.face_from_ray_indices(toric.cone, ray_indices)
    return ts.face_orbit_data(toric)[face]


# ---------------------------------------------------------------------------
# class groups


def test_class_groups_of_reference_cones():
    assert QUADRANT2.class_group.describe() == "0"
    assert A1.class_group.describe() == "Z/2"
    assert RANK3.class_group.describe() == "Z/4"


def test_divisor_class_orders_in_the_cyclic_example():
    # ray order: (1,0,0), (1,2,0), (0,1,2); the middle class is the
    # inverse of the first and the last has order two
    group = RANK3.class_group
    orders = []
    for cls in RANK3.divisor_classes:
        k = 1
        acc = cls
        while not acc.is_zero():
            k += 1
            acc = acc + cls
        orders.append(k)
    assert orders == [4, 4, 2]
    assert (RANK3.divisor_classes[0] + RANK3.divisor_classes[1]).is_zero()
    assert group.order() == 4


def test_relations_from_character_functionals_vanish():
    # every lattice functional u gives the relation sum <v_i, u> [D_i] = 0
    for toric in (A1, RANK3, QUADRANT2):
        n = toric.cone.ambient_rank
        for j in range(n):
            u = tuple(1 if i == j else 0 for i in range(n))
            total = toric.class_group.zero()
            for ray, cls in zip(toric.cone.rays, toric.divisor_classes):
                total = total + sum(a * b for a, b in zip(ray, u)) * cls
            assert total.is_zero()


def test_class_group_free_rank_is_rays_minus_rank():
    for cone in sample_cones(ts, 21, 25):
        toric = ts.build_toric(cone)
        assert toric.class_group.free_rank == cone.nrays - cone.ambient_rank
        handle = ts.subgroup_canon(toric.class_group, toric.divisor_classes)
        assert ts.is_full(handle)


def test_simplicial_class_group_order_is_the_ray_determinant():
    # with exactly rank-many rays the class group is finite of order |det|
    for cone in sample_cones(ts, 22, 40):
        if cone.nrays != cone.ambient_rank:
            continue
        toric = ts.build_toric(cone)
        assert toric.class_group.order() == abs(det_int(cone.rays))


def test_build_toric_requires_full_dimensional_cone(monkeypatch):
    with pytest.raises(ts.InputError) as err:
        ts.build_toric(ts.build_cone(3, [(1, 0, 0), (1, 2, 0)]))
    assert "split_degenerate" in str(err.value)
    # Under any work limit the cone is still told it is not full-dimensional:
    # a square cone in a hyperplane of Z^4 has 4 facets and 10 faces in it.
    flat = ts.build_cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)])
    monkeypatch.setattr(ts.errors, "MAX_WORK", 0)
    with pytest.raises(ts.InputError, match="not full-dimensional"):
        ts.build_toric(flat)


# ---------------------------------------------------------------------------
# per-face orbit data


def test_face_orbit_data_reference_values():
    apex = orbit(RANK3, [])
    assert apex.dset == (0, 1, 2)
    assert apex.orbit_dim == 3 and apex.smooth
    assert apex.local_class_group.describe() == "0"
    assert ts.is_full(apex.subgroup)

    ray0 = orbit(RANK3, [0])
    assert ray0.dset == (1, 2)
    assert ray0.orbit_dim == 2 and ray0.smooth
    assert ts.is_full(ray0.subgroup)  # (3, ) and (2, ) generate Z/4

    wall = orbit(RANK3, [0, 1])
    assert wall.dset == (2,)
    assert wall.orbit_dim == 1 and not wall.smooth
    assert ts.subgroup_structure(wall.subgroup).describe() == "Z/2"
    assert wall.local_class_group.describe() == "Z/2"

    full = orbit(RANK3, [0, 1, 2])
    assert full.dset == ()
    assert full.orbit_dim == 0 and not full.smooth
    assert ts.subgroup_structure(full.subgroup).describe() == "0"
    assert full.local_class_group.describe() == "Z/4"


def test_face_orbit_data_covers_every_face_in_lattice_order():
    for toric in (A1, RANK3, QUADRANT2):
        data = ts.face_orbit_data(toric)
        assert tuple(data) == toric.faces
        assert all(d.face == face for face, d in data.items())


def _fixture_cone(name):
    with open(Path(__file__).parent / "fixtures" / f"{name}.json") as handle:
        data = json.load(handle)
    return ts.build_cone(data["rank"], data["rays"])


def test_inserted_subgroups_and_inherited_smoothness_match_the_per_face_oracles(suite_cones):
    # route one inserts classes into the subgroup of a face one dimension up
    # and inherits the whole group and smoothness downwards; each face must
    # still get the subgroup of its own dset classes and the Smith answer
    cones = [*suite_cones, _fixture_cone("cyclic_4x8"), _fixture_cone("polygon_16")]
    for cone in cones:
        toric = ts.build_toric(cone)
        for face, data in ts.face_orbit_data(toric).items():
            classes = [toric.divisor_classes[i] for i in data.dset]
            assert data.subgroup == ts.subgroup_canon(toric.class_group, classes)
            assert data.smooth == smooth_by_smith(ts, cone, face), (cone.rays, face)
            assert ts.is_smooth_face(cone, face) == smooth_by_smith(ts, cone, face)


def test_local_class_group_order_follows_lagrange():
    for cone in sample_cones(ts, 23, 20):
        toric = ts.build_toric(cone)
        total = toric.class_group.order()
        for face, data in ts.face_orbit_data(toric).items():
            # one quotient serves every face of a subgroup
            assert data.local_class_group == ts.quotient_group(toric.class_group, data.subgroup)
            sub_order = ts.subgroup_structure(data.subgroup).order()
            local_order = data.local_class_group.order()
            if total is not None:
                assert sub_order * local_order == total
            assert data.smooth == data.local_class_group.is_trivial()
            assert data.orbit_dim == cone.ambient_rank - face.dim


# ---------------------------------------------------------------------------
# semigroup equals group


def test_semigroup_generation_verified_on_reference_cones():
    for toric in (A1, RANK3, QUADRANT2):
        for face in toric.faces:
            check = ts.verify_semigroup_equals_group(toric, face)
            assert check.verified


def test_semigroup_generation_verified_across_random_cones():
    for cone in sample_cones(ts, 24, 30):
        toric = ts.build_toric(cone)
        for face in toric.faces:
            check = ts.verify_semigroup_equals_group(toric, face)
            assert check.verified, (cone.rays, face.ray_indices)


def test_semigroup_certificate_rejects_foreign_faces():
    square = ts.build_toric(
        ts.build_cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    )
    full = ts.face_from_ray_indices(square.cone, [0, 1, 2, 3])
    with pytest.raises(ts.InputError):
        ts.verify_semigroup_equals_group(RANK3, full)


def test_semigroup_certificate_is_the_face_functional():
    # the certificate character vanishes on the face, pairs positively with
    # every other ray, and its pairings are the coefficients of a principal
    # divisor, so each inverse is a nonnegative combination of the dset
    for face in RANK3.faces:
        check = ts.verify_semigroup_equals_group(RANK3, face)
        assert check.verified
        pairings = [
            sum(a * b for a, b in zip(ray, check.functional))
            for ray in RANK3.cone.rays
        ]
        for i, p in enumerate(pairings):
            assert (p == 0) if i in face.ray_indices else (p > 0)
        total = RANK3.class_group.zero()
        for p, g in zip(pairings, RANK3.divisor_classes):
            total = total + p * g
        assert total.is_zero()


def test_semigroup_certificate_refuses_a_nonzero_principal_class(monkeypatch):
    # the conifold has class group Z; shifting one divisor class breaks the
    # relation sum_j <p_j, e_c> [D_j] = 0 for the coordinates where that
    # ray is nonzero, so the certificate of every face would be void
    conifold = ts.build_cone(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert ts.build_toric(conifold).class_group.describe() == "Z"
    cokernel = ts.divisors.group_from_cokernel

    def shifted(pairing):
        group, classes = cokernel(pairing)
        return group, (classes[0] + group.element((1,)), *classes[1:])

    monkeypatch.setattr(ts.divisors, "group_from_cokernel", shifted)
    with pytest.raises(ts.ConsistencyError, match="coordinate character e_0 has divisor class"):
        ts.build_toric(conifold)
