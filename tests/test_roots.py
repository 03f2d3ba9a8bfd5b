"""Root enumeration and one-parameter orbit connections."""

import json
import time
from pathlib import Path

import pytest

import toricstrata as ts

from oracles import brute_force_roots, sample_cones


A1 = ts.build_cone(2, [(1, 0), (1, 2)])
RANK3 = ts.build_cone(3, [(1, 0, 0), (1, 2, 0), (0, 1, 2)])


def quadrant(n):
    return ts.build_cone(
        n, [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    )


def face(cone, ray_indices):
    return ts.face_from_ray_indices(cone, ray_indices)


# ---------------------------------------------------------------------------
# individual roots


def test_demazure_root_validates_the_definition():
    root = ts.demazure_root(A1, (-1, 1), 0)
    assert root.vector == (-1, 1) and root.distinguished_ray == 0
    with pytest.raises(ts.InputError):
        ts.demazure_root(A1, (-1, 0), 0)  # pairs to -1 with both rays
    with pytest.raises(ts.InputError):
        ts.demazure_root(A1, (1, 0), 0)  # pairs to +1 with the ray
    with pytest.raises(ts.InputError):
        ts.demazure_root(A1, (-2, 1), 0)  # pairs to -2, not -1
    with pytest.raises(ts.InputError):
        ts.demazure_root(A1, (-1, 1), 1)  # wrong distinguished ray
    with pytest.raises(ts.InputError):
        ts.demazure_root(A1, (-1, 1), 5)  # ray index out of range


def test_default_box_bound_scales_with_the_rays():
    assert ts.default_box_bound(quadrant(2)) == 10
    assert ts.default_box_bound(RANK3) == 20


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_roots_on_the_quadrant_counts():
    for n in (2, 3):
        cone = quadrant(n)
        for bound in (1, 2, 3):
            per_ray = ts.enumerate_roots(cone, bound)
            assert len(per_ray) == n
            for roots in per_ray:
                assert len(roots) == (bound + 1) ** (n - 1)


def test_enumerate_roots_matches_brute_force_scan():
    for cone, bound in ((A1, 2), (RANK3, 3), (quadrant(3), 2)):
        per_ray = ts.enumerate_roots(cone, bound)
        expected = brute_force_roots(cone, bound)
        for i, roots in enumerate(per_ray):
            assert [r.vector for r in roots] == expected[i]
            for r in roots:
                assert r.distinguished_ray == i


def test_enumerate_roots_matches_brute_force_scan_in_rank_four():
    # the enumeration wraps the re-checked lattice points without calling
    # demazure_root; both the scan and the validator must agree with it
    cones = sample_cones(ts, 404, 20, min_rank=4, max_rank=4)
    listed = 0
    for cone in cones:
        per_ray = ts.enumerate_roots(cone, 3)
        expected = brute_force_roots(cone, 3)
        for i, roots in enumerate(per_ray):
            assert [r.vector for r in roots] == expected[i]
            for r in roots:
                assert ts.demazure_root(cone, r.vector, i) == r
            listed += len(roots)
    assert listed > 500


def fixture_cone(name):
    data = json.loads((Path(__file__).parent / "fixtures" / f"{name}.json").read_text())
    return ts.build_cone(data["rank"], data["rays"])


def test_enumerate_roots_matches_brute_force_scan_on_the_cyclic_fixture():
    # rank 4, 8 rays on the moment curve: the kernel of ray t's equation
    # has Hermite basis vectors such as (t, t - 1, t - 1, -1)
    cone = fixture_cone("cyclic_4x8")
    per_ray = ts.enumerate_roots(cone, 3)
    expected = brute_force_roots(cone, 3)
    assert [[r.vector for r in roots] for roots in per_ray] == list(expected.values())
    assert sum(map(len, per_ray)) == 147


def root_search_runs(cone, bound):
    """The last-level runs of the boxed searches behind ``enumerate_roots``."""
    from toricstrata import _polyhedra, linalg

    runs = 0
    for tau, ray in enumerate(cone.rays):
        others = tuple((r, 0, False) for j, r in enumerate(cone.rays) if j != tau)
        search = _polyhedra._box_search(
            linalg.LinearSystem(cone.ambient_rank, ((ray, -1),), others), bound
        )
        if search is not None:
            _, basis, _, chain = search
            runs += sum(1 for _ in _polyhedra._lattice_runs(chain, len(basis), False))
    return runs


def test_root_searches_step_along_short_vectors():
    # the work of a listing, without timing it: in the Hermite kernel basis
    # the searches below take 52, 52 and 324 runs; the size-reduced basis
    # leaves the cyclic cone's two root-richest rays, whose Hermite bases
    # are already reduced, as they were
    assert root_search_runs(fixture_cone("cyclic_4x8"), 3) == 52
    assert root_search_runs(fixture_cone("skew_rank3"), 3) == 45
    skewed = ts.build_cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, -1, 4)])
    assert root_search_runs(skewed, 8) == 281


LISTING_REFUSAL = r"^lattice listing: \d+ steps pass the work limit MAX_WORK = 2097152$"


def test_enumerate_roots_refuses_more_roots_than_the_work_limit():
    start = time.perf_counter()
    with pytest.raises(ts.InputError, match=LISTING_REFUSAL):
        ts.enumerate_roots(quadrant(4), 101)  # 102^3 roots on the first ray
    assert time.perf_counter() - start < 10


def test_enumerate_roots_limit_counts_the_roots_of_all_rays(monkeypatch):
    # each ray of the quadrant has B + 1 = 4 roots of 2 coordinates at
    # bound 3: both rays' 16 coordinates pass a limit of 16, and a limit of
    # 15 refuses the second ray's roots although each ray alone stays under
    # it
    monkeypatch.setattr(ts.errors, "MAX_WORK", 16)
    assert [len(g) for g in ts.enumerate_roots(quadrant(2), 3)] == [4, 4]
    monkeypatch.setattr(ts.errors, "MAX_WORK", 15)
    with pytest.raises(ts.InputError, match="^root listing: 16 steps pass the work limit MAX_WORK = 15$"):
        ts.enumerate_roots(quadrant(2), 3)
    assert len(ts.lattice_points_bounded(ts.linear_system(1), 3)) == 7


def test_enumerate_roots_refuses_an_oversized_box_before_building_a_root(monkeypatch):
    # rays 0 and 1 have 1,024,690 roots each at the default bound 100, of
    # 4 coordinates each: the listing of ray 0 passes the limit in its
    # search columns and stops before it builds any point
    from toricstrata import _polyhedra

    cone = ts.build_cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, -1, 10)])
    built = []
    real = _polyhedra._affine_column
    monkeypatch.setattr(_polyhedra, "_affine_column", lambda *args: built.append(1) or real(*args))
    start = time.perf_counter()
    with pytest.raises(ts.InputError, match=LISTING_REFUSAL):
        ts.enumerate_roots(cone)
    assert time.perf_counter() - start < 2
    assert built == []


def test_enumerate_roots_a1_reference_values():
    per_ray = ts.enumerate_roots(A1, 2)
    assert [r.vector for r in per_ray[0]] == [(-1, 1), (-1, 2)]
    assert [r.vector for r in per_ray[1]] == [(1, -1)]


def test_every_ray_keeps_producing_roots_as_the_box_grows():
    # root sets here are infinite: each larger box yields strictly more
    for cone in (A1, RANK3):
        for i in range(cone.nrays):
            small = len(ts.enumerate_roots(cone, 4)[i])
            large = len(ts.enumerate_roots(cone, 8)[i])
            assert 0 < small < large


def test_enumerate_roots_rejects_a_bad_box_bound():
    for bad in (-1, 2.5, "3", True):
        with pytest.raises(ts.InputError, match="box bound must be a nonnegative"):
            ts.enumerate_roots(A1, bad)


# ---------------------------------------------------------------------------
# connections


def test_connection_yes_on_the_quadric_cone():
    for ray in (0, 1):
        verdict = ts.connection_exists(A1, face(A1, []), face(A1, [ray]))
        assert verdict.status == "yes"
        assert verdict.witness.distinguished_ray == ray
        # the witness vanishes against no ray of the source face (it is the
        # apex) and pairs -1 against the distinguished ray
        ts.demazure_root(A1, verdict.witness.vector, ray)


def test_connection_certified_no_on_the_quadric_cone():
    for ray in (0, 1):
        verdict = ts.connection_exists(A1, face(A1, [ray]), face(A1, [0, 1]))
        assert verdict.status == "no"
        assert verdict.certificate == "integral-equalities"


def test_connection_no_is_combinatorial_for_distant_faces():
    verdict = ts.connection_exists(RANK3, face(RANK3, []), face(RANK3, [0, 1]))
    assert verdict.status == "no" and verdict.certificate == "combinatorial"
    verdict = ts.connection_exists(RANK3, face(RANK3, [0]), face(RANK3, [1, 2]))
    assert verdict.status == "no" and verdict.certificate == "combinatorial"


def test_connection_rejects_foreign_faces():
    square = ts.build_cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    full = ts.face_from_ray_indices(square, [0, 1, 2, 3])
    with pytest.raises(ts.InputError):
        ts.connection_exists(RANK3, face(RANK3, [0, 1, 2]), full)


def test_connection_witness_lies_beyond_the_old_search_box():
    # a boxed search at bound 50 found no root here; the face functional does
    cone = ts.build_cone(
        4, [(1, 5, -3, 4), (-1, -5, 5, -3), (5, 2, -4, 4), (-3, -5, -1, -4)]
    )
    verdict = ts.connection_exists(cone, face(cone, [2, 3]), face(cone, [1, 2, 3]))
    assert verdict.status == "yes"
    root = verdict.witness
    assert root.distinguished_ray == 1
    assert max(abs(x) for x in root.vector) > 50
    ts.demazure_root(cone, root.vector, 1)
    for i in (2, 3):
        assert sum(a * b for a, b in zip(cone.rays[i], root.vector)) == 0


def test_connection_graph_of_the_cyclic_example():
    graph = ts.connection_graph(RANK3)
    assert len(graph.verdicts) == 12
    by_pair = {
        (graph.faces[i1].ray_indices, graph.faces[i2].ray_indices): v
        for i1, i2, v in graph.verdicts
    }
    # the three impossible transitions, certified by integral equalities
    for pair in (
        ((0, 1), (0, 1, 2)),
        ((0,), (0, 1)),
        ((1,), (0, 1)),
    ):
        assert by_pair[pair].status == "no"
        assert by_pair[pair].certificate == "integral-equalities"
    statuses = [v.status for v in by_pair.values()]
    assert statuses.count("yes") == 7
    assert statuses.count("no") == 5
    assert statuses.count("inconclusive") == 0


def test_connection_graph_components_split_off_the_singular_faces():
    graph = ts.connection_graph(RANK3)
    components = ts.graph_components(graph)
    as_rays = sorted(
        tuple(sorted(graph.faces[i].ray_indices for i in comp))
        for comp in components
    )
    assert as_rays == [
        ((), (0,), (0, 2), (1,), (1, 2), (2,)),
        ((0, 1),),
        ((0, 1, 2),),
    ]


def test_isolated_faces_of_the_cyclic_example_are_fully_certified():
    graph = ts.connection_graph(RANK3)
    isolated = ts.isolated_faces(graph)
    assert {f.ray_indices for f in isolated} == {(0, 1), (0, 1, 2)}
    # every pair that touches an isolated face is a "no" with a certificate kind
    touching = [
        v for i1, i2, v in graph.verdicts if {graph.faces[i1], graph.faces[i2]} & set(isolated)
    ]
    assert touching
    assert all(v.status == "no" and v.certificate for v in touching)


def test_quadrant_connection_graph_is_fully_connected():
    graph = ts.connection_graph(quadrant(3))
    assert all(v.status == "yes" for _, _, v in graph.verdicts)
    assert len(ts.graph_components(graph)) == 1
    assert ts.isolated_faces(graph) == ()


def test_connection_witnesses_always_revalidate():
    for cone in (A1, RANK3, quadrant(2), quadrant(3)):
        graph = ts.connection_graph(cone)
        for i1, i2, verdict in graph.verdicts:
            if not verdict.is_yes():
                continue
            root = verdict.witness
            tau = root.distinguished_ray
            # tau is the one extra ray of the target face
            extra = set(graph.faces[i2].ray_indices) - set(
                graph.faces[i1].ray_indices
            )
            assert extra == {tau}
            # the root restricts to zero on the source face's rays
            for i in graph.faces[i1].ray_indices:
                pairing = sum(
                    a * b for a, b in zip(cone.rays[i], root.vector)
                )
                assert pairing == 0
