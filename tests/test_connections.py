"""Route 3 decides every candidate pair below a face from one factorization
of that face; each verdict must equal a fresh solve of its pair alone."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import toricstrata as ts
from toricstrata import roots

from oracles import (
    connection_by_pair,
    cyclic_rays,
    hermite_kernel,
    rational_rank,
    sixteen_gon_rays,
    smooth_by_smith,
    supporting_hyperplanes,
)

FIXTURE_CONES = ("cone_a1.json", "cone_quadrant2.json", "cone_rank3.json")


def verdict_key(verdict):
    root = verdict.witness
    return (
        verdict.status,
        verdict.certificate,
        root.vector if root else None,
        root.distinguished_ray if root else None,
    )


def assert_graph_matches_oracle(cone):
    graph = ts.connection_graph(cone)
    for i1, i2, verdict in graph.verdicts:
        face1, face2 = graph.faces[i1], graph.faces[i2]
        expected = connection_by_pair(ts, cone, face1, face2)
        assert verdict_key(verdict) == expected, (cone.rays, face1, face2)
    return graph


def test_graph_matches_the_per_pair_solve_on_the_suite(suite_cones):
    pairs = sum(len(assert_graph_matches_oracle(cone).verdicts) for cone in suite_cones)
    assert pairs == 4865


def pyramid_rays(base, apex):
    """Rays of the rank-4 cone over a pyramid on a rank-3 polygon cone."""
    return [ray + (0,) for ray in base] + [tuple(apex) + (1,)]


def test_graph_matches_the_per_pair_solve_on_non_simplicial_faces():
    # A face with more rays than its dimension is the upper face of a
    # candidate pair only when it is a pyramid over the face below, as the
    # cones over these pyramids on a lattice octagon and pentagon are.
    for base, apex in ((sixteen_gon_rays()[::2], (1, -1, 2)), (sixteen_gon_rays()[:5], (0, 0, 0))):
        graph = assert_graph_matches_oracle(ts.build_cone(4, pyramid_rays(base, apex)))
        assert any(
            len(graph.faces[i2].ray_indices) > graph.faces[i2].dim for _, i2, _ in graph.verdicts
        )


@st.composite
def cone_inputs(draw):
    """(ambient rank, rays) of a pointed cone with extremal rays: simplicial
    cones, cyclic cones, cones over subsets of the vertices of a lattice
    16-gon and over pyramids on them.  Up to two extra coordinates are
    appended and the old ones scaled, so that ``split_degenerate`` splits
    off a torus factor and often passes to a finer lattice; rays may then
    need normalizing."""
    kind = draw(st.sampled_from(["simplicial", "cyclic", "polygon", "pyramid"]))
    if kind == "simplicial":
        rank = draw(st.integers(1, 4))
        rays = [
            tuple(
                0 if j < i else draw(st.integers(1, 3)) if j == i else draw(st.integers(-3, 3))
                for j in range(rank)
            )
            for i in range(rank)
        ]
    elif kind == "cyclic":
        rank = draw(st.integers(3, 4))
        points = draw(st.lists(st.integers(-3, 4), min_size=rank + 1, max_size=7, unique=True))
        rays = cyclic_rays(rank, sorted(points))
    else:
        vertices = sixteen_gon_rays()
        chosen = draw(st.lists(st.integers(0, 15), min_size=3, max_size=8, unique=True))
        rays = [vertices[i] for i in sorted(chosen)]
        rank = 3
        if kind == "pyramid":
            rays = pyramid_rays(rays, draw(st.tuples(*[st.integers(-2, 2)] * 3)))
            rank = 4
    extra = draw(st.integers(0, 2))
    if extra:
        scale = [draw(st.integers(1, 2)) for _ in range(rank)]
        mix = [[draw(st.integers(-2, 2)) for _ in range(extra)] for _ in range(rank)]
        rays = [
            tuple(s * x for s, x in zip(scale, ray))
            + tuple(sum(x * row[c] for x, row in zip(ray, mix)) for c in range(extra))
            for ray in rays
        ]
    return rank + extra, rays


PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)


@PROPERTY
@given(cone_inputs())
def test_graph_matches_the_per_pair_solve_on_random_cones(data):
    rank, rays = data
    cone = ts.split_degenerate(rank, rays, normalize=True).cone
    graph = assert_graph_matches_oracle(cone)
    for i1, i2, verdict in graph.verdicts:
        assert ts.connection_exists(cone, graph.faces[i1], graph.faces[i2]) == verdict


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cone_inputs())
def test_each_face_functional_is_the_sum_of_the_normals_through_its_face(data):
    # The oracle finds the supporting hyperplanes by rational kernels; the
    # functional of a face is the sum of the normals of those holding all
    # its rays, and its pairings vanish exactly on its rays.
    rank, rays = data
    cone = ts.split_degenerate(rank, rays, normalize=True).cone
    n = cone.ambient_rank
    normals = supporting_hyperplanes(cone.rays, n)
    for entry in cone._faces.values():
        face = entry.face.ray_indices
        assert [j for j, p in enumerate(entry.pairings) if not p] == list(face)
        assert entry.pairings == tuple(
            sum(a * b for a, b in zip(ray, entry.functional)) for ray in cone.rays
        )
        through = [u for u, pairings in normals.items() if not any(pairings[i] for i in face)]
        assert entry.functional == tuple(sum(u[c] for u in through) for c in range(n))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cone_inputs())
def test_each_step_up_gives_the_hermite_kernel_of_the_upper_face(data):
    # K_f2 from K_f1 and the extra ray is the Hermite basis of the integer
    # kernel of the rays of f2, and the rows with zero first entry of the
    # Hermite form of [K_f1 . ray | K_f1].  The kernels are the Smith-form
    # oracle's, not the library's fold.
    rank, rays = data
    cone = ts.split_degenerate(rank, rays, normalize=True).cone
    n = cone.ambient_rank
    graph = ts.connection_graph(cone)
    for i1, i2, _ in graph.verdicts:
        face1, face2 = graph.faces[i1], graph.faces[i2]
        (tau,) = set(face2.ray_indices) - set(face1.ray_indices)
        ray = cone.rays[tau]
        lower = hermite_kernel(ts, [cone.rays[i] for i in face1.ray_indices], n)
        upper = ts.linalg._hermite_reduced(ts.linalg._orthogonal_echelon(lower, ray))
        assert upper == hermite_kernel(ts, [cone.rays[i] for i in face2.ray_indices], n)
        rows = [(sum(a * b for a, b in zip(row, ray)),) + row for row in lower]
        form = ts.hermite_normal_form(ts.IntMatrix.from_rows(rows)).entries
        assert upper == tuple(row[1:] for row in form if not row[0])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cone_inputs())
def test_the_face_table_matches_the_oracle_faces(data):
    # The oracle faces are the intersections of the supporting hyperplanes'
    # zero sets; the table's covers must be their pairs one dimension
    # apart, and each face's dimension and orthogonal lattice must be the
    # rank and the Hermite kernel of its own rays.
    rank, rays = data
    cone = ts.split_degenerate(rank, rays, normalize=True).cone
    n = cone.ambient_rank
    faces = {frozenset(range(cone.nrays))}
    for pairings in supporting_hyperplanes(cone.rays, n).values():
        zeros = frozenset(i for i, p in enumerate(pairings) if not p)
        faces |= {face & zeros for face in faces}
    dim = {face: rational_rank([cone.rays[i] for i in face]) for face in faces}
    covers = {
        (tuple(sorted(upper)), tuple(sorted(lower)))
        for upper in faces
        for lower in faces
        if lower < upper and dim[lower] == dim[upper] - 1
    }
    table = cone._faces
    assert {
        (entry.face.ray_indices, table[child].face.ray_indices)
        for entry in table.values()
        for child in entry.children
    } == covers
    assert {entry.face.ray_indices for entry in table.values()} == {
        tuple(sorted(face)) for face in faces
    }
    for entry in table.values():
        face_rays = [cone.rays[i] for i in entry.face.ray_indices]
        assert entry.face.dim == rational_rank(face_rays)
        assert entry.lattice == hermite_kernel(ts, face_rays, n)


@pytest.mark.parametrize("name", FIXTURE_CONES)
def test_connection_exists_agrees_with_the_graph_on_the_fixtures(fixture_path, name):
    with open(fixture_path(name)) as f:
        doc = json.load(f)
    cone = ts.build_cone(doc["rank"], doc["rays"])
    graph = ts.connection_graph(cone)
    assert graph.verdicts
    for i1, i2, verdict in graph.verdicts:
        assert ts.connection_exists(cone, graph.faces[i1], graph.faces[i2]) == verdict


def corrupt_pair_solutions(monkeypatch, delta, lower_rank=None):
    """Shift by ``delta`` each point that the per-pair step hands out (only
    where the lower face's orthogonal lattice has rank ``lower_rank``, if
    given), so that it solves nothing.  The step takes the negative of the
    gcd vector, which pairs to 1 with the extra ray, so that vector is
    shifted by ``-delta``."""
    real = roots._gcd_vector

    def corrupted(lattice, ray):
        g, x = real(lattice, ray)
        if g != 1 or lower_rank is not None and len(lattice) != lower_rank:
            return g, x
        return g, [a - b for a, b in zip(x, delta)]

    monkeypatch.setattr(roots, "_gcd_vector", corrupted)


def test_a_solution_missing_the_distinguished_ray_is_refused(monkeypatch):
    # On the quadric cone the first face's solution becomes (-2, 0), which
    # pairs -2 with its distinguished ray (1, 0).
    corrupt_pair_solutions(monkeypatch, (-1, 0))
    with pytest.raises(ts.ConsistencyError, match="invalid root"):
        ts.connection_graph(ts.build_cone(2, [(1, 0), (1, 2)]))


def test_a_solution_missing_the_lower_face_is_refused(monkeypatch):
    # On the quadrant, the solution for the pair ((1,), (0, 1)) becomes
    # (-1, 1): a root of the cone, but not zero on the lower face, so
    # only the check of the lower face's pairings catches it.
    corrupt_pair_solutions(monkeypatch, (0, 1), lower_rank=1)
    with pytest.raises(ts.ConsistencyError, match="does not vanish on the lower face"):
        ts.connection_graph(ts.build_cone(2, [(1, 0), (0, 1)]))


def test_an_orthogonal_lattice_of_the_wrong_rank_is_refused(monkeypatch):
    # Each face's orthogonal lattice gives its dimension.  A step up that
    # keeps the row it should drop puts a face at the dimension of its
    # child, so the face table's certificate refuses the lattice before any
    # pair is decided.
    def cones():
        return ts.build_cone(2, [(1, 0), (1, 2)]), ts.build_cone(3, sixteen_gon_rays())

    # Faces are values: those of equal cones built before the patch serve.
    pairs = [ts.face_lattice(cone)[:2] for cone in cones()]
    monkeypatch.setattr(ts.cones, "_orthogonal_echelon", lambda lattice, ray: list(lattice))
    for cone in cones():
        with pytest.raises(ts.ConsistencyError, match="face lattice certificate fails"):
            ts.connection_graph(cone)
    for cone, (face1, face2) in zip(cones(), pairs):
        with pytest.raises(ts.ConsistencyError, match="face lattice certificate fails"):
            ts.connection_exists(cone, face1, face2)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cone_inputs())
def test_the_face_table_smoothness_matches_the_smith_form(data):
    # the table decides smoothness from gcds of pairings with the
    # orthogonal lattice of a facet; the oracle takes the Smith form of
    # each face's rays, non-simplicial faces included
    rank, rays = data
    cone = ts.split_degenerate(rank, rays, normalize=True).cone
    for entry in cone._faces.values():
        assert entry.smooth == smooth_by_smith(ts, cone, entry.face), (cone.rays, entry.face)
