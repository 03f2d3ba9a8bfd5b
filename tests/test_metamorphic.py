"""The decomposition depends only on the variety, not on how the cone is
written down: it is unchanged by lattice automorphisms and ray
permutations, and an added torus factor shifts every dimension.  Likewise
the Luna strata of a weight system are unchanged by automorphisms of its
character group."""

import json
import random

import toricstrata as ts

from oracles import sample_cones

CONES = sample_cones(ts, 505, 30)


def signature(report, label=lambda i: i, shift=0):
    """Class group name, strata keyed by their relabelled faces, and closure
    edges between those keys; ``shift`` is subtracted from every dimension."""

    def rays(face):
        return tuple(sorted(label(i) for i in face.ray_indices))

    keys = [frozenset(rays(f) for f in s.faces) for s in report.strata]
    strata = {
        key: (
            s.dim - shift,
            s.structure,
            s.local_class_group,
            sorted((rays(f), d - shift) for f, d in zip(s.faces, s.orbit_dims)),
        )
        for key, s in zip(keys, report.strata)
    }
    closure = {(keys[low], keys[high]) for low, high in report.closure}
    return report.class_group.describe(), strata, closure


def unimodular(rng, n):
    """A product of elementary integer matrices, with a sign flip."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    k = rng.randrange(n)
    g[k] = [-a for a in g[k]]
    return g


def test_stratify_is_invariant_under_lattice_automorphisms():
    rng = random.Random(1)
    for cone in CONES:
        n = cone.ambient_rank
        g = unimodular(rng, n)
        moved = [tuple(sum(r[i] * g[i][j] for i in range(n)) for j in range(n)) for r in cone.rays]
        report = ts.stratify(n, cone.rays)
        assert signature(ts.stratify(n, moved)) == signature(report), cone.rays


def test_stratify_relabels_faces_under_ray_permutations():
    rng = random.Random(2)
    for cone in CONES:
        perm = list(range(cone.nrays))
        rng.shuffle(perm)
        permuted = [cone.rays[p] for p in perm]
        report = ts.stratify(cone.ambient_rank, permuted)
        expected = signature(ts.stratify(cone.ambient_rank, cone.rays))
        assert signature(report, label=perm.__getitem__) == expected, (cone.rays, perm)


def test_stratify_adds_torus_factors_for_zero_coordinates():
    rng = random.Random(3)
    for cone in CONES:
        k = rng.randint(1, 2)
        padded = [r + (0,) * k for r in cone.rays]
        report = ts.stratify(cone.ambient_rank + k, padded)
        base = ts.stratify(cone.ambient_rank, cone.rays)
        assert report.torus_rank == base.torus_rank + k
        assert signature(report, shift=k) == signature(base), (cone.rays, k)


def luna_signature(ws):
    return {(s.dim, s.structure, s.supports) for s in ts.luna_strata(ws)}


def test_luna_strata_are_invariant_under_character_automorphisms(fixture_path):
    # a GL_r(Z) change of the free coordinates of the weights is an
    # automorphism of the character group: strata keep their supports
    with open(fixture_path("weights_k7.json")) as f:
        doc = json.load(f)
    systems = [ts.weight_system(ts.FgAbGroup(doc["free_rank"], ()), doc["weights"])]
    systems += [ts.cox_weight_system(ts.build_toric(cone)) for cone in CONES]
    rng = random.Random(4)
    for ws in systems:
        r = ws.group.free_rank
        g = unimodular(rng, r) if r > 1 else [[-1]] * r
        rows = [
            tuple(sum(w.coords[i] * g[i][j] for i in range(r)) for j in range(r)) + w.coords[r:]
            for w in ws.weights
        ]
        moved = ts.weight_system(ws.group, rows)
        assert luna_signature(moved) == luna_signature(ws), [w.coords for w in ws.weights]
