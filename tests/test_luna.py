"""Quasitorus weight systems: closed supports, strata, stability, duality."""

import random
import time

import pytest

import toricstrata as ts

from oracles import permutation_equivalent, sample_cones, spans_a_subspace


def weight_system(free_rank, torsion, rows):
    return ts.weight_system(ts.FgAbGroup(free_rank, tuple(torsion)), rows)


# the two-torus acting on seven coordinates with a three-stratum quotient
K7 = weight_system(
    2,
    (),
    [(1, 0), (1, 0), (-1, 0), (0, 1), (0, 1), (-1, -1), (-1, -1)],
)

RANK3 = ts.build_toric(ts.build_cone(3, [(1, 0, 0), (1, 2, 0), (0, 1, 2)]))
A1 = ts.build_toric(ts.build_cone(2, [(1, 0), (1, 2)]))


# ---------------------------------------------------------------------------
# weight systems


def test_weight_system_validates_rows():
    with pytest.raises(ts.InputError) as err:
        weight_system(1, (), [(1,), (1, 2)])
    assert str(err.value).startswith("weight 1:")
    for bad in (1.5, True):
        with pytest.raises(ts.InputError) as err:
            weight_system(2, (), [(1, 0), (bad, 0)])
        assert str(err.value) == "weight 1: coordinate 0 must be an integer"


def test_cox_weight_system_reuses_the_class_group_data():
    ws = ts.cox_weight_system(RANK3)
    assert ws.group is RANK3.class_group
    assert ws.weights == RANK3.divisor_classes
    assert ws.ncoordinates == 3


# ---------------------------------------------------------------------------
# closed supports


def test_is_closed_support_reference_values():
    assert ts.is_closed_support(K7, ())
    assert ts.is_closed_support(K7, range(7))
    assert ts.is_closed_support(K7, (0, 2))  # (1,0) against (-1,0)
    assert ts.is_closed_support(K7, (0, 1, 2))
    assert not ts.is_closed_support(K7, (0, 1))
    assert not ts.is_closed_support(K7, (0,))
    assert not ts.is_closed_support(K7, (0, 3))


def test_torsion_only_weights_make_every_support_closed():
    ws = weight_system(0, (4,), [(1,), (2,), (3,)])
    for mask in range(8):
        support = tuple(i for i in range(3) if mask >> i & 1)
        assert ts.is_closed_support(ws, support)


def test_zero_weights_are_invariant_coordinates():
    ws = weight_system(1, (), [(0,), (1,)])
    assert ts.is_closed_support(ws, (0,))
    assert not ts.is_closed_support(ws, (1,))


def test_is_closed_support_rejects_bad_indices():
    with pytest.raises(ts.InputError):
        ts.is_closed_support(K7, (9,))


def test_support_indices_must_be_integers():
    # True is not index 1, and 0.5 or "0" must not reach the index arithmetic
    for check in (ts.is_closed_support, ts.weight_subgroup):
        for bad in (True, False, 0.5, "0", None):
            with pytest.raises(ts.InputError, match="support index must be an integer"):
                check(K7, (bad, 0))


def test_closed_supports_generate_their_inverses():
    # on a closed support the weight semigroup is a group: the inverse of
    # every member weight is a nonnegative combination of the others
    rng = random.Random(31)
    checked = 0
    for _ in range(40):
        free = rng.randint(1, 2)
        torsion = (2,) if rng.random() < 0.4 else ()
        m = rng.randint(2, 4)
        ws = weight_system(
            free,
            torsion,
            [
                tuple(rng.randint(-2, 2) for _ in range(free + len(torsion)))
                for _ in range(m)
            ],
        )
        for mask in range(1, 1 << m):
            support = tuple(i for i in range(m) if mask >> i & 1)
            if not ts.is_closed_support(ws, support):
                continue
            gens = [ws.weights[i] for i in support]
            for g in gens:
                result = ts.semigroup_member(ws.group, gens, -g)
                assert result.status == "yes", (ws.weights, support, g.coords)
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# strata


def test_luna_strata_of_the_seven_coordinate_quotient():
    strata = ts.luna_strata(K7)
    assert len(strata) == 3
    assert [s.dim for s in strata] == [5, 2, 0]
    assert [s.structure.describe() for s in strata] == ["Z^2", "Z", "0"]
    # the middle stratum collects the supports built from the first three
    # coordinates (the opposite pair (1,0), (1,0) against (-1,0))
    assert strata[1].supports == ((0, 1, 2), (0, 2), (1, 2))
    assert strata[2].supports == ((),)
    assert ts.is_full(strata[0].subgroup)


def test_luna_strata_group_supports_by_subgroup_not_by_size():
    # two generators of the same subgroup land in one stratum
    ws = weight_system(0, (4,), [(1,), (3,)])
    strata = ts.luna_strata(ws)
    assert len(strata) == 2
    assert {s.structure.describe() for s in strata} == {"Z/4", "0"}
    full = next(s for s in strata if s.structure.describe() == "Z/4")
    assert full.supports == ((0,), (0, 1), (1,))
    assert full.dim == 2


def test_luna_strata_respects_the_weight_cap():
    # 21 alternating weights have (2^11 - 1) * (2^10 - 1) = 2,094,081
    # nonempty closed supports; 20 random weights in Z^10 have
    # C(20, 11) = 167,960 circuit candidates.  Both limits trip before the
    # work they bound.
    alternating = weight_system(1, (), [(1,), (-1,)] * 10 + [(1,)])
    rng = random.Random(36)
    wide = weight_system(
        10, (), [tuple(rng.randint(-3, 3) for _ in range(10)) for _ in range(20)]
    )
    for ws, message in (
        (alternating, "more closed supports than the limit of 1048576"),
        (wide, r"167960 positive-circuit candidates \(11-subsets of 20 parts\) "
               "exceed the limit of 10000"),
    ):
        start = time.perf_counter()
        with pytest.raises(ts.InputError, match=message):
            ts.luna_strata(ws)
        assert time.perf_counter() - start < 0.1
    assert len(ts.luna_strata(weight_system(1, (), [(0,)]))) == 1
    # 40 copies of one weight have no positive circuit, so the empty support
    # is the only closed one; the 2^40 subsets of its part are never built.
    start = time.perf_counter()
    (only,) = ts.luna_strata(weight_system(1, (), [(1,)] * 40))
    assert only.supports == ((),)
    assert time.perf_counter() - start < 0.1


def test_many_weights_of_low_rank_stay_within_the_envelope():
    # 40 distinct weights in Z: C(40, 2) = 780 circuit candidates, each a
    # 1 x 2 minor vector on the subset side (about 0.01 s on a 2-core x86_64
    # host, Python 3.11) but 38 x 39 on the Gale side (about 5.6 s).
    ws = weight_system(1, (), [(k,) for k in range(-20, 21) if k])
    start = time.perf_counter()
    assert ts.is_closed_support(ws, range(40))
    assert not ts.is_closed_support(ws, range(20))
    assert time.perf_counter() - start < 1.0


def test_one_candidate_limit_bounds_facets_and_circuits(monkeypatch):
    # Lowering the documented limit refuses both scans: the square cone has
    # C(4, 2) = 6 facet candidates, three weights in Z C(3, 2) = 3 circuit
    # candidates.
    monkeypatch.setattr(ts.cones, "MAX_FACET_CANDIDATES", 2)
    with pytest.raises(ts.InputError, match="6 facet candidates"):
        ts.build_cone(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    with pytest.raises(ts.InputError, match="3 positive-circuit candidates"):
        ts.luna_strata(weight_system(1, (), [(1,), (2,), (-1,)]))


def test_luna_strata_supports_match_a_brute_force_scan():
    rng = random.Random(34)
    sizes = []
    for _ in range(60):
        free = rng.randint(0, 3)
        torsion = rng.choice([(), (), (2,), (3,), (2, 4)])
        rows = []
        for _ in range(rng.randint(1, 6)):
            roll = rng.random()
            tors = tuple(rng.randrange(d) for d in torsion)
            if rows and roll < 0.2:
                rows.append(rng.choice(rows))  # a repeated weight
            elif roll < 0.35:
                rows.append((0,) * free + tors)  # an invariant coordinate
            else:
                rows.append(tuple(rng.randint(-2, 2) for _ in range(free)) + tors)
        ws = weight_system(free, torsion, rows)
        m = len(rows)
        expected = []
        for mask in range(1 << m):
            support = tuple(i for i in range(m) if mask >> i & 1)
            if spans_a_subspace(free, [rows[i][:free] for i in support]):
                expected.append(support)
        got = [support for s in ts.luna_strata(ws) for support in s.supports]
        assert sorted(got) == sorted(expected), rows
        sizes.append(len(expected))
    # the scan is not vacuous: some systems have few closed supports, some all
    assert min(sizes) == 1 and sum(n == 1 << 6 for n in sizes) > 0


def test_luna_strata_builds_one_subgroup_per_distinct_weight_set(monkeypatch):
    from toricstrata import luna

    rng = random.Random(35)
    rows = [rng.choice([(1, 0), (-1, 1), (0, -1), (-1, -1), (2, 1)]) for _ in range(10)]
    ws = weight_system(2, (), rows)
    calls = []
    real = luna.subgroup_canon
    monkeypatch.setattr(
        luna, "subgroup_canon", lambda group, gens: calls.append(gens) or real(group, gens)
    )
    strata = ts.luna_strata(ws)
    supports = [support for s in strata for support in s.supports]
    weight_sets = {frozenset(rows[i] for i in support) for support in supports}
    assert len(calls) == len(weight_sets) < len(supports)
    for s in strata:
        for support in s.supports:
            assert real(ws.group, [ws.weights[i] for i in support]) == s.subgroup


def test_luna_strata_sorted_by_descending_dimension():
    rng = random.Random(32)
    for _ in range(20):
        m = rng.randint(1, 5)
        ws = weight_system(
            1, (2,), [(rng.randint(-2, 2), rng.randint(0, 1)) for _ in range(m)]
        )
        strata = ts.luna_strata(ws)
        dims = [s.dim for s in strata]
        assert dims == sorted(dims, reverse=True)
        # supports partition the closed ones
        seen = set()
        for s in strata:
            for support in s.supports:
                assert support not in seen
                seen.add(support)
        assert () in seen


# ---------------------------------------------------------------------------
# stability


def test_seven_coordinate_action_is_strongly_stable():
    report = ts.check_strongly_stable(K7)
    assert report.stable and report.failures == ()


def test_stability_failure_orbit_not_closed():
    ws = weight_system(1, (), [(1,), (-1,), (2,)])
    report = ts.check_strongly_stable(ws)
    assert not report.stable
    assert [(f.support, f.reason) for f in report.failures] == [
        ((0, 2), "orbit-not-closed")
    ]


def test_stability_failure_nontrivial_stabilizer():
    ws = weight_system(1, (), [(2,), (-2,)])
    report = ts.check_strongly_stable(ws)
    assert not report.stable
    assert ((0, 1), "stabilizer-nontrivial") in {
        (f.support, f.reason) for f in report.failures
    }


# ---------------------------------------------------------------------------
# Gale duality


def pairing_matrix(cone):
    normals = ts.facet_normals(cone)
    return [
        [sum(a * b for a, b in zip(ray, u)) for u in normals] for ray in cone.rays
    ]


def test_gale_dual_reproduces_the_reference_cones_exactly():
    for toric in (A1, RANK3):
        dual = ts.gale_dual(ts.cox_weight_system(toric))
        assert dual.cone.rays == toric.cone.rays


def test_gale_dual_of_the_seven_coordinate_action():
    dual = ts.gale_dual(K7)
    assert dual.cone.ambient_rank == 5
    assert dual.cone.nrays == 7
    toric = ts.build_toric(dual.cone)
    assert toric.class_group.describe() == "Z^2"


def test_gale_dual_round_trip_up_to_lattice_isomorphism():
    over_square = ts.build_toric(
        ts.build_cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    )
    for toric in (A1, RANK3, over_square):
        dual = ts.gale_dual(ts.cox_weight_system(toric))
        rebuilt = ts.build_toric(dual.cone)
        assert rebuilt.class_group.describe() == toric.class_group.describe()
        assert permutation_equivalent(
            pairing_matrix(toric.cone), pairing_matrix(dual.cone)
        )


def test_gale_round_trip_on_random_strongly_stable_weights():
    # Random weights in Z^r (r = 1..3, some with torsion), kept when strongly
    # stable: the Cox weights of the rebuilt cone must be the same weights up
    # to an isomorphism of the groups they generate, that is, have the same
    # lattice of integer relations, and must give the same strata.
    def strata(ws):
        return sorted(
            (s.supports, s.structure.describe(), s.dim) for s in ts.luna_strata(ws)
        )

    def relations(ws):
        # a in Z^m with sum a_i w_i == 0: the a-part of the integer kernel of
        # the weights next to the torsion orders, in Hermite form
        m, r, torsion = ws.ncoordinates, ws.group.free_rank, ws.group.torsion
        eqs = [
            ([w.coords[row] for w in ws.weights]
             + [-d if row == r + j else 0 for j, d in enumerate(torsion)], 0)
            for row in range(r + len(torsion))
        ]
        kernel = ts.solve_integer_system(ts.linear_system(m + len(torsion), eqs)).kernel_basis
        hnf = ts.hermite_normal_form(ts.IntMatrix.from_rows([v[:m] for v in kernel], m))
        return [row for row in hnf.entries if any(row)]

    rng = random.Random(5)
    kept = []
    while len(kept) < 25:
        free = rng.randint(1, 3)
        torsion = rng.choice([(), (), (2,), (3,)])
        rows = [
            tuple(rng.randint(-2, 2) for _ in range(free))
            + tuple(rng.randrange(t) for t in torsion)
            for _ in range(rng.randint(free + 3, 2 * free + 4))
        ]
        ws = weight_system(free, torsion, rows)
        if not ts.check_strongly_stable(ws).stable:
            continue
        rebuilt = ts.cox_weight_system(ts.build_toric(ts.gale_dual(ws).cone))
        assert relations(rebuilt) == relations(ws), rows
        assert strata(rebuilt) == strata(ws), rows
        kept.append((free, torsion))
    assert {free for free, _ in kept} == {1, 2, 3}
    assert any(torsion for _, torsion in kept)


def test_gale_dual_requires_strong_stability():
    ws = weight_system(1, (), [(1,), (1,)])
    with pytest.raises(ts.InputError) as err:
        ts.gale_dual(ws)
    assert "strongly stable" in str(err.value)


# ---------------------------------------------------------------------------
# the face/support bridge


def test_face_support_bridge_maps_faces_to_complements():
    bridge = ts.face_support_bridge(RANK3)
    assert len(bridge) == len(RANK3.faces)
    for face, support in bridge.items():
        assert set(support) == set(range(3)) - set(face.ray_indices)
        assert ts.is_closed_support(ts.cox_weight_system(RANK3), support)


def test_face_support_bridge_verifies_across_random_cones():
    for cone in sample_cones(ts, 33, 20):
        toric = ts.build_toric(cone)
        bridge = ts.face_support_bridge(toric)
        assert len(bridge) == len(toric.faces)
