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


def test_support_index_n_is_out_of_range():
    # the indices of n weights are 0..n-1: n itself is refused, n - 1 taken
    n = K7.ncoordinates
    with pytest.raises(ts.InputError, match="support index out of range"):
        ts.is_closed_support(K7, [n])
    with pytest.raises(ts.InputError, match="support index out of range"):
        ts.is_closed_support(K7, [-1])
    ts.is_closed_support(K7, [n - 1])


def test_support_indices_must_be_integers():
    # True is not index 1, and 0.5 or "0" must not reach the index arithmetic
    for bad in (True, False, 0.5, "0", None):
        with pytest.raises(ts.InputError, match="support index must be an integer"):
            ts.is_closed_support(K7, (bad, 0))


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


WORK_REFUSAL = r"^{}: {} steps pass the work limit MAX_WORK = {}$"


def test_luna_strata_respects_the_weight_cap():
    # 21 alternating weights have (2^11 - 1) * (2^10 - 1) = 2,094,081
    # nonempty closed supports of up to 21 indices each, refused before
    # they are listed.
    alternating = weight_system(1, (), [(1,), (-1,)] * 10 + [(1,)])
    start = time.perf_counter()
    message = WORK_REFUSAL.format("closed supports", 2_094_081 * 21, 2**21)
    with pytest.raises(ts.InputError, match=message):
        ts.luna_strata(alternating)
    assert time.perf_counter() - start < 0.1
    assert len(ts.luna_strata(weight_system(1, (), [(0,)]))) == 1
    # 40 copies of one weight have no positive circuit, so the empty support
    # is the only closed one; the 2^40 subsets of its part are never built.
    start = time.perf_counter()
    (only,) = ts.luna_strata(weight_system(1, (), [(1,)] * 40))
    assert only.supports == ((),)
    assert time.perf_counter() - start < 0.1


def test_the_union_closure_counts_its_joins_before_making_them(monkeypatch):
    # The weights 1, 2, 3 and their negatives have 9 circuits, the pairs of
    # opposite signs, found by double description in 5^3 + 30 = 155 steps.
    # Each set yielded is then joined with all 9, so a limit of 155 lets
    # the joins of the first 17 sets through and refuses the 18th set's,
    # before its unions join the queue.  Each join finds at most one set,
    # so the queue stays within the joins.
    monkeypatch.setattr(ts.errors, "MAX_WORK", 155)
    yielded = []
    with pytest.raises(ts.InputError, match=WORK_REFUSAL.format("union closure", 162, 155)):
        for closed in ts.luna._closed_part_sets([(k,) for k in (1, -1, 2, -2, 3, -3)]):
            yielded.append(closed)
    assert len(yielded) == 18


def test_many_weights_of_low_rank_stay_within_the_envelope():
    # 40 distinct weights in Z: their 400 positive circuits, the pairs of
    # opposite signs, are the facets of a cone over 40 Gale vectors in
    # dimension 39 (about 0.02 s on a 2-core x86_64 host, Python 3.11).
    ws = weight_system(1, (), [(k,) for k in range(-20, 21) if k])
    start = time.perf_counter()
    assert ts.is_closed_support(ws, range(40))
    assert not ts.is_closed_support(ws, range(20))
    assert time.perf_counter() - start < 1.0


def test_many_weights_of_low_rank_are_refused_past_the_work_limit():
    # 140 distinct weights in Z have 139 Gale vectors in dimension 139, and
    # the greedy pass of double description updates 139^3 entries, over the
    # limit, so closedness and stability checks refuse them.  An earlier
    # version took their 4,900 circuits from the one-signed minors of the
    # 9,730 pairs of weights and answered both.
    ws = weight_system(1, (), [(k,) for k in range(-70, 71) if k])
    message = WORK_REFUSAL.format("double description", 139**3, 2**21)
    with pytest.raises(ts.InputError, match=message):
        ts.is_closed_support(ws, range(140))
    with pytest.raises(ts.InputError, match=message):
        ts.check_strongly_stable(ws)


def test_the_greedy_pass_is_charged_before_it_runs():
    # The weights 1..450 and -1 in Z have 450 Gale vectors in dimension 450,
    # whose greedy pass took 8.4 s before its charge refused them.
    ws = weight_system(1, (), [(k,) for k in range(1, 451)] + [(-1,)])
    message = WORK_REFUSAL.format("double description", 450**3, 2**21)
    start = time.perf_counter()
    with pytest.raises(ts.InputError, match=message):
        ts.luna_strata(ws)
    with pytest.raises(ts.InputError, match=message):
        ts.check_strongly_stable(ws)
    assert time.perf_counter() - start < 1.0


def test_the_gale_fold_is_charged_before_it_runs(monkeypatch):
    # The weights 1..3000 and -1 in Z: the fold of their Gale kernel starts
    # from a 3,001 x 3,001 identity, and took 3.1 s and 224 MB before its
    # charge refused them (check_strongly_stable: 3.4 s and 545 MB).  The
    # Gale dimension is at least the number of parts less the free rank.
    def fold(*args):
        raise AssertionError("the Gale kernel was folded")

    monkeypatch.setattr(ts.luna, "_kernel", fold)
    ws = weight_system(1, (), [(k,) for k in range(1, 3001)] + [(-1,)])
    message = WORK_REFUSAL.format("double description", 3000**3, 2**21)
    with pytest.raises(ts.InputError, match=message):
        ts.luna_strata(ws)
    with pytest.raises(ts.InputError, match=message):
        ts.check_strongly_stable(ws)


def test_the_stability_supports_are_charged_before_they_are_listed(monkeypatch):
    # 2,000 copies of the weight 2 and one -2 in Z: every support generates
    # 2Z, so all 2,002 fail, and their 4,004,001 indices are charged after
    # the 4 generators of the two subgroups and before any failure is
    # listed.  Charging all m + 1 supports refused them at 4,006,002 steps.
    def failure(*args):
        raise AssertionError("a stability failure was listed")

    monkeypatch.setattr(ts.luna, "StabilityFailure", failure)
    ws = weight_system(1, (), [(2,)] * 2000 + [(-2,)])
    message = WORK_REFUSAL.format("stability supports", 4 + 2001 + 2001 * 2000, 2**21)
    assert 4 + 2001 + 2001 * 2000 == 4_004_005
    start = time.perf_counter()
    with pytest.raises(ts.InputError, match=message):
        ts.check_strongly_stable(ws)
    with pytest.raises(ts.InputError, match=message):
        ts.gale_dual(ws)
    assert time.perf_counter() - start < 1.0


def test_the_stability_check_builds_one_subgroup_per_weight_set(monkeypatch):
    # 1,000 copies of the weight 1 and one -1 in Z: the 1,002 supports hold
    # two sets of weights, {1, -1} and {1}, so two Hermite forms of the
    # distinct weights serve them all.  Each support took its own, about
    # 1,000 rows each, and then each weight set one of all its indices.
    calls = []
    real = ts.luna.subgroup_canon
    monkeypatch.setattr(
        ts.luna, "subgroup_canon", lambda group, gens: calls.append(len(gens)) or real(group, gens)
    )
    report = ts.check_strongly_stable(weight_system(1, (), [(1,)] * 1000 + [(-1,)]))
    assert calls == [2, 1]
    # dropping the -1 leaves copies of 1 alone, not closed
    assert [(f.support, f.reason) for f in report.failures] == [
        (tuple(range(1000)), "orbit-not-closed")
    ]


def test_the_stability_check_of_many_repeated_weights_is_linear():
    # 100,000 copies of the weight 1 and one -1 in Z: two closedness tests
    # and two Hermite forms settle the 100,002 supports, and only the one
    # without the -1 fails.  Charging (m + 1) * m steps refused every
    # input of 1,448 weights or more.
    ws = weight_system(1, (), [(1,)] * 100_000 + [(-1,)])
    start = time.perf_counter()
    report = ts.check_strongly_stable(ws)
    assert time.perf_counter() - start < 1.0
    assert not report.stable
    assert report.failures == (ts.StabilityFailure(tuple(range(100_000)), "orbit-not-closed"),)


def test_the_stability_subgroups_are_charged_before_they_are_taken(monkeypatch):
    # 1,448 distinct residues of Z/10007, each with one index: 1,449 weight
    # sets of up to 1,448 generators each, charged before any Hermite form.
    def canon(*args):
        raise AssertionError("a stability subgroup was computed")

    monkeypatch.setattr(ts.luna, "subgroup_canon", canon)
    ws = weight_system(0, (10007,), [(k,) for k in range(1, 1449)])
    message = WORK_REFUSAL.format("stability supports", 1449 * 1448, 2**21)
    assert 1449 * 1448 == 2_098_152
    with pytest.raises(ts.InputError, match=message):
        ts.check_strongly_stable(ws)


def test_gale_dual_charges_the_saturation_before_the_fold(monkeypatch):
    # 200 copies of the weight 1 and 201 of -1 in Z are strongly stable,
    # and their 401 rays in rank 400 pass the limit in build_cone's first
    # saturation charge, 401 * 400^2 steps, which is made before the
    # 401-square Gale fold; the circuits' fold over two parts still runs.
    real = ts.luna._kernel

    def fold(rows, n):
        assert n <= 100, "the Gale kernel was folded"
        return real(rows, n)

    monkeypatch.setattr(ts.luna, "_kernel", fold)
    ws = weight_system(1, (), [(1,)] * 200 + [(-1,)] * 201)
    with pytest.raises(ts.InputError) as err:
        ts.gale_dual(ws)
    assert str(err.value) == (
        "weights do not present a pointed cone: saturation: 64160000 steps"
        " pass the work limit MAX_WORK = 2097152"
    )


def reference_stability_report(ws):
    """Strong stability support by support, one subgroup for each."""
    m = ws.ncoordinates
    supports = [tuple(range(m))] + [tuple(j for j in range(m) if j != i) for i in range(m)]
    failures = []
    for support in supports:
        if not ts.is_closed_support(ws, support):
            failures.append(ts.StabilityFailure(support, "orbit-not-closed"))
        if not ts.is_full(ts.subgroup_canon(ws.group, [ws.weights[i] for i in support])):
            failures.append(ts.StabilityFailure(support, "stabilizer-nontrivial"))
    return ts.StabilityReport(not failures, tuple(failures))


def test_the_stability_check_matches_a_support_by_support_reference():
    # Few distinct free parts, many repeated weights: supports share weight
    # sets, and supports whose weights differ only in torsion must not
    # share a subgroup.  Free rank 0, a single weight and zero free parts
    # leave some supports with no part to drop.
    rng = random.Random(43)
    reasons, shapes = [], set()
    for _ in range(120):
        free = rng.randint(0, 2)
        torsion = rng.choice([(), (2,), (3,), (2, 4)])
        parts = [tuple(rng.randint(-2, 2) for _ in range(free)) for _ in range(rng.randint(1, 3))]
        rows = [
            rng.choice(parts) + tuple(rng.randrange(d) for d in torsion)
            for _ in range(rng.randint(1, 9))
        ]
        ws = weight_system(free, torsion, rows)
        report = ts.check_strongly_stable(ws)
        assert report == reference_stability_report(ws), rows
        reasons.append({f.reason for f in report.failures})
        zero_part = free and any(not any(w.free_part()) for w in ws.weights)
        kinds = [("rank 0", not free), ("one weight", len(rows) == 1), ("zero part", zero_part)]
        shapes |= {kind for kind, hit in kinds if hit}
    # not vacuous: each shape above, stable systems, and each kind of failure alone
    assert shapes == {"rank 0", "one weight", "zero part"}
    assert set() in reasons
    assert {"orbit-not-closed"} in reasons and {"stabilizer-nontrivial"} in reasons


def distinct_random_weights(seed, count, rank, bound):
    rng = random.Random(seed)
    rows = set()
    while len(rows) < count:
        rows.add(tuple(rng.randint(-bound, bound) for _ in range(rank)))
    return weight_system(rank, (), sorted(rows))


@pytest.mark.parametrize("count, rank, bound", [(60, 2, 9), (30, 15, 2)])
def test_random_weights_are_refused_on_faces_within_a_second(count, rank, bound):
    # Their Gale vectors' cones have thousands of facets.  With no limit,
    # double description took 1.8 s to find the 7,833 of the first and did
    # not end within 100 s on the second (2-core x86_64 host, Python 3.11);
    # each addition counts its pair tests before it makes them.
    ws = distinct_random_weights(36, count, rank, bound)
    start = time.perf_counter()
    with pytest.raises(
        ts.InputError, match=WORK_REFUSAL.format("double description", r"\d+", 2**21)
    ):
        ts.luna_strata(ws)
    assert time.perf_counter() - start < 1.0


def test_one_work_limit_bounds_facets_faces_circuits_and_closure(monkeypatch):
    # Lowering the one limit refuses each stage at its own count.  The cone
    # over a square folds its 4 rays over 3 x 3 entries, 36 steps of
    # saturation, counts 27 + 2 * 1 * 3 = 33 steps of double description
    # and 10 faces of 4 + 9 steps in its walk, 130.  The weights 1, 2, -1,
    # -2 in Z have 4 positive circuits, found in 33 steps as well, and 10
    # closed sets, each joined with the 4 circuits.
    square = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]
    ws = weight_system(1, (), [(1,), (2,), (-1,), (-2,)])
    monkeypatch.setattr(ts.errors, "MAX_WORK", 32)
    with pytest.raises(ts.InputError, match=WORK_REFUSAL.format("saturation", 36, 32)):
        ts.build_cone(3, square)
    message = WORK_REFUSAL.format("double description", 33, 32)
    with pytest.raises(ts.InputError, match=message):
        ts.facet_normals(ts.Cone(3, tuple(square)))
    with pytest.raises(ts.InputError, match=message):
        ts.luna_strata(ws)
    monkeypatch.setattr(ts.errors, "MAX_WORK", 39)
    cone = ts.build_cone(3, square)
    with pytest.raises(ts.InputError, match=WORK_REFUSAL.format("face walk", 52, 39)):
        ts.face_lattice(cone)
    with pytest.raises(ts.InputError, match=WORK_REFUSAL.format("union closure", 40, 39)):
        ts.luna_strata(ws)
    monkeypatch.setattr(ts.errors, "MAX_WORK", 40)
    assert len(ts.luna_strata(ws)) == 3


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
