"""Finitely generated abelian groups, subgroups and membership searches."""

import random

import pytest

import toricstrata as ts
from toricstrata.linalg import IntMatrix

from oracles import finite_closure, rational_rank, semigroup_closure


def grp(free_rank, torsion=()):
    return ts.FgAbGroup(free_rank, tuple(torsion))


# ---------------------------------------------------------------------------
# groups and elements


def test_group_validation_divisibility_chain():
    grp(0, (2, 6))  # fine: 2 | 6
    with pytest.raises(ts.InputError):
        grp(0, (2, 3))
    with pytest.raises(ts.InputError):
        grp(0, (1,))
    for bad in (-1, 1.0, True, "1"):
        with pytest.raises(ts.InputError, match="free rank must be a nonnegative integer"):
            grp(bad)


def test_group_describe_names():
    assert grp(0).describe() == "0"
    assert grp(1).describe() == "Z"
    assert grp(3).describe() == "Z^3"
    assert grp(0, (2, 4)).describe() == "Z/2 x Z/4"
    assert grp(2, (3,)).describe() == "Z^2 x Z/3"


def test_group_order():
    assert grp(0).order() == 1
    assert grp(0, (2, 4)).order() == 8
    assert grp(1, (2,)).order() is None


def test_element_reduction_and_arithmetic():
    g = grp(1, (4,))
    a = g.element((2, 5))
    assert a.coords == (2, 1)
    b = g.element((-1, 3))
    assert (a + b).coords == (1, 0)
    assert (a - b).coords == (3, 2)
    assert (3 * b).coords == (-3, 1)
    assert (-a).coords == (-2, 3)
    assert g.zero().is_zero()
    assert a.free_part() == (2,)
    with pytest.raises(ts.InputError):
        g.element((1,))
    other = grp(1, (4,))
    assert (g.element((1, 0)) + other.element((1, 0))).coords == (2, 0)
    with pytest.raises(ts.InputError):
        g.element((1, 0)) + grp(2).element((0, 0))


def test_element_coordinates_must_be_integers():
    g = grp(2)
    for coords, j in (((1.5, 0), 0), ((0, True), 1), ((1, 2.0), 1), (("1", 0), 0)):
        with pytest.raises(ts.InputError, match=f"^coordinate {j} must be an integer$"):
            g.element(coords)
    with pytest.raises(ts.InputError, match="coordinate 0 must be an integer"):
        ts.subgroup_canon(g, [g.element((True, 0.9))])


def test_group_from_cokernel_examples():
    # Z^2 --diag(2, 4)--> Z^2 has cokernel Z/2 x Z/4
    group, gens = ts.group_from_cokernel(IntMatrix.from_rows([[2, 0], [0, 4]]))
    assert group.describe() == "Z/2 x Z/4"
    assert len(gens) == 2
    # one relation (1, 1) on Z^2 leaves Z
    group, gens = ts.group_from_cokernel(
        IntMatrix.from_rows([[1, 1]], 2).transpose()
    )
    assert group.describe() == "Z"
    # generators must express the standard images faithfully: their span is all
    handle = ts.subgroup_canon(group, gens)
    assert ts.is_full(handle)


# ---------------------------------------------------------------------------
# subgroups


def random_finite_group(rng):
    torsion = []
    d = rng.choice([2, 2, 3, 4])
    torsion.append(d)
    if rng.random() < 0.6:
        torsion.append(d * rng.choice([1, 2, 3]))
    return grp(0, tuple(torsion))


def test_subgroup_canon_is_idempotent_and_order_free():
    rng = random.Random(11)
    for _ in range(60):
        group = grp(rng.randint(0, 2), (2, 4) if rng.random() < 0.5 else ())
        if group.ncoords == 0:
            continue
        gens = [
            group.element(tuple(rng.randint(-4, 4) for _ in range(group.ncoords)))
            for _ in range(rng.randint(0, 3))
        ]
        handle = ts.subgroup_canon(group, gens)
        again = ts.subgroup_canon(group, [group.element(b) for b in handle.basis])
        assert handle.basis == again.basis
        rng.shuffle(gens)
        assert ts.subgroup_canon(group, gens).basis == handle.basis


def test_subgroup_order_and_membership_against_exhaustive_closure():
    rng = random.Random(12)
    for _ in range(60):
        group = random_finite_group(rng)
        k = len(group.torsion)
        gens = [
            group.element(tuple(rng.randint(0, 7) for _ in range(k)))
            for _ in range(rng.randint(0, 3))
        ]
        handle = ts.subgroup_canon(group, gens)
        elements = finite_closure(group.torsion, [g.coords for g in gens])
        assert ts.subgroup_structure(handle).order() == len(elements)
        assert ts.is_full(handle) == (len(elements) == group.order())
        quotient = ts.quotient_group(group, handle)
        assert quotient.order() == group.order() // len(elements)


def test_is_full_agrees_with_equality_to_the_full_subgroup():
    # is_full reads the identity basis off the handle; the definition it
    # replaced compared with full_subgroup's Hermite form
    rng = random.Random(31)
    for _ in range(200):
        group = grp(rng.randint(0, 2), rng.choice([(), (2,), (3,), (2, 4), (2, 6), (3, 3)]))
        gens = [
            group.element(tuple(rng.randint(-3, 3) for _ in range(group.ncoords)))
            for _ in range(rng.randint(0, 4))
        ]
        handle = ts.subgroup_canon(group, gens)
        assert ts.is_full(handle) == ts.subgroups_equal(handle, ts.full_subgroup(group))
    assert ts.is_full(ts.full_subgroup(grp(0)))


def test_subgroup_leq_and_equality():
    g = grp(0, (8,))
    two = ts.subgroup_canon(g, [g.element((2,))])
    four = ts.subgroup_canon(g, [g.element((4,))])
    assert ts.subgroup_leq(four, two)
    assert not ts.subgroup_leq(two, four)
    assert not ts.subgroups_equal(two, four)
    assert ts.subgroups_equal(two, ts.subgroup_canon(g, [g.element((6,))]))
    full = ts.full_subgroup(g)
    assert ts.subgroup_leq(two, full) and ts.is_full(full)
    trivial = ts.subgroup_canon(g, [])
    assert ts.subgroup_leq(trivial, four)
    assert ts.subgroup_structure(trivial).describe() == "0"


def test_quotient_group_examples():
    g = grp(2)
    by_axis = ts.quotient_group(g, ts.subgroup_canon(g, [g.element((1, 0))]))
    assert by_axis.describe() == "Z"
    z4 = grp(0, (4,))
    half = ts.quotient_group(z4, ts.subgroup_canon(z4, [z4.element((2,))]))
    assert half.describe() == "Z/2"
    assert ts.quotient_group(z4, ts.full_subgroup(z4)).describe() == "0"
    assert ts.quotient_group(z4, ts.subgroup_canon(z4, [])).describe() == "Z/4"


def test_subgroup_free_rank_is_the_rational_rank_of_its_generators():
    rng = random.Random(14)
    for _ in range(60):
        free = rng.randint(1, 3)
        g = grp(free, rng.choice([(2,), (3,), (2, 4), (2, 6)]))
        gens = [
            g.element(tuple(rng.randint(-4, 4) for _ in range(g.ncoords)))
            for _ in range(rng.randint(0, 4))
        ]
        structure = ts.subgroup_structure(ts.subgroup_canon(g, gens))
        assert structure.free_rank == rational_rank([e.free_part() for e in gens])

# ---------------------------------------------------------------------------
# semigroup membership


def test_semigroup_member_cyclic_example():
    g = grp(0, (4,))
    gen = g.element((1,))
    result = ts.semigroup_member(g, [gen], g.element((3,)))
    assert result.status == "yes"
    assert result.coefficients == (3,)


def test_semigroup_member_zero_target_needs_nothing():
    g = grp(1)
    result = ts.semigroup_member(g, [g.element((2,))], g.zero())
    assert result.status == "yes"
    assert result.coefficients == (0,)


def test_semigroup_member_certified_no_on_the_free_line():
    g = grp(1)
    gens = [g.element((2,)), g.element((3,))]
    assert ts.semigroup_member(g, gens, g.element((1,))).status == "no"
    seven = ts.semigroup_member(g, gens, g.element((7,)))
    assert seven.status == "yes"
    assert sum(c * k for c, k in zip(seven.coefficients, (2, 3))) == 7
    # nothing nonzero is reachable backwards
    assert ts.semigroup_member(g, gens, g.element((-1,))).status == "no"


def test_semigroup_member_empty_generators():
    g = grp(1)
    assert ts.semigroup_member(g, [], g.element((1,))).status == "no"
    assert ts.semigroup_member(g, [], g.zero()).status == "yes"


def test_semigroup_member_finite_groups_match_exhaustive_closure():
    rng = random.Random(14)
    for _ in range(50):
        group = random_finite_group(rng)
        k = len(group.torsion)
        gens = [
            group.element(tuple(rng.randint(0, 5) for _ in range(k)))
            for _ in range(rng.randint(1, 3))
        ]
        closure = semigroup_closure(group.torsion, [g.coords for g in gens])
        for _ in range(5):
            target = group.element(tuple(rng.randint(0, 5) for _ in range(k)))
            result = ts.semigroup_member(group, gens, target)
            assert (result.status == "yes") == (target.coords in closure)
            if result.is_yes():
                total = group.zero()
                for c, gen in zip(result.coefficients, gens):
                    total = total + c * gen
                assert total == target


def test_semigroup_member_mixed_group_coefficients_reconstruct_target():
    g = grp(1, (2,))
    gens = [g.element((1, 1)), g.element((-1, 0)), g.element((2, 1))]
    target = g.element((3, 1))
    result = ts.semigroup_member(g, gens, target)
    assert result.is_yes()
    total = g.zero()
    for c, gen in zip(result.coefficients, gens):
        assert c >= 0
        total = total + c * gen
    assert total == target


def test_semigroup_member_bounded_polytope_is_decided_exactly():
    # coefficients of (5, ) from {(2, ), (3, )} live in a bounded polytope,
    # so the search certifies either way
    g = grp(1)
    gens = [g.element((2,)), g.element((3,))]
    assert ts.semigroup_member(g, gens, g.element((5,))).status == "yes"
    assert ts.semigroup_member(g, gens, g.element((1,))).status == "no"


def test_semigroup_member_reports_honest_inconclusive():
    # the polytope is unbounded: (2, 1) + 2 * (-1, -1) + (0, 1) = 0 is a
    # positive relation, so every coefficient is unbounded, and the
    # verdict is still decided
    g = grp(2)
    gens = [g.element((2, 1)), g.element((-1, -1)), g.element((0, 1))]
    target = g.element((1, 0))
    result = ts.semigroup_member(g, gens, target)
    assert result.status == "yes"
    total = g.zero()
    for c, gen in zip(result.coefficients, gens):
        assert c >= 0
        total = total + c * gen
    assert total == target


def test_semigroup_member_validates_inputs():
    g = grp(1)
    other = grp(0, (2,))
    with pytest.raises(ts.InputError):
        ts.semigroup_member(g, [other.element((1,))], g.zero())
    with pytest.raises(ts.InputError):
        ts.semigroup_member(g, [g.element((1,))], other.element((1,)))
