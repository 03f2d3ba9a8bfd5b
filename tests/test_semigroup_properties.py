"""Property checks of the exact semigroup membership decision against
brute-force oracles."""

import inspect
import time

import pytest
from hypothesis import given, settings, strategies as st

import toricstrata as ts
from toricstrata import _polyhedra

from oracles import combination, first_box_hit, numerical_semigroup, unbounded_coefficients

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)
BOX = 4


@st.composite
def membership_cases(draw):
    """Z^0..3 times torsion, 1-5 generators with entries in [-4, 4] and a
    target with entries in [-8, 8]."""
    free = draw(st.integers(0, 3))
    torsion = draw(st.sampled_from([(), (), (2,), (3,), (2, 4), (6,)]))
    n = free + len(torsion)
    gens = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=1, max_size=5))
    target = draw(st.tuples(*[st.integers(-8, 8)] * n))
    return free, torsion, gens, target


@PROPERTY
@given(membership_cases())
def test_semigroup_member_agrees_with_a_box_scan(case):
    free, torsion, gens, target = case
    group = ts.FgAbGroup(free, torsion)
    result = ts.semigroup_member(group, [group.element(g) for g in gens], group.element(target))
    assert result.status in {"yes", "no"}
    if result.is_yes():
        assert min(result.coefficients) >= 0
        assert combination(free, torsion, gens, result.coefficients) == combination(
            free, torsion, [target], [1]
        )
    if first_box_hit(free, torsion, gens, target, BOX) is not None:
        assert result.is_yes()


@PROPERTY
@given(membership_cases())
def test_relation_is_positive_exactly_on_the_unbounded_coefficients(case):
    free, torsion, gens, _ = case
    group = ts.FgAbGroup(free, torsion)
    relation = _polyhedra._unbounded_relation(group, [group.element(g) for g in gens])
    assert min(relation) >= 0
    assert not any(combination(free, torsion, gens, relation))
    support = {i for i, x in enumerate(relation) if x}
    assert support == unbounded_coefficients(free, [g[:free] for g in gens])


@pytest.mark.parametrize("gens", [(2, 3, 5), (3, 5, 7), (4, 6, 9), (5, 7, 11), (6, 10, 15)])
def test_semigroup_member_decides_numerical_semigroups(gens):
    # every coefficient is tight, and most members need the search to move
    # the reduced particular solution
    g = ts.FgAbGroup(1, ())
    reach = numerical_semigroup(gens, 60)
    for t in range(61):
        result = ts.semigroup_member(g, [g.element((k,)) for k in gens], g.element((t,)))
        assert result.is_yes() == (t in reach)


def test_semigroup_member_takes_no_search_bound():
    assert list(inspect.signature(ts.semigroup_member).parameters) == ["group", "gens", "target"]


def test_semigroup_member_is_limited_by_the_values_it_tries(monkeypatch):
    # 10**9 + 7 = 7a + 11b + 13c has about 10**15 nonnegative solutions, over
    # ranges far beyond the search limit; the search stops at the first it
    # tries
    g = ts.FgAbGroup(1, ())
    gens = [g.element((7,)), g.element((11,)), g.element((13,))]
    start = time.perf_counter()
    for target in (10**9 + 7, 10**12 + 1):
        result = ts.semigroup_member(g, gens, g.element((target,)))
        assert result.is_yes() and min(result.coefficients) >= 0
        assert combination(1, (), [(7,), (11,), (13,)], result.coefficients) == (target,)
    assert time.perf_counter() - start < 1
    # 30, the largest integer outside the semigroup, is decided after 5
    # tries of 4 steps each: a limit of 19 refuses the fifth
    monkeypatch.setattr(ts.errors, "MAX_WORK", 19)
    with pytest.raises(ts.InputError, match="^lattice search: 20 steps pass the work limit MAX_WORK = 19$"):
        ts.semigroup_member(g, gens, g.element((30,)))
    monkeypatch.setattr(ts.errors, "MAX_WORK", 20)
    assert ts.semigroup_member(g, gens, g.element((30,))).status == "no"
