"""Property checks of the boxed lattice search against a box scan."""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

import toricstrata as ts

small = st.integers(-3, 3)
fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def bounded_systems(draw):
    """Dimension 1-4, 0-2 equalities, 0-4 inequalities (some strict, some
    with Fraction data) and a box bound 0-3, as the input data."""
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[small] * dim)
    eqs = draw(st.lists(st.tuples(vec, small), max_size=2))
    ineq = st.one_of(
        st.tuples(vec, small, st.booleans()),
        st.tuples(st.tuples(*[fraction] * dim), fraction, st.booleans()),
    )
    ineqs = draw(st.lists(ineq, max_size=4))
    return dim, eqs, ineqs, draw(st.integers(0, 3))


def box_scan(dim, eqs, ineqs, bound):
    """Every point of the box that satisfies the input data, in lex order."""

    def dot(coeffs, point):
        return sum(c * x for c, x in zip(coeffs, point))

    return [
        point
        for point in product(range(-bound, bound + 1), repeat=dim)
        if all(dot(c, point) == r for c, r in eqs)
        and all(
            dot(c, point) > r if strict else dot(c, point) >= r for c, r, strict in ineqs
        )
    ]


PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)


@PROPERTY
@given(bounded_systems())
def test_lattice_search_matches_the_box_scan(data):
    dim, eqs, ineqs, bound = data
    system = ts.linear_system(dim, eqs, ineqs)
    expected = box_scan(dim, eqs, ineqs, bound)
    assert ts.lattice_points_bounded(system, bound) == expected
    first = ts.first_lattice_point(system, bound)
    if expected:
        assert first in expected
    else:
        assert first is None
