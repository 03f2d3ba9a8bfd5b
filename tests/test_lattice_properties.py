"""Property checks of the Hermite form against the former min-pivot kernel,
of the transform-free invariant factors against the Smith diagonal, of the
integer solver and the kernel fold against a Smith-form solve, of
the gcd vector against ``math.gcd``, of the boxed lattice search against
a box scan and of that search's size-reduced basis, and of the
Fourier-Motzkin chain against the pairwise elimination."""

import math
from fractions import Fraction
from itertools import permutations, product

from hypothesis import given, settings, strategies as st

import toricstrata as ts
from toricstrata import _polyhedra

from oracles import (
    fm_chain_pairwise,
    hermite_by_sweeps,
    hermite_kernel,
    in_triangular_row_lattice,
    scan_lattice_points,
    smith_solve,
    snf_diagonal_by_minors,
)

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


@st.composite
def inequality_rows(draw):
    """1-4 variables and 0-6 integer rows ``(vec, rhs, strict)``, some
    strict.  Each row may get a parallel copy, a nonzero multiple of its
    vector with its own bound (a negative one may contradict it), and a
    sibling with its last coefficient redrawn, so that eliminating the
    last variable gives ties between strict and closed bounds.  A row may
    be all zero, a constant that holds or fails."""
    nvars = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[small] * nvars), small, st.booleans())
    rows = []
    for vec, rhs, strict in draw(st.lists(row, max_size=6)):
        rows.append((vec, rhs, strict))
        if draw(st.booleans()):
            m = draw(st.sampled_from([-3, -2, -1, 2, 3]))
            rows.append((tuple(m * x for x in vec), draw(small), draw(st.booleans())))
        if draw(st.booleans()):
            rows.append(((*vec[:-1], draw(small)), rhs, draw(st.booleans())))
    if draw(st.integers(0, 4)) == 0:
        zero = ((0,) * nvars, draw(small), draw(st.booleans()))
        rows.insert(draw(st.integers(0, len(rows))), zero)
    return nvars, rows


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(inequality_rows())
def test_the_projection_chain_equals_the_pairwise_elimination(data):
    nvars, rows = data
    assert _polyhedra._fm_chain(rows, nvars) == fm_chain_pairwise(rows, nvars)


@PROPERTY
@given(inequality_rows(), st.lists(st.tuples(st.integers(-2, 2), small), max_size=1),
       st.integers(0, 2))
def test_the_boxed_listing_equals_the_box_scan(data, equality, bound):
    nvars, rows = data
    eqs = [((a, *[0] * (nvars - 1)), b) for a, b in equality]
    system = ts.linear_system(nvars, eqs, rows)
    assert ts.lattice_points_bounded(system, bound) == scan_lattice_points(system, bound)


@st.composite
def equality_systems(draw):
    """Dimension 0-4 and 0-3 equalities; half the time the right-hand side
    is the image of an integer point, so solvable systems are common."""
    dim = draw(st.integers(0, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), max_size=3))
    if draw(st.booleans()):
        point = draw(st.tuples(*[small] * dim))
        rhs = [sum(c * x for c, x in zip(row, point)) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(-6, 6), min_size=len(rows), max_size=len(rows)))
    return ts.linear_system(dim, list(zip(rows, rhs)))


@PROPERTY
@given(equality_systems())
def test_solver_agrees_with_the_smith_form_solve(system):
    solution = ts.solve_integer_system(system)
    expected = smith_solve(ts, system)
    assert (solution is None) == (expected is None)
    if solution is None:
        return
    particular, kernel = expected
    # the same kernel lattice, in Hermite form
    if kernel:
        hermite = ts.hermite_normal_form(ts.IntMatrix.from_rows(kernel)).entries
        assert solution.kernel_basis == tuple(row for row in hermite if any(row))
    else:
        assert solution.kernel_basis == ()
    # the same coset, reduced: every kernel pivot entry in [0, pivot)
    offset = [a - b for a, b in zip(solution.particular, particular)]
    assert in_triangular_row_lattice(solution.kernel_basis, offset)
    for row in solution.kernel_basis:
        pivot = next(j for j, x in enumerate(row) if x)
        assert 0 <= solution.particular[pivot] < row[pivot]


@PROPERTY
@given(equality_systems())
def test_the_search_basis_is_size_reduced_and_spans_the_kernel(system):
    solution = ts.solve_integer_system(system)
    if solution is None:
        return
    # a box holding the particular point, so the search is not empty
    bound = max(map(abs, solution.particular), default=0)
    _, basis, _, _ = _polyhedra._box_search(system, bound)
    assert len(basis) == len(solution.kernel_basis)
    if basis:
        hermite = ts.hermite_normal_form(ts.IntMatrix.from_rows(basis)).entries
        assert hermite == solution.kernel_basis
    norms = [dot(b, b) for b in basis]
    assert norms == sorted(norms, reverse=True)
    # the nearest integer multiples of b_j, below and above, shorten no b_i
    for i, j in permutations(range(len(basis)), 2):
        ratio = Fraction(dot(basis[i], basis[j]), norms[j])
        for q in (math.floor(ratio), math.ceil(ratio)):
            shifted = [a - q * b for a, b in zip(basis[i], basis[j])]
            assert dot(shifted, shifted) >= norms[i]


@st.composite
def hermite_inputs(draw):
    """0-6 rows and 0-6 columns with entries up to 10^6 in size, some rows
    and columns zero, some rows sums of others (rank deficient), and some
    rows ``±e_c``, repeated or not, which the Hermite form clears first."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**6), 10**6))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    for j in draw(st.lists(st.integers(0, max(ncols - 1, 0)), max_size=2)) if ncols else []:
        for row in rows:
            row[j] = 0
    if nrows >= 3 and draw(st.booleans()):
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if nrows and ncols:
        for i in draw(st.lists(st.integers(0, nrows - 1), max_size=3)):
            rows[i] = [0] * ncols
            rows[i][draw(st.integers(0, ncols - 1))] = draw(st.sampled_from((1, -1)))
    return rows, ncols


@PROPERTY
@given(hermite_inputs())
def test_hermite_normal_form_equals_the_min_pivot_kernel(data):
    rows, ncols = data
    h = ts.hermite_normal_form(ts.IntMatrix.from_rows(rows, ncols))
    assert h.entries == hermite_by_sweeps(rows, ncols)
    # the kernel fold gives the Hermite basis of the Smith-form kernel,
    # zero and dependent rows included
    assert ts.linalg._kernel(rows, ncols) == hermite_kernel(ts, rows, ncols)


@PROPERTY
@given(hermite_inputs())
def test_invariant_factors_are_the_nonzero_smith_diagonal(data):
    rows, ncols = data
    _, s, _ = ts.smith_normal_form(ts.IntMatrix.from_rows(rows, ncols))
    diagonal = [s.entries[i][i] for i in range(min(len(rows), ncols))]
    factors = ts.linalg._invariant_factors(rows, ncols)
    assert factors == [d for d in diagonal if d]
    if len(rows) <= 4 and ncols <= 4:
        assert factors == [d for d in snf_diagonal_by_minors(rows, ncols) if d]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@st.composite
def gcd_vector_inputs(draw):
    """A Hermite basis of rank 0-4 in Z^0..5 and a vector, entries up to
    10^6 in size.  In the ``"zero"`` case the vector lies in the kernel of
    the basis, so every pairing is zero; in the ``"negative"`` case the
    basis has one row and its pairing is negative."""
    dim = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**6), 10**6))
    vector = st.lists(entry, min_size=dim, max_size=dim)
    case = draw(st.sampled_from(["random", "zero", "negative"]))
    rows = draw(st.lists(vector, max_size=1 if case == "negative" else 4))
    form = ts.hermite_normal_form(ts.IntMatrix.from_rows(rows, dim)).entries
    lattice = tuple(row for row in form if any(row))
    vec = draw(vector)
    if case == "zero":
        vec = [0] * dim
        for row in hermite_kernel(ts, lattice, dim):
            c = draw(st.integers(-5, 5))
            vec = [a + c * b for a, b in zip(vec, row)]
    elif case == "negative" and lattice:
        p = dot(lattice[0], vec)
        vec = [-a for a in lattice[0]] if p == 0 else vec if p < 0 else [-a for a in vec]
    return lattice, vec


@PROPERTY
@given(gcd_vector_inputs())
def test_the_gcd_vector_pairs_to_the_gcd_of_the_pairings(data):
    lattice, vec = data
    g, x = ts.linalg._gcd_vector(lattice, vec)
    assert g == math.gcd(*(dot(row, vec) for row in lattice))
    assert dot(x, vec) == g
    assert len(x) == len(vec) and in_triangular_row_lattice(lattice, x)
