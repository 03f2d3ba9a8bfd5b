"""Exact integer/rational linear algebra against naive reference oracles."""

import random
import time
from fractions import Fraction

import pytest

import toricstrata as ts
from toricstrata import _polyhedra, linalg
from toricstrata.linalg import IntMatrix

from oracles import (
    closed_system_feasible,
    det_int,
    hermite_with_transform,
    in_triangular_row_lattice,
    point_satisfies,
    random_matrix,
    rational_rank,
    scan_lattice_points,
    snf_diagonal_by_minors,
)


def mat(rows, cols=None):
    return IntMatrix.from_rows(rows, cols)


# ---------------------------------------------------------------------------
# primitive vectors


def test_primitive_vector_divides_out_the_gcd():
    assert linalg._primitive((2, 4, 6)) == (1, 2, 3)
    assert linalg._primitive((-3, 6)) == (-1, 2)
    assert linalg._primitive((0, 0, 5)) == (0, 0, 1)
    assert linalg._primitive((7,)) == (1,)


def test_primitive_vector_rejects_zero():
    with pytest.raises(ts.InputError):
        linalg._primitive((0, 0))


def test_primitive_vector_random_gcd_is_one():
    rng = random.Random(1)
    for _ in range(50):
        v = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 5)))
        if not any(v):
            continue
        p = linalg._primitive(v)
        g = 0
        for x in p:
            g = abs(x) if g == 0 else __import__("math").gcd(g, abs(x))
        assert g == 1
        scale = set()
        for a, b in zip(v, p):
            if b:
                scale.add(Fraction(a, b))
        assert len(scale) == 1 and next(iter(scale)) > 0


# ---------------------------------------------------------------------------
# matrices


def test_int_matrix_validation():
    with pytest.raises(ts.InputError):
        mat([[1, 2], [3]])
    with pytest.raises(ts.InputError):
        mat([[1, True]])
    with pytest.raises(ts.InputError):
        mat([[1.5]])
    m = mat([[1, 2], [3, 4]])
    assert m.transpose().entries == ((1, 3), (2, 4))
    assert (m @ IntMatrix.identity(2)).entries == m.entries
    assert m.apply((1, 1)) == (3, 7)


# ---------------------------------------------------------------------------
# Hermite normal form


def assert_hnf_shape(h):
    last_pivot = -1
    seen_zero_row = False
    for row in h.entries:
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is None:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "zero rows must come last"
        assert pivot > last_pivot, "pivot columns must strictly increase"
        assert row[pivot] > 0, "pivots must be positive"
        last_pivot = pivot
    # entries above each pivot are reduced into [0, pivot)
    for i, row in enumerate(h.entries):
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        for k in range(i):
            assert 0 <= h.entries[k][pivot] < row[pivot]


@pytest.mark.parametrize(
    "rows,cols",
    [
        ([[0, 0], [0, 0]], 2),
        ([[4]], 1),
        ([[2, 4, 4]], 3),
        ([[1, 0], [0, 1], [1, 1]], 2),
        ([[6, 10], [15, 4]], 2),
    ],
)
def test_hermite_normal_form_shape_and_transform(rows, cols):
    a = mat(rows, cols)
    h, u = hermite_with_transform(ts, a)
    assert_hnf_shape(h)
    assert (u @ a).entries == h.entries
    assert abs(det_int(u.entries)) == 1


def test_hermite_normal_form_random_row_lattice_equality():
    rng = random.Random(2)
    for _ in range(150):
        rows = random_matrix(rng, max_dim=5, entry=10)
        a = mat(rows)
        h, u = hermite_with_transform(ts, a)
        assert_hnf_shape(h)
        assert (u @ a).entries == h.entries
        assert abs(det_int(u.entries)) == 1
        # mutual membership: U unimodular gives L(H) <= L(A) and back;
        # the triangular oracle independently confirms L(A) <= L(H).
        for row in a.entries:
            assert in_triangular_row_lattice(h.entries, row)


# ---------------------------------------------------------------------------
# Smith normal form


def assert_snf_shape(a, u, s, v):
    assert (u @ a @ v).entries == s.entries
    assert abs(det_int(u.entries)) == 1
    assert abs(det_int(v.entries)) == 1
    diag = []
    for i, row in enumerate(s.entries):
        for j, x in enumerate(row):
            if i == j:
                diag.append(x)
            else:
                assert x == 0, "off-diagonal entries must vanish"
    assert all(d >= 0 for d in diag)
    for prev, nxt in zip(diag, diag[1:]):
        if prev == 0:
            assert nxt == 0
        else:
            assert nxt % prev == 0
    return diag


def test_smith_normal_form_examples():
    a = mat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    u, s, v = ts.smith_normal_form(a)
    diag = assert_snf_shape(a, u, s, v)
    assert diag == snf_diagonal_by_minors(a.entries, a.cols)


def test_smith_normal_form_random_matches_minor_gcds():
    rng = random.Random(3)
    for _ in range(150):
        rows = random_matrix(rng, max_dim=5, entry=10)
        a = mat(rows)
        u, s, v = ts.smith_normal_form(a)
        diag = assert_snf_shape(a, u, s, v)
        assert diag == snf_diagonal_by_minors(a.entries, a.cols)


def test_hermite_and_invariant_factor_ranks_match_rational_rank():
    rng = random.Random(4)
    for _ in range(80):
        rows = random_matrix(rng, max_dim=5, entry=8)
        a = mat(rows)
        rank = rational_rank(rows)
        assert sum(1 for row in ts.hermite_normal_form(a).entries if any(row)) == rank
        assert len(linalg._invariant_factors(a.entries, a.cols)) == rank


def test_invariant_factors_refuse_a_round_that_makes_no_progress(monkeypatch):
    # A Hermite form that returns its input makes the rounds swap two
    # matrices forever: the second round's pivots (2, 2) are smaller than
    # the first's (2, 3), but the third round's are (2, 3) again.
    monkeypatch.setattr(linalg, "hermite_normal_form", lambda matrix: matrix)
    start = time.perf_counter()
    with pytest.raises(ts.ConsistencyError, match=r"left the pivots \[2, 3\] no smaller"):
        linalg._invariant_factors([(2, 3), (0, 2)], 2)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# integer equality systems


def test_solve_integer_system_round_trip():
    rng = random.Random(5)
    for _ in range(120):
        dim = rng.randint(1, 4)
        neqs = rng.randint(1, 3)
        a = [
            tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(neqs)
        ]
        x0 = tuple(rng.randint(-4, 4) for _ in range(dim))
        rhs = [sum(c * x for c, x in zip(row, x0)) for row in a]
        system = ts.linear_system(dim, list(zip(a, rhs)))
        sol = ts.solve_integer_system(system)
        assert sol is not None
        for row, b in zip(a, rhs):
            assert sum(c * x for c, x in zip(row, sol.particular)) == b
            for k in sol.kernel_basis:
                assert sum(c * x for c, x in zip(row, k)) == 0
        assert len(sol.kernel_basis) == dim - rational_rank(a)
        # random lattice combinations stay solutions
        combo = list(sol.particular)
        for k in sol.kernel_basis:
            t = rng.randint(-3, 3)
            combo = [c + t * kk for c, kk in zip(combo, k)]
        for row, b in zip(a, rhs):
            assert sum(c * x for c, x in zip(row, combo)) == b


def test_reduction_modulo_random_hermite_bases():
    # a lattice vector plus a reduced remainder r (pivot entries in
    # [0, pivot)) reduces to its own coefficients and r; the coordinates
    # are returned exactly when r is zero
    rng = random.Random(22)
    outcomes = set()
    for _ in range(150):
        h = ts.hermite_normal_form(mat(random_matrix(rng, max_dim=4, entry=6)))
        basis = tuple(row for row in h.entries if any(row))
        pivot_of = linalg._pivot_index(basis)
        coeffs = [rng.randint(-5, 5) for _ in basis]
        vec = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(h.cols)]
        rest = [rng.randint(-5, 5) * rng.randint(0, 1) for _ in range(h.cols)]
        for col, idx in pivot_of.items():
            rest[col] %= basis[idx][col]
        shifted = tuple(a + b for a, b in zip(vec, rest))
        assert linalg._reduce(basis, pivot_of, shifted) == (coeffs, rest)
        assert linalg._reduce(basis, pivot_of, rest) == ([0] * len(basis), rest)
        coords = linalg._lattice_coordinates(basis, pivot_of, shifted)
        assert coords == (tuple(coeffs) if not any(rest) else None)
        assert linalg._lattice_coordinates(basis, pivot_of, tuple(vec)) == tuple(coeffs)
        outcomes.add(coords is None)
    assert outcomes == {True, False}


def test_solve_integer_system_detects_unsolvable():
    # rationally inconsistent
    system = ts.linear_system(2, [((1, 0), 0), ((1, 0), 1)])
    assert ts.solve_integer_system(system) is None
    # rationally solvable but not over the integers
    system = ts.linear_system(1, [((2,), 1)])
    assert ts.solve_integer_system(system) is None
    system = ts.linear_system(2, [((2, 4), 3)])
    assert ts.solve_integer_system(system) is None


def test_solve_integer_system_rejects_inequalities():
    system = ts.linear_system(1, [((1,), 0)], [((1,), 0, False)])
    with pytest.raises(ts.InputError):
        ts.solve_integer_system(system)


def test_linear_system_rows_define_the_input_set():
    # Fraction input is stored as integer rows, each a positive multiple of
    # its input row, that accept exactly the points the input accepts
    rng = random.Random(10)
    for _ in range(150):
        dim = rng.randint(1, 4)
        ineqs = [
            (
                tuple(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(dim)
                ),
                Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                rng.random() < 0.5,
            )
            for _ in range(rng.randint(1, 4))
        ]
        system = ts.linear_system(dim, (), ineqs)
        assert len(system.inequalities) == len(ineqs)
        for (coeffs, rhs, strict), (vec, r, s) in zip(ineqs, system.inequalities):
            assert s is strict
            assert all(type(x) is int for x in (*vec, r))
            given, stored = (*coeffs, rhs), (*vec, r)
            k = next((Fraction(b) / a for a, b in zip(given, stored) if a), Fraction(1))
            assert k > 0
            assert all(Fraction(b) == k * a for a, b in zip(given, stored))
            for _ in range(10):
                point = tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(dim)
                )
                val = sum(c * x for c, x in zip(coeffs, point))
                wanted = val > rhs if strict else val >= rhs
                got = sum(a * x for a, x in zip(vec, point))
                assert (got > r if s else got >= r) == wanted


def test_linear_system_scales_by_the_lcm_of_the_denominators():
    half, three_quarters = Fraction(1, 2), Fraction(3, 4)
    system = ts.linear_system(
        2, (), [((2, -4), 6, True), ((half, 0), -three_quarters, False)]
    )
    assert system.inequalities == (((2, -4), 6, True), ((2, 0), -3, False))


def test_linear_system_rejects_non_numeric_inequality_data():
    for bad in (True, 0.1, "1/3", None):
        with pytest.raises(ts.InputError, match="inequality coefficients"):
            ts.linear_system(2, (), [((1, bad), 0, False)])
        with pytest.raises(ts.InputError, match="inequality right-hand side"):
            ts.linear_system(1, (), [((1,), bad, False)])
    with pytest.raises(ts.InputError, match="equality coefficients"):
        ts.linear_system(1, [((True,), 0)])


# ---------------------------------------------------------------------------
# rational feasibility


def test_rational_feasible_nonneg_combination_example():
    # is (-1, 0) a nonnegative combination of (1, 0) and (-1, 0)?
    system = ts.linear_system(
        2,
        [((1, -1), -1), ((0, 0), 0)],
        [((1, 0), 0, False), ((0, 1), 0, False)],
    )
    witness = ts.rational_feasible(system)
    assert witness is not None


def test_rational_feasible_strict_edge_cases():
    # 0 < x < 1 has rational points
    system = ts.linear_system(1, (), [((1,), 0, True), ((-1,), -1, True)])
    witness = ts.rational_feasible(system)
    assert witness is not None and 0 < witness[0] < 1
    # x > 0 and x <= 0 does not
    system = ts.linear_system(1, (), [((1,), 0, True), ((-1,), 0, False)])
    assert ts.rational_feasible(system) is None
    # x >= 0 and -x >= 0 pins x = 0
    system = ts.linear_system(1, (), [((1,), 0, False), ((-1,), 0, False)])
    witness = ts.rational_feasible(system)
    assert witness == (Fraction(0),)


def test_fourier_motzkin_keeps_one_row_per_direction():
    # 3t >= 5 implies t >= 1: only the row with the larger bound 5/3 stays
    chain = _polyhedra._fm_chain([((3,), 5, False), ((1,), 1, False)], 1)
    assert chain[1] == [((3,), 5, False)]
    # on a tie of bounds the strict row wins
    chain = _polyhedra._fm_chain([((2,), 2, False), ((1,), 1, True)], 1)
    assert chain[1] == [((1,), 1, True)]


def test_rational_feasible_random_against_vertex_enumeration():
    rng = random.Random(6)
    for _ in range(200):
        dim = rng.randint(1, 3)
        nineq = rng.randint(1, 5)
        ineqs = [
            (
                tuple(rng.randint(-4, 4) for _ in range(dim)),
                rng.randint(-4, 4),
                False,
            )
            for _ in range(nineq)
        ]
        system = ts.linear_system(dim, (), ineqs)
        witness = ts.rational_feasible(system)
        expected = closed_system_feasible(
            dim, [(c, r) for c, r, _ in ineqs]
        )
        assert (witness is not None) == expected
        if witness is not None:
            assert point_satisfies(system, witness)


def test_rational_feasible_handles_equalities():
    rng = random.Random(7)
    for _ in range(80):
        dim = rng.randint(1, 3)
        x0 = tuple(rng.randint(-3, 3) for _ in range(dim))
        row = tuple(rng.randint(-3, 3) for _ in range(dim))
        rhs = sum(c * x for c, x in zip(row, x0))
        ineqs = []
        for _ in range(rng.randint(0, 3)):
            coeffs = tuple(rng.randint(-3, 3) for _ in range(dim))
            bound = sum(c * x for c, x in zip(coeffs, x0)) - rng.randint(0, 2)
            ineqs.append((coeffs, bound, False))
        system = ts.linear_system(dim, [(row, rhs)], ineqs)
        witness = ts.rational_feasible(system)
        # feasible by construction (x0 satisfies everything)
        assert witness is not None
        assert point_satisfies(system, witness)


def test_rational_feasible_witness_has_the_largest_support_on_a_cone():
    # on {A x = 0, x >= 0} the witness lies in the relative interior:
    # coordinate i is positive exactly when x_i >= 1 is feasible
    rng = random.Random(8)
    outcomes = set()
    for _ in range(150):
        n = rng.randint(1, 6)
        eqs = [
            (tuple(rng.randint(-3, 3) for _ in range(n)), 0)
            for _ in range(rng.randint(0, 3))
        ]
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        nonneg = [(u, 0, False) for u in units]
        witness = ts.rational_feasible(ts.linear_system(n, eqs, nonneg))
        for i in range(n):
            lifted = ts.linear_system(n, eqs, nonneg + [(units[i], 1, False)])
            positive = ts.rational_feasible(lifted) is not None
            assert (witness[i] > 0) == positive, (eqs, witness)
            outcomes.add(positive)
    assert outcomes == {True, False}


def test_rational_feasible_eliminates_dependent_scaled_and_inconsistent_equalities():
    # the verdict matches vertex enumeration with each equality written as
    # two inequalities; later equalities repeat an earlier one scaled, or
    # scaled and shifted so that the pair is inconsistent
    rng = random.Random(21)
    verdicts = set()
    for _ in range(200):
        dim = rng.randint(1, 3)
        eqs = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["fresh", "scaled", "shifted"]) if eqs else "fresh"
            if kind == "fresh":
                eqs.append((tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-3, 3)))
            else:
                coeffs, rhs = rng.choice(eqs)
                k = rng.choice([-3, -2, -1, 2, 3])
                eqs.append((tuple(k * c for c in coeffs), k * rhs + (kind == "shifted")))
        ineqs = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-3, 3), False)
            for _ in range(rng.randint(0, 3))
        ]
        system = ts.linear_system(dim, eqs, ineqs)
        witness = ts.rational_feasible(system)
        closed = [(c, r) for c, r, _ in ineqs]
        closed += [(c, r) for c, r in eqs] + [(tuple(-x for x in c), -r) for c, r in eqs]
        assert (witness is not None) == closed_system_feasible(dim, closed), (eqs, ineqs)
        if witness is not None:
            assert point_satisfies(system, witness)
        verdicts.add(witness is not None)
    assert verdicts == {True, False}


def test_rational_feasible_solves_equalities_without_integer_solutions():
    # 2x = 1 beside x + y = 0 has the one rational solution (1/2, -1/2)
    system = ts.linear_system(2, [((2, 0), 1), ((1, 1), 0)])
    assert ts.rational_feasible(system) == (Fraction(1, 2), Fraction(-1, 2))
    # 0 == 0 is dropped, 0 == 1 and 2x = 1 beside 4x = 1 are refused
    assert ts.rational_feasible(ts.linear_system(1, [((0,), 0)])) == (Fraction(0),)
    assert ts.rational_feasible(ts.linear_system(1, [((0,), 1)])) is None
    assert ts.rational_feasible(ts.linear_system(1, [((2,), 1), ((4,), 1)])) is None


# ---------------------------------------------------------------------------
# bounded lattice point search


def random_mixed_system(rng):
    dim = rng.randint(1, 3)
    eqs = []
    for _ in range(rng.randint(0, 2)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(dim))
        eqs.append((coeffs, rng.randint(-3, 3)))
    ineqs = []
    for _ in range(rng.randint(0, 3)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(dim))
        ineqs.append((coeffs, rng.randint(-3, 3), rng.random() < 0.3))
    return ts.linear_system(dim, eqs, ineqs)


def test_lattice_points_bounded_matches_brute_force_scan():
    rng = random.Random(8)
    nonempty = 0
    for _ in range(200):
        system = random_mixed_system(rng)
        bound = rng.randint(0, 3)
        got = ts.lattice_points_bounded(system, bound)
        expected = scan_lattice_points(system, bound)
        assert got == sorted(expected)
        nonempty += bool(expected)
    assert nonempty > 40  # the comparison exercised real solution sets


def test_lattice_points_bounded_unconstrained_is_the_whole_box():
    system = ts.linear_system(2)
    points = ts.lattice_points_bounded(system, 1)
    assert len(points) == 9
    assert points[0] == (-1, -1) and points[-1] == (1, 1)


def test_first_lattice_point_contract():
    rng = random.Random(9)
    for _ in range(150):
        system = random_mixed_system(rng)
        bound = rng.randint(0, 3)
        every = ts.lattice_points_bounded(system, bound)
        first = ts.first_lattice_point(system, bound)
        assert (first is None) == (not every)
        if first is not None:
            assert first in every
            assert ts.first_lattice_point(system, bound) == first


def test_first_lattice_point_prefers_small_coordinates():
    # an unbounded strip: the witness should not hug the box wall
    system = ts.linear_system(2, [((1, 0), 3)])
    point = ts.first_lattice_point(system, 50)
    assert point is not None and point[0] == 3
    assert abs(point[1]) <= 1


def test_box_bound_must_be_a_nonnegative_integer():
    system = ts.linear_system(1)
    for bad in (-1, 2.5, "3", True, None):
        for search in (ts.lattice_points_bounded, ts.first_lattice_point):
            with pytest.raises(ts.InputError, match="nonnegative integer"):
                search(system, bad)
    assert ts.lattice_points_bounded(system, 0) == [(0,)]


def test_boxed_search_recheck_catches_a_bad_point(monkeypatch):
    # the search re-checks each point against the stored integer rows, so a
    # point outside the system is caught even when the projection lets it in;
    # the search basis is the identity here, so the run ((-1,), 0, 0) is the
    # point (-1, 0)
    real = _polyhedra._lattice_runs

    def leaky(*args):
        yield from real(*args)
        yield (-1,), 0, 0

    system = ts.linear_system(2, (), [((1, 0), 0, False)])
    assert (-1, 0) not in ts.lattice_points_bounded(system, 2)
    monkeypatch.setattr(_polyhedra, "_lattice_runs", leaky)
    with pytest.raises(ts.ConsistencyError, match="bad point"):
        ts.lattice_points_bounded(system, 2)


def test_boxed_search_recheck_catches_an_off_lattice_particular(monkeypatch):
    # the re-check covers the equalities too: a particular solution shifted
    # off the equality lattice passes the box and the inequalities, which the
    # search derives from it, but not the equality
    real = linalg.solve_integer_system

    def shifted(system):
        solution = real(system)
        moved = (solution.particular[0] + 1, *solution.particular[1:])
        return linalg.IntegerSolution(moved, solution.kernel_basis)

    system = ts.linear_system(2, [((1, 1), 1)], [((1, 0), 0, False)])
    assert ts.lattice_points_bounded(system, 2) == [(0, 1), (1, 0), (2, -1)]
    monkeypatch.setattr(linalg, "solve_integer_system", shifted)
    with pytest.raises(ts.ConsistencyError, match="bad point"):
        ts.lattice_points_bounded(system, 2)


def test_boxed_search_limit_counts_listed_coordinates_exactly(monkeypatch):
    # The listing counts the coordinates of every batch: the 49 points of
    # [-3, 3]^2 come in seven batches of 7 and hold 98 coordinates; a limit
    # of 97 refuses the seventh batch.
    monkeypatch.setattr(ts.errors, "MAX_WORK", 98)
    assert len(ts.lattice_points_bounded(ts.linear_system(2), 3)) == 49
    monkeypatch.setattr(ts.errors, "MAX_WORK", 97)
    with pytest.raises(ts.InputError, match="^lattice listing: 98 steps pass the work limit MAX_WORK = 97$"):
        ts.lattice_points_bounded(ts.linear_system(2), 3)
    # a search of one variable tries no value before its one batch
    monkeypatch.setattr(ts.errors, "MAX_WORK", 7)
    assert len(ts.lattice_points_bounded(ts.linear_system(1), 3)) == 7
    with pytest.raises(ts.InputError, match="^lattice listing: 9 steps pass"):
        ts.lattice_points_bounded(ts.linear_system(1), 4)


def test_first_hit_search_limit_counts_the_values_it_tries(monkeypatch):
    # 1/2 <= y - x <= 1/2 has no integer point, and the range of y moves
    # with x, so every value of x is tried and fails.  Each value shifts
    # the 4 rows that bound y and divides them, 8 steps: the 6 values of x
    # in [-3, 2] at box bound 3 pass a limit of 48, the 7th at bound 4 does
    # not
    no_integer_y = ts.linear_system(2, (), [((-2, 2), 1, False), ((2, -2), -1, False)])
    monkeypatch.setattr(ts.errors, "MAX_WORK", 48)
    assert ts.first_lattice_point(no_integer_y, 3) is None
    with pytest.raises(ts.InputError, match="^lattice search: 56 steps pass the work limit MAX_WORK = 48$"):
        ts.first_lattice_point(no_integer_y, 4)


def test_first_hit_search_decides_a_prefix_free_empty_level_once():
    # 1/2 <= y <= 1/2 involves no earlier variable, so its empty range is
    # found before the search, not once for each of the 2^20 + 1 values of x
    no_integer_y = ts.linear_system(2, (), [((0, 2), 1, False), ((0, -2), -1, False)])
    start = time.perf_counter()
    assert ts.first_lattice_point(no_integer_y, 2**19) is None
    assert ts.lattice_points_bounded(no_integer_y, 2**19) == []
    assert time.perf_counter() - start < 0.1


def test_first_hit_search_tries_only_the_values_it_needs():
    # 2^20 + 1 values on level 0, but the first one tried hits
    far_right = ts.linear_system(2, (), [((1, 0), 2**19, False)])
    start = time.perf_counter()
    assert ts.first_lattice_point(ts.linear_system(2), 2**19) == (0, 0)
    assert ts.first_lattice_point(far_right, 2**19) == (2**19, 0)
    assert time.perf_counter() - start < 1


def test_first_hit_order_is_by_size_then_positive_first():
    for lo in range(-5, 6):
        for hi in range(lo, 6):
            expected = sorted(range(lo, hi + 1), key=lambda v: (abs(v), v < 0))
            assert list(_polyhedra._by_size(lo, hi)) == expected


def test_boxed_search_refuses_more_points_than_the_limit_quickly():
    assert ts.errors.MAX_WORK == 2**21
    start = time.perf_counter()
    with pytest.raises(ts.InputError, match=r"^lattice listing: \d+ steps pass the work limit MAX_WORK = 2097152$"):
        ts.lattice_points_bounded(ts.linear_system(3), 51)  # 103^3 points, 3 coordinates each
    assert time.perf_counter() - start < 10
    assert ts.first_lattice_point(ts.linear_system(3), 51) == (0, 0, 0)


def test_boxed_search_recheck_catches_a_point_outside_the_box(monkeypatch):
    # the run ((3,), 0, 0) is the point (3, 0) in the identity search basis
    real = _polyhedra._lattice_runs

    def leaky(*args):
        yield from real(*args)
        yield (3,), 0, 0

    system = ts.linear_system(2, (), [((1, 0), 0, False)])
    monkeypatch.setattr(_polyhedra, "_lattice_runs", leaky)
    with pytest.raises(ts.ConsistencyError, match="bad point"):
        ts.lattice_points_bounded(system, 2)
