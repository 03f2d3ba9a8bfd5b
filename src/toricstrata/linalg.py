"""Exact integer and rational linear algebra.

Everything here runs on arbitrary-precision ``int``; ``fractions.Fraction``
appears only as optional inequality input and in rational witnesses and
bounds.  No floating point enters any decision.  Conventions relied on
elsewhere:

* Hermite normal form is row-style: the canonical basis of the row
  lattice, with positive pivots, entries above a pivot reduced into
  ``[0, pivot)``, zero rows last.  Canonical subgroup bases depend on this
  normalization.  It is computed column by column: each row below the
  pivot is cleared by one extended-gcd combination with the pivot row, and
  every row operation touches only the columns from the pivot on.  A row
  ``±e_c`` clears its column from the other rows first; route one's
  subgroup insertions are full of such rows: the class group's Smith form
  leaves most divisor classes of a cone with many rays as unit vectors.
* Every integer kernel and every solution of ``A x == b`` comes from one
  fold over the rows of ``A``, starting from the identity basis: each row
  cuts the current echelon basis down to its vectors pairing to zero with
  the row, one extended-gcd pass up the basis, and the last is reduced.
  For a solve, the gcd of the row's pairings with the basis first decides
  whether the row is solvable and gives the step.  Kernel bases come out
  as Hermite bases and particular solutions reduced modulo them, so both
  are canonical.  One routine reduces a vector modulo a Hermite basis, for
  these solutions and for lattice coordinates alike.
* Smith normal form returns ``(U, S, V)`` with ``U @ A @ V == S``, ``S``
  diagonal and nonnegative, each diagonal entry dividing the next.  The
  package takes it only for the class group, whose divisor classes are
  read off ``U``.  Invariant factors alone come from alternating row and
  column Hermite forms, with no transform.
* An inequality ``(coeffs, rhs, strict)`` means ``coeffs . x >= rhs``
  (``> rhs`` when strict); an equality ``(coeffs, rhs)`` means
  ``coeffs . x == rhs``.  A ``LinearSystem`` stores both as integer rows:
  ``linear_system`` accepts ``Fraction`` inequality data and scales each row
  once by the lcm of its denominators, so no consumer does ``Fraction``
  arithmetic on the rows or re-scales them.
* Rational feasibility is decided by Fourier-Motzkin elimination after
  the equalities are eliminated along the Hermite form of ``[A | b]``:
  pivot variables are substituted into the inequalities in integers, and a
  pivot divides only when the witness is rebuilt.  Each elimination step
  keeps one row per direction, the tightest; the step that leaves one
  variable reads each pair of rows as two integers and keeps only the
  tightest lower and upper bound, without building a row per pair.
  Back-substitution picks every coordinate strictly inside its segment, so
  the witness lies in the relative interior of the solution set.  The
  intended operating envelope is small: at most ~10 variables and a few
  dozen constraints.  In the package, ``abelian.semigroup_member`` calls it
  for a relative-interior point of a relation cone, and the lattice
  searches below prune with the same projections.
* The boxed lattice search runs in a size-reduced, length-ordered basis of
  the equalities' integer kernel, so its innermost level steps along the
  shortest vector.  Its listing reads each run of innermost values straight
  into one column per search coordinate, and the points are rebuilt and
  re-checked column by column.  The values it tries on the levels above
  the last and the coordinates it lists count against ``errors.MAX_WORK``;
  ``roots.enumerate_roots`` lists roots with it.  Its first-hit path,
  behind :func:`first_lattice_point` and ``abelian.semigroup_member``,
  tries each level's values lazily by size: an early hit is cheap however
  wide the box, and a search whose every value fails is refused only once
  its tries pass the limit.
* Outside integer data is checked once, where it enters: by
  :meth:`IntMatrix.from_rows` and :func:`linear_system`.  The ``IntMatrix``
  and ``LinearSystem`` constructors trust their caller, and the public
  functions that take a system refuse anything but a ``LinearSystem``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import permutations, repeat
from operator import add, floordiv, mul
from typing import Iterable, Iterator, Sequence

from .errors import ConsistencyError, InputError, _Record, _check_work

IntVec = tuple[int, ...]

__all__ = [
    "IntMatrix",
    "IntVec",
    "IntegerSolution",
    "LinearSystem",
    "first_lattice_point",
    "hermite_normal_form",
    "lattice_points_bounded",
    "linear_system",
    "rational_feasible",
    "smith_normal_form",
    "solve_integer_system",
]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y == g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class IntMatrix(_Record):
    """Immutable dense matrix of arbitrary-precision integers (row-major).

    Build matrices with :meth:`from_rows`, which checks its rows; the
    constructor trusts its caller, as ``Cone`` and ``LinearSystem`` do.
    """

    rows: int
    cols: int
    entries: tuple[IntVec, ...]

    def __init__(self, rows, cols, entries) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def from_rows(data: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Check rows of integers from outside the package and freeze them."""
        try:
            rows = tuple(tuple(row) for row in data)
        except TypeError:
            raise InputError("matrix rows must be given as an iterable of sequences") from None
        if cols is None:
            if not rows:
                raise InputError("column count required for an empty matrix")
            cols = len(rows[0])
        if not _is_int(cols):
            raise InputError("column count must be an integer")
        if cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        for row in rows:
            if len(row) != cols:
                raise InputError("ragged matrix rows")
            if not all(map(_is_int, row)):
                raise InputError("matrix entries must be integers")
        return IntMatrix(len(rows), cols, rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        if not _is_int(n):
            raise InputError("matrix dimension must be an integer")
        if n < 0:
            raise InputError("matrix dimensions must be nonnegative")
        return IntMatrix(n, n, _identity(n))

    def column(self, j: int) -> IntVec:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(self.column(j) for j in range(self.cols)))

    def apply(self, vec: Sequence[int]) -> IntVec:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise InputError("vector length does not match matrix columns")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise InputError("matrix dimensions do not match for multiplication")
        cols = [other.column(j) for j in range(other.cols)]
        data = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, data)


def _check_matrix(a) -> None:
    if not isinstance(a, IntMatrix):
        raise InputError("matrix must be an IntMatrix")


def _primitive(vec: Sequence[int]) -> IntVec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = math.gcd(*vec)
    if g == 0:
        raise InputError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def _identity(n: int) -> tuple[IntVec, ...]:
    """The rows of the ``n x n`` identity: the Hermite basis of ``Z^n``."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, S, V) with U @ a @ V == S in Smith normal form.

    U and V are unimodular; S is diagonal with nonnegative entries and each
    diagonal entry divides the next.
    """
    _check_matrix(a)
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = list(map(list, _identity(m)))
    v = list(map(list, _identity(n)))

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for mat in (d, v):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def add_row(src: int, dst: int, k: int) -> None:
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def row_combine(i: int, j: int, p: int, q: int, r: int, s: int) -> None:
        for mat in (d, u):
            ri, rj = mat[i], mat[j]
            mat[i] = [p * x + q * y for x, y in zip(ri, rj)]
            mat[j] = [r * x + s * y for x, y in zip(ri, rj)]

    def col_combine(i: int, j: int, p: int, q: int, r: int, s: int) -> None:
        for mat in (d, v):
            for row in mat:
                x, y = row[i], row[j]
                row[i] = p * x + q * y
                row[j] = r * x + s * y

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(d[i][j])
                if x and (best is None or x < best):
                    pivot, best = (i, j), x
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            clean = False
            while not clean:
                clean = True
                for i in range(t + 1, m):
                    b = d[i][t]
                    if b:
                        aa = d[t][t]
                        if b % aa == 0:
                            add_row(t, i, -(b // aa))
                        else:
                            g, x, y = _xgcd(aa, b)
                            row_combine(t, i, x, y, -(b // g), aa // g)
                        clean = False
                for j in range(t + 1, n):
                    b = d[t][j]
                    if b:
                        aa = d[t][t]
                        if b % aa == 0:
                            col_combine(t, j, 1, 0, -(b // aa), 1)
                        else:
                            g, x, y = _xgcd(aa, b)
                            col_combine(t, j, x, y, -(b // g), aa // g)
                        clean = False
                        break  # column ops can refill column t; restart the sweep
            bad = None
            aa = d[t][t]
            for i in range(t + 1, m):
                for x in d[i][t + 1 :]:
                    if x % aa:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return (
        IntMatrix(m, m, tuple(map(tuple, u))),
        IntMatrix(m, n, tuple(map(tuple, d))),
        IntMatrix(n, n, tuple(map(tuple, v))),
    )


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form of ``a``: the canonical basis of its
    row lattice, padded with zero rows.

    Pivots are positive, entries above each pivot lie in [0, pivot), pivot
    columns strictly increase, and zero rows come last.  A transform ``U``
    with ``U @ a == H`` is the right block of the form of ``[a | I]``.

    Column by column, the first row with a nonzero entry becomes the pivot
    row, and each later row with a nonzero entry is cleared by one
    extended-gcd combination with it, a unimodular 2 x 2 step that leaves
    the gcd in the pivot.  The rows from the pivot down are zero left of
    the pivot column, so every step touches only the columns from the
    pivot on.  A row ``±e_c`` first clears column ``c`` of every other row,
    a unimodular step that touches no other column, so the elimination
    finds that column already done.
    """
    _check_matrix(a)
    m, n = a.rows, a.cols
    h = [list(row) for row in a.entries]
    unit_of = {}
    for i, row in enumerate(a.entries):
        if row.count(0) == n - 1:
            x = next(filter(None, row))
            if x == 1 or x == -1:
                unit_of.setdefault(row.index(x), i)
    if unit_of:
        kept = set(unit_of.values())
        for i, row in enumerate(h):
            if i not in kept:
                for c in unit_of:
                    row[c] = 0
    r = 0
    for j in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if h[i][j]), None)
        if p is None:
            continue
        h[r], h[p] = h[p], h[r]
        top = h[r][j:]
        # Rows r + 1 .. p are zero in column j.
        for i in range(p + 1, m):
            b = h[i][j]
            if not b:
                continue
            low = h[i][j:]
            c = top[0]
            if b % c == 0:
                q = b // c
                h[i][j:] = [x - q * y for x, y in zip(low, top)]
            else:
                g, x, y = _xgcd(c, b)
                s, t = b // g, c // g
                h[i][j:] = [t * v - s * w for w, v in zip(top, low)]
                top = [x * w + y * v for w, v in zip(top, low)]
        if top[0] < 0:
            top = [-x for x in top]
        h[r][j:] = top
        c = top[0]
        for i in range(r):
            q = h[i][j] // c
            if q:
                h[i][j:] = [x - q * y for x, y in zip(h[i][j:], top)]
        r += 1

    return IntMatrix(m, n, tuple(map(tuple, h)))


def _split_units(form: Sequence[IntVec]) -> tuple[list[IntVec], int]:
    """The nonzero rows of a Hermite form less those with pivot 1 and their
    pivot columns, and how many were split off.

    Entries above a pivot lie in ``[0, pivot)``, so a pivot 1 is alone in
    its column, and column operations clear the rest of its row: the row
    and column split off as an invariant factor 1, and what is left is
    again a Hermite form with the other factors.
    """
    units = {row.index(1) for row in form if next(filter(None, row), 0) == 1}
    rest = [
        tuple(x for c, x in enumerate(row) if c not in units)
        for row in form
        if next(filter(None, row), 0) > 1
    ]
    return rest, len(units)


def _invariant_factors(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """The nonzero diagonal of the Smith form of the matrix with these
    ``rows``, ``ncols`` wide, computed without transforms: its invariant
    factors, each dividing the next, one per unit of rank.

    Hermite forms of the rows and of the columns alternate until the matrix
    is diagonal (Cohen, *A Course in Computational Algebraic Number Theory*,
    2.4), each followed by :func:`_split_units`.  Take the first pivot not
    yet alone in its row and column: the next round puts there the gcd of
    its row, so it either stays, alone now, or becomes a proper divisor,
    and the pivots before it stay.  When it stays, the same holds of the
    next pivot not alone.  So a round that splits off no unit and does not
    end the loop makes the pivots, read in order, a smaller tuple, and the
    rounds end; a round that does not raises :class:`ConsistencyError`.
    gcd/lcm pairs then turn the diagonal into a divisibility chain
    presenting the same group.
    """
    ones, pivots = 0, None
    columns = tuple(zip(*rows)) if rows else ((),) * ncols
    while True:
        form = hermite_normal_form(IntMatrix(len(columns), len(rows), columns))
        rows, units = _split_units(form.entries)
        ones += units
        if all(row.count(0) == len(row) - 1 for row in rows):
            break
        last, pivots = pivots, [next(filter(None, row)) for row in rows]
        if not units and last is not None and pivots >= last:
            raise ConsistencyError(f"invariant factors: a round left the pivots {pivots} no smaller")
        columns = tuple(zip(*rows))
    d = sorted(map(sum, rows))
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return [1] * ones + d


# ---------------------------------------------------------------------------
# Linear systems


# Inequality rows are integer triples (coeffs, rhs, strict) meaning
# coeffs . x >= rhs (strictly when strict).
_Row = tuple[IntVec, int, bool]


def _scale_inequality(
    coeffs: Sequence[int | Fraction], rhs: int | Fraction, strict: bool
) -> _Row:
    """Clear denominators by their positive lcm; the solution set is unchanged."""
    denom = math.lcm(rhs.denominator, *(x.denominator for x in coeffs))
    vec = tuple(x.numerator * (denom // x.denominator) for x in coeffs)
    return vec, rhs.numerator * (denom // rhs.denominator), strict


def _is_rational(x) -> bool:
    return _is_int(x) or isinstance(x, Fraction)


class LinearSystem(_Record):
    """Mixed equality/inequality system over a fixed number of variables.

    ``equalities`` entries are ``(coeffs, rhs)`` meaning ``coeffs . x == rhs``
    and ``inequalities`` entries are ``(coeffs, rhs, strict)`` meaning
    ``coeffs . x >= rhs`` (strictly greater when ``strict``), all with
    integer data.  :func:`linear_system` also accepts ``Fraction``
    inequality data and clears its denominators.
    """

    dim: int
    equalities: tuple[tuple[IntVec, int], ...]
    inequalities: tuple[_Row, ...]


def linear_system(
    dim: int,
    equalities: Iterable[tuple[Sequence[int], int]] = (),
    inequalities: Iterable[tuple[Sequence[Fraction | int], Fraction | int, bool]] = (),
) -> LinearSystem:
    """Validate and freeze a :class:`LinearSystem`.

    Each inequality is scaled once, by the positive lcm of its
    denominators, into an integer row with the same solution set.
    """
    if not _is_int(dim):
        raise InputError("system dimension must be an integer")
    if dim < 0:
        raise InputError("system dimension must be nonnegative")
    try:
        eq_rows = [(tuple(coeffs), rhs) for coeffs, rhs in equalities]
        ineq_rows = [(tuple(coeffs), rhs, strict) for coeffs, rhs, strict in inequalities]
    except (TypeError, ValueError):
        raise InputError("constraints must be iterables of (coeffs, rhs[, strict])") from None
    eqs = []
    for coeffs, rhs in eq_rows:
        if len(coeffs) != dim:
            raise InputError("equality coefficient vector has wrong length")
        if not all(map(_is_int, coeffs)):
            raise InputError("equality coefficients must be integers")
        if not _is_int(rhs):
            raise InputError("equality right-hand side must be an integer")
        eqs.append((coeffs, rhs))
    ineqs = []
    for vec, rhs, strict in ineq_rows:
        if len(vec) != dim:
            raise InputError("inequality coefficient vector has wrong length")
        if not all(_is_rational(x) for x in vec):
            raise InputError("inequality coefficients must be integers or Fractions")
        if not _is_rational(rhs):
            raise InputError("inequality right-hand side must be an integer or a Fraction")
        ineqs.append(_scale_inequality(vec, rhs, bool(strict)))
    return LinearSystem(dim, tuple(eqs), tuple(ineqs))


def _check_system(system) -> None:
    if not isinstance(system, LinearSystem):
        raise InputError("system must be a LinearSystem")


class IntegerSolution(_Record):
    """Integer solution set of an equality system: particular + lattice."""

    particular: IntVec
    kernel_basis: tuple[IntVec, ...]


def _pivot_index(basis: Sequence[IntVec]) -> dict[int, int]:
    """Map each pivot column of a Hermite basis to its row, in row order."""
    pivot_of = {}
    for idx, row in enumerate(basis):
        for col, x in enumerate(row):
            if x:
                pivot_of[col] = idx
                break
    return pivot_of


def _reduce(basis: Sequence[IntVec], pivot_of: dict[int, int], vec) -> tuple[list, list]:
    """Reduce ``vec`` modulo a Hermite basis with pivot index ``pivot_of``:
    the coefficients ``c`` and the remainder ``vec - c . basis``, the one
    vector of the coset whose pivot entries all lie in ``[0, pivot)``.
    Each row is zero left of its pivot, so taking the rows in pivot order
    leaves the pivot entries already reduced alone."""
    coeffs = [0] * len(basis)
    rest = list(vec)
    for col, idx in pivot_of.items():
        row = basis[idx]
        q = rest[col] // row[col]
        if q:
            coeffs[idx] = q
            rest[col:] = [a - q * b for a, b in zip(rest[col:], row[col:])]
    return coeffs, rest


def _lattice_coordinates(
    basis: Sequence[IntVec], pivot_of: dict[int, int], vec: IntVec
) -> IntVec | None:
    """Coordinates of an integer vector in a Hermite basis with pivot index
    ``pivot_of``, read off its :func:`_reduce`; ``None`` when it is not in
    the row lattice (the remainder is not zero)."""
    coeffs, rest = _reduce(basis, pivot_of, vec)
    return None if any(rest) else tuple(coeffs)


def _orthogonal_echelon(lattice: Sequence[IntVec], vec: Sequence[int]) -> list[IntVec]:
    """An echelon basis, in pivot order, of the vectors of ``lattice``, an
    echelon basis, that pair to zero with ``vec``.

    These are the rows with first entry zero of an echelon form of
    ``[lattice . vec | lattice]``, without that entry, built in one pass up
    the rows.  An accumulator ``a`` with pairing ``g`` absorbs each row
    ``b`` with nonzero pairing ``v`` by the unimodular step ``(b, a) ->
    ((g/h) b - (v/h) a, x b + y a)``, ``h = gcd(v, g) = x v + y g``: the
    first new row pairs to zero and keeps the pivot column of ``b``, as
    ``a`` combines rows below ``b``.  Rows pairing to zero stay, so all
    rows but the final accumulator are an echelon basis of the vectors
    pairing to zero.  A fold keeps its steps in this form and takes
    :func:`_hermite_reduced` once, at the end.
    """
    a, g = None, 0
    rows = []
    for b in reversed(lattice):
        v = sum(map(mul, b, vec))
        if not v:
            rows.append(b)
        elif a is None:
            a, g = b, v
        else:
            h, x, y = _xgcd(v, g)
            s, t = g // h, v // h
            rows.append(tuple(s * c - t * d for c, d in zip(b, a)))
            a, g = tuple(x * c + y * d for c, d in zip(b, a)), h
    rows.reverse()
    return rows


def _hermite_reduced(echelon: Sequence[IntVec]) -> tuple[IntVec, ...]:
    """The Hermite basis of the lattice of an echelon basis in pivot order:
    the unique one, with positive pivots and entries above them reduced."""
    basis: list[IntVec] = []
    for row in echelon:
        col = next(j for j, c in enumerate(row) if c)
        if row[col] < 0:
            row = tuple(-c for c in row)
        for i, upper in enumerate(basis):
            q = upper[col] // row[col]
            if q:
                basis[i] = tuple(c - q * d for c, d in zip(upper, row))
        basis.append(row)
    return tuple(basis)


def _kernel(rows: Sequence[Sequence[int]], dim: int) -> tuple[IntVec, ...]:
    """The Hermite basis of the integer kernel ``{x in Z^dim : row . x == 0
    for all rows}``: :func:`_orthogonal_echelon` folded over the rows,
    starting from the identity, and reduced once."""
    return _hermite_reduced(reduce(_orthogonal_echelon, rows, _identity(dim)))


def _gcd_vector(lattice: Sequence[IntVec], vec: Sequence[int]) -> tuple[int, list[int]]:
    """``(g, x)``: ``g >= 0`` the gcd of the pairings of ``vec`` with the
    rows of ``lattice`` and ``x`` an integer combination of the rows with
    ``<vec, x> == g``, from one extended-gcd pass over the pairings (it
    stops once the gcd is 1).  ``x`` is zero when every pairing is."""
    g, x = 0, [0] * len(vec)
    for b in lattice:
        v = sum(map(mul, b, vec))
        if v:
            g, s, t = _xgcd(g, v)
            x = [s * c + t * d for c, d in zip(x, b)]
            if g == 1:
                break
    return g, x


def solve_integer_system(system: LinearSystem) -> IntegerSolution | None:
    """Solve the equality part of ``system`` exactly over the integers.

    One equation ``a . x == rhs`` at a time: ``a`` takes the multiples of
    ``g`` on the kernel of the earlier equations (:func:`_gcd_vector`), so
    it is solvable exactly when ``g`` divides ``rhs - a . x0``, ``x0`` the
    solution so far, and :func:`_orthogonal_echelon` gives the next kernel,
    reduced once at the end.
    Returns ``None`` when no integer solution exists (a certificate: the
    first ``g`` that does not divide).  Otherwise the kernel basis is the
    Hermite basis of the integer kernel and the particular solution is
    reduced modulo it, so both are canonical.  Inequalities are not
    accepted here.
    """
    _check_system(system)
    if system.inequalities:
        raise InputError("solve_integer_system accepts equality-only systems")
    kernel = _identity(system.dim)
    point = [0] * system.dim
    for coeffs, rhs in system.equalities:
        g, x = _gcd_vector(kernel, coeffs)
        rest = rhs - sum(map(mul, coeffs, point))
        if rest % g if g else rest:
            return None
        if g:
            point = [p + rest // g * c for p, c in zip(point, x)]
            kernel = _orthogonal_echelon(kernel, coeffs)
    kernel = _hermite_reduced(kernel)
    return IntegerSolution(tuple(_reduce(kernel, _pivot_index(kernel), point)[1]), kernel)


# ---------------------------------------------------------------------------
# Fourier-Motzkin machinery
#
# Works on integer ``_Row``s; constant rows are checked and dropped as they
# appear.


class _Infeasible(Exception):
    pass


def _normalize_row(row: _Row) -> _Row | None:
    """Reduce by the content gcd; return None for a satisfied constant row."""
    vec, rhs, strict = row
    g = math.gcd(*vec)
    if g == 0:
        if rhs > 0 or (strict and rhs >= 0):
            raise _Infeasible
        return None
    g = math.gcd(g, rhs)
    if g > 1:
        vec = tuple([x // g for x in vec])
        rhs //= g
    return vec, rhs, strict


def _add_rows(store: dict[IntVec, _Row], rows: Iterable[_Row]) -> None:
    """Keep one row per primitive direction ``vec / content``: the one with
    the largest bound ``rhs / content``, a strict row winning a tie, which
    implies every other row of that direction."""
    for row in rows:
        norm = _normalize_row(row)
        if norm is None:
            continue
        vec, rhs, strict = norm
        g = math.gcd(*vec)
        key = tuple([x // g for x in vec])
        prev = store.get(key)
        if prev is None or (rhs * math.gcd(*prev[0]), strict) > (prev[1] * g, prev[2]):
            store[key] = norm


def _pair_rows(pos: list[_Row], neg: list[_Row], var: int) -> Iterator[_Row]:
    """The combination of each pos x neg pair of rows that cancels variable
    ``var``, pairs in row order."""
    for pvec, prhs, pstr in pos:
        pc = pvec[var]
        for qvec, qrhs, qstr in neg:
            qc = -qvec[var]
            vec = tuple([qc * x + pc * y for x, y in zip(pvec, qvec)])  # faster than a genexpr
            yield vec, qc * prhs + pc * qrhs, pstr or qstr


def _last_bounds(pos: list[_Row], neg: list[_Row], nvars: int) -> list[_Row]:
    """The tightest lower and upper bound on variable 0 among the pos x neg
    pairs of rows in variables 0 and 1, eliminating variable 1.

    Each pair is read as two integers ``c . x0 >= r`` and its strictness;
    a pair with ``c == 0`` is a constant row, checked as
    :func:`_normalize_row` checks it.  Of the pairs with one sign of ``c``
    the one with the largest ``r / |c|`` is tightest, a strict one winning
    a tie, the order of :func:`_add_rows`.  The winners come back as
    full-length rows, in the order their signs first appear among the
    pairs, so passing them through :func:`_add_rows` gives the rows, and
    the order, that the pairs themselves would have given.
    """
    best: dict[bool, tuple[int, int, bool]] = {}
    for pvec, prhs, pstr in pos:
        pa, pc = pvec[0], pvec[1]
        for qvec, qrhs, qstr in neg:
            qc = -qvec[1]
            c, r, strict = qc * pa + pc * qvec[0], qc * prhs + pc * qrhs, pstr or qstr
            if not c:
                if r > 0 or (strict and r >= 0):
                    raise _Infeasible
                continue
            prev = best.get(c > 0)
            if prev is None or (r * abs(prev[0]), strict) > (prev[1] * abs(c), prev[2]):
                best[c > 0] = (c, r, strict)
    pad = (0,) * (nvars - 1)
    return [((c, *pad), r, strict) for c, r, strict in best.values()]


def _fm_chain(rows: Iterable[_Row], nvars: int) -> list[list[_Row]] | None:
    """Projection chain: chain[k] constrains variables 0..k-1 only.

    Step ``k`` eliminates variable ``k - 1``: the rows without it are kept,
    and every pair of a row with a positive and a row with a negative
    coefficient on it adds their combination that cancels it (Schrijver,
    *Theory of Linear and Integer Programming*, section 12.2).
    :func:`_add_rows` keeps one row per direction.  The step that leaves
    one variable keeps only the tightest bound of each sign among the pairs
    (:func:`_last_bounds`) before it adds them, without building a row per
    pair; its rows are the same as if it did.

    Returns ``None`` when the system is rationally infeasible.
    """
    try:
        store: dict[IntVec, _Row] = {}
        _add_rows(store, rows)
        chain: list[list[_Row]] = [[] for _ in range(nvars + 1)]
        chain[nvars] = list(store.values())
        for k in range(nvars, 0, -1):
            var = k - 1
            pos, neg, zero = [], [], []
            for row in chain[k]:
                c = row[0][var]
                (pos if c > 0 else neg if c < 0 else zero).append(row)
            store = {}
            _add_rows(store, zero)
            if k == 2:
                _add_rows(store, _last_bounds(pos, neg, nvars))
            else:
                _add_rows(store, _pair_rows(pos, neg, var))
            chain[k - 1] = list(store.values())
        return chain
    except _Infeasible:
        return None


def _segment(
    rows: Iterable[_Row], var: int, prefix: Sequence[Fraction]
) -> tuple[tuple[Fraction, bool] | None, tuple[Fraction, bool] | None]:
    """Exact lower/upper bounds on variable ``var`` given assigned prefix."""
    lower: tuple[Fraction, bool] | None = None
    upper: tuple[Fraction, bool] | None = None
    for vec, rhs, strict in rows:
        c = vec[var]
        if c == 0:
            continue
        rest = rhs - sum(a * x for a, x in zip(vec[:var], prefix))
        bound = Fraction(rest, c)
        if c > 0:
            if lower is None or (bound, strict) > lower:
                lower = (bound, strict)
        else:
            if upper is None or (bound, not strict) < (upper[0], not upper[1]):
                upper = (bound, strict)
    return lower, upper


def rational_feasible(system: LinearSystem) -> tuple[Fraction, ...] | None:
    """Decide rational feasibility; return an exact witness or ``None``.

    Equalities are removed first by substitution along the Hermite form of
    ``[A | b]``, the remaining inequalities go through Fourier-Motzkin
    elimination, and a witness is rebuilt by back-substitution.  Strict
    inequalities are honored throughout.
    """
    _check_system(system)
    n = system.dim

    # The Hermite form of [A | b] has the rational pivot columns of A; a
    # pivot in the last column is a row (0, ..., 0 | g), so 0 == g.
    form = hermite_normal_form(
        IntMatrix(len(system.equalities), n + 1, tuple((*c, b) for c, b in system.equalities))
    ).entries
    pivot_of = _pivot_index(form)
    if n in pivot_of:
        return None
    free_cols = [c for c in range(n) if c not in pivot_of]

    # Substitute the pivot variables into the inequalities in pivot order: a
    # pivot row involves only later variables, so adding a multiple of it to
    # a positive multiple of an inequality keeps every row integral.
    reduced: list[_Row] = []
    try:
        for vec, rhs, strict in system.inequalities:
            row = [*vec, rhs]
            for col, idx in pivot_of.items():
                if f := row[col]:
                    p = form[idx][col]
                    row = [p * x - f * y for x, y in zip(row, form[idx])]
            norm = _normalize_row((tuple(row[c] for c in free_cols), row[n], strict))
            if norm is not None:
                reduced.append(norm)
    except _Infeasible:
        return None

    nfree = len(free_cols)
    chain = _fm_chain(reduced, nfree)
    if chain is None:
        return None

    # Back-substitute a rational witness for the free variables.
    free_vals: list[Fraction] = []
    for level in range(nfree):
        lower, upper = _segment(chain[level + 1], level, free_vals)
        if lower is None and upper is None:
            val = Fraction(0)
        elif lower is None:
            val = upper[0] - 1
        elif upper is None:
            val = lower[0] + 1
        elif lower[0] < upper[0]:
            val = (lower[0] + upper[0]) / 2
        elif lower[0] == upper[0] and not lower[1] and not upper[1]:
            val = lower[0]
        else:
            raise ConsistencyError("Fourier-Motzkin bounds produced an empty segment")
        free_vals.append(val)

    witness = [Fraction(0)] * n
    for c, val in zip(free_cols, free_vals):
        witness[c] = val
    # Rebuild the pivot variables last to first: a row involves only later ones.
    for col, idx in reversed(pivot_of.items()):
        row = form[idx]
        later = sum(map(mul, row[col + 1 : n], witness[col + 1 :]))
        witness[col] = Fraction(row[n] - later, row[col])

    # Re-check the witness in integers, scaled by its common denominator.
    den = 1
    for x in witness:
        den = den * x.denominator // math.gcd(den, x.denominator)
    point = [x.numerator * (den // x.denominator) for x in witness]
    for coeffs, rhs in system.equalities:
        if sum(a * x for a, x in zip(coeffs, point)) != rhs * den:
            raise ConsistencyError("feasibility witness violates an equality")
    for vec, rhs, strict in system.inequalities:
        val = sum(a * x for a, x in zip(vec, point))
        if val < rhs * den or (strict and val == rhs * den):
            raise ConsistencyError("feasibility witness violates an inequality")
    return tuple(witness)


def _inequality_rows(inequalities: Iterable[_Row]) -> list[_Row]:
    """Integer rows as closed >= rows: for integer points a.x > r <=> a.x >= r + 1."""
    return [(vec, rhs + 1 if strict else rhs, False) for vec, rhs, strict in inequalities]


def _check_box_bound(box_bound) -> None:
    if not _is_int(box_bound) or box_bound < 0:
        raise InputError("box bound must be a nonnegative integer")


def _by_size(lo: int, hi: int) -> Iterator[int]:
    """The integers of [lo, hi] in the order 0, 1, -1, 2, -2, ..., made lazily."""
    for size in range(max(0, lo, -hi), max(hi, -lo) + 1):
        if size <= hi:
            yield size
        if 0 < size <= -lo:
            yield -size


def _lattice_runs(
    chain: list[list[_Row]], n: int, stop_at_first: bool
) -> Iterator[tuple[IntVec, int, int]]:
    """Integer points of the projection chain, in search coordinates, n >= 1.

    Yields one run ``(prefix, lo, hi)`` per prefix of the first ``n - 1``
    variables whose last-level range is not empty: the points ``(*prefix,
    v)`` for ``lo <= v <= hi``.  Variable ``level`` is bounded by the rows
    of ``chain[level + 1]`` that involve it.  Each such row ``a . x >=
    rhs`` is split once into its prefix coefficients and ``|a[level]|``,
    lower-bounding rows first.  A node carries, for its own and every
    deeper level, the sums ``s = a . prefix - rhs`` of that level's rows
    over the variables fixed so far, so fixing a variable costs one
    multiply-add per deeper row.  A row then bounds its variable by one
    floor division: ``x >= -(s // |a[level]|)`` for a lower row, ``x <= s
    // |a[level]|`` for an upper one.  Prefixes come in lexicographic
    order, or with ``stop_at_first`` with values in the order 0, 1, -1, 2,
    -2, ....  Each value is counted against ``MAX_WORK`` as it is tried,
    as its multiply-adds and the divisions that bound the next level.  A
    level whose rows have no prefix coefficients has the same range under
    every prefix, so an empty one ends the search before the descent.
    """
    own, nlower, cols, start = [], [], [], []
    for level in range(n):
        rows = [row for row in chain[level + 1] if row[0][level] > 0]
        nlower.append(len(rows))
        rows += [row for row in chain[level + 1] if row[0][level] < 0]
        if not 0 < nlower[level] < len(rows):
            raise ConsistencyError("unbounded level in boxed lattice search")
        own.append([abs(vec[level]) for vec, _, _ in rows])
        cols.append([[vec[i] for vec, _, _ in rows] for i in range(level)])
        start.append([-rhs for _, rhs, _ in rows])
        if not any(map(any, cols[level])):
            quotients = list(map(floordiv, start[level], own[level]))
            if -min(quotients[: nlower[level]]) > min(quotients[nlower[level] :]):
                return
    steps = 0

    def descend(level: int, prefix: IntVec, sums: list[list[int]]):
        # sums[m] belongs to level ``level + m``
        nonlocal steps
        quotients = list(map(floordiv, sums[0], own[level]))
        split = nlower[level]
        lo, hi = -min(quotients[:split]), min(quotients[split:])
        if lo > hi:
            return
        if level == n - 1:
            yield prefix, lo, hi
            return
        deeper = list(zip(sums[1:], [cols[m][level] for m in range(level + 1, n)]))
        cost = sum(len(col) for _, col in deeper) + len(own[level + 1])
        for v in _by_size(lo, hi) if stop_at_first else range(lo, hi + 1):
            steps += cost
            _check_work("lattice search", steps)
            shifted = [[x + a * v for x, a in zip(row_sums, col)] for row_sums, col in deeper]
            yield from descend(level + 1, (*prefix, v), shifted)

    yield from descend(0, (), start)


def _lattice_dfs(chain: list[list[_Row]], n: int) -> IntVec | None:
    """The first point of the first-hit search of :func:`_lattice_runs`, or
    ``None`` when the chain has no integer point."""
    if n == 0:
        return ()
    for prefix, lo, hi in _lattice_runs(chain, n, True):
        return (*prefix, next(_by_size(lo, hi)))
    return None


def _affine_column(
    const: int, terms: Iterable[tuple[int, Sequence[int]]], count: int
) -> Iterator[int]:
    """``const + sum(c * column[m] for c, column in terms)`` for m < count,
    made lazily."""
    out = repeat(const, count)
    for c, column in terms:
        if c:
            out = map(add, out, map(mul, column, repeat(c)))
    return out


def _search_basis(basis: Sequence[IntVec]) -> tuple[IntVec, ...]:
    """``basis`` size-reduced pairwise, then stably sorted by decreasing length.

    The size-reduction step of LLL (Lenstra, Lenstra and Lovász 1982) on
    every ordered pair ``(i, j)``: ``b_i`` becomes ``b_i - q * b_j``, with
    ``q`` the nearest integer to ``<b_i, b_j> / <b_j, b_j>``, whenever
    that makes it strictly shorter, until no pair does.  Squared lengths
    are positive integers that only decrease, so the loop ends, and every
    step is unimodular, so the lattice is unchanged.
    """
    vecs = [list(b) for b in basis]
    norms = [sum(map(mul, b, b)) for b in vecs]
    shortened = True
    while shortened:
        shortened = False
        for i, j in permutations(range(len(vecs)), 2):
            q = (2 * sum(map(mul, vecs[i], vecs[j])) + norms[j]) // (2 * norms[j])
            if q:
                vec = [a - q * b for a, b in zip(vecs[i], vecs[j])]
                norm = sum(map(mul, vec, vec))
                if norm < norms[i]:
                    vecs[i], norms[i], shortened = vec, norm, True
    order = sorted(range(len(vecs)), key=norms.__getitem__, reverse=True)
    return tuple(tuple(vecs[i]) for i in order)


def _box_search(
    system: LinearSystem, box_bound: int
) -> tuple[IntVec, tuple[IntVec, ...], list[_Row], list[list[_Row]]] | None:
    """The boxed search of ``system``: particular point, search basis, integer
    inequality rows and projection chain, or ``None`` if the box has no point.

    Equalities are eliminated first by passing to coordinates on their
    integer solution lattice, which keeps the search dimension at the
    lattice rank; the box constrains the original coordinates either way.
    The coordinates are taken in :func:`_search_basis` of the solver's
    Hermite kernel basis: the same lattice, but the last, innermost level,
    whose ranges become the runs, steps along the shortest vector, so
    fewer and longer runs cover the same points.  The search order of the
    points follows this basis, not the Hermite one.
    """
    _check_box_bound(box_bound)
    n = system.dim
    solution = solve_integer_system(LinearSystem(n, system.equalities, ()))
    if solution is None:
        return None
    # The particular point, reduced modulo the Hermite basis, keeps the
    # search ranges close to the box.
    particular = solution.particular
    kernel = _search_basis(solution.kernel_basis)
    k = len(kernel)

    inequalities = _inequality_rows(system.inequalities)
    t_rows = []
    for coeffs, rhs, _ in inequalities:
        t_coeffs = tuple(sum(map(mul, coeffs, basis_vec)) for basis_vec in kernel)
        t_rows.append((t_coeffs, rhs - sum(map(mul, coeffs, particular)), False))
    for j in range(n):
        column = tuple(kernel[i][j] for i in range(k))
        if any(column):
            t_rows.append((column, -box_bound - particular[j], False))
            t_rows.append((tuple(-x for x in column), particular[j] - box_bound, False))
        elif abs(particular[j]) > box_bound:
            return None
    chain = _fm_chain(t_rows, k)
    if chain is None:
        return None
    return particular, kernel, inequalities, chain


def _boxed_solutions(system: LinearSystem, box_bound: int, stop_at_first: bool) -> list[IntVec]:
    """Integer solutions with coordinates in the box, searched by :func:`_box_search`.

    The first-hit search takes the point of :func:`_lattice_dfs`.  The
    listing reads each run of :func:`_lattice_runs` straight into one
    column per search coordinate, the prefix repeated and the last
    coordinate ranging, and counts the coordinates of its points against
    ``MAX_WORK`` before it adds it.  Every point found is rebuilt in the
    original coordinates and re-checked against the box, the equalities and
    the inequalities, one coordinate or row at a time over all points.
    """
    search = _box_search(system, box_bound)
    if search is None:
        return []
    particular, kernel, inequalities, chain = search
    n, k = system.dim, len(kernel)
    if stop_at_first:
        first = _lattice_dfs(chain, k)
        if first is None:
            return []
        t_columns, count = [[x] for x in first], 1
    else:
        t_columns, count = [[] for _ in range(k)], 0
        for prefix, lo, hi in _lattice_runs(chain, k, False) if k else [((), 0, 0)]:
            size = hi - lo + 1
            _check_work("lattice listing", (count + size) * n)
            count += size
            values = [*map(repeat, prefix, repeat(size)), range(lo, hi + 1)]
            for column, run in zip(t_columns, values):
                column.extend(run)
        if not count:
            return []
    x_columns = [
        list(_affine_column(particular[j], [(kernel[i][j], t_columns[i]) for i in range(k)], count))
        for j in range(n)
    ]
    del t_columns  # free the search columns before the points are built

    def violations() -> Iterable[bool]:
        for column in x_columns:
            yield min(column) < -box_bound or max(column) > box_bound
        for coeffs, rhs in system.equalities:
            yield set(_affine_column(0, zip(coeffs, x_columns), count)) != {rhs}
        for coeffs, rhs, _ in inequalities:
            yield min(_affine_column(0, zip(coeffs, x_columns), count)) < rhs

    if any(violations()):
        raise ConsistencyError("reduced lattice search produced a bad point")
    return list(zip(*x_columns)) if n else [()]


def lattice_points_bounded(system: LinearSystem, box_bound: int) -> list[IntVec]:
    """All integer solutions with every coordinate in [-box_bound, box_bound].

    Points are returned in lexicographic order.  The search prunes with
    exact Fourier-Motzkin projections, so only rationally feasible prefixes
    are explored.
    """
    _check_system(system)
    # The search lists points in the order of its size-reduced basis; the
    # sort alone sets the output order.
    return sorted(_boxed_solutions(system, box_bound, stop_at_first=False))


def first_lattice_point(system: LinearSystem, box_bound: int) -> IntVec | None:
    """Some integer solution in the box, or ``None`` if there is none.

    Deterministic, and biased toward solutions with small search
    coordinates, which are coefficients in the size-reduced kernel basis
    of :func:`_search_basis`; use :func:`lattice_points_bounded` for full
    enumeration.  Raises ``InputError`` once the values it has tried pass
    ``errors.MAX_WORK``.
    """
    _check_system(system)
    found = _boxed_solutions(system, box_bound, stop_at_first=True)
    return found[0] if found else None
