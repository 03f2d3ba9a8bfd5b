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
* Rational feasibility and the boxed lattice search live in
  :mod:`toricstrata._polyhedra`, which the four public functions over them
  import on their first call.
* Outside integer data is checked once, where it enters: by
  :meth:`IntMatrix.from_rows` and :func:`linear_system`.  The ``IntMatrix``
  and ``LinearSystem`` constructors trust their caller, and the public
  functions that take a system refuse anything but a ``LinearSystem``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import reduce
from operator import mul
from typing import TYPE_CHECKING

from .errors import ConsistencyError, InputError, _Record

if TYPE_CHECKING:
    from fractions import Fraction

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
        if not (_is_int(j) and 0 <= j < self.cols):
            raise InputError(f"column index {j!r} is not in range({self.cols})")
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(self.column(j) for j in range(self.cols)))

    def apply(self, vec: Sequence[int]) -> IntVec:
        """Matrix-vector product."""
        if not (isinstance(vec, Sequence) and all(map(_is_int, vec))):
            raise InputError(f"vector {vec!r} is not a sequence of integers")
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
    from . import _polyhedra
    return _polyhedra.linear_system(dim, equalities, inequalities)


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


def rational_feasible(system: LinearSystem) -> tuple[Fraction, ...] | None:
    """Decide rational feasibility; return an exact witness or ``None``.

    Equalities are removed first by substitution along the Hermite form of
    ``[A | b]``, the remaining inequalities go through Fourier-Motzkin
    elimination, and a witness is rebuilt by back-substitution.  Strict
    inequalities are honored throughout.
    """
    from . import _polyhedra
    return _polyhedra.rational_feasible(system)


def _check_box_bound(box_bound) -> None:
    if not _is_int(box_bound) or box_bound < 0:
        raise InputError("box bound must be a nonnegative integer")


def lattice_points_bounded(system: LinearSystem, box_bound: int) -> list[IntVec]:
    """All integer solutions with every coordinate in [-box_bound, box_bound].

    Points are returned in lexicographic order.  The search prunes with
    exact Fourier-Motzkin projections, so only rationally feasible prefixes
    are explored.
    """
    from . import _polyhedra
    return _polyhedra.lattice_points_bounded(system, box_bound)


def first_lattice_point(system: LinearSystem, box_bound: int) -> IntVec | None:
    """Some integer solution in the box, or ``None`` if there is none.

    Deterministic, and biased toward solutions with small search
    coordinates, which are coefficients in the size-reduced kernel basis
    of :func:`~toricstrata._polyhedra._search_basis`; use :func:`lattice_points_bounded` for full
    enumeration.  Raises ``InputError`` once the values it has tried pass
    ``errors.MAX_WORK``.
    """
    from . import _polyhedra
    return _polyhedra.first_lattice_point(system, box_bound)
