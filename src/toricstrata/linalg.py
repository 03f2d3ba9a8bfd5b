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
  every row operation touches only the columns from the pivot on.
* Integer kernels and solutions of ``A x == b`` come from one Hermite form
  of ``[A^T | I]``, built once per matrix and reduced against once per
  right-hand side; kernel bases and particular solutions come out
  canonical.  One routine reduces a vector modulo a Hermite basis, for
  these solutions and for lattice coordinates alike.
* Smith normal form returns ``(U, S, V)`` with ``U @ A @ V == S``, ``S``
  diagonal and nonnegative, each diagonal entry dividing the next.  It is
  used only where invariant factors are needed.
* An inequality ``(coeffs, rhs, strict)`` means ``coeffs . x >= rhs``
  (``> rhs`` when strict); an equality ``(coeffs, rhs)`` means
  ``coeffs . x == rhs``.  A ``LinearSystem`` stores both as integer rows:
  ``linear_system`` accepts ``Fraction`` inequality data and scales each row
  once by the lcm of its denominators, so no consumer does ``Fraction``
  arithmetic on the rows or re-scales them.
* Rational feasibility is decided by Fourier-Motzkin elimination after
  the equalities are eliminated along the Hermite form of ``[A | b]``:
  pivot variables are substituted into the inequalities in integers, and a
  pivot divides only when the witness is rebuilt.  Back-substitution picks
  every coordinate strictly inside its segment, so the witness lies in the
  relative interior of the solution set.  The intended operating envelope
  is small: at most ~10 variables and a few dozen constraints.  In the
  package, ``abelian.semigroup_member`` calls it for a relative-interior
  point of a relation cone, and the lattice searches below prune with the
  same projections.
* The boxed lattice search lists at most ``MAX_LATTICE_POINTS`` points and
  raises ``InputError`` before it would build more; ``roots.enumerate_roots``
  lists roots with it.  Its first-hit path, behind
  :func:`first_lattice_point` and ``abelian.semigroup_member``, tries each
  level's values lazily by size and raises ``InputError`` once it has tried
  ``MAX_LATTICE_POINTS``: an early hit is cheap however wide the box, and a
  search whose every value fails is refused only after that many tries.
* Outside integer data is checked once, where it enters: by
  :meth:`IntMatrix.from_rows` and :func:`linear_system`.  The ``IntMatrix``
  and ``LinearSystem`` constructors trust their caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, mul
from typing import Iterable, Iterator, Sequence

from .errors import ConsistencyError, InputError

IntVec = tuple[int, ...]

__all__ = [
    "IntMatrix",
    "IntVec",
    "IntegerSolution",
    "LinearSystem",
    "first_lattice_point",
    "hermite_normal_form",
    "integer_rank",
    "lattice_points_bounded",
    "linear_system",
    "primitive_vector",
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


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers (row-major).

    Build matrices with :meth:`from_rows`, which checks its rows; the
    constructor trusts its caller, as ``Cone`` and ``LinearSystem`` do.
    """

    rows: int
    cols: int
    entries: tuple[IntVec, ...]

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
        if n < 0:
            raise InputError("matrix dimensions must be nonnegative")
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

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


def primitive_vector(vec: Sequence[int]) -> IntVec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = math.gcd(*vec)
    if g == 0:
        raise InputError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def _identity_lists(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, S, V) with U @ a @ V == S in Smith normal form.

    U and V are unimodular; S is diagonal with nonnegative entries and each
    diagonal entry divides the next.
    """
    m, n = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u = _identity_lists(m)
    v = _identity_lists(n)

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
    pivot on.
    """
    m, n = a.rows, a.cols
    h = [list(row) for row in a.entries]
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


def integer_rank(a: IntMatrix) -> int:
    """Rank of the matrix over the rationals."""
    return sum(1 for row in hermite_normal_form(a).entries if any(row))


def _maximal_minors(rows: Sequence[Sequence[int]]) -> IntVec:
    """Signed maximal minors of a k x (k+1) integer matrix: entry j is
    (-1)^j times the determinant of the matrix without column j.

    By Laplace expansion the vector pairs to zero with every row.  It is
    zero exactly when the rank is below k, and otherwise it spans the
    rational kernel.  Fraction-free Gauss-Jordan elimination (Bareiss)
    keeps every entry a minor of the input, so each division is exact; it
    ends with the pivot columns diagonal, and the kernel vector reads off
    the one free column.
    """
    k = len(rows)
    m = [list(row) for row in rows]
    pivots: list[int] = []
    free = None
    sign, prev = 1, 1
    for j in range(k + 1):
        t = len(pivots)
        i = next((i for i in range(t, k) if m[i][j]), None)
        if i is None:
            if free is not None:
                return (0,) * (k + 1)
            free = j
            continue
        if i != t:
            m[t], m[i] = m[i], m[t]
            sign = -sign
        pivot_row, p = m[t], m[t][j]
        for r in range(k):
            if r != t:
                q = m[r][j]
                m[r] = [(p * x - q * y) // prev for x, y in zip(m[r], pivot_row)]
        pivots.append(j)
        prev = p
    # prev == sign * (minor without the free column), so the vector below
    # is -(-1)^free * sign times the signed minors.
    kernel = [0] * (k + 1)
    for r, j in enumerate(pivots):
        kernel[j] = m[r][free]
    kernel[free] = -prev
    scale = -sign if free % 2 == 0 else sign
    return tuple(scale * x for x in kernel)


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


@dataclass(frozen=True)
class LinearSystem:
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


@dataclass(frozen=True)
class IntegerSolution:
    """Integer solution set of an equality system: particular + lattice."""

    particular: IntVec
    kernel_basis: tuple[IntVec, ...]


def _equation_form(equations: Sequence[IntVec], dim: int) -> tuple[IntVec, ...]:
    """Hermite form of ``[A^T | I]`` for the ``k x dim`` matrix ``A`` with
    rows ``equations``: built once, it solves ``A x == b`` for every ``b``
    through :func:`_solve_in_form` (Cohen, *A Course in Computational
    Algebraic Number Theory*, 2.4).

    Its ``dim`` rows are a basis of the lattice of the pairs ``(A x, x)``.
    The rows whose first ``k`` entries vanish come last, and their last
    ``dim`` entries are the Hermite basis of the integer kernel of ``A``.
    """
    columns = zip(*equations) if equations else repeat((), dim)
    rows = tuple(col + (0,) * i + (1,) + (0,) * (dim - 1 - i) for i, col in enumerate(columns))
    return hermite_normal_form(IntMatrix(dim, len(equations) + dim, rows)).entries


def _solve_in_form(
    form: Sequence[IntVec], pivot_of: dict[int, int], rhs: Sequence[int]
) -> IntVec | None:
    """The integer solution of ``A x == rhs`` reduced modulo the Hermite
    kernel basis, or ``None`` when there is none; ``form`` is
    :func:`_equation_form` of ``A`` and ``pivot_of`` its
    :func:`_pivot_index`.

    Reducing ``(-rhs, 0)`` modulo the form gives the one point ``(A x -
    rhs, x)`` of its coset with every pivot entry in ``[0, pivot)``.  Its
    first part vanishes exactly when the equalities are solvable, and its
    last part is then the same solution whichever one starts from.
    """
    k = len(rhs)
    _, rest = _reduce(form, pivot_of, (*(-b for b in rhs), *repeat(0, len(form))))
    return None if any(rest[:k]) else tuple(rest[k:])


def _form_kernel(form: Sequence[IntVec], k: int) -> tuple[IntVec, ...]:
    """The Hermite basis of the integer kernel of the ``k``-row matrix
    whose :func:`_equation_form` is ``form``."""
    return tuple(row[k:] for row in form if not any(row[:k]))


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


def solve_integer_system(system: LinearSystem) -> IntegerSolution | None:
    """Solve the equality part of ``system`` exactly over the integers.

    Returns ``None`` when no integer solution exists (a certificate: the
    right-hand side leaves a nonzero remainder modulo the Hermite form of
    :func:`_equation_form`).  Otherwise the kernel basis is the Hermite
    basis of the integer kernel and the particular solution is reduced
    modulo it, so both are canonical.  Inequalities are not accepted here.
    """
    if system.inequalities:
        raise InputError("solve_integer_system accepts equality-only systems")
    form = _equation_form(tuple(c for c, _ in system.equalities), system.dim)
    particular = _solve_in_form(form, _pivot_index(form), [rhs for _, rhs in system.equalities])
    if particular is None:
        return None
    return IntegerSolution(particular, _form_kernel(form, len(system.equalities)))


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
        vec = tuple(x // g for x in vec)
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
        key = tuple(x // g for x in vec)
        prev = store.get(key)
        if prev is None or (rhs * math.gcd(*prev[0]), strict) > (prev[1] * g, prev[2]):
            store[key] = norm


def _fm_chain(rows: Iterable[_Row], nvars: int) -> list[list[_Row]] | None:
    """Projection chain: chain[k] constrains variables 0..k-1 only.

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
            for pvec, prhs, pstr in pos:
                pc = pvec[var]
                for qvec, qrhs, qstr in neg:
                    qc = -qvec[var]
                    vec = tuple(qc * x + pc * y for x, y in zip(pvec, qvec))
                    _add_rows(store, [(vec, qc * prhs + pc * qrhs, pstr or qstr)])
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


# Limit on the points one boxed search lists, checked before each batch of
# points is built, and on the values one first-hit search orders.
MAX_LATTICE_POINTS = 2**20


def _by_size(lo: int, hi: int) -> Iterator[int]:
    """The integers of [lo, hi] in the order 0, 1, -1, 2, -2, ..., made lazily."""
    for size in range(max(0, lo, -hi), max(hi, -lo) + 1):
        if size <= hi:
            yield size
        if 0 < size <= -lo:
            yield -size


def _lattice_dfs(chain: list[list[_Row]], n: int, stop_at_first: bool, listed: int) -> list[IntVec]:
    """Integer points of the projection chain, in search coordinates.

    Variable ``level`` is bounded by the rows of ``chain[level + 1]`` that
    involve it.  Each such row ``a . x >= rhs`` is split once into its
    prefix coefficients and ``|a[level]|``, lower-bounding rows first.  A
    node carries, for its own and every deeper level, the sums ``s = a .
    prefix - rhs`` of that level's rows over the variables fixed so far, so
    fixing a variable costs one multiply-add per deeper row.  A row then
    bounds its variable by one floor division: ``x >= -(s // |a[level]|)``
    for a lower row, ``x <= s // |a[level]|`` for an upper one.  The last
    level is listed as one batch, counted with the ``listed`` points of
    earlier searches against ``MAX_LATTICE_POINTS`` before it is built.
    With ``stop_at_first`` values are tried in the order 0, 1, -1, 2, -2,
    ... and the search ends at the first point; each value it tries above
    the last level is counted against ``MAX_LATTICE_POINTS`` when tried.
    A level whose rows have no prefix coefficients has the same range under
    every prefix, so an empty one ends the search before the descent.
    """
    if n == 0:
        return [()]
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
                return []
    found: list[IntVec] = []
    tried = 0

    def descend(level: int, prefix: IntVec, sums: list[list[int]]) -> bool:
        # sums[m] belongs to level ``level + m``
        nonlocal tried
        quotients = list(map(floordiv, sums[0], own[level]))
        split = nlower[level]
        lo, hi = -min(quotients[:split]), min(quotients[split:])
        if lo > hi:
            return False
        if level == n - 1:
            if stop_at_first:
                found.append((*prefix, next(_by_size(lo, hi))))
                return True
            count = hi - lo + 1
            if listed + len(found) + count > MAX_LATTICE_POINTS:
                raise InputError(
                    f"more than {MAX_LATTICE_POINTS} lattice points in the box, the "
                    "limit of the boxed search; use a smaller box bound"
                )
            found.extend(zip(*(repeat(x, count) for x in prefix), range(lo, hi + 1)))
            return False
        deeper = list(zip(sums[1:], [cols[m][level] for m in range(level + 1, n)]))
        for v in _by_size(lo, hi) if stop_at_first else range(lo, hi + 1):
            if stop_at_first:
                tried += 1
                if tried > MAX_LATTICE_POINTS:
                    raise InputError(
                        f"a first-hit lattice search would try more than {MAX_LATTICE_POINTS} "
                        "values, the limit MAX_LATTICE_POINTS"
                    )
            shifted = [[x + a * v for x, a in zip(row_sums, col)] for row_sums, col in deeper]
            if descend(level + 1, (*prefix, v), shifted):
                return True
        return False

    descend(0, (), start)
    return found


def _affine_column(
    const: int, terms: Iterable[tuple[int, Sequence[int]]], count: int
) -> list[int]:
    """``const + sum(c * column[m] for c, column in terms)`` for m < count."""
    out = repeat(const, count)
    for c, column in terms:
        if c:
            out = map(add, out, map(mul, column, repeat(c)))
    return list(out)


def _boxed_solutions(
    system: LinearSystem, box_bound: int, stop_at_first: bool, listed: int = 0
) -> list[IntVec]:
    """Integer solutions with coordinates in the box.

    Equalities are eliminated first by passing to coordinates on their
    integer solution lattice, which keeps the search dimension at the
    lattice rank; the box constrains the original coordinates either way.
    Every point found is rebuilt in the original coordinates and re-checked
    against the box, the equalities and the inequalities, one coordinate or
    row at a time over all points.
    """
    _check_box_bound(box_bound)
    n = system.dim
    solution = solve_integer_system(LinearSystem(n, system.equalities, ()))
    if solution is None:
        return []
    # The solver's triangular (Hermite) kernel basis and reduced particular
    # point keep the search ranges close to the box.
    particular = solution.particular
    kernel = solution.kernel_basis
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
            return []
    chain = _fm_chain(t_rows, k)
    if chain is None:
        return []
    found = _lattice_dfs(chain, k, stop_at_first, listed)
    count = len(found)
    if not count:
        return []
    t_columns = list(zip(*found))
    del found  # free the search tuples before the points are built
    x_columns = [
        _affine_column(particular[j], [(kernel[i][j], t_columns[i]) for i in range(k)], count)
        for j in range(n)
    ]
    del t_columns

    def violations() -> Iterable[bool]:
        for column in x_columns:
            yield min(column) < -box_bound or max(column) > box_bound
        for coeffs, rhs in system.equalities:
            values = _affine_column(0, zip(coeffs, x_columns), count)
            yield min(values) != rhs or max(values) != rhs
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
    return sorted(_boxed_solutions(system, box_bound, stop_at_first=False))


def first_lattice_point(system: LinearSystem, box_bound: int) -> IntVec | None:
    """Some integer solution in the box, or ``None`` if there is none.

    Deterministic, and biased toward solutions with small search
    coordinates; use :func:`lattice_points_bounded` for full enumeration.
    Raises ``InputError`` when it would try more than
    ``MAX_LATTICE_POINTS`` values.
    """
    found = _boxed_solutions(system, box_bound, stop_at_first=True)
    return found[0] if found else None
