"""The linear-inequality half of :mod:`toricstrata.linalg` and the body of
``abelian.semigroup_member``.  Each public function whose body lives here
imports this module on its first call; ``stratify`` calls none of them.
Traced ``linalg`` functions are called through the module at call time,
so a binding patched there, as a tracer patches it, is the one called.

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
  dozen constraints.  ``semigroup_member`` calls it for a
  relative-interior point of a relation cone, and the lattice searches
  below prune with the same projections.
* The boxed lattice search runs in a size-reduced, length-ordered basis of
  the equalities' integer kernel, so its innermost level steps along the
  shortest vector.  Its listing reads each run of innermost values straight
  into one column per search coordinate, and the points are rebuilt and
  re-checked column by column.  The values it tries on the levels above
  the last and the coordinates it lists count against ``errors.MAX_WORK``;
  ``roots.enumerate_roots`` lists roots with it.  Its first-hit path,
  behind ``first_lattice_point`` and ``semigroup_member``, tries each
  level's values lazily by size: an early hit is cheap however wide the
  box, and a search whose every value fails is refused only once its tries
  pass the limit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, repeat
from operator import add, floordiv, mul
from typing import Iterable, Iterator, Sequence

from . import linalg
from .abelian import FgAbGroup, GroupElement, MembershipResult, _checked_elements, _relation_rows
from .errors import ConsistencyError, InputError, _check_work
from .linalg import IntMatrix, IntVec, LinearSystem, _check_system, _is_int, _pivot_index, _Row


def _scale_inequality(
    coeffs: Sequence[int | Fraction], rhs: int | Fraction, strict: bool
) -> _Row:
    """Clear denominators by their positive lcm; the solution set is unchanged."""
    denom = math.lcm(rhs.denominator, *(x.denominator for x in coeffs))
    vec = tuple(x.numerator * (denom // x.denominator) for x in coeffs)
    return vec, rhs.numerator * (denom // rhs.denominator), strict


def _is_rational(x) -> bool:
    return _is_int(x) or isinstance(x, Fraction)


def linear_system(dim, equalities, inequalities) -> LinearSystem:
    """The body of :func:`toricstrata.linalg.linear_system`."""
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
    """The body of :func:`toricstrata.linalg.rational_feasible`."""
    _check_system(system)
    n = system.dim

    # The Hermite form of [A | b] has the rational pivot columns of A; a
    # pivot in the last column is a row (0, ..., 0 | g), so 0 == g.
    form = linalg.hermite_normal_form(
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
    linalg._check_box_bound(box_bound)
    n = system.dim
    solution = linalg.solve_integer_system(LinearSystem(n, system.equalities, ()))
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
    """The body of :func:`toricstrata.linalg.lattice_points_bounded`."""
    _check_system(system)
    # The search lists points in the order of its size-reduced basis; the
    # sort alone sets the output order.
    return sorted(_boxed_solutions(system, box_bound, stop_at_first=False))


def first_lattice_point(system: LinearSystem, box_bound: int) -> IntVec | None:
    """The body of :func:`toricstrata.linalg.first_lattice_point`."""
    _check_system(system)
    found = _boxed_solutions(system, box_bound, stop_at_first=True)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# Semigroup membership


def _unbounded_relation(group: FgAbGroup, gens: Sequence[GroupElement]) -> IntVec:
    """A relation ``sum R_i * g_i == 0`` with ``R >= 0``, positive exactly on
    the coefficients that are unbounded on any nonempty ``{c >= 0 : sum c_i
    * free(g_i) == b}``.

    Those are the coefficients positive somewhere on the relation cone
    ``{c >= 0 : sum c_i * free(g_i) == 0}``, the polyhedron's recession
    cone (Schrijver, *Theory of Linear and Integer Programming*, 8.2), so
    a relative-interior point of the cone is positive on exactly them.
    Scaled by its denominators and the torsion exponent, it is ``R``.
    """
    r = group.free_rank
    units = IntMatrix.identity(len(gens)).entries
    eqs = tuple((tuple(g.coords[fc] for g in gens), 0) for fc in range(r))
    system = LinearSystem(len(gens), eqs, tuple((u, 0, False) for u in units))
    point = linalg.rational_feasible(system)
    if point is None:
        raise ConsistencyError("the relation cone lost its apex")
    scale = math.lcm(*(x.denominator for x in point)) * (group.torsion[-1] if group.torsion else 1)
    return tuple(int(x * scale) for x in point)


def semigroup_member(
    group: FgAbGroup, gens: Sequence[GroupElement], target: GroupElement
) -> MembershipResult:
    """The body of :func:`toricstrata.abelian.semigroup_member`."""
    gens = _checked_elements(group, gens)
    if not isinstance(target, GroupElement):
        raise InputError("target must be a group element")
    if target.group != group:
        raise InputError("target belongs to a different group")
    relation = _unbounded_relation(group, gens)
    m = len(gens)
    order = sorted(range(m), key=lambda i: relation[i] > 0)  # tight first
    tight = relation.count(0)
    torsion = _relation_rows(group)
    eqs = tuple(
        ((*(gens[i].coords[c] for i in order), *(-row[c] for row in torsion)), target.coords[c])
        for c in range(group.ncoords)
    )
    solution = linalg.solve_integer_system(LinearSystem(m + len(torsion), eqs, ()))
    if solution is None:
        return MembershipResult("no")
    moving = [row for row in solution.kernel_basis if any(row[:tight])]
    point = solution.particular
    rows = [(tuple(row[p] for row in moving), -point[p], False) for p in range(tight)]
    chain = _fm_chain(rows, len(moving))
    found = _lattice_dfs(chain, len(moving)) if chain is not None else None
    if found is None:
        return MembershipResult("no")
    for k, row in zip(found, moving):
        point = tuple(x + k * y for x, y in zip(point, row))
    lift = max([0] + [-(point[p] // relation[i]) for p, i in enumerate(order[tight:], tight)])
    coeffs = [0] * m
    for p, i in enumerate(order):
        coeffs[i] = point[p] + lift * relation[i]
    total = group.zero()
    for c, g in zip(coeffs, gens):
        total = total + c * g
    if min(coeffs, default=0) < 0 or total != target:
        raise ConsistencyError("semigroup membership witness does not reach the target")
    return MembershipResult("yes", tuple(coeffs))
