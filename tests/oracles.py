"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive — textbook formulas and small
exhaustive scans whose correctness is easy to audit by eye.  Nothing in
this module imports from :mod:`toricstrata` internals beyond plain data,
so a bug in the library cannot hide inside its own oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import atan2, gcd, lcm


# ---------------------------------------------------------------------------
# exact determinants and ranks


def det_int(rows) -> int:
    """Integer determinant by Bareiss fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    assert all(len(r) == n for r in m), "determinant needs a square matrix"
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rational_rank(rows) -> int:
    """Row rank over the rationals by Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# normal-form oracles


def snf_diagonal_by_minors(rows, ncols) -> list[int]:
    """Invariant factors via gcds of k x k minors: s_k = d_k / d_{k-1}."""
    nrows = len(rows)
    limit = min(nrows, ncols)
    diag: list[int] = []
    prev = 1
    for k in range(1, limit + 1):
        g = 0
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(det_int(sub)))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    while len(diag) < limit:
        diag.append(0)
    return diag


def in_triangular_row_lattice(echelon_rows, vec) -> bool:
    """Membership of ``vec`` in the row lattice of an echelon matrix.

    Valid whenever pivot columns strictly increase and each pivot column is
    zero below its pivot (true for any row-style Hermite form), because the
    coefficient of each row is then forced greedily.
    """
    v = list(vec)
    for row in echelon_rows:
        pivot = next((j for j, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        if v[pivot] % row[pivot]:
            return False
        q = v[pivot] // row[pivot]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def hermite_by_sweeps(rows, ncols):
    """Row-style Hermite form of the integer matrix ``rows`` by repeated
    min-pivot sweeps: per column, every nonzero entry below is reduced by
    the smallest one until a single one is left.  The library's former
    kernel, kept as the reference for the extended-gcd elimination."""
    m = len(rows)
    h = [list(row) for row in rows]

    def add_row(src, dst, k):
        h[dst] = [x + k * y for x, y in zip(h[dst], h[src])]

    r = 0
    for j in range(ncols):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if h[i][j] != 0]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][j]), i))
            for i in nz:
                if i != i0:
                    add_row(i0, i, -(h[i][j] // h[i0][j]))
        nz = [i for i in range(r, m) if h[i][j] != 0]
        if not nz:
            continue
        if nz[0] != r:
            h[r], h[nz[0]] = h[nz[0]], h[r]
        if h[r][j] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][j] // h[r][j]
            if q:
                add_row(r, i, -q)
        r += 1
    return tuple(map(tuple, h))


def smooth_by_smith(lib, cone, face):
    """Whether the rays of ``face`` extend to a lattice basis, by the Smith
    form of the ray submatrix: as many rays as dimensions, and every
    invariant factor 1.  The library's former test; ``lib`` is the
    toricstrata module."""
    if not face.ray_indices:
        return True
    if len(face.ray_indices) != face.dim:
        return False
    rows = [cone.rays[i] for i in face.ray_indices]
    _, s, _ = lib.smith_normal_form(lib.IntMatrix.from_rows(rows, cone.ambient_rank))
    return all(s.entries[i][i] <= 1 for i in range(min(s.rows, s.cols)))


def hermite_with_transform(lib, a):
    """``(H, U)``: ``H`` is the Hermite form of ``a`` and ``U`` the right
    block of the Hermite form of ``[a | I]``, whose left block must be
    ``H``.  Row operations keep ``[a | I]`` of the shape ``[U a | U]``, so
    ``U @ a == H`` and ``det U == +-1`` check the form.  ``lib`` is the
    toricstrata module."""
    ident = lib.IntMatrix.identity(a.rows).entries
    full = lib.hermite_normal_form(
        lib.IntMatrix.from_rows([r + e for r, e in zip(a.entries, ident)], a.cols + a.rows)
    )
    h = lib.hermite_normal_form(a)
    assert [row[: a.cols] for row in full.entries] == list(h.entries)
    return h, lib.IntMatrix.from_rows([row[a.cols :] for row in full.entries], a.rows)


# ---------------------------------------------------------------------------
# linear systems


def point_satisfies(system, point) -> bool:
    """Check a candidate point against a LinearSystem-shaped object."""
    for coeffs, rhs in system.equalities:
        if sum(c * x for c, x in zip(coeffs, point)) != rhs:
            return False
    for coeffs, rhs, strict in system.inequalities:
        val = sum(Fraction(c) * x for c, x in zip(coeffs, point))
        if val < rhs or (strict and val == rhs):
            return False
    return True


def smith_solve(lib, system):
    """Integer solutions of the equalities of ``system`` by a Smith form,
    as ``(particular, kernel basis)``, or ``None`` when there are none.

    With ``U @ A @ V == S``, ``A x == b`` becomes ``S y == U b`` for ``x ==
    V y``: each nonzero diagonal entry must divide its entry of ``U b``,
    every other entry of ``U b`` must vanish, and the columns of ``V``
    beyond the nonzero diagonal span the kernel.  A solver independent of
    the library's Hermite-form solve; ``lib`` is the toricstrata module.
    """
    n, k = system.dim, len(system.equalities)
    a = lib.IntMatrix.from_rows([c for c, _ in system.equalities], n)
    u, s, v = lib.smith_normal_form(a)
    c = u.apply([rhs for _, rhs in system.equalities])
    y = [0] * n
    for i in range(k):
        si = s.entries[i][i] if i < n else 0
        if si:
            if c[i] % si:
                return None
            y[i] = c[i] // si
        elif c[i]:
            return None
    kernel = [v.column(i) for i in range(n) if i >= k or s.entries[i][i] == 0]
    return v.apply(y), kernel


def hermite_kernel(lib, rows, dim):
    """The Hermite basis of the integer kernel ``{x : row . x == 0}``: the
    kernel basis of :func:`smith_solve`, put in Hermite form by the
    library's ``hermite_normal_form``.  Independent of the library's kernel
    fold; ``lib`` is the toricstrata module."""
    _, kernel = smith_solve(lib, lib.linear_system(dim, [(tuple(row), 0) for row in rows]))
    if not kernel:
        return ()
    form = lib.hermite_normal_form(lib.IntMatrix.from_rows(kernel, dim)).entries
    return tuple(row for row in form if any(row))


def scan_lattice_points(system, bound) -> list[tuple[int, ...]]:
    """All integer points of the system with every coordinate in [-b, b]."""
    return [
        cand
        for cand in product(range(-bound, bound + 1), repeat=system.dim)
        if point_satisfies(system, cand)
    ]


def fm_chain_pairwise(rows, nvars):
    """Fourier-Motzkin projection chain with every pos x neg pair of every
    step built as a row: ``chain[k]`` constrains variables ``0..k-1``, or
    ``None`` when a constant row is violated.

    Rows ``(vec, rhs, strict)`` mean ``vec . x >= rhs`` (``>`` when
    strict).  Each row is divided by the gcd of its entries and ``rhs``,
    and one row per primitive direction is kept, in the order the
    directions first appear: the one with the largest bound ``rhs /
    gcd(vec)``, a strict row winning a tie.  The library's former
    elimination, kept as the reference for its last step.
    """

    class Infeasible(Exception):
        pass

    def add(store, new_rows):
        for vec, rhs, strict in new_rows:
            g = gcd(*vec)
            if g == 0:
                if rhs > 0 or (strict and rhs >= 0):
                    raise Infeasible
                continue
            h = gcd(g, rhs)
            vec, rhs, g = tuple(x // h for x in vec), rhs // h, g // h
            key = tuple(x // g for x in vec)
            prev = store.get(key)
            if prev is None or Fraction(rhs, g) > prev[0] or (
                Fraction(rhs, g) == prev[0] and strict and not prev[1][2]
            ):
                store[key] = (Fraction(rhs, g), (vec, rhs, strict))

    try:
        store = {}
        add(store, rows)
        chain = [[] for _ in range(nvars + 1)]
        chain[nvars] = [row for _, row in store.values()]
        for k in range(nvars, 0, -1):
            var = k - 1
            pos = [row for row in chain[k] if row[0][var] > 0]
            neg = [row for row in chain[k] if row[0][var] < 0]
            store = {}
            add(store, [row for row in chain[k] if row[0][var] == 0])
            for pvec, prhs, pstr in pos:
                for qvec, qrhs, qstr in neg:
                    pc, qc = pvec[var], -qvec[var]
                    vec = tuple(qc * x + pc * y for x, y in zip(pvec, qvec))
                    add(store, [(vec, qc * prhs + pc * qrhs, pstr or qstr)])
            chain[k - 1] = [row for _, row in store.values()]
        return chain
    except Infeasible:
        return None


def _solve_square_fraction(rows):
    """Unique solution of a square rational system, or None."""
    n = len(rows)
    mat = [[Fraction(x) for x in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col]), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = mat[col][col]
        mat[col] = [a / inv for a in mat[col]]
        for i in range(n):
            if i != col and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return tuple(mat[i][n] for i in range(n))


def closed_system_feasible(dim, inequalities, box=10**6) -> bool:
    """Feasibility of ``{coeffs . x >= rhs}`` by vertex enumeration.

    The box closes the polyhedron into a polytope; a nonempty polytope has
    a vertex, and every vertex is the intersection of ``dim`` active
    constraints, so scanning all square subsystems is complete.  The box
    must be large enough to contain some feasible basic point — ample here
    for the small random coefficients the tests generate.
    """
    if dim == 0:
        return all(rhs <= 0 for _, rhs in inequalities)
    rows = [
        (tuple(Fraction(c) for c in coeffs), Fraction(rhs))
        for coeffs, rhs in inequalities
    ]
    for i in range(dim):
        unit = tuple(Fraction(1 if j == i else 0) for j in range(dim))
        rows.append((unit, Fraction(-box)))
        rows.append((tuple(-u for u in unit), Fraction(-box)))
    for subset in combinations(range(len(rows)), dim):
        point = _solve_square_fraction([rows[i] for i in subset])
        if point is None:
            continue
        if all(
            sum(c * x for c, x in zip(coeffs, point)) >= rhs for coeffs, rhs in rows
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# finite abelian groups


def finite_closure(torsion, gens) -> set[tuple[int, ...]]:
    """All elements of the subgroup of ``Z/t1 x ... x Z/tk`` the gens span."""
    zero = tuple(0 for _ in torsion)
    seen = {zero}
    frontier = [zero]
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % t for a, b, t in zip(current, g, torsion))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def semigroup_closure(torsion, gens) -> set[tuple[int, ...]]:
    """Nonnegative-combination closure; in a finite group this equals the
    subgroup closure, which is exactly what the tests want to witness."""
    return finite_closure(torsion, gens)


def combination(free, torsion, gens, coeffs) -> tuple[int, ...]:
    """``sum coeffs[i] * gens[i]`` in ``Z^free x Z/torsion``, torsion reduced."""
    total = [sum(c * g[k] for c, g in zip(coeffs, gens)) for k in range(free + len(torsion))]
    return (*total[:free], *(x % d for x, d in zip(total[free:], torsion)))


def first_box_hit(free, torsion, gens, target, bound):
    """The first coefficient vector in ``[0, bound]^m``, in lexicographic
    order, whose combination of ``gens`` is ``target``, or ``None``."""
    goal = combination(free, torsion, [target], [1])
    for coeffs in product(range(bound + 1), repeat=len(gens)):
        if combination(free, torsion, gens, coeffs) == goal:
            return coeffs
    return None


def numerical_semigroup(gens, limit) -> set[int]:
    """The sums of positive integers ``gens`` up to ``limit``, one at a time."""
    reach = {0}
    for x in range(1, limit + 1):
        if any(x - g in reach for g in gens):
            reach.add(x)
    return reach


def unbounded_coefficients(rank, parts) -> set[int]:
    """Indices of the coefficients unbounded on a nonempty ``{c >= 0 : sum
    c_i * parts[i] == b}``: those in a subset of the parts with a relation
    positive on all of it, that is, one that positively spans a subspace."""
    found = set()
    for k in range(1, len(parts) + 1):
        for subset in combinations(range(len(parts)), k):
            if not found.issuperset(subset) and spans_a_subspace(rank, [parts[i] for i in subset]):
                found.update(subset)
    return found


# ---------------------------------------------------------------------------
# root scanning


def brute_force_roots(cone, bound):
    """Scan the whole coordinate box for vectors that pair to -1 with
    exactly one ray and nonnegatively with all others."""
    per_ray = {i: [] for i in range(cone.nrays)}
    for vec in product(range(-bound, bound + 1), repeat=cone.ambient_rank):
        pairings = [sum(a * b for a, b in zip(ray, vec)) for ray in cone.rays]
        negatives = [i for i, p in enumerate(pairings) if p < 0]
        if len(negatives) == 1 and pairings[negatives[0]] == -1:
            per_ray[negatives[0]].append(vec)
    return {i: sorted(v) for i, v in per_ray.items()}


def connection_by_pair(lib, cone, face1, face2):
    """One pair decided on its own, as ``(status, certificate, witness
    vector, distinguished ray)``.

    A fresh Smith-form solve of ray_tau . x == -1 and ray_i . x == 0 (i in
    ``face1``) for this pair alone; the particular solution is reduced
    modulo the Hermite basis of the solver's kernel basis, so its pivot
    entries lie in [0, pivot), and then shifted by the least multiple of
    the face functional of ``face2`` that pairs nonnegatively with every
    ray outside ``face2``.  ``lib`` is the toricstrata module.
    """
    inner, outer = set(face1.ray_indices), set(face2.ray_indices)
    extra = outer - inner
    if not inner <= outer or len(extra) != 1:
        return "no", "combinatorial", None, None
    (tau,) = extra
    eqs = [(cone.rays[tau], -1)] + [(cone.rays[i], 0) for i in sorted(inner)]
    solution = smith_solve(lib, lib.linear_system(cone.ambient_rank, eqs))
    if solution is None:
        return "no", "integral-equalities", None, None
    point, kernel = solution
    if kernel:
        for row in lib.hermite_normal_form(lib.IntMatrix.from_rows(kernel)).entries:
            pivot = next(j for j, x in enumerate(row) if x)
            q = point[pivot] // row[pivot]
            point = [a - q * b for a, b in zip(point, row)]
    u = lib.face_functional(cone, face2)
    k = 0
    for j, ray in enumerate(cone.rays):
        if j not in outer:
            p_point = sum(a * b for a, b in zip(ray, point))
            p_u = sum(a * b for a, b in zip(ray, u))
            k = max(k, -(p_point // p_u))
    return "yes", None, tuple(a + k * b for a, b in zip(point, u)), tau


# ---------------------------------------------------------------------------
# stratum closure order


def closure_by_containment(lib, strata):
    """Covering pairs ``(lower, upper)`` of the stratum closure order from its
    definition: every pair's subgroup containment, then every pair with no
    stratum between them."""
    n = len(strata)
    below = [
        [i != j and lib.subgroup_leq(strata[i].subgroup, strata[j].subgroup) for j in range(n)]
        for i in range(n)
    ]
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n))
    )


# ---------------------------------------------------------------------------
# matrices up to row/column permutation


def permutation_equivalent(a, b) -> bool:
    """Exact test for equality of two matrices up to independent row and
    column permutations (backtracking on columns with prefix pruning)."""
    if len(a) != len(b):
        return False
    if not a:
        return True
    if len(a[0]) != len(b[0]):
        return False
    ncols = len(a[0])
    acols = [tuple(sorted(row[j] for row in a)) for j in range(ncols)]
    bcols = [tuple(sorted(row[j] for row in b)) for j in range(ncols)]
    if sorted(acols) != sorted(bcols):
        return False
    a_prefixes = [sorted(tuple(row[: j + 1]) for row in a) for j in range(ncols)]
    used = [False] * ncols
    perm: list[int] = []

    def extend() -> bool:
        j = len(perm)
        if j == ncols:
            return True
        for k in range(ncols):
            if used[k] or bcols[k] != acols[j]:
                continue
            perm.append(k)
            used[k] = True
            candidate = sorted(tuple(row[q] for q in perm) for row in b)
            if candidate == a_prefixes[j] and extend():
                return True
            perm.pop()
            used[k] = False
        return False

    return extend()


# ---------------------------------------------------------------------------
# closed supports


def spans_a_subspace(rank, parts):
    """Gordan's alternative: vectors positively span a linear subspace
    exactly when no functional is nonnegative on all of them and positive on
    one, which vertex enumeration decides without the library."""
    total = tuple(sum(p[k] for p in parts) for k in range(rank))
    rows = [(p, 0) for p in parts] + [(total, 1)]
    return not closed_system_feasible(rank, rows)


# ---------------------------------------------------------------------------
# supporting hyperplanes and positive circuits


def rational_kernel(rows, ncols):
    """Basis of ``{x in Q^ncols : row . x == 0 for every row}`` by
    Gauss-Jordan elimination over ``Fraction``: one vector per free column."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col]
        mat[r] = [a / inv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for i, col in enumerate(pivots):
            x[col] = -mat[i][free]
        basis.append(x)
    return basis


def primitive_integer(vec):
    """The primitive integer vector on the ray of a nonzero rational vector."""
    denom = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def supporting_hyperplanes(vectors, dim):
    """Inner normal -> pairings for every hyperplane spanned by ``dim - 1``
    of the vectors with all of them on one side of it.  Those are the
    hyperplanes spanned by ``dim - 1`` of the lines through the nonzero
    vectors, so each line is taken once."""
    lines = set()
    for v in vectors:
        if any(v):
            u = primitive_integer(v)
            lines.add(u if next(x for x in u if x) > 0 else tuple(-x for x in u))
    found = {}
    for subset in combinations(sorted(lines), dim - 1):
        kernel = rational_kernel(subset, dim)
        if len(kernel) != 1:
            continue
        u = primitive_integer(kernel[0])
        pairings = tuple(sum(a * b for a, b in zip(v, u)) for v in vectors)
        if all(p >= 0 for p in pairings):
            found[u] = pairings
        elif all(p <= 0 for p in pairings):
            found[tuple(-x for x in u)] = tuple(-p for p in pairings)
    return found


def minimal_closed_sets(rank, parts):
    """The positive circuits of ``parts`` in Q^rank by their definition:
    the inclusion-minimal nonempty subsets that positively span a subspace."""
    minimal = []
    for k in range(1, len(parts) + 1):
        for subset in combinations(parts, k):
            s = frozenset(subset)
            if not any(t <= s for t in minimal) and spans_a_subspace(rank, subset):
                minimal.append(s)
    return set(minimal)


# ---------------------------------------------------------------------------
# cyclic cones and lattice polygons


def cyclic_rays(rank, points):
    """Rays (1, t, ..., t^(rank-1)) of the moment curve, one for each t in
    ``points``: the cone over a cyclic polytope, with many faces and strata."""
    return [tuple(t**k for k in range(rank)) for t in points]


def polygon_rays(start, edges):
    """Rays (x, y, 1) over the vertices of the lattice polygon that starts
    at ``start`` and follows ``edges``; edges in angular order that sum to
    zero give a strictly convex polygon, so every ray is extremal."""
    x, y = start
    rays = []
    for dx, dy in edges:
        rays.append((x, y, 1))
        x, y = x + dx, y + dy
    assert (x, y) == tuple(start), "edges must sum to zero"
    return rays


def _centrally_symmetric(half):
    return list(half) + [(-dx, -dy) for dx, dy in half]


# Twelve primitive edge vectors of slope in {0, 1/2, +-1, -2, oo}, the
# sixteen of slope in {0, +-1/2, +-1, +-2, oo}, and twenty-four with slope
# in {0, +-1/3, +-1/2, +-1, +-2, +-3, oo}, in angular order.
EDGES12 = _centrally_symmetric([(1, 0), (2, 1), (1, 1), (0, 1), (-1, 2), (-1, 1)])
EDGES16 = _centrally_symmetric(
    [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1)]
)
EDGES24 = _centrally_symmetric(
    [(1, 0), (3, 1), (2, 1), (1, 1), (1, 2), (1, 3),
     (0, 1), (-1, 3), (-1, 2), (-1, 1), (-2, 1), (-3, 1)]
)


# The forty primitive edge vectors (a, b) with |a| + |b| <= 5, in angular
# order.
EDGES40 = _centrally_symmetric(
    sorted(
        (
            (a, b)
            for a in range(-5, 6)
            for b in range(6)
            if gcd(a, b) == 1 and abs(a) + abs(b) <= 5 and (b > 0 or a > 0)
        ),
        key=lambda v: atan2(v[1], v[0]),
    )
)


def twelve_gon_rays():
    return polygon_rays((0, 0), EDGES12)


def sixteen_gon_rays():
    return polygon_rays((-1, -4), EDGES16)


def twenty_four_gon_rays():
    return polygon_rays((0, -9), EDGES24)


def forty_gon_rays():
    return polygon_rays((0, 0), EDGES40)


# ---------------------------------------------------------------------------
# random test data


def random_matrix(rng: random.Random, max_dim=6, entry=10):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [
        [rng.randint(-entry, entry) for _ in range(cols)] for _ in range(rows)
    ]


def sample_cones(lib, seed, count, min_rank=2, max_rank=4, max_rays=6, coord=5):
    """Random pointed full-dimensional cones with primitive distinct rays.

    ``lib`` is the toricstrata module, passed in so this helper stays free
    of library imports at module scope.
    """
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        rank = rng.randint(min_rank, max_rank)
        nrays = rng.randint(rank, max_rays)
        rays, seen = [], set()
        ok = True
        for _ in range(nrays):
            for _attempt in range(60):
                v = tuple(rng.randint(-coord, coord) for _ in range(rank))
                if any(v):
                    p = primitive_integer(v)
                    if p not in seen:
                        seen.add(p)
                        rays.append(p)
                        break
            else:
                ok = False
                break
        if not ok:
            continue
        try:
            cone = lib.build_cone(rank, rays)
        except lib.InputError:
            continue
        if rational_rank(cone.rays) == rank:
            cones.append(cone)
    return cones
