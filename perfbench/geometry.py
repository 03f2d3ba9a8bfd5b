"""Exact cone geometry written independently of toricstrata.

The input generators use it to decide which random ray sets are valid
cones, and the output checks use it to recompute faces and smoothness, so
neither the inputs nor the checks depend on the code being measured.
Everything is plain integer arithmetic on small matrices.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def det(rows) -> int:
    """Integer determinant by Bareiss fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(rows) -> int:
    """Row rank over the rationals (integer row reduction)."""
    m = [list(r) for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col]:
                a, b = m[r][col], m[i][col]
                m[i] = [a * y - b * x for x, y in zip(m[r], m[i])]
        r += 1
    return r


def pairing(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def facet_normals(n: int, rays) -> list[tuple[int, ...]]:
    """Primitive inner facet normals of the cone spanned by ``rays`` in Z^n.

    The cone must be full-dimensional and n >= 2.  Each (n-1)-subset of
    rays proposes the normal given by its signed maximal minors; it is kept
    when every ray lies on one side of it.
    """
    normals = set()
    for subset in combinations(rays, n - 1):
        u = primitive(
            tuple(
                (-1) ** j * det([[r[c] for c in range(n) if c != j] for r in subset])
                for j in range(n)
            )
        )
        if not any(u):
            continue
        signs = {(p > 0) - (p < 0) for p in (pairing(r, u) for r in rays)} - {0}
        if signs == {1}:
            normals.add(u)
        elif signs == {-1}:
            normals.add(tuple(-x for x in u))
    return sorted(normals)


def is_valid_cone(n: int, rays) -> bool:
    """Full-dimensional, pointed, and every ray extremal."""
    if rank(rays) != n:
        return False
    normals = facet_normals(n, rays)
    if rank(normals) != n:
        return False
    return all(
        rank([u for u in normals if pairing(r, u) == 0]) == n - 1 for r in rays
    )


def faces(n: int, rays) -> dict[tuple[int, ...], int]:
    """Every face of a valid cone as ``{sorted ray indices: dimension}``."""
    normals = facet_normals(n, rays)
    facets = [
        frozenset(i for i, r in enumerate(rays) if pairing(r, u) == 0) for u in normals
    ]
    found = {frozenset(range(len(rays)))}
    frontier = list(found)
    while frontier:
        current = frontier.pop()
        for facet in facets:
            cut = current & facet
            if cut not in found:
                found.add(cut)
                frontier.append(cut)
    return {
        tuple(sorted(s)): rank([rays[i] for i in s]) if s else 0 for s in found
    }


def is_smooth(n: int, rays, indices) -> bool:
    """The face's rays extend to a lattice basis: gcd of maximal minors is 1."""
    rows = [rays[i] for i in indices]
    k = len(rows)
    if k == 0:
        return True
    g = 0
    for cols in combinations(range(n), k):
        g = gcd(g, det([[r[c] for c in cols] for r in rows]))
        if g == 1:
            return True
    return False
