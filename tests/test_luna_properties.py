"""Property checks of the Luna closed supports against the subset scan."""

from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import toricstrata as ts
from toricstrata import luna

from oracles import (
    det_int,
    hermite_with_transform,
    minimal_closed_sets,
    primitive_integer,
    rational_rank,
    spans_a_subspace,
)


@st.composite
def weight_rows(draw):
    """Free rank 0-3, optional torsion, at most 7 weights.  Some weights
    repeat, some have zero free part, and some close a positive circuit:
    their free part is minus the sum of one or two earlier ones."""
    free = draw(st.sampled_from([0, 1, 2, 3, 1, 2, 3]))
    torsion = draw(st.sampled_from([(), (), (2,), (3,), (2, 4)]))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["new", "new", "closing", "repeat", "zero"]))
        tors = tuple(draw(st.integers(0, d - 1)) for d in torsion)
        if kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "closing" and rows:
            earlier = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=2))
            rows.append(tuple(-sum(w[k] for w in earlier) for k in range(free)) + tors)
        elif kind == "zero":
            rows.append((0,) * free + tors)
        else:
            rows.append(tuple(draw(st.integers(-2, 2)) for _ in range(free)) + tors)
    return free, torsion, rows


PROPERTY = settings(max_examples=100, derandomize=True, deadline=None)


@PROPERTY
@given(weight_rows())
def test_luna_supports_match_the_subset_scan(system):
    free, torsion, rows = system
    ws = ts.weight_system(ts.FgAbGroup(free, torsion), rows)
    m = len(rows)
    expected = [
        support
        for mask in range(1 << m)
        for support in [tuple(i for i in range(m) if mask >> i & 1)]
        if spans_a_subspace(free, [rows[i][:free] for i in support])
    ]
    got = [support for s in ts.luna_strata(ws) for support in s.supports]
    assert sorted(got) == sorted(expected)


def part_sets(parts, masks):
    """The sets of parts that the bitsets ``masks`` over ``parts`` hold,
    after checking that no bitset repeats."""
    masks = list(masks)
    assert len(set(masks)) == len(masks)
    return {frozenset(p for k, p in enumerate(parts) if mask >> k & 1) for mask in masks}


def free_parts(system):
    free, _, rows = system
    return free, sorted({row[:free] for row in rows if any(row[:free])})


@PROPERTY
@given(weight_rows())
def test_positive_circuits_are_the_minimal_closed_part_sets(system):
    free, parts = free_parts(system)
    circuits = luna._positive_circuits(parts)
    assert part_sets(parts, circuits) == minimal_closed_sets(free, parts)


@PROPERTY
@given(weight_rows())
def test_the_union_closure_yields_every_union_of_circuits_once(system):
    free, parts = free_parts(system)
    unions = {frozenset()}
    for circuit in minimal_closed_sets(free, parts):
        unions |= {u | circuit for u in unions}
    closed = list(luna._closed_part_sets(parts))
    assert closed[0] == 0
    assert part_sets(parts, closed) == unions


NONZERO = {d: [v for v in product(range(-2, 3), repeat=d) if any(v)] for d in (1, 2, 3)}


@st.composite
def distinct_parts(draw, gale_regime):
    """Distinct nonzero vectors with entries in [-2, 2], drawn in the
    regime asked for: ``n`` parts of rank ``r`` have ``e = n - r``
    relations, and the Gale regime is ``1 <= e <= r + 1``.

    In the Gale regime ``r`` independent parts of Z^r are drawn first and
    ``e`` more after them; coordinates that are 0 or plus or minus an
    existing one then map the parts into Z^free, ``free >= r``, keeping
    their rank.  Outside it there are at least ``2 * free + 2`` parts in
    Z^1 or Z^2, which puts them in that regime whatever their rank."""
    if gale_regime:
        rank = draw(st.integers(1, 3))
        count = draw(st.integers(rank + 1, 2 * rank + 1))
    else:
        rank = draw(st.integers(1, 2))
        count = draw(st.integers(2 * rank + 2, min(6, len(NONZERO[rank]))))
    parts = []
    for i in range(count):
        independent = gale_regime and i < rank
        pool = [
            v
            for v in NONZERO[rank]
            if v not in parts and (not independent or rational_rank([*parts, v]) == i + 1)
        ]
        parts.append(draw(st.sampled_from(pool)))
    if not gale_regime:
        return rank, parts
    free = draw(st.integers(rank, 3))
    images = [None] + [(sign, k) for k in range(rank) for sign in (1, -1)]
    extra = [draw(st.sampled_from(images)) for _ in range(free - rank)]
    order = draw(st.permutations(range(free)))
    embedded = []
    for v in parts:
        coords = [*v, *(0 if e is None else e[0] * v[e[1]] for e in extra)]
        embedded.append(tuple(coords[j] for j in order))
    return free, embedded


@pytest.mark.parametrize("gale_regime", [True, False], ids=["e-1<=r", "e-1>r"])
@settings(PROPERTY, max_examples=60)
@given(st.data())
def test_positive_circuits_are_the_minimal_closed_sets_in_both_regimes(gale_regime, data):
    # The Gale side serves both regimes: e - 1 <= r, where the Gale vectors'
    # dimension is small, and e - 1 > r, where the parts' rank is.
    free, parts = data.draw(distinct_parts(gale_regime))
    vs = sorted(parts)
    a = ts.IntMatrix.from_rows(vs)
    hnf, transform = hermite_with_transform(ts, a)
    assert (transform @ a).entries == hnf.entries
    assert abs(det_int(transform.entries)) == 1
    rank = sum(1 for row in hnf.entries if any(row))
    relations = transform.entries[rank:]
    assert relations and (len(relations) - 1 <= rank) == gale_regime
    assert part_sets(vs, luna._positive_circuits(vs)) == minimal_closed_sets(free, vs)


@st.composite
def cox_weight_systems(draw):
    """Cox weights of a pointed full-dimensional cone of rank 1-3: the
    image of points on the moment curve (1, t, t^2), each extremal, under
    L D U with L and U unitriangular and D diagonal and nonzero, then
    primitivized.  A D with entries beyond 1 often gives a class group
    with torsion."""
    rank = draw(st.integers(1, 3))
    size = {1: 1, 2: 2, 3: draw(st.integers(3, 6))}[rank]
    params = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size, unique=True))
    off = st.integers(-2, 2)
    lower = [[1 if i == j else draw(off) if j < i else 0 for j in range(rank)] for i in range(rank)]
    upper = [[1 if i == j else draw(off) if j > i else 0 for j in range(rank)] for i in range(rank)]
    diagonal = [draw(st.sampled_from([1, 1, -1, 2, 3])) for _ in range(rank)]

    def image(point):
        scaled = [d * sum(map(mul, row, point)) for d, row in zip(diagonal, upper)]
        return primitive_integer([sum(map(mul, row, scaled)) for row in lower])

    rays = [image((1, t, t * t)[:rank]) for t in params]
    return ts.cox_weight_system(ts.build_toric(ts.build_cone(rank, rays)))


@PROPERTY
@given(cox_weight_systems())
def test_the_gale_dual_basis_is_its_own_hermite_form(ws):
    basis = ts.gale_dual(ws).lattice_basis
    hermite = ts.hermite_normal_form(basis).entries
    assert hermite[: basis.rows] == basis.entries
    assert not any(map(any, hermite[basis.rows :]))
