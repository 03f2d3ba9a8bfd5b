"""Property checks of the Luna closed supports against the subset scan."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

import toricstrata as ts
from toricstrata import luna

from oracles import spans_a_subspace


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


@PROPERTY
@given(weight_rows())
def test_positive_circuits_are_the_minimal_closed_part_sets(system):
    free, _, rows = system
    parts = sorted({row[:free] for row in rows if any(row[:free])})
    closed = [
        frozenset(subset)
        for k in range(1, len(parts) + 1)
        for subset in combinations(parts, k)
        if spans_a_subspace(free, subset)
    ]
    minimal = {s for s in closed if not any(t < s for t in closed)}
    assert luna._positive_circuits(frozenset(parts)) == minimal
