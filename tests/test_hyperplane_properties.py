"""Property checks of the exact hyperplane scan behind facets and circuits."""

from hypothesis import given, settings, strategies as st

from toricstrata.cones import _supporting_hyperplanes
from toricstrata.linalg import _maximal_minors

from oracles import det_int, rational_rank, supporting_hyperplanes

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)


@st.composite
def wide_matrices(draw):
    """k x (k+1) integer matrices, k = 0..5; some rows repeat or combine
    earlier ones, so every rank from 0 to k turns up."""
    k = draw(st.integers(0, 5))
    entry = draw(st.sampled_from([1, 2, 9]))
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(["new", "new", "combination", "zero"]))
        if kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(st.integers(-2, 2))
            rows.append([x + c * y for x, y in zip(a, b)])
        elif kind == "zero":
            rows.append([0] * (k + 1))
        else:
            rows.append([draw(st.integers(-entry, entry)) for _ in range(k + 1)])
    return k, rows


@PROPERTY
@given(wide_matrices())
def test_maximal_minors_are_the_signed_cofactors(matrix):
    k, rows = matrix
    minors = _maximal_minors(rows)
    assert minors == tuple(
        (-1) ** j * det_int([row[:j] + row[j + 1:] for row in rows])
        for j in range(k + 1)
    )
    assert (not any(minors)) == (rational_rank(rows) < k)
    for row in rows:
        assert sum(a * b for a, b in zip(row, minors)) == 0


@st.composite
def spanning_vectors(draw):
    """Vectors spanning Q^dim, dim = 1..4, with zero, repeated and negated
    vectors among them, so the cone is often not pointed."""
    dim = draw(st.integers(1, 4))
    vectors = []
    for _ in range(draw(st.integers(dim, dim + 5))):
        kind = draw(st.sampled_from(["new", "new", "new", "zero", "repeat", "negate"]))
        if kind == "zero":
            vectors.append((0,) * dim)
        elif kind in ("repeat", "negate") and vectors:
            v = draw(st.sampled_from(vectors))
            vectors.append(v if kind == "repeat" else tuple(-x for x in v))
        else:
            vectors.append(tuple(draw(st.integers(-3, 3)) for _ in range(dim)))
    if rational_rank(vectors) < dim:
        # a unit basis at random places makes the set span
        for i in range(dim):
            unit = tuple(int(j == i) for j in range(dim))
            vectors.insert(draw(st.integers(0, len(vectors))), unit)
    return dim, vectors


@PROPERTY
@given(spanning_vectors())
def test_supporting_hyperplanes_match_the_fraction_oracle(system):
    dim, vectors = system
    assert rational_rank(vectors) == dim
    assert _supporting_hyperplanes(vectors, dim) == supporting_hyperplanes(vectors, dim)
