"""Checks of the double description behind facets and circuits against
the subset scan of the oracle."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from toricstrata import cones
from toricstrata.cones import _supporting_hyperplanes
from toricstrata.linalg import _kernel

from oracles import (
    cyclic_rays,
    forty_gon_rays,
    rational_rank,
    supporting_hyperplanes,
    twenty_four_gon_rays,
)

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)


def oracle_zero_sets(vectors, dim):
    """The oracle's facets, each normal mapped to the bitset of the vectors
    it pairs to 0 with, as double description returns them."""
    return {
        u: sum(1 << i for i, p in enumerate(pairings) if not p)
        for u, pairings in supporting_hyperplanes(vectors, dim).items()
    }


@st.composite
def spanning_vectors(draw):
    """Vectors spanning Q^dim, dim = 1..6, with zero, repeated and negated
    vectors among them, so the cone is often not pointed."""
    dim = draw(st.integers(1, 6))
    vectors = []
    for _ in range(draw(st.integers(dim, dim + 8))):
        kind = draw(st.sampled_from(["new", "new", "new", "zero", "repeat", "negate"]))
        if kind == "zero":
            vectors.append((0,) * dim)
        elif kind in ("repeat", "negate") and vectors:
            v = draw(st.sampled_from(vectors))
            vectors.append(v if kind == "repeat" else tuple(-x for x in v))
        else:
            vectors.append(tuple(draw(st.integers(-3, 3)) for _ in range(dim)))
    if rational_rank(vectors) < dim:
        # a unit basis at random places makes the set span, with at most
        # dim + 8 vectors in all
        vectors = vectors[:8]
        for i in range(dim):
            unit = tuple(int(j == i) for j in range(dim))
            vectors.insert(draw(st.integers(0, len(vectors))), unit)
    return dim, vectors


@PROPERTY
@given(spanning_vectors())
def test_supporting_hyperplanes_match_the_fraction_oracle(system):
    dim, vectors = system
    assert rational_rank(vectors) == dim
    assert _supporting_hyperplanes(vectors, dim) == oracle_zero_sets(vectors, dim)


def gale_vectors(parts):
    """The columns of the Hermite basis of the relations among the parts,
    as ``luna._positive_circuits`` takes them."""
    return list(zip(*_kernel(list(zip(*parts)), len(parts))))


# Six parts of rank 3 take the Gale side in dimension 3.  The last part is
# independent of the others, so its Gale vector is zero; the first and
# fifth have opposite Gale vectors, so their cone has a line.
NON_POINTED_PARTS = [(1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 2, 0), (1, 1, 0), (0, 0, 1)]

NAMED_SYSTEMS = {
    "cyclic_5x12": (5, cyclic_rays(5, range(12))),
    "cyclic_6x13": (6, cyclic_rays(6, range(13))),
    "twenty_four_gon": (3, twenty_four_gon_rays()),
    "forty_gon": (3, forty_gon_rays()),
    "gale_non_pointed": (3, gale_vectors(NON_POINTED_PARTS)),
}


@pytest.mark.parametrize("name", NAMED_SYSTEMS)
def test_double_description_matches_the_subset_scan(name, monkeypatch):
    # Every intermediate generator is a facet of the cone over the vectors
    # added so far, so none of the steps holds more than C(m, dim - 1).
    dim, vectors = NAMED_SYSTEMS[name]
    sizes = []

    def counted(gens, *args):
        sizes.append(len(gens))
        out = add_halfspace(gens, *args)
        sizes.append(len(out))
        return out

    add_halfspace = cones._add_halfspace
    monkeypatch.setattr(cones, "_add_halfspace", counted)
    found = _supporting_hyperplanes(vectors, dim)
    assert found == oracle_zero_sets(vectors, dim)
    assert sizes and max(sizes) <= math.comb(len(vectors), dim - 1)


def test_the_gale_example_has_a_zero_vector_and_a_line():
    dim, vectors = NAMED_SYSTEMS["gale_non_pointed"]
    found = _supporting_hyperplanes(vectors, dim)
    assert (0,) * dim in vectors and len(found) == 2
    # a nonzero vector on every facet lies in the lineality space
    assert any(any(v) and all(z >> i & 1 for z in found.values()) for i, v in enumerate(vectors))


def test_the_whole_space_has_no_facets_and_a_smaller_span_none():
    assert _supporting_hyperplanes([(1, 0), (0, 1), (-1, -1)], 2) == {}
    assert _supporting_hyperplanes([(1,), (-2,)], 1) == {}
    assert _supporting_hyperplanes([], 0) == {}
    assert _supporting_hyperplanes([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3) is None
    assert _supporting_hyperplanes([(0, 0)], 2) is None
