"""Integer data is checked once, where it enters the package.

The checking factories (``IntMatrix.from_rows``, ``FgAbGroup.element``,
``linear_system``, ``build_cone``, ``weight_system``) and the CLI loaders
refuse malformed input with an ``InputError``; everything the package
builds from integers it already holds goes through the trusting
constructors and never re-enters those factories.
"""

import contextlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toricstrata as ts
from toricstrata.cli import main
from toricstrata.linalg import IntMatrix

from oracles import sample_cones

small = st.integers(-3, 3)
bad_entry = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.none(),
    st.lists(small, max_size=2),
)


@st.composite
def corrupted_rows(draw):
    """An integer matrix with one bad entry or one row of the wrong length,
    and the index of that row."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(small) for _ in range(ncols)] for _ in range(nrows)]
    i = draw(st.integers(0, nrows - 1))
    if draw(st.booleans()):
        rows[i][draw(st.integers(0, ncols - 1))] = draw(bad_entry)
    elif ncols > 1 and draw(st.booleans()):
        rows[i].pop()
    else:
        rows[i].append(draw(small))
    return ncols, rows, i


def raises_input_error(build) -> bool:
    try:
        build()
    except ts.InputError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(corrupted_rows())
def test_checking_factories_refuse_malformed_integer_data(data):
    ncols, rows, bad = data
    group = ts.FgAbGroup(ncols, ())
    factories = {
        "from_rows": lambda: IntMatrix.from_rows(rows, ncols),
        "element": lambda: group.element(rows[bad]),
        "equalities": lambda: ts.linear_system(ncols, [(row, 0) for row in rows]),
        "inequalities": lambda: ts.linear_system(ncols, (), [(row, 0, False) for row in rows]),
        "build_cone": lambda: ts.build_cone(ncols, rows),
        "weight_system": lambda: ts.weight_system(group, rows),
    }
    for name, build in factories.items():
        assert raises_input_error(build), (name, rows)


@pytest.mark.parametrize(
    "rank, rays, message",
    [
        (2, [5], "ray #0 is not a sequence"),
        (2, [(1, 0), None], "ray #1 is not a sequence"),
        (2.0, [(1, 0), (0, 1)], "ambient rank must be an integer"),
        ("2", [(1, 0), (0, 1)], "ambient rank must be an integer"),
        (True, [(1,), (-1,)], "ambient rank must be an integer"),
        (2, 5, "rays must be given as an iterable"),
        (2, iter([]), "at least one ray is required"),
        (0, 5, "ambient rank must be at least 1"),
    ],
)
def test_build_cone_refuses_malformed_boundary_input(rank, rays, message):
    with pytest.raises(ts.InputError, match=message):
        ts.build_cone(rank, rays)


@pytest.mark.parametrize(
    "rank, rays, message",
    [
        (2.0, [(1, 0)], "ambient rank must be an integer"),
        (False, [], "ambient rank must be an integer"),
        (2, 5, "rays must be given as an iterable"),
        (2, [(1, 0), 5], "ray #1 is not a sequence"),
        (-1, 5, "ambient rank must be nonnegative"),
        (0, [(1,)], "ambient rank must be at least 1"),
    ],
)
@pytest.mark.parametrize("factory", [ts.split_degenerate, ts.stratify])
def test_split_and_stratify_refuse_malformed_boundary_input(factory, rank, rays, message):
    with pytest.raises(ts.InputError, match=message):
        factory(rank, rays)


def test_one_shot_rays_are_read_once():
    # each ray is an iterator that can be read only once
    def rays():
        return (iter(ray) for ray in [(1, 0), (1, 2)])

    report = ts.stratify(2, rays())
    assert report.input_rays == ((1, 0), (1, 2))
    assert report.cone.rays == ((1, 0), (1, 2))
    scaled = ts.stratify(2, (iter(ray) for ray in [(2, 0), (1, 2)]), normalize=True)
    assert scaled.input_rays == ((2, 0), (1, 2))
    assert scaled.cone.rays == ((1, 0), (1, 2))
    assert ts.build_cone(2, rays()).rays == ((1, 0), (1, 2))
    assert ts.split_degenerate(2, rays()).cone.rays == ((1, 0), (1, 2))


def test_a_bad_ray_is_reported_before_later_rays_are_read():
    # the second ray never ends; the first is refused before it is read
    for factory in (ts.build_cone, ts.split_degenerate, ts.stratify):
        with pytest.raises(ts.InputError, match="ray #0 is the zero vector"):
            factory(2, [(0, 0), itertools.count()])


@pytest.mark.parametrize("rows, index", [([5], 0), ([(1,), None], 1)])
def test_weight_system_refuses_a_row_that_is_not_a_sequence(rows, index):
    with pytest.raises(ts.InputError, match=f"weight {index} is not a sequence"):
        ts.weight_system(ts.FgAbGroup(1, ()), rows)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ts.linear_system("2"), "system dimension must be an integer"),
        (lambda: ts.linear_system(2.0), "system dimension must be an integer"),
        (lambda: ts.linear_system(True, [((1,), 0)]), "system dimension must be an integer"),
        (lambda: ts.linear_system(2, 5), "constraints must be iterables"),
        (lambda: ts.linear_system(2, [(5, 0)]), "constraints must be iterables"),
        (lambda: ts.linear_system(2, [((1, 0),)]), "constraints must be iterables"),
        (lambda: ts.linear_system(2, (), [((1, 0), 0)]), "constraints must be iterables"),
        (lambda: IntMatrix.from_rows(5), "matrix rows must be given as an iterable of sequences"),
        (lambda: IntMatrix.from_rows([(1,), 5]), "matrix rows must be given as an iterable of sequences"),
        (lambda: IntMatrix.from_rows([], cols="2"), "column count must be an integer"),
        (lambda: IntMatrix.from_rows([], cols=True), "column count must be an integer"),
        (lambda: ts.FgAbGroup(1, ()).element(5), "element coordinates must be a sequence"),
        (lambda: ts.weight_system(ts.FgAbGroup(1, ()), 5), "weights must be given as an iterable"),
        (lambda: ts.FgAbGroup(0, 5), "torsion orders must be given as an iterable"),
    ],
)
def test_checking_factories_refuse_malformed_shapes(build, message):
    with pytest.raises(ts.InputError, match=message):
        build()


def test_torsion_orders_are_kept_as_a_tuple():
    group = ts.FgAbGroup(1, [2])
    assert group == ts.FgAbGroup(1, (2,)) == ts.FgAbGroup(1, iter([2]))
    assert group.torsion == (2,)
    assert hash(group) == hash(ts.FgAbGroup(1, (2,)))


Z = ts.FgAbGroup(1, ())
ONE = Z.element((1,))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ts.weight_system(5, [(1,)]), "group must be an FgAbGroup"),
        (lambda: ts.subgroup_canon(5, [ONE]), "group must be an FgAbGroup"),
        (lambda: ts.semigroup_member(5, [ONE], ONE), "group must be an FgAbGroup"),
        (lambda: ts.subgroup_canon(Z, 5), "generators must be given as an iterable"),
        (lambda: ts.semigroup_member(Z, 5, ONE), "generators must be given as an iterable"),
        (lambda: ts.subgroup_canon(Z, [(1,)]), "generators must be group elements"),
        (lambda: ts.semigroup_member(Z, [(1,)], ONE), "generators must be group elements"),
        (lambda: ts.semigroup_member(Z, [ONE], (1,)), "target must be a group element"),
    ],
)
def test_group_functions_refuse_wrong_types(call, message):
    with pytest.raises(ts.InputError, match=message):
        call()


@pytest.mark.parametrize(
    "vector, ray, message",
    [
        ((-1.0, 0.5), 0, "root vector entries must be integers"),
        ((-1, True), 0, "root vector entries must be integers"),
        ((-1, 1), "0", "distinguished ray index must be an integer"),
        ((-1, 1), True, "distinguished ray index must be an integer"),
        ((-1, 1), 0.0, "distinguished ray index must be an integer"),
        (5, 0, "root vector must be a sequence"),
    ],
)
def test_demazure_root_refuses_data_that_is_not_integral(vector, ray, message):
    cone = ts.build_cone(2, [(1, 0), (1, 2)])
    assert ts.demazure_root(cone, (-1, 1), 0).vector == (-1, 1)
    with pytest.raises(ts.InputError, match=message):
        ts.demazure_root(cone, vector, ray)


garbage = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        small,
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=3),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=6,
)


def int_rows(draw, length):
    """1-4 rows of ``length`` small integers, maybe one entry garbage."""
    row = st.lists(small, min_size=length, max_size=length)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    if length and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, length - 1))] = draw(garbage)
    return rows


def spoil(draw, doc):
    """Replace one field of the document by garbage, or none."""
    key = draw(st.sampled_from([None, None, *doc]))
    if key is not None:
        doc[key] = draw(garbage)
    return doc


@st.composite
def cone_doc(draw):
    rank = draw(st.integers(0, 3))
    rows = int_rows(draw, draw(st.sampled_from([rank, rank, rank + 1])))
    return spoil(draw, {"schema": 1, "rank": rank, "rays": rows})


@st.composite
def weight_doc(draw):
    free_rank = draw(st.integers(0, 2))
    torsion = draw(st.lists(st.sampled_from([-1, 0, 2, 3, 4]), max_size=2))
    rows = int_rows(draw, free_rank + len(torsion))
    return spoil(draw, {"schema": 1, "free_rank": free_rank, "torsion": torsion, "weights": rows})


CONE_COMMANDS = ("stratify", "roots", "connections", "classgroup")
WEIGHT_COMMANDS = ("luna", "stable")


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from(CONE_COMMANDS), cone_doc()),
        st.tuples(st.sampled_from(WEIGHT_COMMANDS), weight_doc()),
    )
)
def test_cli_loaders_refuse_garbage_with_a_message(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    assert code in (0, 1), (command, doc)
    if code == 1:
        assert err.getvalue().startswith("error: "), (command, doc, err.getvalue())
        assert "Traceback" not in err.getvalue()


def refuse(*args, **kwargs):
    raise AssertionError("internal data went back through a checking factory")


def test_internal_data_skips_the_checking_factories(monkeypatch):
    # Results computed with the checking factories patched to fail must
    # equal the unpatched ones: the package only checks what enters it.
    inputs = sample_cones(ts, 77, 20)

    def results():
        out = []
        for cone in (ts.Cone(c.ambient_rank, c.rays) for c in inputs):
            weights = ts.cox_weight_system(ts.build_toric(cone))
            out.append(
                (
                    ts.stratify(cone.ambient_rank, cone.rays),
                    ts.enumerate_roots(cone, 4),
                    ts.luna_strata(weights),
                    ts.gale_dual(weights),
                )
            )
        return out

    expected = results()
    monkeypatch.setattr(IntMatrix, "from_rows", refuse)
    monkeypatch.setattr(ts.FgAbGroup, "reduce", refuse)
    patched = 0
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "toricstrata" and hasattr(module, "linear_system"):
            monkeypatch.setattr(module, "linear_system", refuse)
            patched += 1
    assert patched >= 2  # toricstrata.linalg and the package root
    assert results() == expected
