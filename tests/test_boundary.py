"""Integer data is checked once, where it enters the package.

The checking factories (``IntMatrix.from_rows``, ``FgAbGroup.element``,
``linear_system``, ``build_cone``, ``weight_system``) and the CLI loaders
refuse malformed input with an ``InputError``; everything the package
builds from integers it already holds goes through the trusting
constructors and never re-enters those factories.
"""

import contextlib
import dataclasses
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
SUB = ts.subgroup_canon(Z, [ONE])


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
        # the group is checked when there are no generators to check
        (lambda: ts.subgroup_canon("x", []), "group must be an FgAbGroup"),
        (lambda: ts.quotient_group("x", SUB), "group must be an FgAbGroup"),
        (lambda: ts.quotient_group(Z, "x"), "subgroup must be a SubgroupHandle"),
        (lambda: ts.subgroup_structure("x"), "subgroup must be a SubgroupHandle"),
        (lambda: ts.is_full("x"), "subgroup must be a SubgroupHandle"),
        (lambda: ts.subgroup_leq(SUB, "x"), "subgroup must be a SubgroupHandle"),
        (lambda: ts.subgroup_leq("x", SUB), "subgroup must be a SubgroupHandle"),
        (lambda: ts.subgroup_leq(SUB, None), "subgroup must be a SubgroupHandle"),
        (lambda: ts.is_full(None), "subgroup must be a SubgroupHandle"),
        (lambda: ts.group_from_cokernel([[1]]), "matrix must be an IntMatrix"),
        (lambda: ts.smith_normal_form([[1]]), "matrix must be an IntMatrix"),
        (lambda: ts.hermite_normal_form([[1]]), "matrix must be an IntMatrix"),
        (lambda: IntMatrix.identity(True), "matrix dimension must be an integer"),
        (lambda: IntMatrix.identity(2.5), "matrix dimension must be an integer"),
        (lambda: IntMatrix.identity("2"), "matrix dimension must be an integer"),
    ],
)
def test_group_functions_refuse_wrong_types(call, message):
    with pytest.raises(ts.InputError, match=message):
        call()


K2 = ts.weight_system(Z, [(1,), (-1,)])


@pytest.mark.parametrize(
    "call",
    [lambda: ts.is_closed_support(K2, 5)],
    ids=["is_closed_support"],
)
def test_support_functions_refuse_a_support_that_is_not_iterable(call):
    with pytest.raises(ts.InputError, match="support must be given as an iterable of indices"):
        call()


@pytest.mark.parametrize("ws", ["x", None, Z, (ONE, ONE)], ids=["str", "None", "group", "tuple"])
@pytest.mark.parametrize(
    "call",
    [
        ts.luna_strata,
        ts.check_strongly_stable,
        ts.gale_dual,
        lambda ws: ts.is_closed_support(ws, [0]),
    ],
    ids=["luna_strata", "check_strongly_stable", "gale_dual", "is_closed_support"],
)
def test_weight_system_functions_refuse_what_is_not_a_weight_system(call, ws):
    with pytest.raises(ts.InputError, match="weight system must be a WeightSystem"):
        call(ws)


@pytest.mark.parametrize(
    "system",
    ["x", None, ((), ()), ts.build_cone(1, [(1,)])],
    ids=["str", "None", "tuple", "cone"],
)
@pytest.mark.parametrize(
    "call",
    [
        ts.solve_integer_system,
        ts.rational_feasible,
        lambda system: ts.lattice_points_bounded(system, 2),
        lambda system: ts.first_lattice_point(system, 2),
    ],
    ids=[
        "solve_integer_system",
        "rational_feasible",
        "lattice_points_bounded",
        "first_lattice_point",
    ],
)
def test_system_functions_refuse_what_is_not_a_linear_system(call, system):
    with pytest.raises(ts.InputError, match="system must be a LinearSystem"):
        call(system)


@pytest.mark.parametrize(
    "cone",
    ["cone", None, ts.linear_system(1), ts.split_degenerate(1, [(1,)])],
    ids=["str", "None", "system", "split"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda cone: ts.demazure_root(cone, (-1,), 0),
        ts.default_box_bound,
        lambda cone: ts.enumerate_roots(cone, 2),
        ts.enumerate_roots,
        lambda cone: ts.connection_exists(cone, None, None),
        ts.connection_graph,
    ],
    ids=[
        "demazure_root",
        "default_box_bound",
        "enumerate_roots",
        "enumerate_roots-default-bound",
        "connection_exists",
        "connection_graph",
    ],
)
def test_root_functions_refuse_what_is_not_a_cone(call, cone):
    with pytest.raises(ts.InputError, match="cone must be a Cone"):
        call(cone)


@pytest.mark.parametrize(
    "cone",
    ["cone", None, ts.linear_system(1), ts.split_degenerate(1, [(1,)])],
    ids=["str", "None", "system", "split"],
)
@pytest.mark.parametrize(
    "call",
    [
        ts.build_toric,
        ts.face_lattice,
        ts.facet_normals,
        lambda cone: ts.face_from_ray_indices(cone, [0]),
        lambda cone: ts.closure_edges(cone, ()),
    ],
    ids=["build_toric", "face_lattice", "facet_normals", "face_from_ray_indices", "closure_edges"],
)
def test_cone_functions_refuse_what_is_not_a_cone(call, cone):
    with pytest.raises(ts.InputError, match="cone must be a Cone"):
        call(cone)


@pytest.mark.parametrize(
    "graph",
    ["x", None, ts.build_cone(2, [(1, 0), (1, 2)])],
    ids=["str", "None", "cone"],
)
@pytest.mark.parametrize(
    "call", [ts.graph_components, ts.isolated_faces], ids=["graph_components", "isolated_faces"]
)
def test_graph_functions_refuse_what_is_not_a_connection_graph(call, graph):
    with pytest.raises(ts.InputError, match="graph must be a ConnectionGraph"):
        call(graph)


A1_TORIC = ts.build_toric(ts.build_cone(2, [(1, 0), (1, 2)]))


@pytest.mark.parametrize(
    "toric",
    ["x", None, A1_TORIC.cone, ts.cox_weight_system(A1_TORIC)],
    ids=["str", "None", "cone", "weights"],
)
@pytest.mark.parametrize(
    "call",
    [
        ts.face_orbit_data,
        lambda toric: ts.verify_semigroup_equals_group(toric, A1_TORIC.faces[0]),
        ts.cox_weight_system,
        ts.face_support_bridge,
    ],
    ids=[
        "face_orbit_data",
        "verify_semigroup_equals_group",
        "cox_weight_system",
        "face_support_bridge",
    ],
)
def test_toric_functions_refuse_what_is_not_toric_data(call, toric):
    with pytest.raises(ts.InputError, match="toric data must be a ToricData"):
        call(toric)


def test_closure_edges_refuses_what_is_not_a_stratum_of_the_cone():
    report = ts.stratify(2, [(1, 0), (1, 2)])
    wider = ts.stratify(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    for strata in ("x", (report.strata[0], None), 5, None):
        with pytest.raises(ts.InputError, match="strata must be Stratum objects"):
            ts.closure_edges(report.cone, strata)
    with pytest.raises(ts.InputError, match=r"stratum \d+ has \[.*\], not a face of the cone"):
        ts.closure_edges(report.cone, wider.strata)


A1_REPORT = ts.stratify(2, [(1, 0), (1, 2)])


def test_closure_edges_reads_the_strata_once():
    assert ts.closure_edges(A1_REPORT.cone, iter(A1_REPORT.strata)) == A1_REPORT.closure


@pytest.mark.parametrize(
    "faces, message",
    [
        ((ts.Face((-1,), 1),), r"\[-1\], not a face of the cone"),
        ((ts.Face((0.5,), 1),), r"\[0\.5\], not a face of the cone"),
        ((ts.Face((True,), 1),), r"\[True\], not a face of the cone"),
        ((ts.Face((1 << 40,), 1),), r"\[1099511627776\], not a face of the cone"),
        ((ts.Face((0,), 2),), r"\[0\], not a face of the cone"),
        ((ts.Face([0], 1),), r"Face\(ray_indices=\[0\], dim=1\), not a face of the cone"),
        ((ts.Face(0, 1),), r"Face\(ray_indices=0, dim=1\), not a face of the cone"),
        (("x",), "'x', not a face of the cone"),
        ((None,), "None, not a face of the cone"),
        (5, "faces 5, not a tuple of faces"),
        (None, "faces None, not a tuple of faces"),
        ([ts.Face((0,), 1)], r"faces \[Face\(.*\)\], not a tuple of faces"),
    ],
    ids=[
        "negative", "float", "bool", "huge", "wrong-dim", "list", "int", "str", "None",
        "faces-int", "faces-None", "faces-list",
    ],
)
def test_closure_edges_refuses_a_stratum_face_that_is_not_a_face_of_the_cone(faces, message):
    stratum = dataclasses.replace(A1_REPORT.strata[0], faces=faces)
    with pytest.raises(ts.InputError, match=rf"stratum 0 has {message}"):
        ts.closure_edges(A1_REPORT.cone, (stratum,))


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
