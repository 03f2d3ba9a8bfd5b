"""The package's records behave as frozen dataclasses: immutable, compared
and hashed by their field tuples, copyable and picklable, with the
dataclass repr; and their classes carry no generated methods."""

import copy
import dataclasses
import pickle
from dataclasses import FrozenInstanceError

import pytest

import toricstrata as ts

RECORDS = tuple(
    getattr(ts, name) for name in ts.__all__ if dataclasses.is_dataclass(getattr(ts, name))
)


def walk(value):
    """``value`` and every record, tuple item and dict entry inside it."""
    yield value
    if dataclasses.is_dataclass(value):
        children = (getattr(value, f.name) for f in dataclasses.fields(value))
    elif isinstance(value, tuple):
        children = value
    elif isinstance(value, dict):
        children = (*value.keys(), *value.values())
    else:
        return
    for child in children:
        yield from walk(child)


@pytest.fixture(scope="module")
def samples():
    """One instance of each record class, from a few library calls."""
    report = ts.stratify(2, [(1, 0), (1, 2)])
    toric = ts.build_toric(report.cone)
    ws = ts.cox_weight_system(toric)
    unstable = ts.weight_system(ts.FgAbGroup(1, ()), [(1,), (-1,)])
    group = ts.FgAbGroup(0, (4,))
    results = (
        report,
        ts.isolated_faces(report.connections),
        ts.enumerate_roots(report.cone, 2),
        ts.split_degenerate(3, [(1, 0, 0), (0, 1, 0)]),
        toric,
        ts.face_orbit_data(toric),
        ts.verify_semigroup_equals_group(toric, toric.faces[-1]),
        ws,
        ts.luna_strata(ws),
        ts.check_strongly_stable(unstable),
        ts.gale_dual(ws),
        ts.linear_system(2, [((1, 2), 3)]),
        ts.solve_integer_system(ts.linear_system(2, [((1, 2), 3)])),
        ts.semigroup_member(group, [group.element((1,))], group.element((3,))),
    )
    found = {}
    for value in walk(results):
        if dataclasses.is_dataclass(value):
            found.setdefault(type(value), value)
    return found


def test_the_samples_cover_every_record_class(samples):
    assert len(RECORDS) == 25
    assert set(samples) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_keeps_frozen_dataclass_behaviour(samples, cls):
    x = samples[cls]
    values = tuple(getattr(x, f.name) for f in dataclasses.fields(x))
    assert copy.copy(x) == x
    assert copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x
    for f in dataclasses.fields(x):
        with pytest.raises(FrozenInstanceError):
            setattr(x, f.name, getattr(x, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(x, f.name)
    assert dataclasses.replace(x) == x
    assert hash(x) == hash(values)
    fields = ", ".join(f"{f.name}={v!r}" for f, v in zip(dataclasses.fields(x), values))
    assert repr(x) == f"{cls.__qualname__}({fields})"
    assert x.__eq__(object()) is NotImplemented


def test_no_record_carries_generated_code():
    generated = [
        f"{cls.__name__}.{name}"
        for cls in RECORDS
        for name, value in vars(cls).items()
        if getattr(getattr(value, "__code__", None), "co_filename", None) == "<string>"
    ]
    assert generated == []


def test_demazure_root_stays_slotted(samples):
    assert not hasattr(samples[ts.DemazureRoot], "__dict__")


OWN_INIT = {
    # built thousands of times per stratification or root listing, where the
    # shared ``__init__`` costs about twice a hand-written one
    "IntMatrix", "SubgroupHandle", "Face", "FaceOrbitData", "ConnectionVerdict",
    "DemazureRoot",
    # validates its fields
    "FgAbGroup",
}


def test_only_the_hot_and_the_validating_records_define_an_init():
    assert {cls.__name__ for cls in RECORDS if "__init__" in vars(cls)} == OWN_INIT


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((True,), {}, r"StabilityReport\(\) missing field 'failures'"),
        ((), {"failures": ()}, r"StabilityReport\(\) missing field 'stable'"),
        ((True, ()), {"reason": "x"}, r"StabilityReport\(\) got 'reason' as an unknown field"),
        ((True, ()), {"stable": False}, r"StabilityReport\(\) got 'stable' twice"),
        ((True,), {"stable": False, "failures": ()}, r"StabilityReport\(\) got 'stable' twice"),
        ((True, (), ()), {}, r"StabilityReport\(\) takes 2 fields but 3 were given"),
    ],
    ids=["missing-last", "missing-first", "unknown", "repeated", "repeated-first", "too-many"],
)
def test_the_shared_init_names_the_record_it_refuses(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        ts.StabilityReport(*args, **kwargs)


def test_the_shared_init_stores_fields_by_position_or_name_and_fills_defaults():
    assert ts.MembershipResult("no").coefficients is None
    assert ts.MembershipResult(status="yes", coefficients=(1, 2)).coefficients == (1, 2)
    assert ts.StabilityFailure((0,), reason="orbit-not-closed") == ts.StabilityFailure(
        support=(0,), reason="orbit-not-closed"
    )


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if cls.__name__ not in OWN_INIT], ids=lambda cls: cls.__name__
)
def test_replace_changes_one_field_through_the_shared_init(samples, cls):
    x = samples[cls]
    first, *rest = dataclasses.fields(x)
    changed = dataclasses.replace(x, **{first.name: "changed"})
    assert getattr(changed, first.name) == "changed"
    assert all(getattr(changed, f.name) is getattr(x, f.name) for f in rest)
