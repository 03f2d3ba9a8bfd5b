"""The package's records behave as frozen dataclasses: immutable, compared
and hashed by their field tuples, copyable and picklable, with the
dataclass repr; and their classes carry no generated methods.  Their
dataclass metadata is built on first use, so importing the package does
not import ``dataclasses``."""

import ast
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path
from types import MemberDescriptorType

import pytest

import toricstrata as ts
from toricstrata.errors import _Record

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


def sample_records():
    """One instance of each record class, from a few library calls."""
    report = ts.stratify(2, [(1, 0), (1, 2)])
    toric = ts.build_toric(report.cone)
    ws = ts.cox_weight_system(toric)
    unstable = ts.weight_system(ts.FgAbGroup(1, ()), [(1,), (-1,)])
    group = ts.FgAbGroup(0, (4,))
    results = (
        report,
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


@pytest.fixture(scope="module")
def samples():
    return sample_records()


def test_the_samples_cover_every_record_class(samples):
    assert len(RECORDS) == 24  # 25 until IsolatedFace was removed
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


def test_no_record_class_carries_a_dataclass_decorator():
    decorated = [
        f"{path.name}:{node.name}"
        for path in Path(ts.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for decorator in node.decorator_list
        if "dataclass" in ast.unparse(decorator)
    ]
    assert decorated == []


def test_subclassing_the_base_alone_declares_a_record():
    class Point(_Record):
        x: int
        y: int = 0

    assert Point.__match_args__ == ("x", "y")
    p = Point(1)
    assert p.y == 0 and p == Point(x=1, y=0)
    # built and filled in without the dataclass metadata, made on first read
    assert "__dataclass_fields__" not in vars(Point)
    assert [f.name for f in dataclasses.fields(Point)] == ["x", "y"]
    assert "__dataclass_fields__" in vars(Point)
    assert dataclasses.replace(p, y=2) == Point(1, 2)
    assert repr(p) == f"{Point.__qualname__}(x=1, y=0)"
    with pytest.raises(FrozenInstanceError):
        p.x = 2


def test_demazure_root_stays_slotted(samples):
    assert not hasattr(samples[ts.DemazureRoot], "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_the_declared_fields_agree_with_the_dataclass_fields(cls):
    fields = dataclasses.fields(cls)
    assert cls.__match_args__ == tuple(f.name for f in fields)
    assert cls._defaults == {
        f.name: f.default for f in fields if f.default is not dataclasses.MISSING
    }
    assert all(f.default_factory is dataclasses.MISSING for f in fields)


def test_a_slotted_record_takes_no_default_from_its_slots():
    slots = ts.DemazureRoot.__slots__
    assert all(isinstance(vars(ts.DemazureRoot)[name], MemberDescriptorType) for name in slots)
    assert ts.DemazureRoot._defaults == {}
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(ts.DemazureRoot))


def test_the_base_is_not_a_dataclass():
    assert not dataclasses.is_dataclass(_Record)
    assert not hasattr(_Record, "__dataclass_fields__")


FRESH_INTERPRETER = """
import sys
before = set(sys.modules)
import toricstrata.cli
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
import dataclasses
from test_records import sample_records
for cls, x in sample_records().items():
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(x), cls
    names = tuple(f.name for f in dataclasses.fields(x))
    assert names == cls.__match_args__, cls
    assert dataclasses.replace(x) == x, cls
    assert tuple(dataclasses.asdict(x)) == names, cls
    print(cls.__name__)
"""


def test_a_fresh_interpreter_imports_the_cli_without_dataclasses():
    # Compared with the modules loaded before the import, so what a host's
    # ``site`` loads neither passes nor fails the test.
    paths = [str(Path(ts.__file__).parent.parent), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    result = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    added, *checked = result.stdout.splitlines()
    assert added == "[]"
    assert sorted(checked) == sorted(cls.__name__ for cls in RECORDS)


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
