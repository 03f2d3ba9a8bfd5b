"""The linear-inequality layer, ``toricstrata._polyhedra``, loads on first
call: importing the package and stratifying neither compile it nor import
``fractions``; the functions that run it load it; and the calls it makes
go through the module bindings a per-layer tracer patches."""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import toricstrata as ts
from toricstrata import _polyhedra, linalg

LAZY = ("fractions", "toricstrata._polyhedra")

FRESH_INTERPRETER = """
import json, sys
before = set(sys.modules)
import toricstrata as ts
def added():
    print(json.dumps(sorted(%r & (set(sys.modules) - before))))
added()
data = json.load(sys.stdin)
%s
added()
"""


def lazy_modules_after(calls: str, data=None) -> tuple[list[str], list[str]]:
    """The lazily loaded modules a fresh interpreter has loaded after
    ``import toricstrata``, and after it then runs ``calls``, which read
    ``data`` (sent as JSON).  Compared with the modules loaded before the
    import, so what a host's ``site`` loads neither passes nor fails a
    test."""
    env = {**os.environ, "PYTHONPATH": str(Path(ts.__file__).parent.parent)}
    result = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER % (set(LAZY), calls)],
        input=json.dumps(data), capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    after_import, after_calls = map(json.loads, result.stdout.splitlines())
    return after_import, after_calls


STRATIFY_AND_THE_OTHER_COMMANDS = """
for rank, rays in data:
    ts.stratify(rank, rays)
    cone = ts.build_cone(rank, rays)
    toric = ts.build_toric(cone)
    ts.face_orbit_data(toric)
    ts.connection_graph(cone)
    ws = ts.cox_weight_system(toric)
    ts.luna_strata(ws)
    ts.check_strongly_stable(ws)
"""


def test_stratify_and_the_other_commands_never_load_the_layer(suite_cones, fixture_path):
    with open(fixture_path("cone_rank3.json")) as handle:
        rank3 = json.load(handle)
    cones = [(rank3["rank"], rank3["rays"])]
    cones += [(cone.ambient_rank, cone.rays) for cone in suite_cones[:10]]
    assert lazy_modules_after(STRATIFY_AND_THE_OTHER_COMMANDS, cones) == ([], [])


@pytest.mark.parametrize(
    "calls",
    [
        "ts.enumerate_roots(ts.build_cone(2, [(1, 0), (1, 2)]), 2)",
        "ts.rational_feasible(ts.LinearSystem(1, (), (((1,), 0, False),)))",
        "group = ts.FgAbGroup(1, ())\n"
        "ts.semigroup_member(group, [group.element((2,))], group.element((4,)))",
    ],
)
def test_the_functions_that_run_the_layer_load_it(calls):
    assert lazy_modules_after(calls) == ([], list(LAZY))


@pytest.mark.parametrize(
    "module, name",
    [
        ("linalg", "linear_system"),
        ("linalg", "rational_feasible"),
        ("linalg", "lattice_points_bounded"),
        ("linalg", "first_lattice_point"),
        ("abelian", "semigroup_member"),
    ],
)
def test_each_moved_public_name_is_one_function_of_its_module(module, name):
    # the tracer finds a public function by identity at every binding
    function = getattr(importlib.import_module(f"toricstrata.{module}"), name)
    assert getattr(ts, name) is function
    assert function.__module__ == f"toricstrata.{module}"
    assert function is not getattr(_polyhedra, name)


MOVED = {
    "linalg": (
        "_Infeasible", "_add_rows", "_affine_column", "_box_search", "_boxed_solutions",
        "_by_size", "_fm_chain", "_inequality_rows", "_is_rational", "_last_bounds",
        "_lattice_dfs", "_lattice_runs", "_normalize_row", "_pair_rows", "_scale_inequality",
        "_search_basis", "_segment",
    ),
    "abelian": ("_unbounded_relation",),
}


def test_the_moved_code_has_one_home():
    for module, names in MOVED.items():
        for name in names:
            assert hasattr(_polyhedra, name), name
            assert not hasattr(getattr(ts, module), name), (module, name)


def count_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name`` with a wrapper that records each call."""
    real, calls = getattr(module, name), []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_the_box_search_solves_through_the_linalg_binding(monkeypatch):
    system = ts.linear_system(2, [((1, 1), 1)], [((1, 0), 0, False)])
    solves = count_calls(monkeypatch, linalg, "solve_integer_system")
    assert ts.lattice_points_bounded(system, 2) == [(0, 1), (1, 0), (2, -1)]
    assert ts.first_lattice_point(system, 2) == (0, 1)
    assert len(solves) == 2


def test_enumerate_roots_lists_through_the_roots_binding(monkeypatch):
    assert ts.roots.lattice_points_bounded is linalg.lattice_points_bounded
    cone = ts.build_cone(2, [(1, 0), (1, 2)])
    listings = count_calls(monkeypatch, ts.roots, "lattice_points_bounded")
    per_ray = ts.enumerate_roots(cone, 2)
    assert len(listings) == len(per_ray) == cone.nrays


def test_semigroup_member_calls_the_traced_functions_through_linalg(monkeypatch):
    feasible = count_calls(monkeypatch, linalg, "rational_feasible")
    hermite = count_calls(monkeypatch, linalg, "hermite_normal_form")
    solves = count_calls(monkeypatch, linalg, "solve_integer_system")
    group = ts.FgAbGroup(1, (2,))
    gens = [group.element((1, 1)), group.element((2, 0))]
    assert ts.semigroup_member(group, gens, group.element((3, 1))).is_yes()
    assert (len(feasible), len(hermite), len(solves)) == (1, 1, 1)


def test_the_public_functions_return_what_the_moved_bodies_do():
    equalities = [((1, 1, 1), 2)]
    inequalities = [((1, -1, 0), 0, True), ((0, 0, Fraction(1, 2)), 0, False)]
    system = ts.linear_system(3, equalities, inequalities)
    assert system == _polyhedra.linear_system(3, equalities, inequalities)
    for bound in range(4):
        points = ts.lattice_points_bounded(system, bound)
        assert points == _polyhedra.lattice_points_bounded(system, bound)
        assert ts.first_lattice_point(system, bound) == _polyhedra.first_lattice_point(system, bound)
        assert (ts.first_lattice_point(system, bound) is None) == (points == [])
    assert ts.rational_feasible(system) == _polyhedra.rational_feasible(system)
