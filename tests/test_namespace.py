"""The package root re-exports each module's ``__all__``, and nothing else
declares a public name."""

import ast
import importlib
from pathlib import Path

import toricstrata as ts

MODULES = ("abelian", "cones", "divisors", "engine", "errors", "linalg", "luna", "roots")

# The root names of the package before each module's ``__all__`` became
# the one list of its public names; every one must stay importable.
ROOT_NAMES = (
    "ConnectionGraph", "ConnectionVerdict", "Cone", "ConsistencyError", "CrossChecks",
    "DemazureRoot", "Face", "FaceOrbitData", "FgAbGroup", "GaleDual", "GroupElement",
    "InputError", "IntMatrix", "IntegerSolution", "IsolatedFace", "LinearSystem",
    "LunaStratum", "MembershipResult", "SemigroupCheck", "SplitCone", "StabilityReport",
    "StratificationReport", "Stratum", "SubgroupHandle", "ToricData", "WeightSystem",
    "build_cone", "build_toric", "check_strongly_stable", "closure_edges",
    "connection_exists", "connection_graph", "cox_weight_system", "default_box_bound",
    "demazure_root", "enumerate_roots", "face_from_ray_indices", "face_functional",
    "face_lattice", "face_orbit_data", "face_support_bridge", "facet_normals",
    "first_lattice_point", "full_subgroup", "gale_dual", "graph_components",
    "group_from_cokernel", "hermite_normal_form", "integer_rank", "is_closed_support",
    "is_full", "is_smooth_face", "isolated_faces", "lattice_points_bounded",
    "linear_system", "luna_strata", "primitive_vector", "quotient_group",
    "rational_feasible", "semigroup_member", "smith_normal_form", "solve_integer_system",
    "split_degenerate", "stratify", "subgroup_canon", "subgroup_leq", "subgroup_structure",
    "subgroups_equal", "verify_semigroup_equals_group", "weight_subgroup", "weight_system",
)


def test_root_all_is_the_concatenation_of_the_module_lists():
    modules = [importlib.import_module(f"toricstrata.{name}") for name in MODULES]
    assert list(ts.__all__) == [name for module in modules for name in module.__all__]
    assert len(set(ts.__all__)) == len(ts.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(ts, name) is getattr(module, name), (module.__name__, name)


def test_every_earlier_root_name_is_still_exported():
    assert len(ROOT_NAMES) == len(set(ROOT_NAMES)) == 71
    assert set(ROOT_NAMES) <= set(ts.__all__)
    assert set(ts.__all__) - set(ROOT_NAMES) == {"IntVec", "StabilityFailure"}
    namespace = {}
    exec("from toricstrata import *", namespace)
    assert all(name in namespace for name in ROOT_NAMES)


# ``perfbench/test_perfbench.py`` looks this name up in ``cones``.
UNUSED_IMPORTS_ALLOWED = {("cones", "smith_normal_form")}


def unused_imports(source: str) -> set[str]:
    """Names a module imports (``__future__`` and star imports aside) and
    never uses."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_module_imports_a_name_it_does_not_use():
    found = set()
    for path in Path(ts.__file__).parent.glob("*.py"):
        found |= {(path.stem, name) for name in unused_imports(path.read_text())}
    assert found == UNUSED_IMPORTS_ALLOWED


def test_the_unused_import_check_sees_an_unused_name():
    source = "import math\nfrom os import path, sep\nx = math.pi + len(sep)\n"
    assert unused_imports(source) == {"path"}
