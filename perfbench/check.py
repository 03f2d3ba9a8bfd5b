"""Output checks behind ``success_rate`` and ``correct``.

Two kinds of check run on every item:

* invariants that need no reference, recomputed with :mod:`geometry`: the
  strata partition the face lattice, the principal stratum is the set of
  smooth faces, the class group has free rank ``rays - rank``, and every
  enumerated root satisfies its defining pairings;
* for the default seed, the item's record (see :func:`examine`) must equal
  the one ``make_reference.py`` stored under ``reference/``.  Records hold
  variety invariants only: class group, torus rank, strata (faces,
  dimension, structure, local class group) and closure edges; root lists;
  the CLI's JSON output.  Connection witnesses, certificate kinds and the
  search-bound fields are left out because changing them is allowed.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product
from pathlib import Path

import geometry

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Keys of the CLI's JSON output that may change without the variety changing.
UNCHECKED_KEYS = frozenset(
    {"witness", "distinguished_ray", "certificate", "bound_used", "box_bound", "coeff_bound"}
)


def short_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def load_reference(workload: str, seed: int, part: int):
    """The recorded ``{"input_digest", "items"}`` of one pass, if any."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    ref = json.loads(path.read_text())
    if ref["seed"] != seed or part >= len(ref["passes"]):
        return None
    return ref["passes"][part]


# ---------------------------------------------------------------------------
# stratify reports


def stratify_record(report) -> dict:
    def faces(stratum):
        return [list(f.ray_indices) for f in stratum.faces]

    head = {s.index: faces(s)[0] for s in report.strata}
    return {
        "class_group": [report.class_group.free_rank, list(report.class_group.torsion)],
        "torus_rank": report.torus_rank,
        "strata": sorted(
            [faces(s), s.dim, s.structure.describe(), s.local_class_group.describe()]
            for s in report.strata
        ),
        "closure": sorted([head[a], head[b]] for a, b in report.closure),
    }


def stratify_problems(rank: int, rays, report) -> list[str]:
    problems = []
    lattice = geometry.faces(rank, rays)
    seen = [tuple(f.ray_indices) for s in report.strata for f in s.faces]
    if sorted(seen) != sorted(lattice):
        problems.append("strata do not partition the face lattice")
    for s in report.strata:
        for face, orbit_dim in zip(s.faces, s.orbit_dims):
            dim = lattice.get(tuple(face.ray_indices))
            if dim is not None and orbit_dim != rank - dim:
                problems.append(f"face {face.ray_indices} has orbit dimension {orbit_dim}")
    smooth = {f for f in lattice if geometry.is_smooth(rank, rays, f)}
    principal = [s for s in report.strata if any(not f.ray_indices for f in s.faces)]
    if len(principal) != 1 or {tuple(f.ray_indices) for f in principal[0].faces} != smooth:
        problems.append("the principal stratum is not the set of smooth faces")
    if [s.smooth for s in report.strata].count(True) != 1:
        problems.append("not exactly one smooth stratum")
    if report.class_group.free_rank != len(rays) - rank:
        problems.append("class group free rank differs from rays - rank")
    if report.torus_rank != 0:
        problems.append("a full-dimensional input reported a torus factor")
    return problems


def stratify_resolved(report) -> bool:
    checks = report.cross_checks
    return checks.connections_equal is not None and checks.semigroup_verified


# ---------------------------------------------------------------------------
# root enumeration


def roots_record(groups) -> list:
    vectors = [[list(root.vector) for root in group] for group in groups]
    return [[len(v), short_hash(v)] for v in vectors]


def box_root_count(rays, tau: int, bound: int) -> int:
    """Roots of ray ``tau`` in the box, by scanning the other coordinates
    and solving ``<ray_tau, e> = -1`` for one with a nonzero coefficient."""
    ray = rays[tau]
    k = next(i for i, x in enumerate(ray) if x)
    count = 0
    for rest in product(range(-bound, bound + 1), repeat=len(ray) - 1):
        e = list(rest)
        e.insert(k, 0)
        value, remainder = divmod(-1 - geometry.pairing(ray, e), ray[k])
        e[k] = value
        if not remainder and abs(value) <= bound and all(
            geometry.pairing(r, e) >= 0 for i, r in enumerate(rays) if i != tau
        ):
            count += 1
    return count


def roots_problems(rank: int, rays, groups, bound: int) -> list[str]:
    if len(groups) != len(rays):
        return ["one root group per ray expected"]
    problems = []
    for tau, group in enumerate(groups):
        vectors = [tuple(root.vector) for root in group]
        if vectors != sorted(set(vectors)):
            problems.append(f"roots of ray {tau} are not sorted and distinct")
        for e in vectors:
            if max(map(abs, e)) > bound or any(
                (geometry.pairing(r, e) != -1) if i == tau else geometry.pairing(r, e) < 0
                for i, r in enumerate(rays)
            ):
                problems.append(f"{e} is not a root of ray {tau} in the box")
                break
    if rank <= 3 and not problems:
        counts = [box_root_count(rays, tau, bound) for tau in range(len(rays))]
        if counts != [len(g) for g in groups]:
            problems.append(f"root counts {[len(g) for g in groups]}, box scan {counts}")
    return problems


# ---------------------------------------------------------------------------
# CLI invocations: result is (exit code, stdout)


def _checked_part(doc):
    if isinstance(doc, dict):
        kept = {k: _checked_part(v) for k, v in doc.items() if k not in UNCHECKED_KEYS}
        return {k: v for k, v in kept.items() if v != {}}
    if isinstance(doc, list):
        return [_checked_part(v) for v in doc]
    return doc


def cli_record(result) -> str:
    return short_hash(_checked_part(json.loads(result[1])))


def cli_problems(result) -> list[str]:
    code, out = result
    if code != 0:
        return [f"exit code {code}"]
    try:
        json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    return []


def cli_resolved(result) -> bool:
    doc = json.loads(result[1])
    checks = doc.get("checks")
    if checks and (checks["connections_equal"] is None or not checks["semigroup_verified"]):
        return False
    return all(v["status"] != "inconclusive" for v in doc.get("verdicts", ()))


# ---------------------------------------------------------------------------


def examine(workload: str, item, result, bound: int):
    """``(problems, resolved, record)`` for one item's result."""
    if workload == "cli":
        problems = cli_problems(result)
        if problems:
            return problems, False, None
        return problems, cli_resolved(result), cli_record(result)
    rank, rays = item
    if workload == "roots_box":
        return roots_problems(rank, rays, result, bound), True, roots_record(result)
    return stratify_problems(rank, rays, result), stratify_resolved(result), stratify_record(result)
