"""Command-line interface.

Commands operate on two small JSON file formats.

Cone file::

    {"schema": 1, "rank": 3, "rays": [[1, 0, 0], [1, 2, 0], [0, 1, 2]]}

Weight file (free coordinates first, then one per torsion factor)::

    {"schema": 1, "free_rank": 2, "torsion": [], "weights": [[1, 0], ...]}

Exit codes: 0 on success, 1 on any input problem.  Every verdict is
decided exactly, so no command leaves warnings behind; only ``roots``
takes a search bound, the coordinate box it enumerates.  JSON output is
canonical: two-space indentation, sorted keys, trailing newline.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abelian import FgAbGroup
from .cones import Cone, split_degenerate
from .divisors import build_toric, face_orbit_data
from .engine import StratificationReport, stratify
from .errors import InputError
from .linalg import _is_int
from .luna import (
    WeightSystem,
    _gale_dual,
    check_strongly_stable,
    luna_strata,
    weight_system,
)
from .roots import (
    connection_graph,
    default_box_bound,
    enumerate_roots,
    graph_components,
    isolated_faces,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# input files


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise InputError("file not found")
    except IsADirectoryError:
        raise InputError("is a directory")
    except OSError as exc:  # e.g. a name too long, a file as a directory, a link loop
        raise InputError(exc.strerror)
    except UnicodeDecodeError:
        raise InputError("not UTF-8 text")
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # e.g. an integer beyond the digit limit
        raise InputError(f"unreadable JSON value: {exc}")
    except RecursionError:
        raise InputError("JSON nested too deeply")


def _as_int(value, what: str) -> int:
    if not _is_int(value):
        raise InputError(f"{what} must be an integer")
    return value


def _as_int_rows(value, what: str) -> list[tuple[int, ...]]:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list of integer lists")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise InputError(f"{what}[{i}] must be a list of integers")
        rows.append(tuple(_as_int(x, f"{what}[{i}][{j}]") for j, x in enumerate(row)))
    return rows


def _checked_document(path: str, required: tuple[str, ...]):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError("top level must be a JSON object")
    if data.get("schema") != 1:
        raise InputError('expected "schema": 1')
    for key in required:
        if key not in data:
            raise InputError(f'missing required key "{key}"')
    return data


def _load_cone_file(path: str) -> tuple[int, list[tuple[int, ...]]]:
    data = _checked_document(path, ("rank", "rays"))
    return _as_int(data["rank"], "rank"), _as_int_rows(data["rays"], "rays")


def _load_pointed_cone(args) -> Cone:
    rank, rays = _load_cone_file(args.file)
    if not rays:
        raise InputError(
            "no rays — the variety is a torus; "
            "use the stratify command, which handles torus factors"
        )
    split = split_degenerate(rank, rays, normalize=args.normalize)
    if split.torus_rank:
        raise InputError(
            "rays span a proper subspace (torus factor present); "
            "use the stratify command, which splits the factor off"
        )
    return split.cone


def _load_weight_system(path: str) -> WeightSystem:
    data = _checked_document(path, ("free_rank", "torsion", "weights"))
    free_rank = _as_int(data["free_rank"], "free_rank")
    if not isinstance(data["torsion"], list):
        raise InputError("torsion must be a list of integers")
    torsion = tuple(_as_int(x, f"torsion[{i}]") for i, x in enumerate(data["torsion"]))
    rows = _as_int_rows(data["weights"], "weights")
    if not rows:
        raise InputError("at least one weight is required")
    return weight_system(FgAbGroup(free_rank, torsion), rows)


# ---------------------------------------------------------------------------
# rendering


def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _idx_set(indices) -> str:
    return "{" + ",".join(str(i) for i in indices) + "}"


def _cone_payload(cone: Cone) -> dict:
    return {"rank": cone.ambient_rank, "rays": [list(r) for r in cone.rays]}


def _group_payload(group: FgAbGroup) -> dict:
    return {"free_rank": group.free_rank, "torsion": list(group.torsion), "name": group.describe()}


def _class_payload(group: FgAbGroup, classes) -> dict:
    """The class group and the divisor class of each ray, as JSON entries."""
    return {
        "class_group": _group_payload(group),
        "divisor_classes": [list(e.coords) for e in classes],
    }


def _class_text(group: FgAbGroup, classes) -> list[str]:
    pairs = "; ".join(f"ray {i} -> {_vec(e.coords)}" for i, e in enumerate(classes))
    return [f"class group: {group.describe()}", f"divisor classes: {pairs}"]


def _weights_payload(ws: WeightSystem) -> dict:
    """The character group and the weights of a weight system, as JSON entries."""
    return {"group": _group_payload(ws.group), "weights": [list(w.coords) for w in ws.weights]}


def _verdict_payload(graph, i1: int, i2: int, verdict) -> dict:
    entry = {
        "from": list(graph.faces[i1].ray_indices),
        "to": list(graph.faces[i2].ray_indices),
        "status": verdict.status,
    }
    if verdict.witness is not None:
        entry["witness"] = list(verdict.witness.vector)
        entry["distinguished_ray"] = verdict.witness.distinguished_ray
    if verdict.certificate is not None:
        entry["certificate"] = verdict.certificate
    return entry


def _verdict_text(graph, i1: int, i2: int, verdict) -> str:
    left = _idx_set(graph.faces[i1].ray_indices)
    right = _idx_set(graph.faces[i2].ray_indices)
    if verdict.status == "yes":
        detail = (
            f"yes, witness {_vec(verdict.witness.vector)} "
            f"(distinguished ray {verdict.witness.distinguished_ray})"
        )
    else:
        detail = f"no ({verdict.certificate})"
    return f"  {left} -> {right}: {detail}"


def _report_payload(report: StratificationReport) -> dict:
    graph = report.connections
    checks = report.cross_checks
    return {
        "schema": 1,
        "ambient_rank": report.ambient_rank,
        "torus_rank": report.torus_rank,
        "input_rays": [list(r) for r in report.input_rays],
        "cone": _cone_payload(report.cone),
        **_class_payload(report.class_group, report.divisor_classes),
        "strata": [
            {
                "index": s.index,
                "dim": s.dim,
                "smooth": s.smooth,
                "structure": s.structure.describe(),
                "local_class_group": s.local_class_group.describe(),
                "subgroup_basis": [list(b) for b in s.subgroup.basis],
                "faces": [list(f.ray_indices) for f in s.faces],
                "orbit_dims": list(s.orbit_dims),
            }
            for s in report.strata
        ],
        "closure": [[a, b] for a, b in report.closure],
        "connections": {
            "verdicts": [_verdict_payload(graph, i1, i2, v) for i1, i2, v in graph.verdicts],
        },
        "checks": {name: getattr(checks, name) for name in checks.__match_args__},
        # Part of schema 1; every check is a hard guarantee, so it stays empty.
        "warnings": [],
    }


def _report_text(report: StratificationReport) -> list[str]:
    lines = [f"ambient rank {report.ambient_rank}, torus factor {report.torus_rank}"]
    if report.cone.nrays:
        cone = report.cone
        lines.append(f"pointed cone of rank {cone.ambient_rank} with {cone.nrays} rays:")
        for i, ray in enumerate(cone.rays):
            lines.append(f"  ray {i}: {_vec(ray)}")
        lines.extend(_class_text(report.class_group, report.divisor_classes))
    else:
        lines.append("the variety is a torus (no rays)")
    lines.append(f"strata ({len(report.strata)}), by descending dimension:")
    for s in report.strata:
        word = "smooth" if s.smooth else "singular"
        lines.append(
            f"  stratum {s.index}: dim {s.dim}, subgroup {s.structure.describe()}, "
            f"local class group {s.local_class_group.describe()}, {word}"
        )
        lines.append("    faces: " + " ".join(_idx_set(f.ray_indices) for f in s.faces))
        lines.append("    orbit dims: " + ", ".join(str(d) for d in s.orbit_dims))
    if report.closure:
        order = ", ".join(f"{a} < {b}" for a, b in report.closure)
        lines.append(f"closure order on strata (lower < upper): {order}")
    graph = report.connections
    yes = sum(1 for _, _, v in graph.verdicts if v.is_yes())
    lines.append(
        f"connections: {len(graph.verdicts)} candidate pairs — {yes} connected, "
        f"{len(graph.verdicts) - yes} certified impossible"
    )
    lines.append(
        "cross-checks: subgroup/Luna agree; connections stay within strata; "
        "components match strata: yes; semigroup generation verified: yes"
    )
    return lines


# ---------------------------------------------------------------------------
# commands


def _cmd_stratify(args):
    rank, rays = _load_cone_file(args.file)
    report = stratify(rank, rays, normalize=args.normalize)
    return _report_payload(report), _report_text(report)


def _cmd_roots(args):
    cone = _load_pointed_cone(args)
    bound = args.bound if args.bound is not None else default_box_bound(cone)
    groups = enumerate_roots(cone, bound)
    payload = {
        "schema": 1,
        "box_bound": bound,
        "groups": [
            {
                "ray_index": i,
                "ray": list(cone.rays[i]),
                "roots": [list(r.vector) for r in group],
            }
            for i, group in enumerate(groups)
        ],
    }
    lines = [f"roots with coordinates in [-{bound}, {bound}], by distinguished ray:"]
    for i, group in enumerate(groups):
        lines.append(f"  ray {i} = {_vec(cone.rays[i])}: {len(group)} found")
        for root in group:
            lines.append(f"    {_vec(root.vector)}")
    return payload, lines


def _cmd_connections(args):
    cone = _load_pointed_cone(args)
    graph = connection_graph(cone)
    components = graph_components(graph)
    isolated = isolated_faces(graph)
    payload = {
        "schema": 1,
        "faces": [list(f.ray_indices) for f in graph.faces],
        "verdicts": [_verdict_payload(graph, i1, i2, v) for i1, i2, v in graph.verdicts],
        "components": [[list(graph.faces[i].ray_indices) for i in comp] for comp in components],
        "isolated": [
            # Part of schema 1; every verdict is a "yes" or a certified "no".
            {"face": list(face.ray_indices), "fully_certified": True}
            for face in isolated
        ],
    }
    lines = [f"candidate pairs ({len(graph.verdicts)}):"]
    lines.extend(_verdict_text(graph, i1, i2, v) for i1, i2, v in graph.verdicts)
    lines.append(f"components over yes-edges ({len(components)}):")
    for comp in components:
        lines.append("  " + " ".join(_idx_set(graph.faces[i].ray_indices) for i in comp))
    if isolated:
        lines.append(
            "faces with no connection: "
            + ", ".join(_idx_set(face.ray_indices) for face in isolated)
        )
    return payload, lines


def _cmd_luna(args):
    ws = _load_weight_system(args.file)
    strata = luna_strata(ws)
    payload = {
        "schema": 1,
        **_weights_payload(ws),
        "strata": [
            {
                "dim": s.dim,
                "structure": s.structure.describe(),
                "subgroup_basis": [list(b) for b in s.subgroup.basis],
                "supports": [list(sup) for sup in s.supports],
            }
            for s in strata
        ],
    }
    lines = [
        f"character group {ws.group.describe()}, {ws.ncoordinates} weights",
        f"Luna strata ({len(strata)}), by descending dimension:",
    ]
    for i, s in enumerate(strata):
        lines.append(
            f"  stratum {i}: dim {s.dim}, stabilizer characters generate "
            f"{s.structure.describe()}"
        )
        lines.append("    supports: " + " ".join(_idx_set(sup) for sup in s.supports))
    return payload, lines


def _cmd_stable(args):
    ws = _load_weight_system(args.file)
    report = check_strongly_stable(ws)
    payload = {
        "schema": 1,
        **_weights_payload(ws),
        "stable": report.stable,
        "failures": [{"support": list(f.support), "reason": f.reason} for f in report.failures],
    }
    lines = []
    if report.stable:
        lines.append("strongly stable: yes")
        try:
            dual = _gale_dual(ws)  # the report above holds it stable
        except InputError as exc:
            payload["dual_cone"] = None
            lines.append(f"dual cone: not available ({exc})")
        else:
            payload["dual_cone"] = _cone_payload(dual.cone)
            lines.append(
                f"dual cone: rank {dual.cone.ambient_rank}, rays "
                + " ".join(_vec(r) for r in dual.cone.rays)
            )
    else:
        lines.append("strongly stable: no")
        for f in report.failures:
            lines.append(f"  support {_idx_set(f.support)}: {f.reason}")
    return payload, lines


def _cmd_classgroup(args):
    cone = _load_pointed_cone(args)
    toric = build_toric(cone)
    entries = face_orbit_data(toric).values()
    payload = {
        "schema": 1,
        "cone": _cone_payload(cone),
        **_class_payload(toric.class_group, toric.divisor_classes),
        "faces": [
            {
                "rays": list(d.face.ray_indices),
                "orbit_dim": d.orbit_dim,
                "local_class_group": d.local_class_group.describe(),
                "smooth": d.smooth,
            }
            for d in entries
        ],
    }
    lines = [*_class_text(toric.class_group, toric.divisor_classes), "local class groups by face:"]
    for d in entries:
        word = "smooth" if d.smooth else "singular"
        lines.append(
            f"  face {_idx_set(d.face.ray_indices)}: orbit dim {d.orbit_dim}, "
            f"local class group {d.local_class_group.describe()}, {word}"
        )
    return payload, lines


# ---------------------------------------------------------------------------
# parser


# Each command: its name, its handler, whether its input is a cone file (which
# takes --normalize), and its help line.
_COMMANDS = (
    ("stratify", _cmd_stratify, True,
     "full orbit decomposition of the variety of a cone, cross-validated"),
    ("roots", _cmd_roots, True, "enumerate roots of a cone within a box"),
    ("connections", _cmd_connections, True,
     "decide which orbit pairs a one-parameter subgroup connects"),
    ("luna", _cmd_luna, False, "Luna strata of a diagonal quasitorus action (weight file)"),
    ("stable", _cmd_stable, False,
     "check strong stability of a weight system and rebuild its cone"),
    ("classgroup", _cmd_classgroup, True, "divisor class group and local class groups of a cone"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toricstrata",
        description=(
            "Exact orbit decomposition of affine toric varieties, with "
            "divisor class groups, roots, and one-parameter connections."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, handler, cone_input, help_line in _COMMANDS:
        p = sub.add_parser(name, help=help_line)
        p.add_argument("file", help="input JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        if cone_input:
            p.add_argument(
                "--normalize",
                action="store_true",
                help="accept non-primitive ray generators by scaling them down",
            )
        p.set_defaults(handler=handler)
    sub.choices["roots"].add_argument(
        "--bound",
        type=int,
        default=None,
        metavar="N",
        help="coordinate box to enumerate (default: 10 times the largest ray coordinate)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines = args.handler(args)
    except InputError as exc:
        # every handler reads one input file, named once here for any refusal
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
