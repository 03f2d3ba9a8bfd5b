"""Command line interface: output formats, exit codes, error reporting."""

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from toricstrata import cli, luna
from toricstrata.cli import _COMMANDS, main

from oracles import cyclic_rays


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# happy paths


def test_stratify_text_output(capsys, fixture_path):
    code, out, err = run_cli(capsys, "stratify", fixture_path("cone_rank3.json"))
    assert code == 0 and err == ""
    assert "class group: Z/4" in out
    assert "strata (3), by descending dimension" in out
    assert "stratum 0: dim 3, subgroup Z/4, local class group 0, smooth" in out
    assert "closure order on strata (lower < upper): 1 < 0, 2 < 1" in out
    assert "7 connected, 5 certified impossible" in out
    assert "components match strata: yes" in out


def test_stratify_json_output_is_canonical(capsys, fixture_path):
    code, first, err = run_cli(
        capsys, "stratify", fixture_path("cone_rank3.json"), "--format", "json"
    )
    assert code == 0 and err == ""
    code, second, _ = run_cli(
        capsys, "stratify", fixture_path("cone_rank3.json"), "--format", "json"
    )
    assert code == 0
    assert first == second  # byte-identical reruns
    payload = json.loads(first)
    assert first == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["schema"] == 1
    assert payload["class_group"]["name"] == "Z/4"
    assert [s["dim"] for s in payload["strata"]] == [3, 1, 0]
    assert payload["checks"]["subgroup_vs_luna"] is True
    assert payload["checks"]["connections_equal"] is True
    assert payload["closure"] == [[1, 0], [2, 1]]
    assert payload["warnings"] == []


def test_stratify_of_a_rayless_cone_file(capsys, tmp_path):
    path = write_json(tmp_path, "torus.json", {"schema": 1, "rank": 3, "rays": []})
    code, out, _ = run_cli(capsys, "stratify", path, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "ambient_rank": 3,
        "checks": {
            "connections_equal": True,
            "connections_refine": True,
            "semigroup_verified": True,
            "smooth_iff_trivial_local_class": True,
            "subgroup_vs_luna": True,
        },
        "class_group": {"free_rank": 0, "name": "0", "torsion": []},
        "closure": [],
        "cone": {"rank": 0, "rays": []},
        "connections": {"verdicts": []},
        "divisor_classes": [],
        "input_rays": [],
        "schema": 1,
        "strata": [
            {
                "dim": 3,
                "faces": [[]],
                "index": 0,
                "local_class_group": "0",
                "orbit_dims": [3],
                "smooth": True,
                "structure": "0",
                "subgroup_basis": [],
            }
        ],
        "torus_rank": 3,
        "warnings": [],
    }


def test_stratify_splits_torus_factors(capsys, tmp_path):
    path = write_json(
        tmp_path, "degen.json", {"schema": 1, "rank": 2, "rays": [[1, 0]]}
    )
    code, out, _ = run_cli(capsys, "stratify", path)
    assert code == 0
    assert "ambient rank 2, torus factor 1" in out


def test_roots_text_output(capsys, fixture_path):
    code, out, _ = run_cli(
        capsys, "roots", fixture_path("cone_a1.json"), "--bound", "2"
    )
    assert code == 0
    assert "ray 0 = (1, 0): 2 found" in out
    assert "(-1, 1)" in out and "(-1, 2)" in out
    assert "ray 1 = (1, 2): 1 found" in out


def test_roots_json_output(capsys, fixture_path):
    code, out, _ = run_cli(
        capsys,
        "roots",
        fixture_path("cone_a1.json"),
        "--bound",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    vectors = {
        entry["ray_index"]: [tuple(r) for r in entry["roots"]]
        for entry in payload["groups"]
    }
    assert vectors == {0: [(-1, 1), (-1, 2)], 1: [(1, -1)]}
    assert payload["box_bound"] == 2


def test_roots_refuses_a_default_box_over_the_work_limit(capsys, tmp_path):
    # the default bound 110 holds about 2.5 million roots of the first ray
    rays = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 11, 1]]
    path = write_json(tmp_path, "big.json", {"schema": 1, "rank": 4, "rays": rays})
    code, out, err = run_cli(capsys, "roots", path)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: lattice listing: ")
    assert err.endswith(" steps pass the work limit MAX_WORK = 2097152\n")


def test_luna_refuses_a_closure_of_new_unions_within_a_second(capsys, fixture_path):
    # The weights -30..30 other than 0 in Z have 900 positive circuits, the
    # pairs of opposite signs, and most of their unions are new.  The union
    # closure joins 2,331 closed sets with all 900 before it is refused
    # (about 0.3 s on a 2-core x86_64 host, Python 3.11).
    path = fixture_path("weights_z_60.json")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "luna", path)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == f"error: {path}: union closure: {2_331 * 900} steps pass the work limit MAX_WORK = 2097152\n"


@pytest.mark.parametrize("command", ["luna", "stable"])
def test_many_weights_are_refused_before_the_gale_fold(capsys, tmp_path, monkeypatch, command):
    # The weights 1..3000 and -1 in Z: the Gale dimension is at least the
    # number of parts less the free rank, so the fold is charged first.
    def fold(*args):
        raise AssertionError("the Gale kernel was folded")

    monkeypatch.setattr(luna, "_kernel", fold)
    weights = [[k] for k in range(1, 3001)] + [[-1]]
    path = write_json(tmp_path, "many.json", {"schema": 1, "free_rank": 1, "torsion": [], "weights": weights})
    code, out, err = run_cli(capsys, command, path)
    assert code == 1 and out == ""
    assert err == f"error: {path}: double description: {3000**3} steps pass the work limit MAX_WORK = 2097152\n"


def test_every_command_names_the_input_file_once(capsys, tmp_path, fixture_path):
    # Each command loads its file and is then refused by the work limit, at
    # the stage named after the file: main names the file once for all.
    cyclic = write_json(tmp_path, "cyclic.json", {"schema": 1, "rank": 8, "rays": cyclic_rays(8, range(16))})
    box = write_json(tmp_path, "box.json", {"schema": 1, "rank": 2, "rays": [[1, 0], [0, 1]]})
    weights = [[k] for k in range(-70, 71) if k]
    many = write_json(tmp_path, "many.json", {"schema": 1, "free_rank": 1, "torsion": [], "weights": weights})
    cases = [
        ("stratify", cyclic, "face walk"),
        ("connections", cyclic, "face walk"),
        ("classgroup", cyclic, "face walk"),
        ("roots", box, "lattice listing"),
        ("luna", fixture_path("weights_z2_20.json"), "union closure"),
        ("stable", many, "double description"),
    ]
    assert sorted(command for command, _, _ in cases) == sorted(name for name, *_ in _COMMANDS)
    for command, path, stage in cases:
        extra = ["--bound", "2000000"] if command == "roots" else []
        code, out, err = run_cli(capsys, command, path, *extra)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: {stage}: "), err
        assert err.count(path) == 1


def test_connections_text_output(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "connections", fixture_path("cone_a1.json"))
    assert code == 0
    assert "{} -> {0}: yes" in out
    assert "{0} -> {0,1}: no (integral-equalities)" in out
    assert "faces with no connection: {0,1}" in out


def test_luna_text_output(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "luna", fixture_path("weights_k7.json"))
    assert code == 0
    assert "character group Z^2, 7 weights" in out
    assert "Luna strata (3), by descending dimension" in out
    assert "stratum 0: dim 5, stabilizer characters generate Z^2" in out
    assert "stratum 1: dim 2, stabilizer characters generate Z" in out
    assert "stratum 2: dim 0, stabilizer characters generate 0" in out


def test_luna_json_output(capsys, fixture_path):
    code, out, _ = run_cli(
        capsys, "luna", fixture_path("weights_k7.json"), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [s["dim"] for s in payload["strata"]] == [5, 2, 0]
    assert [s["structure"] for s in payload["strata"]] == ["Z^2", "Z", "0"]


def test_stable_reports_stable_with_the_dual_cone(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "stable", fixture_path("weights_k7.json"))
    assert code == 0
    assert "strongly stable: yes" in out
    assert "dual cone: rank 5," in out


def test_stable_checks_stability_once(capsys, fixture_path, monkeypatch):
    # the report the command prints is the one the Gale dual relies on
    calls = []
    real = luna.check_strongly_stable

    def counted(ws):
        calls.append(ws)
        return real(ws)

    monkeypatch.setattr(luna, "check_strongly_stable", counted)
    monkeypatch.setattr(cli, "check_strongly_stable", counted)
    code, out, _ = run_cli(capsys, "stable", fixture_path("weights_k7.json"))
    assert code == 0 and "dual cone: rank 5," in out
    assert len(calls) == 1


def test_stable_refuses_the_dual_cone_of_many_weights_within_a_second(capsys, tmp_path):
    # 700 copies of the weight 1 and 701 of -1 in Z are strongly stable;
    # their dual cone's first saturation, 1,401 rays in rank 1,400, is
    # refused before the Gale fold.  Checking stability twice and folding
    # first took 6.0 s and 80 MB (2-core x86_64 host, Python 3.11).
    weights = [[1]] * 700 + [[-1]] * 701
    path = write_json(tmp_path, "stable.json", {"schema": 1, "free_rank": 1, "torsion": [], "weights": weights})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "stable", path)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert out == (
        "strongly stable: yes\n"
        "dual cone: not available (weights do not present a pointed cone: saturation:"
        " 2745960000 steps pass the work limit MAX_WORK = 2097152)\n"
    )


def test_stable_answers_many_repeated_weights_within_a_second(capsys, tmp_path):
    # 20,000 copies of the weight 1 and one -1 in Z: the support without
    # the -1 is not closed.  Charging every support by its indices refused
    # them at 400,060,002 steps.
    weights = [[1]] * 20_000 + [[-1]]
    path = write_json(tmp_path, "stable.json", {"schema": 1, "free_rank": 1, "torsion": [], "weights": weights})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "stable", path)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert out.startswith("strongly stable: no\n")
    assert out.count("orbit-not-closed") == 1 and "stabilizer-nontrivial" not in out


def test_stable_reports_failures(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "unstable.json",
        {"schema": 1, "free_rank": 1, "torsion": [], "weights": [[1], [1]]},
    )
    code, out, _ = run_cli(capsys, "stable", path)
    assert code == 0
    assert "strongly stable: no" in out
    assert "orbit-not-closed" in out


def test_classgroup_text_output(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "classgroup", fixture_path("cone_rank3.json"))
    assert code == 0
    assert "class group: Z/4" in out
    assert "face {0,1}: orbit dim 1, local class group Z/2, singular" in out
    assert "face {0,1,2}: orbit dim 0, local class group Z/4, singular" in out


def test_quadrant_classgroup_is_trivial(capsys, fixture_path):
    code, out, _ = run_cli(
        capsys, "classgroup", fixture_path("cone_quadrant2.json")
    )
    assert code == 0
    assert "class group: 0" in out
    assert "singular" not in out


# The output of each fixture, byte for byte, witnesses and certificates
# included.  Each file tests/golden/<name>.<command>.json is one case,
# written by
#   python -m toricstrata.cli <command> tests/fixtures/<name>.json --format json
# and its text output is in tests/golden/<name>.<command>.txt, written by
#   python -m toricstrata.cli <command> tests/fixtures/<name>.json
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = sorted(tuple(path.name.split(".")[:2]) for path in GOLDEN.glob("*.*.json"))
TEXT_GOLDEN_CASES = sorted(tuple(path.name.split(".")[:2]) for path in GOLDEN.glob("*.*.txt"))


def test_the_golden_cases_are_found():
    # an empty glob would leave the golden tests below with no case to run
    assert len(GOLDEN_CASES) >= 21
    assert TEXT_GOLDEN_CASES == GOLDEN_CASES


@pytest.mark.parametrize("name, command", GOLDEN_CASES)
def test_json_output_matches_the_golden_bytes(capsys, fixture_path, name, command):
    code, out, err = run_cli(capsys, command, fixture_path(f"{name}.json"), "--format", "json")
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / f"{name}.{command}.json").read_bytes()


@pytest.mark.parametrize("name, command", TEXT_GOLDEN_CASES)
def test_text_output_matches_the_golden_bytes(capsys, fixture_path, name, command):
    code, out, err = run_cli(capsys, command, fixture_path(f"{name}.json"))
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / f"{name}.{command}.txt").read_bytes()


# ---------------------------------------------------------------------------
# no search bounds outside roots


@pytest.mark.parametrize(
    "name", ["cone_a1.json", "cone_quadrant2.json", "cone_rank3.json"]
)
def test_connections_are_all_decided(capsys, fixture_path, name):
    code, out, err = run_cli(
        capsys, "connections", fixture_path(name), "--format", "json"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert "box_bound" not in payload
    assert {v["status"] for v in payload["verdicts"]} <= {"yes", "no"}
    assert all(entry["fully_certified"] for entry in payload["isolated"])


@pytest.mark.parametrize(
    "argv",
    [
        ["connections", "--strict"],
        ["stratify", "--coeff-bound", "16"],
        ["stratify", "--bound", "20"],
        ["connections", "--bound", "20"],
    ],
    ids=["strict", "coeff-bound", "stratify-bound", "connections-bound"],
)
def test_removed_search_flags_are_rejected(capsys, fixture_path, argv):
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        main([command, fixture_path("cone_a1.json"), *flags])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# errors


def test_missing_file_reports_cleanly(capsys):
    code, out, err = run_cli(capsys, "stratify", "/nonexistent/f.json")
    assert code == 1 and out == ""
    assert "file not found" in err


@pytest.mark.parametrize(
    "name, errno_code",
    [("a" * 300 + ".json", errno.ENAMETOOLONG), ("cone_a1.json/x", errno.ENOTDIR)],
    ids=["name-too-long", "file-as-directory"],
)
def test_a_path_the_system_refuses_is_an_input_error(capsys, fixture_path, name, errno_code):
    path = fixture_path(name)
    code, out, err = run_cli(capsys, "stratify", path)
    assert code == 1 and out == ""
    assert err == f"error: {path}: {os.strerror(errno_code)}\n"
    assert "Traceback" not in err


def test_invalid_json_reports_position(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{bad")
    code, _, err = run_cli(capsys, "stratify", str(path))
    assert code == 1
    assert "invalid JSON at line 1" in err


@pytest.mark.parametrize(
    "content",
    [b'{"schema": 1, "rank": 2, "rays": [[1, 0]], "note": "\xff"}',
     b'{"schema": 1, "rank": ' + b"9" * 5000 + b', "rays": []}',
     b"[" * 100000],
    ids=["non-utf8", "huge-integer", "deep-nesting"],
)
def test_unreadable_json_is_an_input_error(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "stratify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(path) in err


def test_wrong_schema_is_rejected(capsys, tmp_path):
    path = write_json(
        tmp_path, "schema.json", {"schema": 2, "rank": 2, "rays": [[1, 0]]}
    )
    code, _, err = run_cli(capsys, "classgroup", path)
    assert code == 1
    assert 'expected "schema": 1' in err


def test_missing_key_is_rejected(capsys, tmp_path):
    path = write_json(tmp_path, "nokey.json", {"schema": 1, "rays": [[1, 0]]})
    code, _, err = run_cli(capsys, "classgroup", path)
    assert code == 1
    assert 'missing required key "rank"' in err


def test_non_integer_entries_are_rejected(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "floats.json",
        {"schema": 1, "rank": 2, "rays": [[1, 0], [0, 1.5]]},
    )
    code, _, err = run_cli(capsys, "classgroup", path)
    assert code == 1
    assert "rays[1][1] must be an integer" in err


def test_degenerate_cone_points_to_stratify(capsys, tmp_path):
    path = write_json(
        tmp_path, "degen.json", {"schema": 1, "rank": 2, "rays": [[1, 0]]}
    )
    for command in ("roots", "connections", "classgroup"):
        code, _, err = run_cli(capsys, command, path)
        assert code == 1
        assert "stratify" in err


@pytest.mark.parametrize("command", ["stratify", "roots", "connections", "classgroup"])
def test_ragged_rays_name_the_ray(capsys, tmp_path, command):
    path = write_json(
        tmp_path, "ragged.json", {"schema": 1, "rank": 2, "rays": [[1, 0], [1]]}
    )
    code, _, err = run_cli(capsys, command, path)
    assert code == 1
    assert f"{path}: ray #1 has 1 coordinates, expected 2" in err


@pytest.mark.parametrize("command", ["luna", "stable"])
def test_invalid_weight_group_names_the_file(capsys, tmp_path, command):
    path = write_json(
        tmp_path,
        "w.json",
        {"schema": 1, "free_rank": 1, "torsion": [1], "weights": [[1, 0]]},
    )
    code, _, err = run_cli(capsys, command, path)
    assert code == 1
    assert f"{path}: torsion orders must be integers >= 2" in err


def test_invalid_ray_data_is_rejected(capsys, tmp_path):
    path = write_json(
        tmp_path, "zero.json", {"schema": 1, "rank": 2, "rays": [[0, 0]]}
    )
    code, _, err = run_cli(capsys, "stratify", path)
    assert code == 1 and "error:" in err


def test_empty_weight_file_is_rejected(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "w.json",
        {"schema": 1, "free_rank": 1, "torsion": [], "weights": []},
    )
    code, _, err = run_cli(capsys, "luna", path)
    assert code == 1
    assert "at least one weight" in err


def test_negative_bound_is_rejected(capsys, fixture_path):
    # enumerate_roots refuses the bound; the command has no check of its own
    path = fixture_path("cone_a1.json")
    code, _, err = run_cli(capsys, "roots", path, "--bound", "-1")
    assert code == 1
    assert err == f"error: {path}: box bound must be a nonnegative integer\n"


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 1


def test_invalid_format_choice_exits_one(capsys, fixture_path):
    with pytest.raises(SystemExit) as exc:
        main(["stratify", fixture_path("cone_a1.json"), "--format", "yaml"])
    assert exc.value.code == 1


def test_normalize_flag_accepts_scaled_rays(capsys, tmp_path):
    path = write_json(
        tmp_path, "scaled.json", {"schema": 1, "rank": 2, "rays": [[2, 0], [0, 3]]}
    )
    code, _, err = run_cli(capsys, "stratify", path)
    assert code == 1 and "not primitive" in err
    code, out, _ = run_cli(capsys, "stratify", path, "--normalize")
    assert code == 0
    assert "ray 0: (1, 0)" in out


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation_round_trip(fixture_path):
    result = subprocess.run(
        [sys.executable, "-m", "toricstrata.cli", "classgroup",
         fixture_path("cone_a1.json"), "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["class_group"]["name"] == "Z/2"
