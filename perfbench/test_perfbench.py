"""Tests of the benchmark itself:  PYTHONPATH=src python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from worker import examine_all  # noqa: E402

ts = pytest.importorskip("toricstrata")


def test_self_and_busy_time_of_nested_spans():
    # a [0,10] calls b [1,4] (which calls c [2,3]) and b [5,9] (which
    # recursively calls b [6,7]).
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b", 6.0, 7.0, 3),
    ]
    stats = layertrace.summarize(spans)
    assert stats["a"] == (1, 10.0, 3.0)
    assert stats["b"] == (3, 7.0, 6.0)
    assert stats["c"] == (1, 1.0, 1.0)
    assert sum(s for _, _, s in stats.values()) == 10.0


def test_tracer_patches_every_binding_and_restores_them():
    original = ts.linalg.smith_normal_form
    with layertrace.Tracer() as tracer:
        assert ts.cones.smith_normal_form is not original
        assert ts.abelian.smith_normal_form is ts.cones.smith_normal_form
        ts.stratify(2, [(1, 0), (1, 2)])
    assert ts.cones.smith_normal_form is original
    assert ts.abelian.smith_normal_form is original
    metrics = tracer.metrics()
    assert metrics["engine.stratify.calls"] == (1, "count")
    assert metrics["linalg.smith_normal_form.calls"][0] > 0
    total_self = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert total_self <= metrics["engine.stratify.busy_s"][0] + 1e-9


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    first = workloads.generate(workload, 11, 1)
    assert first == workloads.generate(workload, 11, 1)
    assert workloads.digest(workload, first) == workloads.digest(workload, workloads.generate(workload, 11, 1))
    assert first != workloads.generate(workload, 12, 1)
    assert first != workloads.generate(workload, 11, 0)


def test_default_seed_inputs_match_the_reference_and_the_test_suite():
    for workload in workloads.WORKLOADS:
        ref = json.loads((check.REFERENCE_DIR / f"{workload}.json").read_text())
        for part, recorded in enumerate(ref["passes"]):
            inputs = workloads.generate(workload, ref["seed"], part)
            assert workloads.digest(workload, inputs) == recorded["input_digest"]
    oracles = ROOT / "tests" / "oracles.py"
    if oracles.exists():
        sys.path.insert(0, str(oracles.parent))
        from oracles import sample_cones

        expected = [(c.ambient_rank, c.rays) for c in sample_cones(ts, workloads.DEFAULT_SEED, 200)]
        assert workloads.generate("suite200", workloads.DEFAULT_SEED) == expected


def _first_suite_item():
    seed = workloads.DEFAULT_SEED
    items = workloads.generate("suite200", seed)[:1]
    digest = check.load_reference("suite200", seed, 0)["input_digest"]
    return seed, items, digest, ts.stratify(*items[0])


def test_output_check_accepts_the_real_report():
    seed, items, digest, report = _first_suite_item()
    ok, _, problems = examine_all("suite200", seed, 0, items, [report], digest)
    assert ok == [True] and problems == []


def test_output_check_flags_a_tampered_report():
    seed, items, digest, report = _first_suite_item()
    group = dataclasses.replace(report.class_group, torsion=(2,))
    tampered = dataclasses.replace(report, class_group=group)
    ok, _, problems = examine_all("suite200", seed, 0, items, [tampered], digest)
    assert ok == [False] and "reference" in problems[0]

    # Moving a face out of its stratum breaks invariants that need no reference.
    strata = list(report.strata)
    strata[0] = dataclasses.replace(strata[0], faces=strata[0].faces[:-1])
    tampered = dataclasses.replace(report, strata=tuple(strata))
    problems, _, _ = check.examine("suite200", items[0], tampered, workloads.ROOTS_BOUND)
    assert any("partition" in p for p in problems)


def test_output_check_flags_a_missing_root():
    rank, rays = next(c for c in workloads.generate("suite200", 3) if c[0] <= 3)
    groups = ts.enumerate_roots(ts.build_cone(rank, rays), 8)
    assert check.roots_problems(rank, rays, groups, 8) == []
    short = (groups[0][1:],) + groups[1:]
    assert check.roots_problems(rank, rays, short, 8)


def test_output_check_flags_tampered_cli_output():
    shown = (0, '{"class_group": {"free_rank": 0}, "box_bound": 3}')
    assert check.cli_record(shown) == check.cli_record((0, '{"class_group": {"free_rank": 0}}'))
    assert check.cli_record(shown) != check.cli_record((0, '{"class_group": {"free_rank": 1}}'))
    assert check.cli_problems((1, "")) == ["exit code 1"]
