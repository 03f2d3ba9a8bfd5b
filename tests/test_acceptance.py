"""Acceptance gate: the eight headline guarantees, one test each.

Each test prints a single summarizing PASS line (shown by ``-rA``) after
its assertions succeed, so the suite output documents the guarantees and
the measured rates and runtimes.
"""

import json
import random
import time

import toricstrata as ts
from toricstrata.cli import main
from toricstrata.linalg import IntMatrix

from oracles import (
    brute_force_roots,
    det_int,
    hermite_with_transform,
    in_triangular_row_lattice,
    permutation_equivalent,
    random_matrix,
    snf_diagonal_by_minors,
)


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_acceptance_1_three_strata_of_the_two_torus_on_seven_space(
    capsys, fixture_path
):
    start = time.perf_counter()
    luna = run_json(capsys, "luna", fixture_path("weights_k7.json"))
    stable = run_json(capsys, "stable", fixture_path("weights_k7.json"))
    elapsed = time.perf_counter() - start

    strata = luna["strata"]
    assert len(strata) == 3
    assert [s["dim"] for s in strata] == [5, 2, 0]
    assert [s["structure"] for s in strata] == ["Z^2", "Z", "0"]
    # the middle stabilizer subgroup is the first factor of Z^2
    assert strata[1]["subgroup_basis"] == [[1, 0]]
    assert stable["stable"] is True
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1 PASS: seven-coordinate quotient has strata of dims "
        f"5/2/0 with stabilizers Z^2, Z x 0, 0 and is stable "
        f"({elapsed * 1000:.0f} ms)"
    )


def test_acceptance_2_cyclic_quotient_verdicts_and_strata(capsys, fixture_path):
    start = time.perf_counter()
    report = ts.stratify(3, [(1, 0, 0), (1, 2, 0), (0, 1, 2)])
    elapsed = time.perf_counter() - start

    assert report.class_group.describe() == "Z/4"
    graph = report.connections
    by_pair = {
        (graph.faces[i1].ray_indices, graph.faces[i2].ray_indices): v
        for i1, i2, v in graph.verdicts
    }
    for pair in (((0, 1), (0, 1, 2)), ((0,), (0, 1)), ((1,), (0, 1))):
        verdict = by_pair[pair]
        assert verdict.status == "no"
        assert verdict.certificate == "integral-equalities"
    isolated = set(ts.isolated_faces(graph))
    assert {f.ray_indices for f in isolated} == {(0, 1), (0, 1, 2)}
    touching = [v for i1, i2, v in graph.verdicts if {graph.faces[i1], graph.faces[i2]} & isolated]
    assert touching and all(v.status == "no" and v.certificate for v in touching)
    assert [s.dim for s in report.strata] == [3, 1, 0]
    assert [s.structure.describe() for s in report.strata] == ["Z/4", "Z/2", "0"]
    assert [s.local_class_group.describe() for s in report.strata] == [
        "0",
        "Z/2",
        "Z/4",
    ]
    assert report.closure == ((1, 0), (2, 1))
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 2 PASS: rank-3 cyclic quotient — class group Z/4, the "
        f"three impossible transitions certified by integral equalities, "
        f"both singular faces isolated with certificates, strata 3/1/0 "
        f"({elapsed * 1000:.0f} ms)"
    )


def test_acceptance_3_quadric_cone_decomposition():
    report = ts.stratify(2, [(1, 0), (1, 2)])
    assert report.class_group.describe() == "Z/2"
    assert [s.dim for s in report.strata] == [2, 0]
    assert len(report.strata) == 2
    graph = report.connections
    by_pair = {
        (graph.faces[i1].ray_indices, graph.faces[i2].ray_indices): v
        for i1, i2, v in graph.verdicts
    }
    assert by_pair[((), (0,))].status == "yes"
    assert by_pair[((), (1,))].status == "yes"
    for pair in (((0,), (0, 1)), ((1,), (0, 1))):
        assert by_pair[pair].status == "no"
        assert by_pair[pair].certificate == "integral-equalities"
    print(
        "ACCEPTANCE 3 PASS: quadric cone — class group Z/2, principal and "
        "fixed-point strata, apex-ray connections yes, ray-vertex certified no"
    )


def test_acceptance_4_three_route_agreement_on_random_cones(
    suite_cones, suite_reports
):
    reports, elapsed = suite_reports
    assert len(reports) >= 200
    for cone, report in zip(suite_cones, reports):
        checks = report.cross_checks
        assert checks.subgroup_vs_luna  # route A == route B, zero tolerance
        assert checks.connections_refine  # route C never crosses route A
        assert checks.connections_equal is True  # route C reproduces route A
        assert checks.smooth_iff_trivial_local_class
        principal = report.strata[0]
        smooth_faces = {
            f.ray_indices
            for f in ts.face_lattice(report.cone)
            if ts.is_smooth_face(report.cone, f)
        }
        assert {f.ray_indices for f in principal.faces} == smooth_faces
        # the face <-> closed-support bridge re-verified outside the engine
        toric = ts.build_toric(cone)
        bridge = ts.face_support_bridge(toric)
        assert len(bridge) == len(toric.faces)
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 4 PASS: {len(reports)} random cones — divisor-subgroup "
        f"and Luna routes agree, connection components reproduce them, principal stratum "
        f"is the smooth locus, bridge verified ({elapsed:.1f} s total)"
    )


def test_acceptance_5_semigroup_generation_never_refutes(suite_cones):
    # For every face, each -[D_i] with i off the face must be a nonnegative
    # combination of the classes off the face (the dset).  semigroup_member
    # decides that by its own integer search and re-checks its witness, so
    # the check does not rest on the face functional of the face table.
    checks = 0
    refuted = []
    for cone in suite_cones:
        toric = ts.build_toric(cone)
        for face in toric.faces:
            dset = [
                c for i, c in enumerate(toric.divisor_classes) if i not in face.ray_indices
            ]
            for d in dset:
                checks += 1
                if not ts.semigroup_member(toric.class_group, dset, -d).is_yes():
                    refuted.append((cone.rays, face.ray_indices, d.coords))
    assert not refuted, f"{len(refuted)}/{checks} inverses refuted, first {refuted[0]}"
    print(
        f"ACCEPTANCE 5 PASS: every inverse of a dset class lies in the semigroup "
        f"of the dset on all {checks} checks over the faces of the "
        f"{len(suite_cones)} suite cones"
    )


def test_acceptance_6_gale_round_trip_on_every_suite_instance(suite_cones):
    def pairing_matrix(cone):
        normals = ts.facet_normals(cone)
        return [
            [sum(a * b for a, b in zip(ray, u)) for u in normals]
            for ray in cone.rays
        ]

    for cone in suite_cones:
        toric = ts.build_toric(cone)
        dual = ts.gale_dual(ts.cox_weight_system(toric))
        rebuilt = ts.build_toric(dual.cone)
        assert rebuilt.class_group.describe() == toric.class_group.describe()
        assert permutation_equivalent(
            pairing_matrix(cone), pairing_matrix(dual.cone)
        ), cone.rays
    print(
        f"ACCEPTANCE 6 PASS: Gale duality of the characteristic weights "
        f"reproduced the ray-facet pairing matrix (up to permutation) and "
        f"the class group on all {len(suite_cones)} suite instances"
    )


def test_acceptance_7_normal_forms_match_the_minor_gcd_oracle():
    rng = random.Random(77)
    start = time.perf_counter()
    for _ in range(500):
        rows = random_matrix(rng, max_dim=6, entry=10)
        a = IntMatrix.from_rows(rows)
        u, s, v = ts.smith_normal_form(a)
        assert (u @ a @ v).entries == s.entries
        assert abs(det_int(u.entries)) == 1
        assert abs(det_int(v.entries)) == 1
        diag = [s.entries[i][i] for i in range(min(a.rows, a.cols))]
        assert diag == snf_diagonal_by_minors(rows, a.cols)
        h, w = hermite_with_transform(ts, a)
        assert (w @ a).entries == h.entries
        assert abs(det_int(w.entries)) == 1
        for row in a.entries:
            assert in_triangular_row_lattice(h.entries, row)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 7 PASS: Smith form matched the gcd-of-minors oracle and "
        f"Hermite row lattices verified by mutual membership on 500 random "
        f"matrices ({elapsed:.1f} s)"
    )


def test_acceptance_8_quadrant_root_counts():
    for n in (2, 3):
        cone = ts.build_cone(
            n, [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
        )
        for bound in (1, 2, 3):
            per_ray = ts.enumerate_roots(cone, bound)
            scanned = brute_force_roots(cone, bound)
            for i, roots in enumerate(per_ray):
                assert len(roots) == (bound + 1) ** (n - 1)
                assert [r.vector for r in roots] == scanned[i]
    print(
        "ACCEPTANCE 8 PASS: quadrant root counts equal (B+1)^(n-1) per ray "
        "for n = 2, 3 and B <= 3, matching the brute-force scan"
    )
