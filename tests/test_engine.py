"""The cross-validated stratification pipeline end to end."""

import dataclasses
import json
import sys

import pytest

import toricstrata as ts
from toricstrata import stratify

from oracles import closure_by_containment, cyclic_rays, sample_cones, sixteen_gon_rays, twelve_gon_rays


RANK3_RAYS = [(1, 0, 0), (1, 2, 0), (0, 1, 2)]


# ---------------------------------------------------------------------------
# reference decompositions


def test_stratification_of_the_cyclic_quotient_singularity():
    report = stratify(3, RANK3_RAYS)
    assert report.class_group.describe() == "Z/4"
    assert report.torus_rank == 0
    assert [s.dim for s in report.strata] == [3, 1, 0]
    assert [s.structure.describe() for s in report.strata] == ["Z/4", "Z/2", "0"]
    assert [s.local_class_group.describe() for s in report.strata] == [
        "0",
        "Z/2",
        "Z/4",
    ]
    assert [s.smooth for s in report.strata] == [True, False, False]
    principal = report.strata[0]
    assert [f.ray_indices for f in principal.faces] == [
        (),
        (0,),
        (1,),
        (2,),
        (0, 2),
        (1, 2),
    ]
    assert principal.orbit_dims == (3, 2, 2, 2, 1, 1)
    assert [f.ray_indices for f in report.strata[1].faces] == [(0, 1)]
    assert [f.ray_indices for f in report.strata[2].faces] == [(0, 1, 2)]
    # closure chain 0 < Z/2 < Z/4 as covering edges on stratum indices
    assert report.closure == ((1, 0), (2, 1))
    checks = report.cross_checks
    assert checks.subgroup_vs_luna
    assert checks.connections_refine
    assert checks.connections_equal is True
    assert checks.semigroup_verified
    assert checks.smooth_iff_trivial_local_class


def test_stratification_of_the_quadric_cone():
    report = stratify(2, [(1, 0), (1, 2)])
    assert report.class_group.describe() == "Z/2"
    assert [s.dim for s in report.strata] == [2, 0]
    assert [f.ray_indices for f in report.strata[0].faces] == [(), (0,), (1,)]
    assert [f.ray_indices for f in report.strata[1].faces] == [(0, 1)]
    assert report.closure == ((1, 0),)
    assert report.cross_checks.connections_equal is True


def test_stratification_of_a_smooth_cone_is_a_single_stratum():
    report = stratify(2, [(1, 0), (0, 1)])
    assert report.class_group.describe() == "0"
    assert len(report.strata) == 1
    assert report.strata[0].dim == 2 and report.strata[0].smooth
    assert len(report.strata[0].faces) == 4
    assert report.closure == ()


# ---------------------------------------------------------------------------
# degenerate inputs


def test_stratify_splits_off_torus_factors():
    report = stratify(2, [(1, 0)])
    assert report.torus_rank == 1
    assert report.ambient_rank == 2
    assert report.input_rays == ((1, 0),)
    assert len(report.strata) == 1
    stratum = report.strata[0]
    assert stratum.dim == 2 and stratum.smooth
    assert [f.ray_indices for f in stratum.faces] == [(), (0,)]
    assert stratum.orbit_dims == (2, 1)


def test_stratify_reads_its_rays_once():
    report = stratify(2, (ray for ray in [(1, 0), (1, 2)]))
    assert report.input_rays == ((1, 0), (1, 2))
    assert report.cone.rays == ((1, 0), (1, 2))


def facet_scans(monkeypatch):
    """The cones the private facet scan runs on, from now on."""
    scanned = []
    scan = ts.cones._facet_scan
    monkeypatch.setattr(ts.cones, "_facet_scan", lambda cone: scanned.append(cone) or scan(cone))
    return scanned


@pytest.mark.parametrize("name", ["skew_rank3.json", "cone_rank3.json"])
def test_stratify_scans_the_facets_once(fixture_path, name, monkeypatch):
    # A degenerate input is validated on its induced cone, so the facet scan
    # of the validation is the one the face walk reuses.
    with open(fixture_path(name)) as fh:
        data = json.load(fh)
    scanned = facet_scans(monkeypatch)
    report = stratify(data["rank"], data["rays"])
    assert len(scanned) == 1 and scanned[0] is report.cone


def test_a_built_cone_is_scanned_once_across_the_layers(fixture_path, monkeypatch):
    # build_cone returns the cone its validation scanned.
    with open(fixture_path("cone_rank3.json")) as fh:
        data = json.load(fh)
    scanned = facet_scans(monkeypatch)
    cone = ts.build_cone(data["rank"], data["rays"])
    ts.connection_graph(ts.build_toric(cone).cone)
    assert len(scanned) == 1 and scanned[0] is cone


def test_stratify_of_a_pure_torus():
    for k in range(4):
        report = stratify(k, [])
        assert report.ambient_rank == k and report.torus_rank == k
        assert report.input_rays == ()
        assert report.cone == ts.Cone(0, ())
        assert report.class_group == ts.FgAbGroup(0, ())
        assert report.divisor_classes == ()
        (stratum,) = report.strata
        assert stratum.index == 0
        assert stratum.faces == (ts.Face((), 0),)
        assert stratum.orbit_dims == (k,) and stratum.dim == k
        assert stratum.subgroup.basis == ()
        assert stratum.structure.is_trivial()
        assert stratum.local_class_group.is_trivial()
        assert stratum.smooth
        assert report.closure == ()
        assert report.connections.faces == (ts.Face((), 0),)
        assert report.connections.verdicts == ()
        assert report.cross_checks == ts.CrossChecks(True, True, True, True, True)


def test_lower_dimensional_errors_name_the_input_ray():
    with pytest.raises(ts.InputError) as err:
        stratify(3, [(1, 0, 2), (0, 1, 0), (1, 1, 2)])
    assert "ray #2 [1, 1, 2] is not extremal" in str(err.value)


SQUARE_RAYS = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


@pytest.mark.parametrize(
    "rays, corrupt",
    [
        (RANK3_RAYS, lambda supports: [s for s in supports if s != (0, 1, 2)]),
        # {0, 3} is the square's diagonal, not a face
        (SQUARE_RAYS, lambda supports: supports + [(1, 2)]),
        (RANK3_RAYS, lambda supports: supports + supports[:1]),
    ],
    ids=["dropped", "complements_no_face", "repeated"],
)
def test_luna_comparison_catches_a_face_complement_that_is_not_closed(monkeypatch, rays, corrupt):
    real = ts.luna._closed_supports
    monkeypatch.setattr(ts.luna, "_closed_supports", lambda ws: corrupt(real(ws)))
    with pytest.raises(ts.ConsistencyError, match="closed supports of the Cox weights are not"):
        stratify(3, rays)


def test_partition_check_catches_a_connection_across_strata(monkeypatch):
    stratum_of = {
        face: stratum.index
        for stratum in stratify(3, RANK3_RAYS).strata
        for face in stratum.faces
    }
    real = ts.engine.connection_graph

    def one_false_yes(cone):
        graph = real(cone)
        verdicts = list(graph.verdicts)
        k = next(
            k
            for k, (i1, i2, verdict) in enumerate(verdicts)
            if not verdict.is_yes()
            and stratum_of[graph.faces[i1]] != stratum_of[graph.faces[i2]]
        )
        verdicts[k] = (verdicts[k][0], verdicts[k][1], ts.ConnectionVerdict("yes"))
        return dataclasses.replace(graph, verdicts=tuple(verdicts))

    monkeypatch.setattr(ts.engine, "connection_graph", one_false_yes)
    with pytest.raises(ts.ConsistencyError, match="connection components do not match the strata"):
        stratify(3, RANK3_RAYS)


def test_stratify_solves_no_linear_program(monkeypatch, suite_cones, fixture_path):
    # Fourier-Motzkin elimination is reached only through _fm_chain and
    # rational_feasible; every module binding of either is made to fail.
    def refuse(*args, **kwargs):
        raise AssertionError("a linear program was solved")

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "toricstrata":
            continue
        for attr in ("_fm_chain", "rational_feasible"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
                patched.add(f"{name}.{attr}")
    assert {
        "toricstrata.rational_feasible",
        "toricstrata.linalg.rational_feasible",
        "toricstrata.linalg._fm_chain",
        "toricstrata.abelian._fm_chain",
    } <= patched
    with open(fixture_path("cone_rank3.json")) as handle:
        rank3 = json.load(handle)
    stratify(rank3["rank"], rank3["rays"])
    stratify(3, sixteen_gon_rays())
    for cone in suite_cones[:20]:
        stratify(cone.ambient_rank, cone.rays)
    with open(fixture_path("weights_k7.json")) as handle:
        k7 = json.load(handle)
    group = ts.FgAbGroup(k7["free_rank"], tuple(k7["torsion"]))
    assert len(ts.luna_strata(ts.weight_system(group, k7["weights"]))) == 3


def test_standalone_luna_strata_agree_with_stratify(suite_reports):
    # stratify only matches route two's closed supports with the face
    # complements; the luna command groups them by subgroups it computes
    # itself, and must find the same strata
    reports = list(suite_reports[0]) + [stratify(3, twelve_gon_rays())]
    assert len(reports[-1].cone.rays) == 12
    for report in reports:
        luna = ts.luna_strata(ts.cox_weight_system(ts.build_toric(report.cone)))
        everything = set(range(report.cone.nrays))
        assert [
            (s.subgroup.basis, s.supports, s.structure, s.dim + report.torus_rank)
            for s in luna
        ] == [
            (
                s.subgroup.basis,
                tuple(sorted(tuple(sorted(everything - set(f.ray_indices))) for f in s.faces)),
                s.structure,
                s.dim,
            )
            for s in report.strata
        ], report.cone.rays


def test_stratify_inserts_route_one_subgroups_down_the_face_lattice(monkeypatch):
    # Normal forms of one stratify on the 16-gon cone (34 faces, 2 strata),
    # with the face caches warm.  Route one takes 17 Hermite forms: the
    # cone's subgroup, and one insertion for each of its 16 facets; the rays
    # and the apex lie below a facet whose subgroup is the whole group and
    # take none.  Smoothness takes none: the face table reads it off the
    # gcds that build each face's orthogonal lattice, and cones does not
    # import the Hermite form (the count patches the name in regardless).
    # There is one quotient per stratum.
    counts = {}

    def count(module, name):
        real = getattr(module, name, None)
        key = f"{module.__name__.rpartition('.')[2]}.{name}"
        counts[key] = 0

        def counting(*args):
            counts[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting, raising=False)

    count(ts.abelian, "hermite_normal_form")
    count(ts.cones, "hermite_normal_form")
    count(ts.divisors, "quotient_group")
    rays = sixteen_gon_rays()
    cone = ts.build_cone(3, rays)
    faces = ts.face_lattice(cone)
    ts.build_toric(cone)
    counts.update(dict.fromkeys(counts, 0))
    report = stratify(3, rays)
    assert len(faces) == 34 and len(report.strata) == 2
    assert [len(s.faces) for s in report.strata] == [33, 1]
    # one more form in abelian: the class group's generators in build_toric;
    # build_cone takes no Hermite form of its own
    assert counts == {
        "abelian.hermite_normal_form": 1 + 17,
        "cones.hermite_normal_form": 0,
        "divisors.quotient_group": 2,
    }


def test_stratify_takes_one_smith_form_for_the_class_group(fixture_path, monkeypatch):
    # build_toric's divisor classes need the Smith transform; route one's
    # quotients and subgroup structures read invariant factors without one
    calls = []
    real = ts.linalg.smith_normal_form
    for module in (ts.linalg, ts.abelian, ts.cones):
        monkeypatch.setattr(module, "smith_normal_form", lambda a: calls.append(a) or real(a))
    with open(fixture_path("cyclic_4x8.json")) as handle:
        data = json.load(handle)
    report = stratify(data["rank"], data["rays"])
    assert len(report.strata) == 23
    assert len(calls) == 1 and calls[0].entries == report.cone.rays


@pytest.mark.parametrize("rays", [[(1, 0), (1, 2)], sixteen_gon_rays()])
def test_stratify_catches_a_face_whose_smoothness_is_flipped(monkeypatch, rays):
    # smoothness comes from the face table's gcds and triviality of the
    # local class group from route one's Smith forms; flipping any one
    # face's smoothness in the table sets the two apart in its stratum
    real = ts.cones._face_table
    nfaces = len(ts.face_lattice(ts.build_cone(len(rays[0]), rays)))
    for flip in range(nfaces):

        def flipped(cone):
            table = real(cone)
            bits = list(table)[flip]
            return {**table, bits: table[bits]._replace(smooth=not table[bits].smooth)}

        monkeypatch.setattr(ts.cones, "_face_table", flipped)
        match = "smoothness and local class group triviality disagree"
        with pytest.raises(ts.ConsistencyError, match=match):
            stratify(len(rays[0]), rays)


def test_stratify_catches_a_wrong_inserted_subgroup(monkeypatch):
    # skipping one insertion gives a facet of the 16-gon cone the cone's
    # subgroup; route three's components or route two's dimensions differ
    real = ts.divisors._subgroup_join
    calls = []

    def skipping(sub, gens):
        calls.append(sub)
        return sub if len(calls) == 5 else real(sub, gens)

    monkeypatch.setattr(ts.divisors, "_subgroup_join", skipping)
    with pytest.raises(ts.ConsistencyError, match="connection components|Luna dimension"):
        stratify(3, sixteen_gon_rays())
    assert len(calls) >= 5


def test_stratify_rejects_lines_and_bad_rays():
    with pytest.raises(ts.InputError):
        stratify(2, [(1, 0), (-1, 0)])
    with pytest.raises(ts.InputError):
        stratify(2, [(0, 0)])
    with pytest.raises(ts.InputError):
        stratify(2, [(2, 4)])
    report = stratify(2, [(2, 4)], normalize=True)
    assert report.torus_rank == 1 and report.cone.rays == ((1,),)


# ---------------------------------------------------------------------------
# connections


def test_components_match_strata_where_the_box_search_left_them_undetermined():
    # a boxed root search left this comparison open; every pair is now decided
    report = stratify(4, [(3, 0, -4, -3), (3, -3, 4, -5), (2, 3, 2, 3), (-3, 4, 4, -4)])
    assert report.cross_checks.connections_equal is True
    assert {v.status for _, _, v in report.connections.verdicts} == {"yes", "no"}


# ---------------------------------------------------------------------------
# structural invariants on random cones


def test_stratification_invariants_on_random_cones():
    for cone in sample_cones(ts, 34, 30):
        report = stratify(cone.ambient_rank, cone.rays)
        strata = report.strata
        # strata partition the faces
        seen = set()
        for s in strata:
            for f in s.faces:
                assert f not in seen
                seen.add(f)
        assert len(seen) == len(ts.face_lattice(report.cone))
        # the principal stratum is open (contains the apex) and smooth faces
        # are exactly its faces
        principal = strata[0]
        assert () in {f.ray_indices for f in principal.faces}
        assert ts.is_full(principal.subgroup)
        smooth_faces = {
            f.ray_indices
            for f in ts.face_lattice(report.cone)
            if ts.is_smooth_face(report.cone, f)
        }
        assert {f.ray_indices for f in principal.faces} == smooth_faces
        # dims are consistent with the faces
        for s in strata:
            assert s.dim == max(s.orbit_dims)
            for f, d in zip(s.faces, s.orbit_dims):
                assert d == report.cone.ambient_rank - f.dim + report.torus_rank
        # closure edges: lower-dimensional strata lie under larger subgroups
        for low, high in report.closure:
            assert ts.subgroup_leq(strata[low].subgroup, strata[high].subgroup)
            assert strata[low].dim < strata[high].dim
        for verdict_index in report.connections.verdicts:
            i1, i2, verdict = verdict_index
            assert verdict.status in {"yes", "no"}
            if verdict.status == "no":
                assert verdict.certificate in {"combinatorial", "integral-equalities"}


def test_closure_edges_are_covering_relations():
    report = stratify(3, RANK3_RAYS)
    # transitive edge (2, 0) must not appear: it factors through Z/2
    assert (2, 0) not in report.closure


def test_closure_edges_refuses_strata_that_share_a_face():
    # faces are keyed by their rays: a copy of a stratum, or the strata of
    # a second cone, would overwrite each other and answer wrongly
    report = stratify(2, [(1, 0), (1, 2)])
    strata = report.strata
    other = stratify(2, [(1, 0), (-1, 2)]).strata
    for shared in (strata[:1] + strata[:1], strata + other):
        with pytest.raises(ts.InputError, match=r"strata 0 and \d+ share the face \[\]"):
            ts.closure_edges(report.cone, shared)


def test_stratify_makes_no_validated_face_lookup(monkeypatch):
    # every face fact of a stratification is read off the face table as it
    # is walked; none goes through the lookup that refuses foreign faces
    calls = []
    for module in (ts.cones, ts.divisors, ts.roots):
        real = module._entry_of
        monkeypatch.setattr(
            module, "_entry_of", lambda cone, face, real=real: calls.append(face) or real(cone, face)
        )
    report = stratify(3, sixteen_gon_rays())
    assert len(ts.face_lattice(report.cone)) == 34
    assert calls == []
    ts.face_functional(report.cone, report.strata[0].faces[0])  # the count is live
    assert len(calls) == 1


def test_closure_matches_subgroup_containment_between_every_pair(suite_reports):
    reports = list(suite_reports[0])
    for rank, rays in [
        (2, [(1, 0)]),
        (3, []),
        (3, [(1, 0, 0), (1, 2, 0)]),
        (4, [(1, 0, 2, 0), (0, 1, 0, 0), (1, 1, 2, 2)]),
    ]:
        reports.append(stratify(rank, rays))
    for rank, counts in [(4, range(6, 13)), (5, range(7, 11))]:
        reports.extend(stratify(rank, cyclic_rays(rank, range(m))) for m in counts)
    assert max(len(report.closure) for report in reports) == 325
    for report in reports:
        assert report.closure == closure_by_containment(ts, report.strata)
        every_other = report.strata[::2]
        expected = closure_by_containment(ts, every_other)
        assert ts.closure_edges(report.cone, every_other) == expected


@pytest.mark.parametrize("name", ["cone_a1", "cone_quadrant2", "cone_rank3", "cyclic_4x8"])
def test_subgroup_of_a_face_meet_is_the_sum(fixture_path, name):
    with open(fixture_path(f"{name}.json")) as handle:
        data = json.load(handle)
    toric = ts.build_toric(ts.build_cone(data["rank"], data["rays"]))
    group = toric.class_group
    face_with_rays = {frozenset(face.ray_indices): face for face in toric.faces}
    orbit = ts.face_orbit_data(toric)
    for sigma in toric.faces:
        for tau in toric.faces:
            meet = face_with_rays[frozenset(sigma.ray_indices) & frozenset(tau.ray_indices)]
            rows = orbit[sigma].subgroup.basis + orbit[tau].subgroup.basis
            total = ts.subgroup_canon(group, [group.element(row) for row in rows])
            assert orbit[meet].subgroup == total


def test_closure_recheck_catches_a_pair_outside_subgroup_containment(monkeypatch):
    monkeypatch.setattr(ts.engine, "subgroup_leq", lambda a, b: False)
    with pytest.raises(ts.ConsistencyError, match="stratum 1 below 0, subgroups do not"):
        stratify(3, RANK3_RAYS)


def test_stratify_checks_containment_once_per_covering_pair(monkeypatch):
    calls = []
    real = ts.engine.subgroup_leq

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(ts.engine, "subgroup_leq", counting)
    report = stratify(5, cyclic_rays(5, range(12)))
    assert len(report.strata) == 209 and len(report.closure) == 509
    assert len(calls) <= len(report.closure)
