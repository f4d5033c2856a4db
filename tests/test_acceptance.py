"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS/FAIL line with its elapsed seconds to the
terminal, bypassing capture, so a full run reads as a timed checklist.
Workloads are shared through cached builders to keep the whole gate inside
a few minutes.
"""
import json
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from lamlab.circle import angle, sigma
from lamlab.cli import main
from lamlab.fpp import FixedPointPortrait, enumerate_fpps, fixed_sectors
from lamlab.leaves import Lamination, Leaf, Polygon, check_invariance
from lamlab.pullback import (
    CriticalPortrait,
    canonical_lamination,
    classify_sector,
    clp_checks,
    cp_pullback_equality,
    pullback,
)
from lamlab.rotation import (
    MajorTieError,
    RotationalOrbit,
    enumerate_rotational_orbits,
    find_coroots,
    major_minor,
    max_to_uni,
    rotation_number,
    uni_to_max,
    unicritical_anchor,
)
from states import (
    cubic_state,
    lf,
    mixed_quartic_state,
    quartic_global_state,
    quartic_local_state,
    rabbit_state,
)
from test_rotation import major_length_bound_check


_started = time.perf_counter()


@pytest.fixture(autouse=True)
def _item_clock():
    """Start the clock that `announce` reads when each item begins."""
    global _started
    _started = time.perf_counter()


def announce(capsys, num, name, passed):
    elapsed = time.perf_counter() - _started
    with capsys.disabled():
        print(f"AC{num:02d} {name}: {'PASS' if passed else 'FAIL'} ({elapsed:.2f} s)")


@lru_cache(maxsize=None)
def fpps_through_degree(dmax):
    return tuple(P for d in range(2, dmax + 1) for P in enumerate_fpps(d))


@lru_cache(maxsize=None)
def canonical_state(degree, blocks, depth):
    return canonical_lamination(FixedPointPortrait(degree, blocks), depth)


def brute_force_orbits(d, q):
    """Independent residue-arithmetic enumeration of period-q rotational orbits."""
    denom = d**q - 1
    seen = set()
    out = set()
    for k in range(denom):
        if k in seen:
            continue
        cycle = [k]
        seen.add(k)
        j = k * d % denom
        while j != k:
            cycle.append(j)
            seen.add(j)
            j = j * d % denom
        if len(cycle) != q:
            continue
        ordered = sorted(cycle)
        pos = {v: i for i, v in enumerate(ordered)}
        shifts = {(pos[v * d % denom] - pos[v]) % q for v in ordered}
        if len(shifts) != 1:
            continue
        p = shifts.pop()
        # order preservation with a constant shift is exactly rotation by p/q
        out.add((tuple(Fraction(v, denom) for v in ordered), Fraction(p, q)))
    return out


class TestAcceptance:
    def test_ac01_portrait_counts(self, capsys):
        ok = False
        try:
            expected = {2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429}
            t0 = time.monotonic()
            for d, want in expected.items():
                rc = main(["fpp", "enum", "--degree", str(d)])
                out, _ = capsys.readouterr()
                assert rc == 0
                obj = json.loads(out.splitlines()[0])
                assert obj["count"] == want, (d, obj["count"])
                assert len(obj["portraits"]) == want
            elapsed = time.monotonic() - t0
            assert elapsed < 5.0, f"enumeration took {elapsed:.1f}s"
            ok = True
        finally:
            announce(capsys, 1, "portrait counts follow the Catalan numbers", ok)

    def test_ac02_up_to_rotation_census(self, capsys):
        ok = False
        try:
            rc = main(["fpp", "enum", "--degree", "5", "--up-to-rotation"])
            out, _ = capsys.readouterr()
            assert rc == 0
            obj = json.loads(out.splitlines()[0])
            assert obj["count"] == 6
            assert len(obj["portraits"]) == 6
            ok = True
        finally:
            announce(capsys, 2, "degree-5 census up to rotation has 6 classes", ok)

    def test_ac03_placement_independent_pullback(self, capsys):
        ok = False
        try:
            t0 = time.monotonic()
            for P in fpps_through_degree(5):
                report = cp_pullback_equality(P, 3)
                assert report.equal, (P, report.mismatches)
                assert report.choice_count >= 1
            elapsed = time.monotonic() - t0
            assert elapsed < 60.0, f"comparison took {elapsed:.1f}s"
            ok = True
        finally:
            announce(
                capsys, 3, "all canonical placements pull back identically", ok
            )

    def test_ac04_stage_length_bound(self, capsys):
        ok = False
        try:
            for P in fpps_through_degree(5):
                state = canonical_state(P.degree, P.blocks, 4)
                bound_d = Fraction(1, 2 * P.degree)
                for k in range(1, state.depth + 1):
                    limit = bound_d / P.degree ** (k - 1)
                    for l in state.frontier(k):
                        assert l.length <= limit, (P, k, l)
                report = clp_checks(state)
                assert not report.length_failures, (P, report.length_failures[:3])
            ok = True
        finally:
            announce(capsys, 4, "stage-k additions fit inside 1/(2 d^k)", ok)

    def test_ac05_stagewise_invariance(self, capsys):
        ok = False
        try:
            for P in fpps_through_degree(5):
                state = canonical_state(P.degree, P.blocks, 4)
                for k in range(state.depth):
                    violations = check_invariance(state.stages[k], state.stages[k + 1])
                    assert violations == (), (P, k, violations[:3])
            ok = True
        finally:
            announce(
                capsys, 5, "consecutive stages are invariant with full siblings", ok
            )

    def test_ac06_rotational_orbit_oracle(self, capsys):
        ok = False
        try:
            for d in (2, 3, 4):
                for q in range(1, 7):
                    got = {
                        (tuple(x.value for x in o.points), o.rotation)
                        for o in enumerate_rotational_orbits(d, q)
                    }
                    assert got == brute_force_orbits(d, q), (d, q)
            rabbit = enumerate_rotational_orbits(2, 3)
            assert [
                ([str(x.value) for x in o.points], str(o.rotation)) for o in rabbit
            ] == [
                (["1/7", "2/7", "4/7"], "1/3"),
                (["3/7", "5/7", "6/7"], "2/3"),
            ]
            ok = True
        finally:
            announce(capsys, 6, "orbit enumeration matches brute force", ok)

    def test_ac07_major_length_lemma(self, capsys):
        ok = False
        try:
            checked = 0
            for d in (2, 3, 4):
                for q in range(2, 6):
                    for orb in enumerate_rotational_orbits(d, q):
                        if unicritical_anchor(d, orb) is None:
                            continue
                        try:
                            majors = [major_minor(d, orb.hull_sides()).major]
                        except MajorTieError as tie:
                            majors = list(tie.candidates)
                        for m in majors:
                            assert major_length_bound_check(d, m), (d, q, orb, m)
                            checked += 1
            assert checked > 0
            rabbit_major = major_minor(
                2, RotationalOrbit(2, tuple(map(angle, ("1/7", "2/7", "4/7")))).hull_sides()
            ).major
            deviation = abs(rabbit_major.length - Fraction(1, 2))
            assert deviation == Fraction(1, 14)
            assert deviation <= Fraction(1, 2 * 3)
            ok = True
        finally:
            announce(capsys, 7, "majors sit within 1/(d(d+1)) of critical length", ok)

    def test_ac08_coroot_count_and_spacing(self, capsys):
        ok = False
        try:
            cubic_orbit = RotationalOrbit(3, (angle("1/8"), angle("3/8")))
            cs = find_coroots(cubic_state(), cubic_orbit)
            assert len(cs.coroots) == 1
            assert cs.local_degree == 3

            quartic_orbit = RotationalOrbit(
                4, tuple(map(angle, ("1/63", "4/63", "16/63")))
            )
            qs = find_coroots(quartic_global_state(), quartic_orbit)
            assert len(qs.coroots) == 2
            assert qs.local_degree == 4
            pts = qs.coroots
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert pts[i].distance(pts[j]) > Fraction(1, 4)
            ok = True
        finally:
            announce(capsys, 8, "global gaps carry d-2 well separated co-roots", ok)

    def test_ac09_correspondence_round_trip(self, capsys):
        ok = False
        try:
            cases = [
                (rabbit_state(), ("1/7", "2/7", "4/7")),
                (cubic_state(), ("1/8", "3/8")),
                (quartic_global_state(), ("1/63", "4/63", "16/63")),
                (quartic_local_state(), ("22/63", "25/63", "37/63")),
            ]
            for state, pts in cases:
                orb = RotationalOrbit(state.degree, tuple(map(angle, pts)))
                there = uni_to_max(state, orb)
                back = max_to_uni(state, Polygon(there.max_polygon.points))
                assert back.polygon.points == orb.points, (state.degree, pts)
                assert back.max_polygon.points == there.max_polygon.points
                assert back.coroots == there.coroots
            local = uni_to_max(
                quartic_local_state(),
                RotationalOrbit(4, tuple(map(angle, ("22/63", "25/63", "37/63")))),
            )
            assert len(local.polygon.points) == 3
            assert len(local.max_polygon.points) == 6
            ok = True
        finally:
            announce(capsys, 9, "unicritical correspondence round trips exactly", ok)

    def test_ac10_sector_classification(self, capsys):
        ok = False
        try:
            one = canonical_state(5, ((0, 1), (2, 3)), 1)
            sector = fixed_sectors(FixedPointPortrait(5, ((0, 1), (2, 3))))[1]
            res1 = classify_sector(one.final, one.portrait, sector)
            assert (res1.case, res1.witness_type) == (1, 1)

            two_fpp = FixedPointPortrait(4, ((0, 1),))
            state2 = pullback(
                Lamination(
                    4,
                    frozenset(
                        {
                            lf(0, "84/252"),
                            lf("88/252", "100/252"),
                            lf("100/252", "148/252"),
                            lf("88/252", "148/252"),
                        }
                    ),
                ),
                CriticalPortrait(
                    4,
                    frozenset(
                        {
                            lf("88/252", "151/252"),
                            lf("151/252", "214/252"),
                            lf("88/252", "214/252"),
                            lf("0/252", "63/252"),
                        }
                    ),
                ),
                2,
            )
            big = max(fixed_sectors(two_fpp), key=lambda S: S.sector_degree)
            res2 = classify_sector(state2.final, state2.portrait, big)
            assert (res2.case, res2.witness_type) == (2, 2)
            rho = rotation_number(4, res2.witness.vertices)
            assert rho == Fraction(1, 3) != 0

            three = mixed_quartic_state()
            sector3 = fixed_sectors(FixedPointPortrait(4, ()))[0]
            res3 = classify_sector(three.final, three.portrait, sector3)
            assert (res3.case, res3.witness_type) == (3, 1)
            ok = True
        finally:
            announce(capsys, 10, "the three sector cases classify as 1/2, 2/2, 3/1", ok)

    def test_ac11_criticality_budget(self, capsys):
        ok = False
        try:
            for P in fpps_through_degree(8):
                total = sum(S.sector_degree - 1 for S in fixed_sectors(P))
                assert total == P.degree - 1, (P, total)
            ok = True
        finally:
            announce(capsys, 11, "sector degrees spend exactly d-1 criticality", ok)

    def test_ac12_cli_determinism(self, capsys, tmp_path):
        ok = False
        try:
            from lamlab.docio import document_from_state, write_document

            rdoc = tmp_path / "rabbit.json"
            rdoc.write_text(write_document(document_from_state(rabbit_state(), "")))
            mdoc = tmp_path / "mixed.json"
            mdoc.write_text(write_document(document_from_state(mixed_quartic_state(), "")))

            stdout_commands = [
                ["fpp", "enum", "--degree", "5"],
                ["rot", "orbits", "--degree", "3", "--period", "2"],
                ["rot", "number", "--degree", "2", "--points", "1/7,2/7,4/7"],
                ["corr", "uni-to-max", "--file", str(rdoc), "--polygon", "1/7,2/7,4/7"],
                ["classify", "--file", str(mdoc)],
            ]
            for argv in stdout_commands:
                assert main(list(argv)) == 0, argv
                first, _ = capsys.readouterr()
                assert main(list(argv)) == 0
                second, _ = capsys.readouterr()
                assert first == second, argv

            out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
            build = "fpp canonical --degree 5 --fpp 0-1 --depth 2 --out".split()
            assert main(build + [str(out1)]) == 0
            assert main(build + [str(out2)]) == 0
            capsys.readouterr()
            assert out1.read_bytes() == out2.read_bytes()

            svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
            for target in (svg1, svg2):
                argv = ["render", "--file", str(rdoc), "--out", str(target)]
                argv += ["--style", "geodesic", "--labels", "rational"]
                assert main(argv) == 0
            capsys.readouterr()
            assert svg1.read_bytes() == svg2.read_bytes()
            ok = True
        finally:
            announce(capsys, 12, "repeated CLI runs are byte-identical", ok)

    def test_ac13_correspondence_counts(self, capsys):
        # The degree-d Multibrot set has d - 1 limbs of each rotation number
        # p/q, so exactly d - 1 orbits of each p/q admit a unicritical anchor;
        # each anchored orbit comes back from its maximally critical partner.
        grid = [(2, 5), (2, 7), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5)]
        grid += [(5, 3), (5, 4), (6, 3), (7, 2), (7, 3), (8, 2)]
        ok = False
        try:
            for d, q in grid:
                for p in (p for p in range(1, q) if gcd(p, q) == 1):
                    anchored = []
                    for orb in enumerate_rotational_orbits(d, q, p):
                        verts = unicritical_anchor(d, orb)
                        if verts is not None:
                            anchored.append((orb, verts))
                    assert len(anchored) == d - 1, (d, q, p, len(anchored))
                    for orb, verts in anchored:
                        F0 = Lamination(d, frozenset(orb.hull_sides()))
                        sides = (Leaf(*verts),) if d == 2 else Polygon(verts).sides
                        C = CriticalPortrait(d, frozenset(sides))
                        state = pullback(F0, C, 2)
                        there = uni_to_max(state, orb)
                        back = max_to_uni(state, Polygon(there.max_polygon.points))
                        assert back.polygon.points == orb.points, (d, q, p, orb)
            ok = True
        finally:
            announce(capsys, 13, "d-1 anchored orbits per p/q, each round trips", ok)
