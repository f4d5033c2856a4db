"""Tests for rotational orbits, majors, and the polygon correspondence."""
import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from lamlab.circle import angle, check_degree, sigma
from lamlab import leaves
from lamlab.leaves import (
    Lamination,
    Leaf,
    Polygon,
    _closure,
    _cross,
    _cycles,
    _image,
    _sides,
    leaf_image,
)
from lamlab.pullback import CriticalPortrait, pullback
from lamlab.rotation import (
    CoRootSet,
    MajorMinor,
    MajorTieError,
    NotRotational,
    RotationalOrbit,
    _central_gap,
    _gon_fits,
    _itineraries,
    central_gap,
    enumerate_rotational_orbits,
    find_coroots,
    major_minor,
    max_to_uni,
    rotation_number,
    uni_to_max,
    unicritical_anchor,
)
from states import (
    basilica_state,
    cubic_state,
    fr,
    lf,
    quartic_global_state,
    quartic_local_state,
    rabbit_state,
)
from test_circle import orbit
from test_leaves import half_edge_faces, leaves_cross, on_closure
from test_pullback import CORR_GRID


def major_length_bound_check(d: int, major: Leaf) -> bool:
    """Whether the major's length is within 1/(d(d+1)) of 1/d; the acceptance gate asks it."""
    check_degree(d)
    return abs(Fraction(1, d) - major.length) <= Fraction(1, d * (d + 1))


def pts(*xs):
    return tuple(angle(x) for x in xs)


def values(points):
    return sorted(p.value for p in points)


def brute_orbits(d, q):
    # integer residue scan mod d^q - 1, no shared code with the enumerator;
    # sorted (points, rotation) pairs
    mod = d**q - 1
    seen = set()
    out = []
    for k in range(mod):
        orbit = []
        cur = k
        while cur not in orbit:
            orbit.append(cur)
            cur = (cur * d) % mod
        if len(orbit) != q or min(orbit) in seen:
            continue
        residues = sorted(orbit)
        shift = {residues.index((r * d) % mod) - residues.index(r) for r in residues}
        shifts = {s % q for s in shift}
        if len(shifts) == 1:
            seen.add(min(orbit))
            out.append((tuple(Fraction(r, mod) for r in residues), Fraction(shifts.pop(), q)))
    return sorted(out)


def scanning_find_coroots(state, polygon):
    # the co-root search over every point k/(d^q - 1), kept as the oracle
    gap, group = central_gap(state, polygon)
    d = state.degree
    q = len(polygon.points)
    local_degree = len(group)
    mm = major_minor(d, polygon.hull_sides())
    denom = d**q - 1
    found = []
    for k in range(denom):
        x = angle(Fraction(k, denom))
        if not on_closure(gap, x) or x in mm.major.endpoints:
            continue
        if len(orbit(d, x)[1]) != q:
            continue
        y = sigma(d, x)
        while not on_closure(gap, y):
            y = sigma(d, y)
        if y == x:
            found.append(x)
    if len(found) != local_degree - 2:
        raise ValueError(f"found {len(found)} co-roots, expected {local_degree - 2}")
    if local_degree == d:
        for a, b in itertools.combinations(found, 2):
            if a.distance(b) <= Fraction(1, d):
                raise ValueError(f"co-roots {a} and {b} are within 1/{d} of each other")
    return CoRootSet(gap, group, tuple(sorted(found)))


def inline_coroot_closure(boundary, DL, Q):
    """Reference: the closure test `_coroots` carried inline before `leaves._closure`.

    Whether x/Q is a vertex of the gap boundary over DL or on one of its
    closed arcs, on the grid over lcm(DL, Q).  An arc from u to v spans
    (v - u) % DL, so the empty lamination's full-circle arc is out of its range.
    """
    M = math.lcm(DL, Q)
    up, lift = M // DL, M // Q
    verts = {v * up for e in boundary if e[0] == 0 for v in e[1:3]}
    arcs = [(e[1] * up, (e[2] - e[1]) % DL * up) for e in boundary if e[0] == 1]

    def on_closure(x):
        x *= lift
        return x in verts or any((x - u) % M <= span for u, span in arcs)

    return on_closure


def coroot_outcome(search, state, polygon):
    try:
        return search(state, polygon)
    except ValueError:
        return ValueError


@lru_cache(maxsize=None)
def quartic_reanchored_state():
    # the local quartic triangle, portrait re-anchored so the full circle sees it
    F0 = Lamination(
        4,
        frozenset(
            {
                lf(fr(88, 252), fr(100, 252)),
                lf(fr(100, 252), fr(148, 252)),
                lf(fr(88, 252), fr(148, 252)),
            }
        ),
    )
    C = CriticalPortrait(
        4,
        frozenset(
            {
                lf(fr(25, 252), fr(88, 252)),
                lf(fr(88, 252), fr(151, 252)),
                lf(fr(151, 252), fr(214, 252)),
                lf(fr(25, 252), fr(214, 252)),
            }
        ),
    )
    return pullback(F0, C, 2)


def anchored_states(d, q):
    # every orbit with a unicritical anchor, with its depth-2 lamination
    for o in enumerate_rotational_orbits(d, q):
        verts = unicritical_anchor(d, o)
        if o.rotation == 0 or verts is None:
            continue
        F0 = Lamination(d, frozenset(o.hull_sides()))
        sides = (Leaf(*verts),) if d == 2 else Polygon(verts).sides
        yield pullback(F0, CriticalPortrait(d, frozenset(sides)), 2), o


def pairwise_gon_fits(d, D, nums, a):
    """`_gon_fits` by testing each side of the gon against each hull side with `_cross`, over d*D."""
    verts = sorted((d * a + j * D) % (d * D) for j in range(d))
    hull = [(d * x, d * y) for x, y in _sides(nums)]
    return not any(_cross(g, s) for g in _sides(verts) for s in hull)


def rabbit_orbit():
    return RotationalOrbit(2, pts("1/7", "2/7", "4/7"))


class TestRotationNumber:
    def test_rabbit(self):
        assert rotation_number(2, pts("1/7", "2/7", "4/7")) == fr(1, 3)

    def test_corabbit(self):
        assert rotation_number(2, pts("3/7", "5/7", "6/7")) == fr(2, 3)

    def test_fixed_point(self):
        assert rotation_number(2, pts(0)) == 0

    def test_two_gon(self):
        assert rotation_number(3, pts("1/8", "3/8")) == fr(1, 2)

    def test_non_invariant_set_rejected(self):
        with pytest.raises(NotRotational) as info:
            rotation_number(2, pts("1/7", "1/3"))
        assert info.value.index == 0

    def test_duplicates_collapse(self):
        assert rotation_number(2, pts("1/7", "2/7", "4/7", "1/7")) == fr(1, 3)

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="needs at least one point"):
            rotation_number(2, [])

    def test_non_constant_shift_rejected(self):
        # forward invariant but order-reversing on the sorted points
        with pytest.raises(NotRotational):
            rotation_number(4, pts("1/5", "2/5", "3/5", "4/5"))


class TestRotationalOrbit:
    def test_rotation_autofilled(self):
        assert rabbit_orbit().rotation == fr(1, 3)

    def test_rotation_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RotationalOrbit(2, pts("1/7", "2/7", "4/7"), rotation=fr(2, 3))

    def test_float_rotation_refused(self):
        # 0.5 equals the computed 1/2, but floats stay out of the exact layer
        with pytest.raises(TypeError, match="exact rational"):
            RotationalOrbit(2, pts("1/3", "2/3"), 0.5)

    def test_stated_rotation_stored_as_computed(self):
        for points, rho in ((pts(0), 0), (pts("1/3", "2/3"), fr(1, 2))):
            stated, unstated = RotationalOrbit(2, points, rho), RotationalOrbit(2, points)
            assert type(stated.rotation) is Fraction
            assert repr(stated) == repr(unstated)

    def test_points_sorted(self):
        orb = RotationalOrbit(2, pts("4/7", "1/7", "2/7"))
        assert values(orb.points) == [fr(1, 7), fr(2, 7), fr(4, 7)]

    def test_hull_sides_of_point(self):
        assert RotationalOrbit(2, pts(0)).hull_sides() == ()

    def test_hull_sides_of_leaf(self):
        sides = RotationalOrbit(3, pts("1/8", "3/8")).hull_sides()
        assert sides == (lf("1/8", "3/8"),)

    def test_hull_sides_of_triangle(self):
        sides = rabbit_orbit().hull_sides()
        assert set(sides) == set(Polygon(pts("1/7", "2/7", "4/7")).sides)

    def test_repr_pinned(self):
        assert repr(enumerate_rotational_orbits(2, 3)[0]) == (
            "RotationalOrbit(degree=2, points=(1/7, 2/7, 4/7), rotation=Fraction(1, 3))"
        )

    def test_enumeration_builds_no_points(self):
        for d, q in [(2, 6), (3, 4), (5, 3), (7, 2)]:
            assert not any("points" in o.__dict__ for o in enumerate_rotational_orbits(d, q))

    def test_enumerated_orbit_equals_constructed(self):
        # the orbit built from its integer view against the one built from its points
        for d in range(2, 5):
            for q in range(1, 6):
                for o in enumerate_rotational_orbits(d, q):
                    built = RotationalOrbit(d, o.points)
                    assert built == o, o
                    assert hash(built) == hash(o)
                    assert repr(built) == repr(o)


class TestEnumeration:
    def test_quadratic_period_three(self):
        orbits = enumerate_rotational_orbits(2, 3)
        assert [values(o.points) for o in orbits] == [
            [fr(1, 7), fr(2, 7), fr(4, 7)],
            [fr(3, 7), fr(5, 7), fr(6, 7)],
        ]
        assert [o.rotation for o in orbits] == [fr(1, 3), fr(2, 3)]

    def test_cubic_period_two(self):
        orbits = enumerate_rotational_orbits(3, 2)
        assert [values(o.points) for o in orbits] == [
            [fr(1, 8), fr(3, 8)],
            [fr(1, 4), fr(3, 4)],
            [fr(5, 8), fr(7, 8)],
        ]
        assert all(o.rotation == fr(1, 2) for o in orbits)

    def test_fixed_points(self):
        orbits = enumerate_rotational_orbits(2, 1)
        assert [values(o.points) for o in orbits] == [[fr(0)]]

    def test_rotation_filter(self):
        assert len(enumerate_rotational_orbits(2, 3, p=1)) == 1
        assert len(enumerate_rotational_orbits(2, 3, p=2)) == 1

    def test_reducible_rotation_rejected(self):
        with pytest.raises(ValueError):
            enumerate_rotational_orbits(2, 4, p=2)

    def test_period_below_one_rejected(self):
        with pytest.raises(ValueError, match="period must be at least 1"):
            enumerate_rotational_orbits(2, 0)

    def test_rotation_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            enumerate_rotational_orbits(2, 3, p=3)

    def test_matches_residue_scan(self):
        for d in range(2, 6):
            for q in range(1, 7):
                expected = brute_orbits(d, q)
                for p in [None] + [p for p in range(q) if math.gcd(p, q) == 1]:
                    want = [e for e in expected if p is None or e[1] == fr(p, q)]
                    got = [
                        (tuple(values(o.points)), o.rotation)
                        for o in enumerate_rotational_orbits(d, q, p)
                    ]
                    assert want == got, (d, q, p)

    def test_goldberg_count(self):
        # phi(q) rotation numbers p/q, each carried by C(q+d-2, d-2) orbits
        counts = {}
        for d in range(2, 7):
            for q in range(1, 8):
                rotations = [o.rotation for o in enumerate_rotational_orbits(d, q)]
                coprime = [p for p in range(q) if math.gcd(p, q) == 1]
                for p in coprime:
                    assert rotations.count(fr(p, q)) == math.comb(q + d - 2, d - 2), (d, q, p)
                assert len(rotations) == len(coprime) * math.comb(q + d - 2, d - 2)
                counts[d, q] = len(rotations)
        assert counts[6, 7] == 1980

    def test_deterministic(self):
        assert enumerate_rotational_orbits(3, 3) == enumerate_rotational_orbits(3, 3)

    @given(st.integers(2, 4), st.integers(1, 4))
    def test_enumerated_points_have_exact_period(self, d, q):
        for o in enumerate_rotational_orbits(d, q):
            for p in o.points:
                cur = p
                for _ in range(q):
                    cur = sigma(d, cur)
                assert cur == p


class TestMajorMinor:
    def test_rabbit(self):
        mm = major_minor(2, rabbit_orbit().hull_sides())
        assert mm.major == lf("1/7", "4/7")
        assert mm.minor == lf("1/7", "2/7")

    def test_no_sides_rejected(self):
        with pytest.raises(ValueError, match="empty side collection"):
            major_minor(2, [])

    def test_two_gon_is_its_own_major(self):
        sides = RotationalOrbit(3, pts("1/8", "3/8")).hull_sides()
        mm = major_minor(3, sides)
        assert mm.major == lf("1/8", "3/8")

    def test_length_bound_examples(self):
        mm = major_minor(2, rabbit_orbit().hull_sides())
        assert major_length_bound_check(2, mm.major)
        assert major_length_bound_check(3, lf(0, "1/4"))
        assert not major_length_bound_check(2, lf(0, "1/5"))

    def test_rabbit_margin(self):
        # |3/7 - 1/2| = 1/14, strictly inside the allowed 1/6 slack
        major = major_minor(2, rabbit_orbit().hull_sides()).major
        assert abs(major.length - fr(1, 2)) == fr(1, 14)

    @settings(max_examples=200)
    @given(st.data())
    def test_majors_reach_the_length_floor(self, data):
        # a leaf between points of period dividing q has a closed forward
        # orbit, whose longest side is at least 1/(d+1); so the major, or
        # every tied candidate, is too, and no shorter side ever competes
        d = data.draw(st.integers(2, 6), label="d")
        q = data.draw(st.integers(2 if d == 2 else 1, 4), label="q")
        m = d**q - 1
        a, b = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        leaf, sides = lf(fr(a, m), fr(b, m)), set()
        while leaf not in sides:
            sides.add(leaf)
            leaf = leaf_image(d, leaf)
        try:
            winners = [major_minor(d, sides).major]
        except MajorTieError as exc:
            winners = list(exc.candidates)
        floor = Fraction(1, d + 1)
        assert max(s.length for s in sides) >= floor
        assert all(w.length >= floor for w in winners), (d, sorted(sides))


class TestUnicriticalAnchor:
    def test_rabbit(self):
        anchor = unicritical_anchor(2, rabbit_orbit())
        assert values(anchor) == [fr(1, 7), fr(9, 14)]

    def test_cubic_two_gon(self):
        anchor = unicritical_anchor(3, RotationalOrbit(3, pts("1/8", "3/8")))
        assert values(anchor) == [fr(1, 8), fr(11, 24), fr(19, 24)]

    def test_cubic_diameter_has_none(self):
        # both candidate anchors cross the hull, so no compatible placement
        assert unicritical_anchor(3, RotationalOrbit(3, pts("1/4", "3/4"))) is None

    def test_anchor_gon_is_critical(self):
        anchor = unicritical_anchor(2, rabbit_orbit())
        assert anchor[1].value - anchor[0].value == fr(1, 2)

    def test_equilateral_triangle_has_none(self):
        # all three sides tie at length 1/3 and every placement crosses
        orbit = RotationalOrbit(4, pts("1/9", "4/9", "7/9"))
        assert unicritical_anchor(4, orbit) is None
        with pytest.raises(MajorTieError):
            major_minor(4, orbit.hull_sides())

    def test_half_turn_symmetric_four_gon_has_none(self):
        orbit = RotationalOrbit(3, pts("1/16", "3/16", "9/16", "11/16"))
        assert orbit.rotation == fr(1, 4)
        assert unicritical_anchor(3, orbit) is None

    def test_tied_majors_have_no_anchor(self):
        # the tie branch tries every tied side's endpoints; none of the 22
        # tied orbits with d <= 5 and q <= 6 has a compatible placement
        tied = []
        for d in range(2, 6):
            for q in range(2, 7):
                for orbit in enumerate_rotational_orbits(d, q):
                    try:
                        major_minor(d, orbit.hull_sides())
                    except MajorTieError:
                        tied.append(orbit)
        assert len(tied) == 22
        assert all(unicritical_anchor(o.degree, o) is None for o in tied)

    def test_slot_test_matches_pairwise_crossings(self):
        # every orbit point and every point one grid step past one as the
        # anchor, under the gons of degrees 2 to 5, the orbit's own or not
        for d in range(2, 7):
            for q in range(2, 7):
                for o in enumerate_rotational_orbits(d, q):
                    D, nums = o._scaled
                    for a in set(nums) | {(x + 1) % D for x in nums}:
                        for e in range(2, 6):
                            assert _gon_fits(e, D, nums, a) == pairwise_gon_fits(e, D, nums, a), (
                                e, o, a
                            )


class TestCentralGap:
    def test_rabbit_gap(self):
        gap, group = central_gap(rabbit_state(), rabbit_orbit())
        assert values(gap.vertices) == [fr(1, 14), fr(1, 7), fr(4, 7), fr(9, 14)]
        assert values(group) == [fr(1, 14), fr(4, 7)]

    def test_cubic_gap_group(self):
        gap, group = central_gap(cubic_state(), RotationalOrbit(3, pts("1/8", "3/8")))
        assert values(group) == [fr(1, 8), fr(11, 24), fr(19, 24)]
        # deeper stages refine the gap's boundary arcs but keep the group
        assert len(gap.vertices) == 18

    def test_quartic_global_gap(self):
        gap, _ = central_gap(
            quartic_global_state(), RotationalOrbit(4, pts("1/63", "4/63", "16/63"))
        )
        assert [v * 252 for v in values(gap.vertices)] == [1, 4, 64, 67, 127, 130, 190, 193]

    def test_quartic_local_gap(self):
        gap, group = central_gap(
            quartic_local_state(), RotationalOrbit(4, pts("22/63", "25/63", "37/63"))
        )
        assert [v * 252 for v in values(gap.vertices)] == [85, 88, 148, 151, 211, 214]
        assert [v * 252 for v in values(group)] == [88, 151, 214]

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            central_gap(rabbit_state(), RotationalOrbit(3, pts("1/8", "3/8")))

    def test_fixed_point_rejected(self):
        with pytest.raises(ValueError, match="must have nonzero rotation number"):
            central_gap(rabbit_state(), RotationalOrbit(2, pts(0)))

    def test_insufficient_depth(self):
        F0 = Lamination(
            2, frozenset({lf("1/7", "2/7"), lf("2/7", "4/7"), lf("4/7", "1/7")})
        )
        C = CriticalPortrait(2, frozenset({lf("1/14", "4/7")}))
        shallow = pullback(F0, C, 0)
        with pytest.raises(ValueError, match="not identified"):
            central_gap(shallow, rabbit_orbit())


class TestCoRoots:
    def test_rabbit_has_none(self):
        cr = find_coroots(rabbit_state(), rabbit_orbit())
        assert cr.coroots == ()
        assert cr.local_degree == 2

    def test_cubic(self):
        cr = find_coroots(cubic_state(), RotationalOrbit(3, pts("1/8", "3/8")))
        assert values(cr.coroots) == [fr(3, 4)]
        assert cr.local_degree == 3

    def test_quartic_global_spacing(self):
        cr = find_coroots(
            quartic_global_state(), RotationalOrbit(4, pts("1/63", "4/63", "16/63"))
        )
        assert values(cr.coroots) == [fr(32, 63), fr(16, 21)]
        assert cr.local_degree == 4
        a, b = values(cr.coroots)
        assert min(b - a, 1 - (b - a)) > fr(1, 4)

    def test_quartic_local(self):
        cr = find_coroots(
            quartic_local_state(), RotationalOrbit(4, pts("22/63", "25/63", "37/63"))
        )
        assert values(cr.coroots) == [fr(53, 63)]
        assert cr.local_degree == 3

    def test_local_orbit_in_global_portrait(self):
        cr = find_coroots(
            quartic_reanchored_state(), RotationalOrbit(4, pts("22/63", "25/63", "37/63"))
        )
        assert values(cr.coroots) == [fr(2, 21), fr(53, 63)]
        assert cr.local_degree == 4

    def test_local_degree_is_the_critical_group_size(self):
        cr = find_coroots(cubic_state(), RotationalOrbit(3, pts("1/8", "3/8")))
        assert cr.local_degree == len(cr.all_critical) == 3
        # one critical point left: local degree 1 cannot hold the one co-root
        with pytest.raises(ValueError, match="co-roots recorded for local degree 1"):
            dataclasses.replace(cr, all_critical=cr.all_critical[:1])

    def test_matches_scan_on_examples(self):
        configs = [
            (rabbit_state(), rabbit_orbit()),
            (cubic_state(), RotationalOrbit(3, pts("1/8", "3/8"))),
            (quartic_global_state(), RotationalOrbit(4, pts("1/63", "4/63", "16/63"))),
            (quartic_local_state(), RotationalOrbit(4, pts("22/63", "25/63", "37/63"))),
            (quartic_reanchored_state(), RotationalOrbit(4, pts("22/63", "25/63", "37/63"))),
        ]
        for state, polygon in configs:
            assert find_coroots(state, polygon) == scanning_find_coroots(state, polygon)

    @pytest.mark.parametrize("d, q", [(2, 5), (3, 3), (3, 4), (4, 3), (5, 2)])
    def test_matches_scan_on_anchored_orbits(self, d, q):
        # equal co-roots, or ValueError from both searches
        for state, polygon in anchored_states(d, q):
            assert coroot_outcome(find_coroots, state, polygon) == coroot_outcome(
                scanning_find_coroots, state, polygon
            ), polygon

    @pytest.mark.parametrize("d, q", CORR_GRID)
    def test_closure_equals_inline_closure_on_corr_grid(self, d, q):
        # every central gap of perfbench's correspondence jobs: each boundary
        # point over the stage's grid, and every point over Q = d^q - 1, the
        # co-root candidates among them
        Q = d**q - 1
        n = 0
        for state, polygon in anchored_states(d, q):
            _, boundary, _ = _central_gap(state, polygon)
            DL = state.final.scaled[0]
            got, want = _closure(boundary, DL, DL), inline_coroot_closure(boundary, DL, DL)
            for x in {v for e in boundary for v in e[1:3]}:
                assert got(x) and want(x)
            got, want = _closure(boundary, DL, Q), inline_coroot_closure(boundary, DL, Q)
            candidates = {x for c in _itineraries(d, q, polygon.rotation.numerator) for x in c}
            assert candidates <= set(range(Q))
            for x in range(Q):
                assert got(x) == want(x), (polygon, x)
            n += 1
        assert n == (d - 1) * sum(math.gcd(p, q) == 1 for p in range(1, q))

    def test_tied_majors_refused_before_the_gap(self):
        # two 2-cycles rotating by 1/2 as one 4-point set, whose sides 3/8-3/4
        # and 3/4-1/8 are equally close to length 1/3: the major tie is
        # refused before any gap is sought
        polygon = RotationalOrbit(3, pts("1/8", "1/4", "3/8", "3/4"))
        assert polygon.rotation == fr(1, 2)
        for search in (find_coroots, uni_to_max):
            with pytest.raises(MajorTieError):
                search(cubic_state(), polygon)


    def test_several_cycles_rejected_at_their_gap(self):
        # two 2-cycles of quadrupling rotating by 1/2 as one set, whose one
        # major has the critical chord 4/15-31/60 on its gap: the gap is
        # found, and the set is refused as a polygon
        polygon = RotationalOrbit(4, pts("1/15", "2/15", "4/15", "8/15"))
        assert polygon.rotation == fr(1, 2)
        chords = [("1/30", "8/15"), ("8/15", "47/60"), ("1/30", "47/60"), ("4/15", "31/60")]
        C = CriticalPortrait(4, frozenset(lf(a, b) for a, b in chords))
        state = pullback(Lamination(4, frozenset(polygon.hull_sides())), C, 2)
        assert values(central_gap(state, polygon)[1]) == [fr(4, 15), fr(31, 60)]
        for search in (find_coroots, uni_to_max):
            with pytest.raises(ValueError, match="the polygon's 4 points form several cycles"):
                search(state, polygon)

    def test_wrong_coroot_count_rejected(self):
        # the cubic 2-cycle with a critical chord at its major end and the
        # other chord ending at 3/4: local degree 2 wants no co-root, and 3/4,
        # of the cycle {1/4, 3/4}, returns to the gap at itself at any depth
        o = RotationalOrbit(3, pts("1/8", "3/8"))
        C = CriticalPortrait(3, frozenset({lf("1/8", "11/24"), lf("1/12", "3/4")}))
        state = pullback(Lamination(3, frozenset(o.hull_sides())), C, 2)
        assert values(central_gap(state, o)[1]) == [fr(1, 8), fr(11, 24)]
        with pytest.raises(ValueError, match="found 1 co-roots where 0 were expected"):
            find_coroots(state, o)


class TestCorrespondence:
    def test_rabbit_identity(self):
        pair = uni_to_max(rabbit_state(), rabbit_orbit())
        assert values(pair.max_polygon.points) == [fr(1, 7), fr(2, 7), fr(4, 7)]
        assert pair.majors == (lf("1/7", "4/7"),)
        assert pair.local_degree == 2

    def test_cubic_grows_four_gon(self):
        pair = uni_to_max(cubic_state(), RotationalOrbit(3, pts("1/8", "3/8")))
        assert values(pair.max_polygon.points) == [fr(1, 8), fr(1, 4), fr(3, 8), fr(3, 4)]
        assert set(pair.majors) == {lf("1/8", "3/4"), lf("3/8", "3/4")}
        assert pair.local_degree == 3

    def test_cubic_majors_share_coroot(self):
        pair = uni_to_max(cubic_state(), RotationalOrbit(3, pts("1/8", "3/8")))
        shared = set(pair.majors[0].endpoints) & set(pair.majors[1].endpoints)
        assert {p.value for p in shared} == {fr(3, 4)}

    def test_quartic_global_nine_gon(self):
        pair = uni_to_max(
            quartic_global_state(), RotationalOrbit(4, pts("1/63", "4/63", "16/63"))
        )
        assert [v * 63 for v in values(pair.max_polygon.points)] == [
            1, 2, 3, 4, 8, 12, 16, 32, 48,
        ]
        assert set(pair.majors) == {
            lf("1/63", "16/21"),
            lf("16/63", "32/63"),
            lf("32/63", "16/21"),
        }

    def test_quartic_local_six_gon(self):
        pair = uni_to_max(
            quartic_local_state(), RotationalOrbit(4, pts("22/63", "25/63", "37/63"))
        )
        assert [v * 63 for v in values(pair.max_polygon.points)] == [22, 23, 25, 29, 37, 53]
        assert set(pair.majors) == {lf("22/63", "53/63"), lf("37/63", "53/63")}
        assert pair.local_degree == 3

    def test_period_two_leaf_is_its_own_max_polygon(self):
        # a 2-point set has one side, fixed as a set while its ends swap
        o = RotationalOrbit(2, pts("1/3", "2/3"))
        assert unicritical_anchor(2, o) == pts("1/3", "5/6")
        pair = uni_to_max(basilica_state(), o)
        assert pair.max_polygon.points == pts("1/3", "2/3")
        assert pair.majors == (lf("1/3", "2/3"),)
        assert pair.coroots == ()
        assert pair.local_degree == 2

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_grown_set_structure_on_anchored_orbits(self, d):
        # every anchored orbit with q <= 5.  The grown set rotates like the
        # orbit and has q(d' - 1) points in d' - 1 vertex cycles of period q;
        # its sides, from 3 points on, form d' - 1 cycles of period q as well
        # (the period-2 leaf of d = 2 is one side, fixed as a set); each
        # co-root lies in a cycle of its own, and max_to_uni gives back the
        # same pair from every grown set of 3 or more points
        n = 0
        for q in range(2, 6):
            for state, o in anchored_states(d, q):
                pair = uni_to_max(state, o)
                k = pair.local_degree - 1
                D, nums = pair.max_polygon._scaled
                assert pair.max_polygon.rotation == o.rotation
                assert len(nums) == q * k
                vertex_cycles = _cycles(lambda x: d * x % D, nums)
                assert sorted(map(len, vertex_cycles)) == [q] * k
                side_cycles = _cycles(lambda s: _image(d, D, s), _sides(nums))
                assert sorted(map(len, side_cycles)) == ([q] * k if len(nums) > 2 else [1])
                coroots = {c.value * D for c in pair.coroots}
                assert sum(bool(coroots.intersection(c)) for c in vertex_cycles) == len(coroots)
                if len(nums) > 2:
                    assert max_to_uni(state, Polygon(pair.max_polygon.points)) == pair, o
                n += 1
        assert n == (d - 1) * sum(math.gcd(p, q) == 1 for q in range(2, 6) for p in range(1, q))

    def test_pair_refuses_inconsistent_parts(self):
        pair = uni_to_max(cubic_state(), RotationalOrbit(3, pts("1/8", "3/8")))
        with pytest.raises(ValueError, match="vertices must survive"):
            dataclasses.replace(pair, polygon=RotationalOrbit(3, pts("5/8", "7/8")))
        with pytest.raises(ValueError, match="one major per side orbit"):
            dataclasses.replace(pair, majors=pair.majors[:1])
        with pytest.raises(ValueError, match="co-root count disagrees"):
            dataclasses.replace(pair, coroots=())

    def test_max_to_uni_refusals(self):
        with pytest.raises(ValueError, match="the polygon does not rotate"):
            max_to_uni(quartic_global_state(), Polygon(pts(0, "1/3", "2/3")))
        # two 3-cycles of tripling whose majors share no endpoint
        six = Polygon(pts("1/13", "5/26", "3/13", "15/26", "9/13", "19/26"))
        with pytest.raises(ValueError, match="the majors are not adjacent"):
            max_to_uni(cubic_state(), six)
        # a unicritical triangle read as maximally critical: one vertex cycle
        # means local degree 2, and its gap carries the critical triangle
        (state,) = [s for s, o in anchored_states(3, 3) if o.points == pts("1/26", "3/26", "9/26")]
        with pytest.raises(ValueError, match="all-critical group size disagrees"):
            max_to_uni(state, Polygon(pts("1/26", "3/26", "9/26")))

    def test_rotation_preserved(self):
        pair = uni_to_max(cubic_state(), RotationalOrbit(3, pts("1/8", "3/8")))
        assert pair.max_polygon.rotation == fr(1, 2)

    def test_round_trips(self):
        configs = [
            (rabbit_state(), rabbit_orbit()),
            (cubic_state(), RotationalOrbit(3, pts("1/8", "3/8"))),
            (quartic_global_state(), RotationalOrbit(4, pts("1/63", "4/63", "16/63"))),
            (quartic_local_state(), RotationalOrbit(4, pts("22/63", "25/63", "37/63"))),
        ]
        for state, orbit in configs:
            pair = uni_to_max(state, orbit)
            back = max_to_uni(state, Polygon(pair.max_polygon.points))
            assert back.polygon.points == orbit.points
            assert back.local_degree == pair.local_degree
            assert set(back.majors) == set(pair.majors)

    def test_both_directions_sweep_the_final_stage_once(self, monkeypatch):
        o = RotationalOrbit(3, pts("1/8", "3/8"))
        F0 = Lamination(3, frozenset(o.hull_sides()))
        C = CriticalPortrait(3, frozenset(Polygon(unicritical_anchor(3, o)).sides))
        state = pullback(F0, C, 2)
        swept = []

        def sweep_spy(L):
            swept.append(L)
            return face_sweep(L)

        face_sweep = leaves._face_sweep
        monkeypatch.setattr(leaves, "_face_sweep", sweep_spy)
        there = uni_to_max(state, o)
        back = max_to_uni(state, Polygon(there.max_polygon.points))
        assert back.polygon == o
        assert len(swept) == 1 and swept[0] is state.final

    def test_coroot_count_tracks_local_degree(self):
        for state, orbit in [
            (cubic_state(), RotationalOrbit(3, pts("1/8", "3/8"))),
            (quartic_global_state(), RotationalOrbit(4, pts("1/63", "4/63", "16/63"))),
        ]:
            pair = uni_to_max(state, orbit)
            assert len(pair.coroots) == pair.local_degree - 2
            assert len(pair.majors) == pair.local_degree - 1

    def test_local_degree_is_the_critical_group_size(self):
        pair = uni_to_max(cubic_state(), RotationalOrbit(3, pts("1/8", "3/8")))
        assert pair.local_degree == len(pair.all_critical) == 3
        # two critical points: local degree 2 disagrees with the four-gon
        with pytest.raises(ValueError):
            dataclasses.replace(pair, all_critical=pair.all_critical[:2])


class TestMajorLengthLemma:
    def test_enumerated_unicritical_orbits(self):
        # every orbit that admits a compatible critical polygon anchor obeys
        # the length window around 1/d
        for d in (2, 3, 4):
            for q in range(1, 6):
                for orbit in enumerate_rotational_orbits(d, q):
                    if orbit.rotation == 0 or len(orbit.points) < 2:
                        continue
                    if unicritical_anchor(d, orbit) is None:
                        continue
                    try:
                        majors = [major_minor(d, orbit.hull_sides()).major]
                    except MajorTieError as tie:
                        majors = list(tie.candidates)
                    for major in majors:
                        assert major_length_bound_check(d, major), orbit

    def test_diameter_escapes_window_and_anchor(self):
        # the length lemma genuinely needs the anchor hypothesis
        orbit = RotationalOrbit(3, pts("1/4", "3/4"))
        mm = major_minor(3, orbit.hull_sides())
        assert not major_length_bound_check(3, mm.major)
        assert unicritical_anchor(3, orbit) is None


class TestRotationProperties:
    @given(st.integers(2, 5), st.integers(0, 3))
    def test_fixed_points_have_rotation_zero(self, d, i):
        t = angle(fr(i % (d - 1), d - 1))
        assert rotation_number(d, (t,)) == 0

    @given(st.integers(0, 6))
    def test_orbit_rotation_matches_enumeration(self, k):
        # re-deriving the rotation from any single orbit point gives the same value
        orbits = enumerate_rotational_orbits(3, 3)
        orbit = orbits[k % len(orbits)]
        assert rotation_number(3, orbit.points) == orbit.rotation


# ---------------------------------------------------------------------------
# Output pins.  The SHA-256 digests below were recorded from the Fraction
# implementation of the rotation layer; the integer kernel must reproduce
# every byte.

AC13_GRID = [(2, 5), (2, 7), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5)]
AC13_GRID += [(5, 3), (5, 4), (6, 3), (7, 2), (7, 3), (8, 2)]


@lru_cache(maxsize=None)
def ac13_orbits():
    """(orbit, anchor, depth-2 unicritical lamination or None) for every orbit of the grid."""
    out = []
    for d, q in AC13_GRID:
        for o in enumerate_rotational_orbits(d, q):
            verts = unicritical_anchor(d, o)
            state = None
            if verts is not None:
                F0 = Lamination(d, frozenset(o.hull_sides()))
                sides = (Leaf(*verts),) if d == 2 else Polygon(verts).sides
                state = pullback(F0, CriticalPortrait(d, frozenset(sides)), 2)
            out.append((o, verts, state))
    return out


def cycles(d, q):
    """Every cycle of exact period q of x -> d*x mod d^q - 1, as sorted residues.

    Rotational cycles and the others alike.
    """
    mod = d**q - 1
    seen = set()
    out = []
    for k in range(mod):
        if k in seen:
            continue
        cyc = [k]
        cur = k * d % mod
        while cur != k:
            cyc.append(cur)
            cur = cur * d % mod
        seen.update(cyc)
        if len(cyc) == q:
            out.append(tuple(sorted(cyc)))
    return out


def number_cases():
    """(degree, point values): single cycles, cycles missing a point, cycles with a
    preperiodic point, unions of two cycles of one period and cycles with a fixed point."""
    for d in (2, 3, 4):
        fixed = [fr(k, d - 1) for k in range(d - 1)]
        for q in range(1, 5):
            mod = d**q - 1
            cyc = [tuple(fr(k, mod) for k in c) for c in cycles(d, q)]
            for i, c in enumerate(cyc):
                yield d, c
                if len(c) > 1:
                    yield d, c[1:]
                yield d, c + ((c[0] + 1) / d,)
                yield d, c + (fixed[i % len(fixed)],)
                if q <= 3 and i + 1 < len(cyc):
                    yield d, c + cyc[i + 1]


def result(call):
    """A call's value, or its error with the index or candidates it carries."""
    try:
        return call()
    except NotRotational as exc:
        return "NotRotational", str(exc), exc.index
    except MajorTieError as exc:
        return "MajorTieError", str(exc), exc.candidates
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def rotation_output_texts():
    """The texts whose digests are pinned, by name."""
    from lamlab.cli import _correspondence_obj, main

    texts = {}
    lines = []
    for d in range(2, 7):
        for q in range(1, 7):
            for p in [None] + [p for p in range(q) if math.gcd(p, q) == 1]:
                argv = ["rot", "orbits", "--degree", str(d), "--period", str(q)]
                if p is not None:
                    argv += ["--rotation", f"{p}/{q}"]
                lines.append(" ".join(argv))
                lines.append(str(result(lambda: json.dumps(_cli_stdout(main, argv)))))
    texts["rot orbits"] = "\n".join(lines)

    anchors, pairs = [], []
    for o, verts, state in ac13_orbits():
        anchors.append(f"{o.degree} {list(map(str, o.points))} {verts}")
        if state is None:
            continue
        there = uni_to_max(state, o)
        back = max_to_uni(state, Polygon(there.max_polygon.points))
        pairs.append(json.dumps(_correspondence_obj(there)))
        pairs.append(json.dumps(_correspondence_obj(back)))
    texts["anchors"] = "\n".join(anchors)
    texts["correspondence"] = "\n".join(pairs)

    numbers = []
    for d, values in number_cases():
        numbers.append(f"{d} {list(map(str, values))}")
        numbers.append(str(result(lambda: rotation_number(d, values))))
        numbers.append(str(result(lambda: RotationalOrbit(d, pts(*values)).rotation)))
        numbers.append(str(result(lambda: RotationalOrbit(d, pts(*values), fr(1, 2)).rotation)))
    texts["rot number"] = "\n".join(numbers)
    return texts


def _cli_stdout(main, argv):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


ROTATION_OUTPUT_DIGESTS = {
    "rot orbits": "0e92577f29d84e083a4d7c669f856c0293a2f586092a3c0ef180f4a5686a2d6f",
    "anchors": "cd537a182de708c9477018a37f35491a61e79069bdd398f67a3658a5a8ee0756",
    "correspondence": "6e21b12ee08250f5b8de2d7df9c1666cf77da1fffd04f2f5d8db1d1a2757ea64",
    "rot number": "0dfaa3ab8013d6fdc81583ada69798db2b94f550e800df8d1a42493a8a718e76",
}


def test_rotation_outputs_pinned():
    got = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in rotation_output_texts().items()
    }
    assert got == ROTATION_OUTPUT_DIGESTS



# ---------------------------------------------------------------------------
# Fraction oracles.  The rotation layer runs on integer numerators over a
# common denominator; these are the Fraction routines it replaced, compared
# with it on every orbit of the grid and on drawn point sets.  The faces come
# from `half_edge_faces`, so the gap oracle shares no code with the sweep.


def fraction_rotation_number(d, points):
    pts = sorted({angle(x) for x in points})
    if not pts:
        raise ValueError("rotation number needs at least one point")
    q = len(pts)
    index = {x: i for i, x in enumerate(pts)}
    shift = None
    for i, x in enumerate(pts):
        j = index.get(sigma(d, x))
        if j is None:
            raise NotRotational(f"the image of point {i} ({x}) leaves the set", i)
        s = (j - i) % q
        if shift is None:
            shift = s
        elif s != shift:
            raise NotRotational(f"the index shift breaks at point {i} ({x})", i)
    return Fraction(shift, q)


def fraction_orbit(d, points, rotation=None):
    """Reference RotationalOrbit construction: (sorted points, rotation)."""
    raw = tuple(points)
    pts = tuple(sorted({angle(x) for x in raw}))
    if len(pts) != len(raw):
        raise ValueError("rotational set points must be distinct")
    rho = fraction_rotation_number(d, pts)
    if rotation is not None and Fraction(rotation) != rho:
        raise ValueError(f"stated rotation {rotation} but the set rotates by {rho}")
    return pts, rho if rotation is None else rotation


def fraction_hull_sides(points):
    if len(points) == 1:
        return ()
    if len(points) == 2:
        return (Leaf(points[0], points[1]),)
    return Polygon(points).sides


def fraction_major_minor(d, sides):
    side_set = frozenset(sides)
    if not side_set:
        raise ValueError("empty side collection")
    for s in side_set:
        img = leaf_image(d, s)
        if not isinstance(img, Leaf):
            raise ValueError(f"side {s} collapses to a point")
        if img not in side_set:
            raise ValueError(f"side {s} maps to {img}, outside the collection")
    floor = Fraction(1, d + 1)
    candidates = [s for s in side_set if s.length >= floor]
    if not candidates:
        longest = max(s.length for s in side_set)
        candidates = [s for s in side_set if s.length == longest]
    target = Fraction(1, d)
    best = min(abs(s.length - target) for s in candidates)
    winners = sorted(s for s in candidates if abs(s.length - target) == best)
    if len(winners) > 1:
        raise MajorTieError(
            f"{len(winners)} sides are equally close to length 1/{d}", tuple(winners)
        )
    major = winners[0]
    return MajorMinor(d, tuple(sorted(side_set)), major, leaf_image(d, major))


def fraction_unicritical_anchor(d, orbit):
    sides = fraction_hull_sides(orbit.points)
    if not sides:
        return None
    try:
        anchors = list(fraction_major_minor(d, sides).major.endpoints)
    except MajorTieError as tie:
        anchors = sorted({p for s in tie.candidates for p in s.endpoints})
    step = Fraction(1, d)
    for anchor in anchors:
        verts = tuple(sorted(anchor + step * j for j in range(d)))
        gon = [Leaf(verts[i], verts[(i + 1) % d]) for i in range(d)]
        if not any(leaves_cross(g, s) for g in gon for s in sides):
            return verts
    return None


def fraction_central_gap(state, polygon):
    if state.degree != polygon.degree:
        raise ValueError("degree mismatch between lamination and polygon")
    if polygon.rotation == 0:
        raise ValueError("the polygon must have nonzero rotation number")
    mm = fraction_major_minor(state.degree, fraction_hull_sides(polygon.points))
    hits = []
    subdivision = half_edge_faces(state.final)
    for group in state.portrait.vertex_groups:
        wanted = set(group) | set(mm.major.endpoints)
        for f in subdivision:
            if wanted <= set(f.vertices):
                hits.append((f, group))
    if len(hits) != 1:
        raise ValueError(
            f"central gap not identified: {len(hits)} candidate faces "
            "(insufficient depth or incompatible polygon)"
        )
    return hits[0]


def fraction_find_coroots(state, polygon):
    gap, group = fraction_central_gap(state, polygon)
    d = state.degree
    q = len(polygon.points)
    if polygon.rotation.denominator != q:
        raise ValueError(f"the polygon's {q} points form several cycles")
    local_degree = len(group)
    mm = fraction_major_minor(d, fraction_hull_sides(polygon.points))
    found = []
    for candidate in enumerate_rotational_orbits(d, q, polygon.rotation.numerator):
        for x in candidate.points:
            if not on_closure(gap, x) or x in mm.major.endpoints:
                continue
            y = sigma(d, x)
            while not on_closure(gap, y):
                y = sigma(d, y)
            if y == x:
                found.append(x)
    if len(found) != local_degree - 2:
        raise ValueError(
            f"found {len(found)} co-roots where {local_degree - 2} were expected "
            "(insufficient depth or non-canonical input)"
        )
    if local_degree == d:
        for a, b in itertools.combinations(found, 2):
            if a.distance(b) <= Fraction(1, d):
                raise ValueError(f"co-roots {a} and {b} are within 1/{d} of each other")
    return CoRootSet(gap, group, tuple(sorted(found)))


def assert_orbit_layer_agrees(d, values):
    """Kernel against oracle on one point set: rotation, orbit, major and anchors."""
    assert result(lambda: rotation_number(d, values)) == result(
        lambda: fraction_rotation_number(d, values)
    )
    for rotation in (None, fr(1, 2), fr(1, 3)):
        got = result(lambda: RotationalOrbit(d, pts(*values), rotation))
        want = result(lambda: fraction_orbit(d, values, rotation))
        if isinstance(got, RotationalOrbit):
            got = got.points, got.rotation
        assert got == want, (d, values, rotation)
    o = result(lambda: RotationalOrbit(d, pts(*values)))
    if not isinstance(o, RotationalOrbit):
        return
    D, nums = o._scaled
    assert [Fraction(x, D) for x in nums] == [t.value for t in o.points]
    assert math.gcd(D, *nums) == 1
    assert o.hull_sides() == fraction_hull_sides(o.points)
    if o.hull_sides():
        assert result(lambda: major_minor(d, o.hull_sides())) == result(
            lambda: fraction_major_minor(d, o.hull_sides())
        )
    for e in range(2, 6):
        # another degree's map need not carry the sides onto each other
        assert result(lambda: unicritical_anchor(e, o)) == result(
            lambda: fraction_unicritical_anchor(e, o)
        ), (e, o)


def truncated(state, depth):
    return dataclasses.replace(state, stages=state.stages[: depth + 1])


class TestFractionOracles:
    def test_grid_orbits(self):
        for o, verts, _ in ac13_orbits():
            d = o.degree
            D, nums = o._scaled
            assert RotationalOrbit(d, o.points)._scaled == (D, nums)
            assert rotation_number(d, o.points) == fraction_rotation_number(d, o.points)
            assert o.hull_sides() == fraction_hull_sides(o.points)
            assert result(lambda: major_minor(d, o.hull_sides())) == result(
                lambda: fraction_major_minor(d, o.hull_sides())
            )
            assert verts == fraction_unicritical_anchor(d, o)

    def test_grid_gaps_and_coroots(self):
        # every anchored orbit on its own lamination, at depths 1 and 2, and
        # on the lamination of the next anchored orbit of its degree
        anchored = [(o, state) for o, _, state in ac13_orbits() if state is not None]
        for (o, state), (other, _) in zip(anchored, anchored[1:] + anchored[:1]):
            cases = [(truncated(state, 1), o), (state, o)]
            if other.degree == o.degree:
                cases.append((state, other))
            for st_, polygon in cases:
                assert result(lambda: central_gap(st_, polygon)) == result(
                    lambda: fraction_central_gap(st_, polygon)
                ), polygon
                assert result(lambda: find_coroots(st_, polygon)) == result(
                    lambda: fraction_find_coroots(st_, polygon)
                ), polygon

    def test_named_configurations(self):
        configs = [
            (rabbit_state(), rabbit_orbit()),
            (cubic_state(), RotationalOrbit(3, pts("1/8", "3/8"))),
            (cubic_state(), RotationalOrbit(3, pts("1/8", "1/4", "3/8", "3/4"))),
            (quartic_global_state(), RotationalOrbit(4, pts("1/63", "4/63", "16/63"))),
            (quartic_local_state(), RotationalOrbit(4, pts("22/63", "25/63", "37/63"))),
            (quartic_reanchored_state(), RotationalOrbit(4, pts("22/63", "25/63", "37/63"))),
            (quartic_global_state(), RotationalOrbit(4, pts("22/63", "25/63", "37/63"))),
        ]
        for state, polygon in configs:
            for depth in range(state.depth + 1):
                st_ = truncated(state, depth)
                assert result(lambda: central_gap(st_, polygon)) == result(
                    lambda: fraction_central_gap(st_, polygon)
                )
                assert result(lambda: find_coroots(st_, polygon)) == result(
                    lambda: fraction_find_coroots(st_, polygon)
                )

    def test_tie_candidates(self):
        # an equilateral triangle and a half-turn symmetric 4-gon tie
        for d, values in [
            (4, ("1/9", "4/9", "7/9")),
            (3, ("1/16", "3/16", "9/16", "11/16")),
            (3, ("1/4", "3/4")),
        ]:
            o = RotationalOrbit(d, pts(*values))
            got = result(lambda: major_minor(d, o.hull_sides()))
            assert got == result(lambda: fraction_major_minor(d, o.hull_sides()))
            assert_orbit_layer_agrees(d, tuple(Fraction(v) for v in values))
        triangle = RotationalOrbit(4, pts("1/9", "4/9", "7/9"))
        tie = result(lambda: major_minor(4, triangle.hull_sides()))
        assert tie[0] == "MajorTieError" and len(tie[2]) == 3

    def test_number_cases(self):
        # cycles, cycles missing a point or joined by a preperiodic point,
        # unions of two cycles and cycles with a fixed point
        for d, values in number_cases():
            assert_orbit_layer_agrees(d, values)

    @settings(max_examples=150)
    @given(st.data())
    def test_drawn_point_sets(self, data):
        d = data.draw(st.integers(2, 4), label="d")
        values = set()
        for _ in range(data.draw(st.integers(1, 3), label="pieces")):
            kind = data.draw(st.sampled_from(["cycle", "drop", "point"]))
            if kind == "point":
                m = data.draw(st.integers(2, 40))
                values.add(fr(data.draw(st.integers(0, m - 1)), m))
                continue
            q = data.draw(st.integers(1, 4))
            mod = d**q - 1
            k = data.draw(st.integers(0, mod - 1))
            cyc = [k]
            while (cur := cyc[-1] * d % mod) != k:
                cyc.append(cur)
            values.update(fr(x, mod) for x in cyc[kind == "drop" :])
        if values:
            assert_orbit_layer_agrees(d, tuple(sorted(values)))

    @settings(max_examples=150)
    @given(st.data())
    def test_drawn_side_collections(self, data):
        # leaf orbits are closed unless a leaf collapses; loose leaves are not
        d = data.draw(st.integers(2, 4), label="d")
        sides = set()
        for _ in range(data.draw(st.integers(1, 3), label="pieces")):
            m = data.draw(st.sampled_from([d**2 - 1, d**3 - 1, 2 * (d**2 - 1), 12]))
            a, b = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
            leaf = lf(fr(a, m), fr(b, m))
            if data.draw(st.booleans(), label="whole orbit"):
                while isinstance(leaf, Leaf) and leaf not in sides:
                    sides.add(leaf)
                    leaf = leaf_image(d, leaf)
            else:
                sides.add(leaf)
        sides = sorted(sides)
        assert result(lambda: major_minor(d, sides)) == result(
            lambda: fraction_major_minor(d, sides)
        )
