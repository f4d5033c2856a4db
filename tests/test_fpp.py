"""Tests for fixed-point groupings, sectors, and canonical critical placements."""
import itertools
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lamlab import fpp
from lamlab.circle import angle, sigma
from lamlab.fpp import (
    CanonicalPortraitChoice,
    FixedPointPortrait,
    FixedSector,
    _blocks_cross,
    _noncrossing,
    canonical_portraits,
    enumerate_fpps,
    fixed_sectors,
    fpps_up_to_rotation,
)
from lamlab.leaves import Arc, Lamination, Leaf, Polygon
from lamlab.pullback import _within, canonical_lamination
from states import fr, lf
from test_circle import ccw_span, fixed_points
from test_leaves import arc_contains, arc_length, contains_point, faces


def catalan_oracle(n):
    # standard convolution recurrence, independent of the enumerator
    cs = [1]
    for m in range(1, n + 1):
        cs.append(sum(cs[i] * cs[m - 1 - i] for i in range(m)))
    return cs[n]


def gap_walk_blocks_cross(b1, b2, n):
    """Reference: the gap walk `_blocks_cross` used before it read hull sides."""
    # b2 must sit inside a single gap between consecutive b1 members
    gaps = sorted(b1)
    positions = set()
    for x in b2:
        for i, g in enumerate(gaps):
            nxt = gaps[(i + 1) % len(gaps)]
            lo, hi = g, nxt
            span = (hi - lo) % n or n
            if 0 < (x - lo) % n < span:
                positions.add(i)
                break
        else:
            return True  # x coincides with a b1 member
    return len(positions) > 1


def combination_fpps(d):
    """Reference: the portrait enumeration that chose each first block by combinations."""

    def partitions(elems):
        if not elems:
            yield ()
            return
        x = elems[0]
        rest = elems[1:]
        for k in range(len(rest) + 1):
            for combo in itertools.combinations(range(len(rest)), k):
                block = (x,) + tuple(rest[i] for i in combo)
                segments = []
                prev = -1
                for i in combo:
                    segments.append(rest[prev + 1 : i])
                    prev = i
                segments.append(rest[prev + 1 :])
                for sub in product_partitions(segments):
                    yield (block,) + sub

    def product_partitions(segments):
        if not segments:
            yield ()
            return
        head, tail = segments[0], segments[1:]
        for p1 in partitions(head):
            for p2 in product_partitions(tail):
                yield p1 + p2

    out = [FixedPointPortrait(d, p) for p in partitions(tuple(range(d - 1)))]
    return sorted(set(out), key=lambda P: (len(P.blocks), P.blocks))


def rotating_fpps_up_to_rotation(d):
    """Reference: the least of the d - 1 rotated, validated portraits per class."""
    out = []
    for P in enumerate_fpps(d):
        orbit = [P.rotated(k) for k in range(d - 1)]
        if min(orbit, key=lambda Q: (len(Q.blocks), Q.blocks)) == P:
            out.append(P)
    return out


def fraction_fixed_sectors(P):
    """Reference: the sectors split from the hull's Fraction faces at every fixed point."""
    d = P.degree
    fps = [angle(x) for x in fixed_points(d)]
    out = []
    for f in faces(Lamination(d, P.hull_leaves)):
        if not f.arcs:
            continue
        arcs = []
        for a in f.arcs:
            if a.start == a.end:
                # whole circle: cut at every fixed point
                if len(fps) == 1:
                    arcs.append(Arc(fps[0], fps[0]))
                else:
                    for i, p in enumerate(fps):
                        arcs.append(Arc(p, fps[(i + 1) % len(fps)]))
                continue
            interior = sorted(
                (p for p in fps if arc_contains(a, p, closed=False)),
                key=lambda p: ccw_span(a.start, p),
            )
            chain = [a.start, *interior, a.end]
            arcs.extend(Arc(u, v) for u, v in zip(chain, chain[1:]))
        arcs.sort()
        out.append(FixedSector(d, tuple(arcs), tuple(sorted(f.leaves))))
    out.sort(key=lambda s: s.arcs[0])
    return out


def fraction_arc_runs(arcs):
    """Reference: maximal chains of arcs sharing endpoints, joined across the circle seam."""
    if len(arcs) == 1 and arcs[0].start == arcs[0].end:
        return [list(arcs)]
    by_start = {a.start: a for a in arcs}
    ends = {a.end for a in arcs}
    begins = [a for a in arcs if a.start not in ends]
    if not begins:
        # a single cycle covering the whole circle
        chain = [arcs[0]]
        while chain[-1].end != chain[0].start or len(chain) < len(arcs):
            chain.append(by_start[chain[-1].end])
            if len(chain) > len(arcs):
                raise AssertionError("arc adjacency is not a single cycle")
        return [chain]
    runs = []
    for b in sorted(begins):
        chain = [b]
        while chain[-1].end in by_start:
            chain.append(by_start[chain[-1].end])
        runs.append(chain)
    runs.sort(key=lambda r: r[0])
    return runs


def fraction_run_placements(d, run):
    """Reference: the placements found by trying every anchor and Fraction offset."""
    r = len(run)
    full_circle = run[0].start == run[-1].end and sum(map(arc_length, run)) == 1
    start = run[0].start
    span = sum(map(arc_length, run), Fraction(0))
    anchors = [run[0].start]
    for a in run:
        if a.end not in anchors:
            anchors.append(a.end)
    found = {}
    for f in anchors:
        for j in range(r + 1):
            t = f.value - Fraction(j, d)
            verts = tuple(sorted(angle(t + Fraction(i, d)) for i in range(r + 1)))
            if len(set(verts)) != r + 1:
                continue
            if not full_circle:
                rel = ccw_span(start, angle(t))
                if rel + Fraction(r, d) > span:
                    continue
            if verts not in found:
                found[verts] = Leaf(*verts) if r == 1 else Polygon(verts)
    return [found[k] for k in sorted(found)]


def fraction_canonical_placements(P):
    """Reference: every combination of the Fraction per-run placements, in order."""
    sectors = fraction_fixed_sectors(P)
    options = [
        fraction_run_placements(P.degree, run)
        for S in sectors
        for run in fraction_arc_runs(S.arcs)
    ]
    return list(itertools.product(*options))


class TestPortraitValidation:
    def test_normalization(self):
        P = FixedPointPortrait(5, ((1, 0), (3, 2)))
        assert P.blocks == ((0, 1), (2, 3))

    def test_singletons_dropped(self):
        P = FixedPointPortrait(5, ((0, 1), (2,), (3,)))
        assert P.blocks == ((0, 1),)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            FixedPointPortrait(3, ((0, 2),))

    def test_duplicate_index(self):
        with pytest.raises(ValueError):
            FixedPointPortrait(5, ((0, 1), (1, 2)))

    def test_crossing_blocks_rejected(self):
        with pytest.raises(ValueError):
            FixedPointPortrait(5, ((0, 2), (1, 3)))

    def test_nested_blocks_ok(self):
        FixedPointPortrait(8, ((0, 4), (1, 3)))

    def test_blocks_cross_matches_gap_walk(self):
        # every ordered pair of disjoint blocks on n <= 8 fixed points
        pairs = 0
        for n in range(2, 9):
            blocks = [b for k in range(2, n + 1) for b in itertools.combinations(range(n), k)]
            for b1, b2 in itertools.product(blocks, repeat=2):
                if not set(b1) & set(b2):
                    assert _blocks_cross(b1, b2) == gap_walk_blocks_cross(b1, b2, n)
                    pairs += 1
        assert pairs == 5482

    def test_noncrossing_matches_pairwise_scan(self):
        # every set partition of n <= 8 fixed points, so every block set of
        # every degree d <= 9, crossing or not
        def partitions(elems):
            if not elems:
                yield []
                return
            x, rest = elems[0], elems[1:]
            for p in partitions(rest):
                yield [(x,), *p]
                for i, b in enumerate(p):
                    yield [*p[:i], (x, *b), *p[i + 1 :]]

        counts = {False: 0, True: 0}
        for n in range(1, 9):
            for p in partitions(tuple(range(n))):
                blocks = sorted(b for b in p if len(b) > 1)
                want = not any(_blocks_cross(b1, b2) for b1, b2 in itertools.combinations(blocks, 2))
                assert _noncrossing(blocks) == want
                counts[want] += 1
        # Bell(1) + ... + Bell(8), of which the Catalan numbers are non-crossing
        assert counts == {True: 2055, False: 3240}

    @given(st.integers(4, 80).flatmap(lambda n: st.permutations(range(n))), st.data())
    def test_crossing_error_names_first_pair(self, order, data):
        # a random set partition into blocks of two or more: the check agrees
        # with the pairwise scan, whose first crossing pair the error names
        bounds = [0]
        for c in sorted(data.draw(st.sets(st.integers(2, len(order) - 2)))):
            if c - bounds[-1] >= 2:
                bounds.append(c)
        bounds.append(len(order))
        blocks = sorted(tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:]))
        crossing = [(b1, b2) for b1, b2 in itertools.combinations(blocks, 2) if _blocks_cross(b1, b2)]
        assert _noncrossing(blocks) == (not crossing)
        if crossing:
            b1, b2 = crossing[0]
            with pytest.raises(ValueError, match=rf"^blocks {re.escape(str(b1))} and {re.escape(str(b2))} cross$"):
                FixedPointPortrait(len(order) + 1, blocks)

    def test_many_blocks_checked_fast(self):
        # 2,000 nested blocks at degree 4,001: about 2 million block pairs for a pairwise scan
        blocks = tuple((i, 3999 - i) for i in range(2000))
        start = time.perf_counter()
        P = FixedPointPortrait(4001, blocks)
        assert time.perf_counter() - start < 0.5
        assert len(P.blocks) == 2000

    def test_hull_leaves(self):
        P = FixedPointPortrait(5, ((0, 1),))
        assert P.hull_leaves == frozenset({lf(0, fr(1, 4))})
        T = FixedPointPortrait(5, ((0, 1, 2),))
        assert len(T.hull_leaves) == 3
        polygons = [Polygon(tuple(T.point(i) for i in b)) for b in T.blocks if len(b) >= 3]
        assert polygons == [Polygon((angle(0), angle(fr(1, 4)), angle(fr(1, 2))))]

    def test_hulls_forward_invariant(self):
        for P in enumerate_fpps(6):
            for l in P.hull_leaves:
                assert sigma(6, l.a) == l.a and sigma(6, l.b) == l.b


class TestEnumeration:
    @pytest.mark.parametrize("d,count", [(2, 1), (3, 2), (4, 5), (5, 14), (6, 42)])
    def test_counts(self, d, count):
        assert len(enumerate_fpps(d)) == count

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_recurrence(self, d):
        assert len(enumerate_fpps(d)) == catalan_oracle(d - 1)

    def test_degree_three_both(self):
        ps = enumerate_fpps(3)
        assert [P.blocks for P in ps] == [(), ((0, 1),)]

    def test_all_distinct(self):
        ps = enumerate_fpps(6)
        assert len(set(ps)) == len(ps)

    @pytest.mark.parametrize("d", range(2, 12))
    def test_equals_combination_oracle(self, d):
        assert enumerate_fpps(d) == combination_fpps(d)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_up_to_rotation_equals_rotating_oracle(self, d):
        assert fpps_up_to_rotation(d) == rotating_fpps_up_to_rotation(d)

    def test_up_to_rotation_d5(self):
        assert len(fpps_up_to_rotation(5)) == 6

    def test_up_to_rotation_d3(self):
        assert len(fpps_up_to_rotation(3)) == 2

    def test_representatives_are_least(self):
        for P in fpps_up_to_rotation(6):
            n = P.degree - 1
            for k in range(n):
                Q = P.rotated(k)
                assert (len(P.blocks), P.blocks) <= (len(Q.blocks), Q.blocks)

    @given(st.integers(2, 7))
    def test_rotation_classes_partition(self, d):
        reps = fpps_up_to_rotation(d)
        n = d - 1
        covered = {Q for P in reps for Q in (P.rotated(k) for k in range(n))}
        assert covered == set(enumerate_fpps(d))


class TestSectors:
    def test_quarter_two_sectors(self):
        P = FixedPointPortrait(5, ((0, 1),))
        ss = fixed_sectors(P)
        assert len(ss) == 2
        small, big = ss
        assert len(small.arcs) == 1 and small.sector_degree == 2
        assert len(big.arcs) == 3 and big.sector_degree == 4
        assert small.boundary_leaves == big.boundary_leaves == (lf(0, fr(1, 4)),)

    def test_degree_budget(self):
        for d in range(2, 7):
            for P in enumerate_fpps(d):
                ss = fixed_sectors(P)
                assert sum(S.sector_degree - 1 for S in ss) == d - 1

    def test_arc_lengths_uniform(self):
        for P in enumerate_fpps(5):
            for S in fixed_sectors(P):
                for a in S.arcs:
                    assert arc_length(a) == fr(1, 4)

    def test_triangle_sectors(self):
        P = FixedPointPortrait(5, ((0, 1, 2),))
        ss = fixed_sectors(P)
        assert [len(S.arcs) for S in ss] == [1, 1, 2]
        assert ss[2].sector_degree == 3

    def test_empty_portrait_one_sector(self):
        ss = fixed_sectors(FixedPointPortrait(5))
        assert len(ss) == 1
        assert len(ss[0].arcs) == 4
        assert ss[0].boundary_leaves == ()

    def test_degree_two_full_circle(self):
        (S,) = fixed_sectors(FixedPointPortrait(2))
        assert len(S.arcs) == 1
        assert arc_length(S.arcs[0]) == 1
        assert S.sector_degree == 2
        assert _within(S, [1], 3)

    def test_central_sector_of_double_leaf(self):
        P = FixedPointPortrait(5, ((0, 1), (2, 3)))
        ss = fixed_sectors(P)
        degs = sorted(S.sector_degree for S in ss)
        assert degs == [2, 2, 3]
        central = next(S for S in ss if S.sector_degree == 3)
        assert len(central.boundary_leaves) == 2

    @pytest.mark.parametrize("d", range(2, 9))
    def test_equals_fraction_oracle(self, d):
        for P in enumerate_fpps(d):
            got, want = fixed_sectors(P), fraction_fixed_sectors(P)
            assert [(S.arcs, S.boundary_leaves, S.sector_degree) for S in got] == [
                (S.arcs, S.boundary_leaves, S.sector_degree) for S in want
            ]

    def test_sector_membership(self):
        P = FixedPointPortrait(5, ((0, 1),))
        small, big = fixed_sectors(P)
        # `_within` tests closed membership of points x/8 on the unit arcs
        for S, x, inside in [(small, 1, True), (small, 5, False), (big, 5, True), (big, 2, True)]:
            assert _within(S, [x], 8) == inside == contains_point(S, angle(fr(x, 8)))
        # 1/4, the shared endpoint, lies on the closed sectors only
        assert not contains_point(big, angle(fr(1, 4)), closed=False)


class TestCanonicalPlacements:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_equals_fraction_oracle(self, d):
        for P in enumerate_fpps(d):
            got = [c.placements for c in canonical_portraits(P)]
            assert got == fraction_canonical_placements(P)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_first_choice_built_alone(self, d):
        for P in enumerate_fpps(d):
            assert P._first_choice() == canonical_portraits(P)[0]

    def test_canonical_lamination_builds_one_choice(self, monkeypatch):
        # degree 13, portrait 0-1,2-3,...,10-11: 2^12 = 4,096 choices in all
        built = []

        class Counted(CanonicalPortraitChoice):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(fpp, "CanonicalPortraitChoice", Counted)
        P = FixedPointPortrait(13, tuple((i, i + 1) for i in range(0, 12, 2)))
        canonical_lamination(P, 0)
        monkeypatch.undo()
        assert built == [(P, P._first_choice().placements)]

    def test_quarter_small_sector(self):
        P = FixedPointPortrait(5, ((0, 1),))
        choices = canonical_portraits(P)
        assert len(choices) == 8
        smalls = {c.placements[0] for c in choices}
        assert smalls == {lf(0, fr(1, 5)), lf(fr(1, 20), fr(1, 4))}

    def test_quarter_big_sector(self):
        P = FixedPointPortrait(5, ((0, 1),))
        bigs = sorted({c.placements[1] for c in canonical_portraits(P)})
        assert len(bigs) == 4
        assert bigs[0].vertices == tuple(
            angle(x) for x in (0, fr(2, 5), fr(3, 5), fr(4, 5))
        )
        for g in bigs:
            assert len(g.vertices) == 4
            for v in g.vertices:
                assert fr(1, 4) <= v.value <= 1 or v.value == 0

    def test_first_choice_is_sorted_first(self):
        P = FixedPointPortrait(5, ((0, 1),))
        first = canonical_portraits(P)[0]
        assert first.placements[0] == lf(0, fr(1, 5))

    def test_diameter_portrait_choices(self):
        P = FixedPointPortrait(5, ((0, 2),))
        choices = canonical_portraits(P)
        assert len(choices) == 9
        first = choices[0]
        assert [p.vertices for p in first.placements] == [
            tuple(angle(x) for x in (0, fr(1, 5), fr(2, 5))),
            tuple(angle(x) for x in (0, fr(3, 5), fr(4, 5))),
        ]

    def test_empty_degree_two(self):
        choices = canonical_portraits(FixedPointPortrait(2))
        assert len(choices) == 1
        assert choices[0].placements == (lf(0, fr(1, 2)),)

    def test_empty_degree_five(self):
        choices = canonical_portraits(FixedPointPortrait(5))
        assert len(choices) == 4
        for c in choices:
            (g,) = c.placements
            assert len(g.vertices) == 5
            diffs = {
                (g.vertices[(i + 1) % 5].value - g.vertices[i].value) % 1
                for i in range(5)
            }
            assert diffs == {fr(1, 5)}

    def test_two_leaf_central_runs(self):
        P = FixedPointPortrait(5, ((0, 1), (2, 3)))
        choices = canonical_portraits(P)
        assert len(choices) == 16
        # central sector splits into two one-arc runs: chords, not polygons
        for c in choices:
            kinds = [isinstance(p, Leaf) for p in c.placements]
            assert kinds == [True, True, True, True]

    def test_placements_touch_fixed_points(self):
        for P in enumerate_fpps(4):
            for c in canonical_portraits(P):
                fps = {angle(fr(i, 3)) for i in range(3)}
                for p in c.placements:
                    verts = (
                        set(p.endpoints) if isinstance(p, Leaf) else set(p.vertices)
                    )
                    assert verts & fps

    def test_chord_budget(self):
        for d in (2, 3, 4, 5):
            for P in enumerate_fpps(d):
                for c in canonical_portraits(P):
                    total = sum(
                        2 if isinstance(p, Leaf) else len(p.vertices)
                        for p in c.placements
                    )
                    assert total - len(c.placements) == d - 1
