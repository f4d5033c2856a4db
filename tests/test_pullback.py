"""Tests for critical portraits, inverse branches, and staged preimage growth."""
import hashlib
import importlib
import itertools
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import lamlab
from lamlab.circle import angle, sigma
from lamlab.docio import document_from_state, write_document
from lamlab.fpp import FixedPointPortrait, canonical_portraits, enumerate_fpps, fixed_sectors
from lamlab.leaves import (
    Arc,
    Lamination,
    Leaf,
    Polygon,
    _crossers,
    _leaf,
    _point,
    _scaled,
    _strict_siblings,
    check_invariance,
    leaf_image,
    validate_prelamination,
)
from lamlab.pullback import (
    _POLICIES,
    _slices,
    CriticalPortrait,
    InsufficientDepthError,
    PullbackState,
    canonical_lamination,
    classify_sector,
    clp_checks,
    cp_pullback_equality,
    flower_like,
    invariant_gap,
    is_hyperbolic_approx,
    pullback,
)
from lamlab.rotation import enumerate_rotational_orbits, unicritical_anchor
from states import fr, lf, mixed_quartic_state
from test_circle import preimages
from test_leaves import arc_length, contains_point, faces, fibre_matchings, on_closure


def lam(d, pairs):
    return Lamination(d, frozenset(lf(a, b) for a, b in pairs))


def leaf_set(leaves):
    return {(l.a.value, l.b.value) for l in leaves}


def pairs(entries):
    return {(Fraction(a), Fraction(b)) for a, b in entries}


# Degree-5 portrait with the small-sector chord at 0 and the 4-gon hung at 1/4.
def quintic_portrait():
    return CriticalPortrait(
        5,
        frozenset(
            {
                lf(0, "1/5"),
                lf("1/4", "9/20"),
                lf("9/20", "13/20"),
                lf("13/20", "17/20"),
                lf("17/20", "1/4"),
            }
        ),
    )


def diameter_portrait():
    return CriticalPortrait(2, frozenset({lf(0, "1/2")}))


def rabbit_triangle():
    return lam(2, [("1/7", "2/7"), ("2/7", "4/7"), ("4/7", "1/7")])


@lru_cache(maxsize=None)
def quintic_canonical(n):
    return canonical_lamination(FixedPointPortrait(5, ((0, 1),)), n)


@lru_cache(maxsize=None)
def triangle_quartic_state():
    # forward-invariant quadrilateral over the triangle {22/63, 25/63, 37/63}
    F0 = lam(
        4,
        [
            (0, fr(84, 252)),
            (fr(88, 252), fr(100, 252)),
            (fr(100, 252), fr(148, 252)),
            (fr(88, 252), fr(148, 252)),
        ],
    )
    C = CriticalPortrait(
        4,
        frozenset(
            {
                lf(fr(88, 252), fr(151, 252)),
                lf(fr(151, 252), fr(214, 252)),
                lf(fr(88, 252), fr(214, 252)),
                lf(0, fr(63, 252)),
            }
        ),
    )
    return pullback(F0, C, 2)


class TestPortraitValidation:
    def test_non_critical_chord_rejected(self):
        with pytest.raises(ValueError, match="not critical"):
            CriticalPortrait(2, frozenset({lf(0, "1/3")}))

    def test_crossing_chords_rejected(self):
        with pytest.raises(ValueError, match="cross"):
            CriticalPortrait(3, frozenset({lf(0, "1/3"), lf("1/6", "1/2")}))

    def test_criticality_budget_enforced(self):
        with pytest.raises(ValueError, match="criticality 1"):
            CriticalPortrait(3, frozenset({lf(0, "1/3")}))

    def test_least_non_critical_chord_reported(self):
        chords = frozenset({lf(0, "1/3"), lf("1/2", "5/8"), lf("1/8", "1/4")})
        with pytest.raises(ValueError, match=r"chord Leaf\(1/8, 1/4\) is not critical for degree 3"):
            CriticalPortrait(3, chords)

    def test_criticality_counts_vertex_groups(self):
        # the integer union-find against the CirclePoint groups it replaced, which rotation.py reads
        n = 0
        for _, C in itertools.chain(canonical_critical_portraits(7), unicritical_portraits(CORR_GRID)):
            groups = components(C.chords)
            assert C.vertex_groups == tuple(pts for pts, _ in groups), C
            assert sum(len(pts) - 1 for pts, _ in groups) == C.degree - 1
            n += 1
        assert n == 5937 + 100

    def test_budget_accepts_shared_endpoint_paths(self):
        # two chords joined at 0 give criticality 2 without a closed polygon
        C = CriticalPortrait(3, frozenset({lf(0, "1/3"), lf(0, "2/3")}))
        assert [len(g) for g in C.vertex_groups] == [3]

    def test_vertex_groups(self):
        C = triangle_quartic_state().portrait
        groups = [tuple(v.value for v in g) for g in C.vertex_groups]
        assert groups == [
            (fr(0), fr(1, 4)),
            (fr(22, 63), fr(151, 252), fr(107, 126)),
        ]


def components(leaves):
    """Reference for the integer union-find `_groups`: the CirclePoint groups it replaced.

    Endpoint-connected groups of leaves as (sorted vertices, sorted leaves), sorted.
    """
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for l in leaves:
        parent.setdefault(l.a, l.a)
        parent.setdefault(l.b, l.b)
    for l in leaves:
        ra, rb = find(l.a), find(l.b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for l in leaves:
        pts, lvs = groups.setdefault(find(l.a), (set(), []))
        pts.update(l.endpoints)
        lvs.append(l)
    return sorted((tuple(sorted(pts)), tuple(sorted(lvs))) for pts, lvs in groups.values())


def reference_boundary_objects(S):
    """Reference for `FixedSector._objects`: the `components` of S's boundary leaves.

    Each fixed point of S on no boundary leaf is an object of its own.
    """
    objects = components(S.boundary_leaves)
    covered = {p for pts, _ in objects for p in pts}
    ends = {a.start for a in S.arcs} | {a.end for a in S.arcs}
    objects += [((p,), ()) for p in ends - covered]
    return sorted(objects)


@dataclass(frozen=True)
class CriticalSector:
    """One complementary region of a critical portrait's chords, its arcs totalling 1/d.

    The sector boundary maps onto the circle with degree one and carries a
    branch of the inverse.
    """

    degree: int
    chords: tuple[Leaf, ...]
    arcs: tuple[Arc, ...]

    @property
    def terminal(self):
        return len(self.chords) == 1

    @property
    def arc_total(self):
        return sum(map(arc_length, self.arcs), Fraction(0))


def critical_sectors(C):
    """The sector boundaries `C._sectors` as CriticalSectors, in their order."""
    L = C._lamination
    D = L.scaled[0]
    ls = L.sorted_leaves
    return [
        CriticalSector(
            C.degree,
            # leaves sort as their indices into sorted_leaves
            tuple(ls[i] for i in sorted(e[3] for e in b if e[0] == 0)),
            tuple(Arc(_point(u, D), _point(v, D)) for _, u, v in sorted(e for e in b if e[0] == 1)),
        )
        for b in C._sectors
    ]


def reference_critical_sectors(C):
    """Reference for `critical_sectors`: the arc-bearing `Fraction` faces of the chords.

    Each sector's arcs must total 1/d.
    """
    d = C.degree
    out = []
    for f in faces(Lamination(d, C.chords)):
        if not f.arcs:
            continue  # interior of an all-critical polygon, not a sector
        out.append(CriticalSector(d, tuple(sorted(f.leaves)), tuple(sorted(f.arcs))))
    out.sort(key=lambda s: s.arcs[0])
    if len(out) != d or any(s.arc_total != Fraction(1, d) for s in out):
        raise ValueError("portrait does not cut the circle into d unit-degree sectors")
    return out


def branch_inverse(S, t):
    """The unique preimage of t on the closure of S's arcs.

    At a shared chord endpoint two preimages lie on the closed boundary; the
    arc start is preferred so adjacent sectors agree at the seam.  The
    reference for `pullback`'s forced matchings: the chord of sector S
    joins the branch preimages of the frontier leaf's two endpoints.
    """
    cands = [x for x in preimages(S.degree, t) if contains_point(S, x)]
    if not cands:
        raise ValueError(f"no preimage of {t} lies on the sector closure")
    if len(cands) == 1:
        return cands[0]
    starts = {a.start for a in S.arcs}
    anchored = [x for x in cands if x in starts]
    return anchored[0] if anchored else cands[0]


def canonical_critical_portraits(max_degree):
    """Every canonical placement of every portrait of degree 2..max_degree, as (hull, portrait)."""
    for d in range(2, max_degree + 1):
        for P in enumerate_fpps(d):
            for choice in canonical_portraits(P):
                yield Lamination(d, P.hull_leaves), choice.as_critical_portrait()


# the (degree, period) grid of perfbench's correspondence jobs
CORR_GRID = ((2, 7), (2, 9), (3, 5), (3, 6), (4, 4), (4, 5), (4, 6), (5, 3), (5, 4), (5, 5), (6, 3), (6, 4))


def unicritical_portraits(grid):
    """The rotational hull and unicritical polygon portrait of every anchored orbit, as (hull, portrait)."""
    for d, q in grid:
        for o in enumerate_rotational_orbits(d, q):
            verts = unicritical_anchor(d, o)
            if o.rotation == 0 or verts is None:
                continue
            sides = (Leaf(*verts),) if d == 2 else Polygon(verts).sides
            yield Lamination(d, frozenset(o.hull_sides())), CriticalPortrait(d, frozenset(sides))


class TestCriticalSectors:
    """`CriticalPortrait._sectors`, read through `critical_sectors`, against the `Fraction` faces."""

    def test_equal_to_reference_on_canonical_placements(self):
        n = 0
        for _, C in canonical_critical_portraits(7):
            assert critical_sectors(C) == reference_critical_sectors(C), C
            n += 1
        assert n == 5937

    def test_equal_to_reference_on_unicritical_portraits(self):
        n = 0
        for _, C in unicritical_portraits(CORR_GRID):
            assert critical_sectors(C) == reference_critical_sectors(C), C
            n += 1
        assert n == 100

    def test_quintic_sector_layout(self):
        secs = critical_sectors(quintic_portrait())
        flags = [S.terminal for S in secs]
        assert flags == [True, False, True, True, True]
        spans = [[(a.start.value, a.end.value) for a in S.arcs] for S in secs]
        assert spans[0] == [(fr(0), fr(1, 5))]
        # the non-terminal sector wraps through 0 on two arcs
        assert spans[1] == [(fr(1, 5), fr(1, 4)), (fr(17, 20), fr(0))]
        assert all(S.arc_total == fr(1, 5) for S in secs)

    def test_diameter_two_sectors(self):
        secs = critical_sectors(diameter_portrait())
        assert len(secs) == 2
        assert all(S.terminal for S in secs)

    def test_cubic_triangle_path(self):
        C = CriticalPortrait(3, frozenset({lf(0, "1/3"), lf(0, "2/3")}))
        secs = critical_sectors(C)
        assert [S.terminal for S in secs] == [True, False, True]
        assert all(S.arc_total == fr(1, 3) for S in secs)

    def test_all_critical_polygon_interior_excluded(self):
        C = triangle_quartic_state().portrait
        secs = critical_sectors(C)
        assert len(secs) == 4
        assert sum(len(S.chords) for S in secs) >= 4


class TestBranchInverse:
    def test_quintic_examples(self):
        S0 = critical_sectors(quintic_portrait())[0]
        assert branch_inverse(S0, angle("1/4")).value == fr(1, 20)

    def test_shared_endpoint_prefers_arc_start(self):
        # both 0 and 1/5 are preimages of 0 on the closed sector boundary
        S0 = critical_sectors(quintic_portrait())[0]
        assert branch_inverse(S0, angle(0)).value == fr(0)

    def test_diameter_examples(self):
        secs = critical_sectors(diameter_portrait())
        assert branch_inverse(secs[0], angle("2/7")).value == fr(1, 7)
        assert branch_inverse(secs[1], angle("2/7")).value == fr(9, 14)

    def test_outside_fiber_rejected(self):
        S0 = critical_sectors(diameter_portrait())[0]
        assert branch_inverse(S0, angle("2/3")).value == fr(1, 3)

    @given(st.integers(1, 124))
    def test_section_of_the_covering(self, k):
        S0 = critical_sectors(quintic_portrait())[0]
        t = angle(fr(k, 625))
        x = branch_inverse(S0, t)
        assert sigma(5, x) == t
        assert contains_point(S0, x)

    @given(st.integers(1, 124), st.integers(1, 124))
    def test_branch_preserves_order(self, j, k):
        S0 = critical_sectors(quintic_portrait())[0]
        xj = branch_inverse(S0, angle(fr(j, 625)))
        xk = branch_inverse(S0, angle(fr(k, 625)))
        if j != k:
            assert (j < k) == (xj.value < xk.value)


class TestPullbackStages:
    def test_quintic_first_stage(self):
        F0 = lam(5, [(0, "1/4")])
        state = pullback(F0, quintic_portrait(), 1)
        assert leaf_set(state.stages[1].leaves) == pairs(
            [
                (0, fr(1, 4)),
                (fr(1, 20), fr(1, 5)),
                (fr(2, 5), fr(9, 20)),
                (fr(3, 5), fr(13, 20)),
                (fr(4, 5), fr(17, 20)),
            ]
        )

    def test_initial_leaf_reused(self):
        # {0, 1/4} is its own preimage and survives into every stage
        F0 = lam(5, [(0, "1/4")])
        state = pullback(F0, quintic_portrait(), 2)
        target = lf(0, "1/4")
        assert all(target in L.leaves for L in state.stages)

    def test_rabbit_sibling_triangle(self):
        C = CriticalPortrait(2, frozenset({lf("1/14", "4/7")}))
        state = pullback(rabbit_triangle(), C, 1)
        new = state.stages[1].leaves - state.stages[0].leaves
        assert leaf_set(new) == pairs(
            [
                (fr(1, 14), fr(9, 14)),
                (fr(1, 14), fr(11, 14)),
                (fr(9, 14), fr(11, 14)),
            ]
        )

    def test_zero_stages(self):
        F0 = lam(5, [(0, "1/4")])
        state = pullback(F0, quintic_portrait(), 0)
        assert state.depth == 0
        assert state.stages == (F0,)
        assert state.final == F0

    def test_stages_nest(self):
        state = quintic_canonical(3)
        for prev, nxt in zip(state.stages, state.stages[1:]):
            assert prev.leaves <= nxt.leaves

    def test_non_nested_stages_rejected(self):
        state = quintic_canonical(2)
        s0, s1, s2 = state.stages
        # a later stage short of one earlier leaf, on the same grid and on a coarser one
        thinned = Lamination(5, s2.leaves - {min(state.frontier(1))}, depth=2)
        assert thinned.scaled[0] == s2.scaled[0]
        # s2's D, 100, does not divide s0's, 4
        for stages in ((s0, s1, thinned), (s0, s2, s1), (s1, s0), (s2, s0)):
            with pytest.raises(ValueError, match="stages must be nested"):
                PullbackState(5, state.portrait, stages)
        assert PullbackState(5, state.portrait, (s0, s0, s2)).frontier(1) == set()

    def test_frontier_sizes(self):
        state = quintic_canonical(2)
        assert [len(state.frontier(k)) for k in range(3)] == [1, 5, 25]

    @pytest.mark.parametrize("k", [-1, 3])
    def test_frontier_outside_stages_rejected(self, k):
        state = quintic_canonical(2)
        with pytest.raises(ValueError, match="outside 0..2"):
            state.frontier(k)

    def test_second_stage_members(self):
        state = quintic_canonical(2)
        expected = pairs(
            [
                (0, fr(1, 100)),
                (fr(1, 5), fr(21, 100)),
                (fr(2, 5), fr(41, 100)),
                (fr(3, 5), fr(61, 100)),
                (fr(4, 5), fr(81, 100)),
                (fr(1, 25), fr(1, 20)),
                (fr(6, 25), fr(1, 4)),
                (fr(11, 25), fr(9, 20)),
                (fr(16, 25), fr(13, 20)),
                (fr(21, 25), fr(17, 20)),
                (fr(2, 25), fr(9, 100)),
                (fr(7, 25), fr(29, 100)),
                (fr(12, 25), fr(49, 100)),
                (fr(17, 25), fr(69, 100)),
                (fr(22, 25), fr(89, 100)),
                (fr(3, 25), fr(13, 100)),
                (fr(8, 25), fr(33, 100)),
                (fr(13, 25), fr(53, 100)),
                (fr(18, 25), fr(73, 100)),
                (fr(23, 25), fr(93, 100)),
                (fr(4, 25), fr(17, 100)),
                (fr(9, 25), fr(37, 100)),
                (fr(14, 25), fr(57, 100)),
                (fr(19, 25), fr(77, 100)),
                (fr(24, 25), fr(97, 100)),
            ]
        )
        assert leaf_set(state.frontier(2)) == expected

    def test_non_invariant_initial_set_rejected(self):
        F0 = lam(2, [("1/7", "2/7")])
        with pytest.raises(ValueError, match="outside the initial set"):
            pullback(F0, diameter_portrait(), 1)

    def test_portrait_crossing_initial_set_rejected(self):
        F0 = lam(2, [("1/8", "3/8")])
        C = CriticalPortrait(2, frozenset({lf("1/4", "3/4")}))
        with pytest.raises(ValueError, match="crosses initial leaf"):
            pullback(F0, C, 1)

    def test_crossing_initial_set_rejected(self):
        F0 = lam(2, [(0, "1/2"), ("1/4", "3/4")])
        with pytest.raises(ValueError, match="not a pre-lamination"):
            pullback(F0, diameter_portrait(), 1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            pullback(lam(2, []), diameter_portrait(), 1, policy="fastest")

    def test_negative_stage_count_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            pullback(lam(2, []), diameter_portrait(), -1)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            pullback(lam(3, []), diameter_portrait(), 1)

    def test_fixed_point_bound_checked_before_any_work(self, monkeypatch):
        # degree 102 has 101 fixed points, one past the bound
        C = FixedPointPortrait(102)._first_choice().as_critical_portrait()
        module = importlib.import_module("lamlab.pullback")

        def refuse(*args):
            raise AssertionError("stages built")

        monkeypatch.setattr(module, "_stages", refuse)
        with pytest.raises(ValueError, match="degree 102 means 101 fixed points; the limit is 100"):
            pullback(lam(102, []), C, 0)

    def test_portrait_of_another_degree_rejected(self):
        state = canonical_lamination(FixedPointPortrait(3, ((0, 1),)), 2)
        quartic = canonical_portraits(FixedPointPortrait(4, ()))[0].as_critical_portrait()
        with pytest.raises(ValueError, match="portrait degree disagrees with the state"):
            replace(state, portrait=quartic)
        with pytest.raises(ValueError, match="portrait degree disagrees with the state"):
            PullbackState(3, quartic, state.stages)

    def test_state_needs_stage_zero(self):
        with pytest.raises(ValueError, match="a state needs at least stage 0"):
            PullbackState(2, diameter_portrait(), ())

    def test_stage_of_another_degree_rejected(self):
        with pytest.raises(ValueError, match="all stages must share the state's degree"):
            PullbackState(2, diameter_portrait(), (lam(2, []), lam(3, [])))

    def test_fpp_of_another_degree_rejected(self):
        state = canonical_lamination(FixedPointPortrait(3, ((0, 1),)), 2)
        with pytest.raises(ValueError, match="fixed point portrait degree disagrees with the state"):
            replace(state, fpp=FixedPointPortrait(4, ((0, 1),)))
        with pytest.raises(ValueError, match="fixed point portrait degree disagrees with the state"):
            PullbackState(3, state.portrait, state.stages, FixedPointPortrait(4, ()))


def reference_new_pairs(lo, hi):
    """hi's pairs that lo lacks, in order; None unless lo's leaves all lie in hi.

    The pairwise nesting check: lo's pairs rescaled onto hi's grid.
    """
    (D_lo, lo_pairs), (D_hi, hi_pairs) = lo.scaled, hi.scaled
    if not lo_pairs:
        return list(hi_pairs)
    if D_hi % D_lo:
        return None
    up = D_hi // D_lo
    old = {(x * up, y * up) for x, y in lo_pairs}
    new = [p for p in hi_pairs if p not in old]
    return new if len(hi_pairs) - len(new) == len(old) else None


def reference_stage_tags(state):
    """Each final pair's first stage, by walking the stages deepest first."""
    D, pairs = state.final.scaled
    first = {}
    for k in range(state.depth, -1, -1):
        D_k, pairs_k = state.stages[k].scaled
        up = D // D_k
        first.update(dict.fromkeys(((x * up, y * up) for x, y in pairs_k), k))
    return tuple(map(first.__getitem__, pairs))


def reference_frontier(state, k):
    if k == 0:
        return state.stages[0].leaves
    D_k = state.stages[k].scaled[0]
    return frozenset(_leaf(p, D_k) for p in reference_new_pairs(state.stages[k - 1], state.stages[k]))


@lru_cache(maxsize=None)
def first_choice_states(d, n, policy):
    """The pullback of every degree-d portrait's hull under its first canonical placement."""
    return [
        pullback(P._hull, P._first_choice().as_critical_portrait(), n, policy=policy)
        for P in enumerate_fpps(d)
    ]


class TestFirstStageRecord:
    """Each final leaf's first stage is recorded once, by the nesting check, and read everywhere."""

    def assert_matches_references(self, state):
        tags = reference_stage_tags(state)
        assert state._first_stage == tags
        assert document_from_state(state).stages == tags
        for k in range(state.depth + 1):
            assert state.frontier(k) == reference_frontier(state, k)

    @pytest.mark.parametrize("policy", _POLICIES)
    @pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (4, 3), (5, 3), (6, 2)])
    def test_canonical_states(self, d, n, policy):
        for state in first_choice_states(d, n, policy):
            self.assert_matches_references(state)
            rebuilt = document_from_state(state).pullback_state()
            self.assert_matches_references(rebuilt)
            assert rebuilt._first_stage == state._first_stage

    def test_repeated_stage(self):
        s0, s1, s2 = quintic_canonical(2).stages
        state = PullbackState(5, quintic_canonical(2).portrait, (s0, s0, s2))
        self.assert_matches_references(state)
        assert set(state._first_stage) == {0, 2}

    def test_record_is_not_a_field(self):
        state = quintic_canonical(2)
        assert "_first_stage" not in repr(state)
        assert replace(state, fpp=None)._first_stage == state._first_stage

    def test_nesting_agrees_with_pairwise_reference(self):
        state = quintic_canonical(2)
        s0, s1, s2 = state.stages
        thinned = Lamination(5, s2.leaves - {min(state.frontier(1))}, depth=2)
        empty = Lamination(5, frozenset())
        pool = (empty, s0, s1, s2, thinned)
        for size in (1, 2, 3):
            for stages in itertools.product(pool, repeat=size):
                nested = all(
                    reference_new_pairs(lo, hi) is not None for lo, hi in zip(stages, stages[1:])
                )
                if nested:
                    self.assert_matches_references(
                        PullbackState(5, state.portrait, stages)
                    )
                else:
                    with pytest.raises(ValueError, match="stages must be nested"):
                        PullbackState(5, state.portrait, stages)


class TestPortraitChoiceIndependence:
    def test_quintic_choices_agree(self):
        report = cp_pullback_equality(FixedPointPortrait(5, ((0, 1),)), 1)
        assert report.equal
        assert report.choice_count == 8
        assert report.mismatches == ()

    def test_cubic_choices_agree(self):
        report = cp_pullback_equality(FixedPointPortrait(3, ((0, 1),)), 3)
        assert report.equal
        assert report.choice_count == 4

    def test_empty_quadratic(self):
        report = cp_pullback_equality(FixedPointPortrait(2, ()), 2)
        assert report.equal
        assert report.choice_count == 1

    def test_mismatch_reported(self, monkeypatch):
        # the second placement's run loses one leaf of its last stage
        module = importlib.import_module("lamlab.pullback")
        real = module.pullback
        runs = []

        def lossy(F0, C, n):
            state = real(F0, C, n)
            runs.append(state)
            if len(runs) != 2:
                return state
            last = Lamination(state.degree, state.final.leaves - {min(state.frontier(n))}, depth=n)
            return replace(state, stages=state.stages[:-1] + (last,))

        monkeypatch.setattr(module, "pullback", lossy)
        report = cp_pullback_equality(FixedPointPortrait(3, ((0, 1),)), 2)
        assert report.mismatches == ("stage 2: choice 1 differs from choice 0 by 1 leaves",)
        assert not report.equal and report.choice_count == len(runs) == 4

    def test_no_leaf_built_when_placements_agree(self, monkeypatch):
        # the placements come ready-built; comparing the runs builds no Leaf
        P = FixedPointPortrait(4, ((0, 1),))
        choices = canonical_portraits(P)
        for choice in choices:
            choice.chords
        module = importlib.import_module("lamlab.pullback")
        monkeypatch.setattr(module, "canonical_portraits", lambda _: choices)
        built = []
        post_init = Leaf.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Leaf, "__post_init__", counting)
        report = cp_pullback_equality(P, 3)
        assert report.equal and report.choice_count == 6
        assert built == []


class TestCanonicalConstruction:
    def test_quintic_first_stage(self):
        state = quintic_canonical(1)
        assert leaf_set(state.stages[1].leaves) == pairs(
            [
                (0, fr(1, 4)),
                (0, fr(1, 20)),
                (fr(1, 5), fr(1, 4)),
                (fr(2, 5), fr(9, 20)),
                (fr(3, 5), fr(13, 20)),
                (fr(4, 5), fr(17, 20)),
            ]
        )

    def test_quintic_portrait_choice(self):
        # every placed polygon hangs at the joined fixed point 0
        C = quintic_canonical(1).portrait
        assert leaf_set(C.chords) == pairs(
            [
                (0, fr(1, 5)),
                (0, fr(2, 5)),
                (0, fr(4, 5)),
                (fr(2, 5), fr(3, 5)),
                (fr(3, 5), fr(4, 5)),
            ]
        )

    def test_cubic_first_stage(self):
        state = canonical_lamination(FixedPointPortrait(3, ((0, 1),)), 1)
        assert leaf_set(state.stages[1].leaves) == pairs(
            [(0, fr(1, 2)), (0, fr(1, 6)), (fr(1, 3), fr(1, 2)), (fr(2, 3), fr(5, 6))]
        )
        assert leaf_set(state.portrait.chords) == pairs([(0, fr(1, 3)), (0, fr(2, 3))])

    def test_empty_portrait_stays_empty(self):
        state = canonical_lamination(FixedPointPortrait(2, ()), 3)
        assert all(not L.leaves for L in state.stages)
        assert leaf_set(state.portrait.chords) == pairs([(0, fr(1, 2))])

    def test_fixed_point_bound_checked_before_the_portrait(self, monkeypatch):
        def refuse(self):
            raise AssertionError("critical portrait built")

        monkeypatch.setattr(FixedPointPortrait, "_first_choice", refuse)
        with pytest.raises(ValueError, match="degree 102 means 101 fixed points; the limit is 100"):
            canonical_lamination(FixedPointPortrait(102), 0)

    def test_fixed_point_bound_is_inclusive(self):
        state = canonical_lamination(FixedPointPortrait(101), 0)
        assert state.degree == 101
        assert not state.initial.leaves
        # the sides of the all-critical polygon on the 101 points i/101
        assert len(state.portrait.chords) == 101

    def test_policy_recorded(self):
        state = quintic_canonical(1)
        P = FixedPointPortrait(5, ((0, 1),))
        C = P._first_choice().as_critical_portrait()
        assert state.stages == pullback(P._hull, C, 1, policy="shortest").stages
        assert state.fpp == P


class TestStageDiagnostics:
    def test_quintic_report_clean(self):
        report = clp_checks(quintic_canonical(3))
        assert report.ok
        assert report.escape_failures == ()
        assert report.length_failures == ()

    def test_quintic_stage_lengths(self):
        report = clp_checks(quintic_canonical(3))
        assert report.max_new_length == (fr(1, 20), fr(1, 100), fr(1, 500))
        for k, longest in enumerate(report.max_new_length, start=1):
            assert longest <= fr(1, 2 * 5**k)

    def test_quintic_sector_gaps(self):
        report = clp_checks(quintic_canonical(3))
        facts = [(sr.gap_depth, sr.vertex_count, sr.unresolved) for sr in report.sector_reports]
        # the small sector resolves at stage 1; the big one refines all the way down
        assert facts == [(1, 4, ()), (3, 128, ())]
        assert all(sr.ok for sr in report.sector_reports)

    def test_cubic_report_clean(self):
        report = clp_checks(canonical_lamination(FixedPointPortrait(3, ((0, 1),)), 2))
        assert report.ok

    @pytest.mark.parametrize("blocks", [((0, 1, 2, 3),), ((0, 1), (2, 3))])
    def test_each_stage_swept_at_most_once(self, blocks, monkeypatch):
        # the gap walk answers every sector from one face sweep per stage
        swept = []

        def sweep_spy(L):
            swept.append(L)
            return face_sweep(L)

        module = importlib.import_module("lamlab.leaves")
        face_sweep = module._face_sweep
        state = canonical_lamination(FixedPointPortrait(5, blocks), 3)
        monkeypatch.setattr(module, "_face_sweep", sweep_spy)
        clp_checks(state)
        assert 1 <= len(swept) <= 3
        assert len(set(map(id, swept))) == len(swept)
        assert all(any(L is stage for stage in state.stages[1:]) for L in swept)

    def test_escape_and_unresolved_rows(self):
        # a stage-1 leaf whose image 0-2/3 is no leaf of F0 = {0-1/3}
        P = FixedPointPortrait(4, ((0, 1),))
        stray = lf("1/2", "2/3")
        L1 = Lamination(4, P.hull_leaves | {stray}, depth=1)
        C = P._first_choice().as_critical_portrait()
        report = clp_checks(PullbackState(4, C, (P._hull, L1), P))
        assert report.escape_failures == ((1, stray),)
        # the second sector's gap is bounded by the stray leaf, which never reaches 0-1/3
        facts = [(sr.gap_depth, sr.vertex_count, sr.unresolved) for sr in report.sector_reports]
        assert facts == [(1, 2, ()), (1, 4, (stray,))]
        assert not report.ok

    def test_state_without_fpp_rejected(self):
        state = pullback(lam(2, []), diameter_portrait(), 1)
        with pytest.raises(ValueError, match="not built from a fixed point portrait"):
            clp_checks(state)

    def test_length_bound_fails_at_degree_six(self):
        # the 1/(2 d^k) bound holds through d = 5 only: here 1/10 > 1/12
        P = FixedPointPortrait(6, ((0, 1, 2),))
        report = clp_checks(canonical_lamination(P, 1))
        assert (1, lf(0, "9/10")) in report.length_failures


class TestInvariantGap:
    def test_small_sector_gap(self):
        state = quintic_canonical(3)
        small = fixed_sectors(state.fpp)[0]
        face = invariant_gap(state, small)
        assert {v.value for v in face.vertices} == {fr(0), fr(1, 20), fr(1, 5), fr(1, 4)}

    def test_big_sector_gap(self):
        state = quintic_canonical(3)
        big = fixed_sectors(state.fpp)[1]
        face = invariant_gap(state, big)
        assert len(face.vertices) == 128
        for t in (0, "2/5", "3/5", "4/5"):
            assert on_closure(face, angle(t))

    def test_gap_vertices_forward_invariant(self):
        state = quintic_canonical(3)
        for S in fixed_sectors(state.fpp):
            verts = {v.value for v in invariant_gap(state, S).vertices}
            assert {sigma(5, angle(v)).value for v in verts} <= verts

    def test_empty_lamination_whole_disk(self):
        state = canonical_lamination(FixedPointPortrait(2, ()), 2)
        face = invariant_gap(state, fixed_sectors(state.fpp)[0])
        assert face.vertices == ()
        assert len(face.arcs) == 1

    def test_depth_zero_rejected(self):
        state = canonical_lamination(FixedPointPortrait(3, ()), 0)
        with pytest.raises(ValueError, match="need at least one pullback stage"):
            invariant_gap(state, fixed_sectors(state.fpp)[0])

    def test_sector_of_another_degree_rejected(self):
        # the fixed points 1/3, 2/3 of a quartic sector are not on a cubic grid
        state = canonical_lamination(FixedPointPortrait(3, ()), 2)
        S = fixed_sectors(FixedPointPortrait(4, ()))[0]
        with pytest.raises(ValueError, match="degree mismatch"):
            invariant_gap(state, S)


class TestStageInvariance:
    def test_canonical_stages_invariant(self):
        state = quintic_canonical(2)
        for prev, nxt in zip(state.stages, state.stages[1:]):
            assert check_invariance(prev, nxt) == ()

    def test_rabbit_stages_invariant(self):
        C = CriticalPortrait(2, frozenset({lf("1/14", "4/7")}))
        state = pullback(rabbit_triangle(), C, 2)
        for prev, nxt in zip(state.stages, state.stages[1:]):
            assert check_invariance(prev, nxt) == ()


@lru_cache(maxsize=None)
def full_preimage_states():
    """Each portrait with d <= 6 and its first placement's "prefer-existing" pullback of the hull.

    Three stages, two at d = 6.  These pull the hull back to its full
    preimage (ROADMAP item 4); no pinned output reads them.
    """
    return tuple(
        (P, pullback(P._hull, C, 3 if d < 6 else 2, policy="prefer-existing"))
        for d in range(2, 7)
        for P in enumerate_fpps(d)
        for C in [P._first_choice().as_critical_portrait()]
    )


class TestFullPreimage:
    """ROADMAP item 4A: the invariants of the "prefer-existing" pullback of the hull."""

    def test_every_portrait(self):
        assert len(full_preimage_states()) == 64

    def test_strict_siblings_at_every_stage(self):
        for P, state in full_preimage_states():
            for prev, nxt in zip(state.stages, state.stages[1:]):
                assert _strict_siblings(prev, nxt) == (), (P, nxt.depth)

    def test_shortest_drops_the_hull_siblings(self):
        # "shortest" pulls the triangle 0, 1/3, 2/3 back to shorter chords, so
        # each image has a full collection but none holds the hull leaf
        P = FixedPointPortrait(4, ((0, 1, 2),))
        state = pullback(P._hull, P._first_choice().as_critical_portrait(), 1, policy="shortest")
        got = _strict_siblings(*state.stages)
        assert [v.leaves for v in got] == [(lf(0, "1/3"),), (lf(0, "2/3"),), (lf("1/3", "2/3"),)]
        assert check_invariance(*state.stages) == ()

    def test_stage_sizes(self):
        for P, state in full_preimage_states():
            d = P.degree
            assert [len(L) for L in state.stages] == [len(P._hull) * d**k for k in range(state.depth + 1)]

    def test_longest_addition(self):
        # d^k times the longest stage-k addition is at most (d - 2)/(d - 1), attained
        worst = {}
        for P, state in full_preimage_states():
            d = P.degree
            scaled = [d**k * l.length for k in range(1, state.depth + 1) for l in state.frontier(k)]
            longest = max(scaled, default=Fraction(0))
            assert longest <= Fraction(d - 2, d - 1), P
            worst[d] = max(worst.get(d, longest), longest)
        assert worst == {d: Fraction(d - 2, d - 1) for d in range(2, 7)}

    def test_every_sector_decided(self):
        for P, state in full_preimage_states():
            for S in fixed_sectors(P):
                classify_sector(state.final, state.portrait, S)

    @pytest.mark.parametrize("move", ["rotate", "reflect"])
    def test_dihedral_equivariance(self, move):
        # t -> t + 1/(d - 1) and t -> -t commute with sigma and permute the fixed points
        states = dict(full_preimage_states())
        for P, state in states.items():
            n = P.degree - 1
            step = (lambda i: (i + 1) % n) if move == "rotate" else (lambda i: -i % n)
            other = states[FixedPointPortrait(P.degree, tuple(tuple(map(step, b)) for b in P.blocks))]
            for L, M in zip(state.stages, other.stages):
                D, pairs = L.scaled
                shift = D // n if move == "rotate" else 0
                sign = 1 if move == "rotate" else -1
                moved = {tuple(sorted(((sign * x + shift) % D, (sign * y + shift) % D))) for x, y in pairs}
                assert M.scaled == (D, tuple(sorted(moved))), (P, move, L.depth)


class TestHyperbolicityCheck:
    def test_canonical_states_pass(self):
        st5 = quintic_canonical(2)
        assert is_hyperbolic_approx(st5.final, st5.portrait, 2)
        st3 = canonical_lamination(FixedPointPortrait(3, ((0, 1),)), 2)
        assert is_hyperbolic_approx(st3.final, st3.portrait, 2)

    def test_portrait_chord_as_leaf_fails(self):
        L = lam(2, [(0, "1/2")])
        assert not is_hyperbolic_approx(L, diameter_portrait(), 2)

    def test_empty_lamination_passes(self):
        assert is_hyperbolic_approx(lam(2, []), diameter_portrait(), 2)

    def test_collapsing_boundary_leaf_fails(self):
        # the chord 0-2/3 lies in the face of 0-1/3's far side, and 0-1/3 is
        # critical: it collapses to 0 and never recurs
        C = CriticalPortrait(3, frozenset({lf(0, "2/3"), lf("1/3", "2/3")}))
        assert not is_hyperbolic_approx(lam(3, [(0, "1/3")]), C, 2)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            is_hyperbolic_approx(lam(3, []), diameter_portrait(), 1)


class TestSectorClassification:
    def test_no_object_subtended(self):
        P = FixedPointPortrait(5, ((0, 1), (2, 3)))
        state = canonical_lamination(P, 1)
        central = fixed_sectors(P)[1]
        c = classify_sector(state.final, state.portrait, central)
        assert (c.case, c.witness_type, c.rotation) == (1, 1, None)
        assert [o.subtended for o in c.objects] == [False, False]
        assert {v.value for v in c.witness.vertices} == {
            fr(0), fr(1, 4), fr(3, 10), fr(7, 20), fr(2, 5), fr(9, 20),
            fr(1, 2), fr(3, 4), fr(4, 5), fr(17, 20), fr(9, 10), fr(19, 20),
        }

    def test_joined_sector_keeps_gap(self):
        state = triangle_quartic_state()
        P = FixedPointPortrait(4, ((0, 1),))
        c = classify_sector(state.final, state.portrait, fixed_sectors(P)[0])
        assert (c.case, c.witness_type) == (1, 1)
        assert {v.value for v in c.witness.vertices} == {
            fr(0), fr(1, 48), fr(1, 16), fr(1, 12),
            fr(1, 4), fr(13, 48), fr(5, 16), fr(1, 3),
        }

    def test_all_objects_subtended(self):
        state = triangle_quartic_state()
        P = FixedPointPortrait(4, ((0, 1),))
        c = classify_sector(state.final, state.portrait, fixed_sectors(P)[1])
        assert (c.case, c.witness_type) == (2, 2)
        assert c.rotation == fr(1, 3)
        assert [o.subtended for o in c.objects] == [True, True]
        assert {v.value for v in c.witness.vertices} == {fr(22, 63), fr(25, 63), fr(37, 63)}

    def test_mixed_subtending(self):
        state = mixed_quartic_state(2)
        S = fixed_sectors(FixedPointPortrait(4, ()))[0]
        c = classify_sector(state.final, state.portrait, S)
        assert (c.case, c.witness_type, c.rotation) == (3, 1, None)
        assert [o.subtended for o in c.objects] == [False, False, True]
        assert sorted(v.value * 240 for v in c.witness.vertices) == [
            0, 80, 82, 86, 88, 104, 105, 110, 112, 176, 178, 179,
            180, 200, 202, 206, 208, 224, 225, 230, 232, 236, 238, 239,
        ]

    def test_witness_vertices_forward_invariant(self):
        state = mixed_quartic_state(2)
        S = fixed_sectors(FixedPointPortrait(4, ()))[0]
        c = classify_sector(state.final, state.portrait, S)
        verts = {v.value for v in c.witness.vertices}
        assert {sigma(4, angle(v)).value for v in verts} <= verts

    def test_objects_equal_reference(self, monkeypatch):
        # the witnesses come after the objects: stubbed, every sector returns its objects
        module = importlib.import_module("lamlab.pullback")
        monkeypatch.setattr(module, "_gap_witness", lambda *_: None)
        monkeypatch.setattr(module, "_rotational_polygon_witness", lambda *_: (None, None))
        n = 0
        for d in range(2, 9):
            for P in enumerate_fpps(d):
                state = canonical_lamination(P, 1)
                for S in fixed_sectors(P):
                    c = classify_sector(state.final, state.portrait, S)
                    assert [(o.points, o.leaves) for o in c.objects] == reference_boundary_objects(S)
                    n += 1
        assert n == 2353

    def test_degree_mismatch_rejected(self):
        state = mixed_quartic_state(2)
        S = fixed_sectors(FixedPointPortrait(4, ()))[0]
        with pytest.raises(ValueError, match="degree mismatch"):
            classify_sector(state.final, diameter_portrait(), S)
        with pytest.raises(ValueError, match="degree mismatch"):
            classify_sector(state.final, state.portrait, fixed_sectors(FixedPointPortrait(3, ()))[0])

    def test_depth_zero_insufficient(self):
        state = mixed_quartic_state(0)
        S = fixed_sectors(FixedPointPortrait(4, ()))[0]
        with pytest.raises(InsufficientDepthError):
            classify_sector(state.final, state.portrait, S)

    def test_non_rotational_polygon_is_no_witness(self):
        # both cubic fixed points are subtended, and the one invariant polygon,
        # {1/8, 3/8, 11/24}, sends 1/8 and 11/24 both to 3/8
        P = FixedPointPortrait(3, ())
        tri = Polygon((angle("1/8"), angle("3/8"), angle("11/24")))
        around = {lf("11/12", "1/12"), lf("23/48", "25/48")}
        L = Lamination(3, frozenset(tri.sides) | around, depth=1)
        polygons = [verts for b, verts in L._invariant_faces if all(e[0] == 0 for e in b)]
        assert polygons == [frozenset(_scaled(t, L.scaled[0]) for t in tri.vertices)]
        (S,) = fixed_sectors(P)
        C = P._first_choice().as_critical_portrait()
        with pytest.raises(InsufficientDepthError, match="found 0 rotational polygon faces"):
            classify_sector(L, C, S)


class TestFlowerLike:
    def test_quintic_leaf_center(self):
        state = quintic_canonical(3)
        flower = flower_like(state.final, lf(0, "1/4"))
        assert flower.petal_count == 2
        assert {v.value for v in flower.center_vertices} == {fr(0), fr(1, 4)}
        assert sorted(len(f.vertices) for f in flower.attached) == [34, 128]

    def test_rabbit_triangle_center(self):
        C = CriticalPortrait(2, frozenset({lf("1/14", "4/7")}))
        state = pullback(rabbit_triangle(), C, 2)
        tri = Polygon((angle("1/7"), angle("2/7"), angle("4/7")))
        flower = flower_like(state.final, tri)
        assert flower.petal_count == 2
        petal_sets = {frozenset(v.value for v in f.vertices) for f in flower.attached}
        assert petal_sets == {
            frozenset({fr(1, 14), fr(1, 7), fr(4, 7), fr(9, 14)}),
            frozenset({fr(1, 7), fr(2, 7)}),
        }


class TestPreimageConsistency:
    @given(st.integers(2, 6), st.integers(0, 200))
    def test_fibers_have_degree_many_points(self, d, k):
        t = angle(fr(k, 201))
        fiber = preimages(d, t)
        assert len(fiber) == d
        assert all(sigma(d, x) == t for x in fiber)

    def test_stage_one_additions_map_onto_initial_leaf(self):
        # every first-stage chord of the quintic example covers the seed leaf
        state = quintic_canonical(1)
        seed = lf(0, "1/4")
        for l in state.frontier(1):
            assert leaf_image(5, l) == seed


@lru_cache(maxsize=None)
def indexed_matchings(d):
    """Each of `fibre_matchings(d)` as the set of its chords (i, j)."""
    return [frozenset(enumerate(m)) for m in fibre_matchings(d)]


def enumerating_best_matching(d, pair, denom, ends, reusable, policy):
    """Reference for `pullback`'s matchings: rank all Catalan(d) non-crossing fibre matchings.

    Candidate chord (i, j) joins the i-th preimage of the leaf's first
    endpoint to the j-th of its second and is valid when it crosses nothing
    in `ends`.  Every matching of valid chords is ranked by (maxlen, -reuse,
    sorted pairs) under "shortest" and (-reuse, maxlen, sorted pairs)
    otherwise; the least rank wins.
    """
    fib_a = [pair[0] + i * denom for i in range(d)]
    fib_b = [pair[1] + i * denom for i in range(d)]
    full = d * denom
    valid = {}
    for i, j in itertools.product(range(d), repeat=2):
        x, y = sorted((fib_a[i], fib_b[j]))
        if not any(_crossers(ends, x, y)):
            valid[i, j] = (x, y)
    ranks = []
    for chords in indexed_matchings(d):
        if not chords <= valid.keys():
            continue
        pairs = tuple(sorted(valid[ij] for ij in chords))
        maxlen = max(min(y - x, full - y + x) for x, y in pairs)
        reuse = sum(p in reusable for p in pairs)
        if policy == "shortest":
            ranks.append((maxlen, -reuse, pairs))
        else:
            ranks.append((-reuse, maxlen, pairs))
    if not ranks:
        raise ValueError(f"no compatible sibling matching exists for {_leaf(pair, denom)}")
    return min(ranks)[-1]


def outcome(call):
    """repr of call(), or the ValueError it raises as text."""
    try:
        return repr(call())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def matching_problems(draw):
    """`_dp_matching` arguments: a leaf x < y over denom and placed chords over d*denom.

    The placed chords are arbitrary chords plus some chords between the
    leaf's two preimage fibres, which a matching may reuse.
    """
    d = draw(st.integers(2, 6))
    denom = draw(st.integers(2, 8))
    x = draw(st.integers(0, denom - 2))
    y = draw(st.integers(x + 1, denom - 1))
    full = d * denom
    pts = [p + i * denom for i in range(d) for p in (x, y)]
    fibre = [(pts[l], pts[m]) for l in range(2 * d) for m in range(l + 1, 2 * d, 2)]
    point = st.integers(0, full - 1)
    placed = draw(
        st.sets(
            st.tuples(point, point).filter(lambda t: t[0] != t[1]).map(lambda t: tuple(sorted(t))),
            max_size=2 * d,
        )
    )
    placed |= draw(st.sets(st.sampled_from(fibre), max_size=d))
    ends = sorted(e for u, v in placed for e in ((u, v), (v, u)))
    return d, (x, y), denom, ends, placed, draw(st.sampled_from(_POLICIES))


@st.composite
def fibre_neighbour_problems(draw):
    """`_dp_matching` arguments but the policy, every placed endpoint a fibre point or its neighbour.

    A placed endpoint then sits exactly at a candidate chord's end or one
    grid step inside or outside it, and its partner on either side of both
    ends, where the valid-chord sweep decides what it takes in.
    """
    d = draw(st.integers(2, 6))
    denom = draw(st.integers(3, 8))
    x = draw(st.integers(0, denom - 2))
    y = draw(st.integers(x + 1, denom - 1))
    full = d * denom
    near = sorted({(p + i * denom + s) % full for i in range(d) for p in (x, y) for s in (-1, 0, 1)})
    point = st.sampled_from(near)
    placed = draw(
        st.sets(
            st.tuples(point, point).filter(lambda t: t[0] != t[1]).map(lambda t: tuple(sorted(t))),
            min_size=1,
            max_size=2 * d,
        )
    )
    ends = sorted(e for u, v in placed for e in ((u, v), (v, u)))
    return d, (x, y), denom, ends, placed


# d=4, leaf 0-3/4 over 4, fibre points 0, 3, 4, ..., 15 over 16: the placed
# 0-3/4 ends inside the chord 0-15/16 with its partner exactly at x = 0, so
# that chord stays valid, and the matching of chords 1/16 long uses it
_PARTNER_AT_X = (4, (0, 3), 4, [(0, 12), (12, 0)], {(0, 12)})
# d=2, leaf 0-1/3 over 3, fibre points 0, 1, 3, 4 over 6: the placed 1/6-2/3
# ends exactly at y = 1 of the chord 0-1/6, which it does not cross
_END_AT_Y = (2, (0, 1), 3, [(1, 4), (4, 1)], {(1, 4)})
# d=4, leaf 0-1/2 over 4, fibre points 0, 2, ..., 14 over 16: inside the
# chord 3/8-3/4 the placed 1/8-11/16 ends at 11 with its partner 2 below x = 6,
# behind the end 8 of 1/2-13/16, whose partner 13 is above y = 12
_BELOW_X_BEHIND = (4, (0, 2), 4, [(2, 11), (8, 13), (11, 2), (13, 8)], {(2, 11), (8, 13)})


# d=3 portrait 0-1 at its first stage, over D = 6: the hull leaf (0, 3) and the
# critical chords (0, 2), (0, 4), scaled to 18.  Under "shortest" its two
# optimal matchings are mirror images of the same lengths, and only the sorted
# pairs decide.
_MIRROR_TIE = (3, (0, 3), 6, sorted([(0, 9), (9, 0), (0, 6), (6, 0), (0, 12), (12, 0)]))
_MIRROR_PLACED = {(0, 9), (0, 6), (0, 12)}
# d=2, leaf 0-1/2 over 4: the placed 1/8-3/8 crosses 0-1/4 and 1/4-1/2, so
# each of the two fibre matchings has a blocked chord
_BLOCKED = (2, (0, 2), 4, [(1, 3), (3, 1), (3, 5), (5, 3)], {(1, 3), (3, 5)}, "shortest")


def full_index(placed):
    """The sorted endpoint index of every placed chord, two entries per chord."""
    return sorted(e for x, y in placed for e in ((x, y), (y, x)))


def over(L, E):
    """The pairs of a lamination on the grid E, which its own grid divides."""
    D, pairs = L.scaled
    assert E % D == 0
    return [(x * (E // D), y * (E // D)) for x, y in pairs]


def regrid(pairs, E, F):
    """Integer pairs over E as pairs over F; every point must lie on F."""
    assert all(x * F % E == 0 for p in pairs for x in p)
    return {(x * F // E, y * F // E) for x, y in pairs}


def leaf_key(pair, denom):
    """The leaf pair/denom as its pair over its least grid, a key free of Fractions."""
    g = gcd(*pair, denom)
    return pair[0] // g, pair[1] // g, denom // g


def rebuilt_matchings(state):
    """Every matching of a pullback state, rebuilt from its stages and its portrait alone.

    Per stage k >= 1, and per frontier leaf of stage k - 1 in the sorted
    order `pullback` takes them: (k, pair, denom, placed, chosen).  The leaf
    is pair/denom.  Over d*denom, `placed` holds every chord placed before
    the leaf's matching: stage k - 1, the critical chords and the chosen
    chords of the leaves before it.  `chosen` is the matching, sorted: the
    stage-k chords onto the leaf that are new, and the placed ones (F0
    leaves at stage 1) on the fibre points the new chords leave free.
    `placed` is one set, updated once the next item is asked for.
    """
    d = state.degree
    crit = state.portrait._lamination
    Df, final = state.final.scaled
    for k in range(1, state.depth + 1):
        full = lcm(state.stages[k].scaled[0], crit.scaled[0], d * state.stages[k - 1].scaled[0])
        denom = full // d
        onto = {}
        for x, y in over(state.stages[k], full):
            # sigma on these grids: x/full -> (x mod denom)/denom
            onto.setdefault(tuple(sorted((x % denom, y % denom))), []).append((x, y))
        placed = set(over(state.stages[k - 1], full)) | set(over(crit, full))
        frontier = [p for p, s in zip(final, state._first_stage) if s == k - 1]
        for pair in sorted(regrid(frontier, Df, denom)):
            new = [c for c in onto[pair] if c not in placed]
            free = {p + i * denom for p in pair for i in range(d)}
            free.difference_update(x for c in new for x in c)
            chosen = tuple(sorted(new + [c for c in onto[pair] if c in placed and free.issuperset(c)]))
            assert len(chosen) == d, "the state does not determine the leaf's matching"
            yield k, pair, denom, placed, chosen
            placed.update(chosen)


def spied_dp(monkeypatch):
    """Replace `_dp_matching` by a spy; the list it returns collects (problem, answer) per call."""
    module = importlib.import_module("lamlab.pullback")
    dp, calls = module._dp_matching, []

    def spy(*problem):
        got = dp(*problem)
        calls.append((problem, got))
        return got

    monkeypatch.setattr(module, "_dp_matching", spy)
    return calls


def recorded_matchings(monkeypatch, runs):
    """The matchings of each pullback (F0, C, n), under both policies.

    Every matching, rebuilt from the state by `rebuilt_matchings`, is
    compared with the enumerator reading every placed chord, and a spy
    marks the leaves that reached `_dp_matching`.  Per run, a list of
    ((d, pair, denom), answer, whether the DP ran).
    """
    dp_calls = spied_dp(monkeypatch)
    calls = []
    for F0, C, n in runs:
        calls.append([])
        for policy in _POLICIES:
            dp_calls.clear()
            state = pullback(F0, C, n, policy=policy)
            ran = {leaf_key(problem[1], problem[2]) for problem, _ in dp_calls}
            for _, pair, denom, placed, got in rebuilt_matchings(state):
                d = state.degree
                assert got == enumerating_best_matching(d, pair, denom, full_index(placed), placed, policy)
                calls[-1].append(((d, pair, denom), got, leaf_key(pair, denom) in ran))
    return calls


# every canonical placement to these depths, and perfbench's correspondence
# grid; d = 2's one portrait has no hull leaf to pull back
BOUNDARY = {3: 5, 4: 4, 5: 3, 6: 2, 7: 2}


def boundary_runs(d):
    """The pullbacks (F0, C, n) of every canonical placement at BOUNDARY[d], or of the grid at n = 3."""
    if d == "corr":
        return [(F0, C, 3) for F0, C in unicritical_portraits(CORR_GRID)]
    return [
        (Lamination(d, P.hull_leaves), choice.as_critical_portrait(), BOUNDARY[d])
        for P in enumerate_fpps(d)
        for choice in canonical_portraits(P)
    ]


class TestMatchingOracle:
    # canonical pullbacks of every placement of every portrait up to these
    # depths, both policies
    SHALLOW = {3: 4, 4: 3, 5: 3, 6: 2}

    @pytest.mark.parametrize("d", sorted(SHALLOW))
    def test_equals_enumerator_on_canonical_pullbacks(self, d, monkeypatch):
        runs = [
            (Lamination(d, P.hull_leaves), choice.as_critical_portrait(), self.SHALLOW[d])
            for P in enumerate_fpps(d)
            for choice in canonical_portraits(P)
        ]
        calls = recorded_matchings(monkeypatch, runs)
        # both the forced matchings and the DP's choices were compared
        assert {ran for run in calls for _, _, ran in run} == {False, True}

    def test_equals_enumerator_on_unicritical_pullbacks(self, monkeypatch):
        runs = [(F0, C, 3) for F0, C in unicritical_portraits(((2, 7), (3, 5), (4, 4), (5, 3)))]
        calls = recorded_matchings(monkeypatch, runs)
        assert {ran for run in calls for _, _, ran in run} == {False, True}

    def test_forced_matchings_join_branch_preimages(self, monkeypatch):
        # where the DP did not run, the chord of each sector S joins the
        # branch_inverse preimages of the frontier leaf's two endpoints
        runs = [(F0, C, 2) for F0, C in canonical_critical_portraits(4)]
        runs.append((quintic_canonical(0).initial, quintic_portrait(), 2))
        forced = 0
        for (_, C, _), calls in zip(runs, recorded_matchings(monkeypatch, runs)):
            secs = critical_sectors(C)
            for (d, pair, denom), got, ran in calls:
                if ran:
                    continue
                l = _leaf(pair, denom)
                chords = [sorted(_scaled(branch_inverse(S, t), d * denom) for t in l.endpoints) for S in secs]
                assert list(got) == sorted(map(tuple, chords))
                forced += 1
        assert forced > 100

    def test_dp_runs_only_at_critical_endpoints(self, monkeypatch):
        # d=3 `0-1` at depth 6: exactly the frontier leaves with a fibre point
        # on a critical chord endpoint reach `_fibre_matching`, and only
        # through `_dp_matching`
        module = importlib.import_module("lamlab.pullback")
        dp, fibre = module._dp_matching, module._fibre_matching
        current, dp_leaves = [], []

        def dp_spy(d, pair, denom, *rest):
            current[:] = [_leaf(pair, denom)]
            try:
                return dp(d, pair, denom, *rest)
            finally:
                current.clear()

        def fibre_spy(chords):
            dp_leaves.append(current[0] if current else None)
            return fibre(chords)

        monkeypatch.setattr(module, "_dp_matching", dp_spy)
        monkeypatch.setattr(module, "_fibre_matching", fibre_spy)
        state = canonical_lamination(FixedPointPortrait(3, ((0, 1),)), 6)
        critical = {t for c in state.portrait.chords for t in c.endpoints}
        boundary = {
            l
            for k in range(state.depth)
            for l in state.frontier(k)
            if critical.intersection(x for t in l.endpoints for x in preimages(3, t))
        }
        assert sum(len(state.frontier(k)) for k in range(state.depth)) == 364
        assert len(boundary) == 6
        assert set(dp_leaves) == boundary
        # the second DP run, over the chords within the bottleneck, is the only repeat
        assert len(dp_leaves) <= 2 * len(boundary)

    @pytest.mark.parametrize("d", [*sorted(BOUNDARY), "corr"])
    def test_reduced_index_matches_full_index(self, d, monkeypatch):
        # `pullback` indexes only the placed chords at critical endpoints and
        # offers only F0's pairs for reuse, at stage 1; at every call that
        # reaches the DP, the DP reading every placed chord, rebuilt from the
        # state, must choose the same matching
        dp = importlib.import_module("lamlab.pullback")._dp_matching
        calls = spied_dp(monkeypatch)
        smaller = []
        for F0, C, n in boundary_runs(d):
            for policy in _POLICIES:
                calls.clear()
                state = pullback(F0, C, n, policy=policy)
                deg = state.degree
                at = {leaf_key(problem[1], problem[2]): (problem, got) for problem, got in calls}
                for _, pair, e, placed, _ in rebuilt_matchings(state):
                    if leaf_key(pair, e) not in at:
                        continue
                    (_, pair, denom, ends, _, _), got = at.pop(leaf_key(pair, e))
                    full = regrid(placed, deg * e, deg * denom)
                    assert got == dp(deg, pair, denom, full_index(full), full, policy)
                    smaller.append(len(ends) < 2 * len(full))
                assert not at
        # the DP ran, and on an index smaller than the full one
        assert any(smaller)

    def test_index_holds_only_chords_at_critical_endpoints(self, monkeypatch):
        # d=3 `0-1` at depth 8: every entry passed to `_dp_matching` has an
        # endpoint on the stage's grid of critical endpoints, and the index
        # grows by a few chords per stage, where one of every placed chord
        # reaches 19,680 entries
        P = FixedPointPortrait(3, ((0, 1),))
        chords = canonical_portraits(P)[0].as_critical_portrait().chords
        calls = spied_dp(monkeypatch)
        canonical_lamination(P, 8)
        assert calls
        for (d, _, denom, ends, _, _), _ in calls:
            cut = {_scaled(t, d * denom) for c in chords for t in c.endpoints}
            assert all(x in cut or y in cut for x, y in ends)
        assert max(len(problem[3]) for problem, _ in calls) <= 54

    @settings(max_examples=300)
    @given(matching_problems())
    @example(_BLOCKED)
    @example((*_MIRROR_TIE, _MIRROR_PLACED, "shortest"))
    @example((*_MIRROR_TIE, _MIRROR_PLACED, "prefer-existing"))
    def test_equals_enumerator_on_drawn_chord_sets(self, problem):
        dp = importlib.import_module("lamlab.pullback")._dp_matching
        assert outcome(lambda: dp(*problem)) == outcome(
            lambda: enumerating_best_matching(*problem)
        )

    @settings(max_examples=300)
    @given(fibre_neighbour_problems())
    @example(_PARTNER_AT_X)
    @example(_END_AT_Y)
    @example(_BELOW_X_BEHIND)
    def test_equals_enumerator_near_fibre_points(self, problem):
        dp = importlib.import_module("lamlab.pullback")._dp_matching
        for policy in _POLICIES:
            assert outcome(lambda: dp(*problem, policy)) == outcome(
                lambda: enumerating_best_matching(*problem, policy)
            )

    def test_blocked_and_tied_examples(self):
        dp = importlib.import_module("lamlab.pullback")._dp_matching
        with pytest.raises(ValueError, match=r"no compatible sibling matching exists for Leaf\(0, 1/2\)"):
            dp(*_BLOCKED)
        # 0-1/6, 1/3-1/2, 2/3-5/6 beat their mirror 0-5/6, 1/6-1/3, 1/2-2/3 on
        # sorted pairs alone; reusing 0-1/2 wins outright under prefer-existing
        tie = (*_MIRROR_TIE, _MIRROR_PLACED)
        assert dp(*tie, "shortest") == ((0, 3), (6, 9), (12, 15))
        assert dp(*tie, "prefer-existing") == ((0, 9), (3, 6), (12, 15))


class TestSlices:
    """`_slices`: every table entry against a per-point sector lookup."""

    @staticmethod
    def assert_tables_match_sectors(C):
        vals, tables = _slices(C)
        d, D = C.degree, C._lamination.scaled[0]
        secs = critical_sectors(C)
        bounds = [0, *vals, D]
        assert len(tables) == len(bounds) - 1
        for p, row in enumerate(tables):
            lo, hi = bounds[p], bounds[p + 1]
            if lo == hi:
                continue  # [0, v_0) when v_0 = 0
            assert sorted(row) == list(range(d))
            # over 4D: each end of the slice and its middle; [0, v_0) holds 0
            for x in {4 * lo + (p > 0), 2 * (lo + hi), 4 * hi - 1}:
                for s, i in enumerate(row):
                    assert contains_point(secs[s], _point(x + 4 * D * i, 4 * D * d), closed=False)

    def test_end_slices_keep_their_own_tables(self):
        # d=2, q=7: the one critical value 2/127 is not 0, so [0, 2/127) and
        # (2/127, 1) lie on one arc between critical values, yet sector 0
        # holds offset 1 of a point in the first and offset 0 of one in the last
        C = CriticalPortrait(2, frozenset({lf("1/127", "129/254")}))
        assert _slices(C) == ([4], [(1, 0), (0, 1)])
        self.assert_tables_match_sectors(C)

    def test_tables_on_canonical_placements(self):
        for _, C in canonical_critical_portraits(7):
            self.assert_tables_match_sectors(C)

    def test_tables_on_unicritical_portraits(self):
        for _, C in unicritical_portraits(CORR_GRID):
            self.assert_tables_match_sectors(C)


class TestStageFacts:
    """Facts (b) and (c) of `pullback`, on every canonical placement and the correspondence grid."""

    @pytest.mark.parametrize("d", [*sorted(BOUNDARY), "corr"])
    def test_reuse_only_at_stage_one_and_forced_chords_avoid_critical_endpoints(self, d, monkeypatch):
        calls = spied_dp(monkeypatch)
        forced = 0
        for F0, C, n in boundary_runs(d):
            for policy in _POLICIES:
                calls.clear()
                state = pullback(F0, C, n, policy=policy)
                deg = state.degree
                at = {leaf_key(problem[1], problem[2]): (problem[2], got) for problem, got in calls}
                for k, pair, e, placed, chosen in rebuilt_matchings(state):
                    if leaf_key(pair, e) in at:
                        denom, got = at.pop(leaf_key(pair, e))
                        chosen = regrid(got, deg * denom, deg * e)
                    else:
                        cut = {_scaled(t, deg * e) for c in C.chords for t in c.endpoints}
                        assert not cut.intersection(x for c in chosen for x in c)
                        forced += 1
                    if k > 1:
                        assert not placed.intersection(chosen)
                assert not at
        assert forced

    @pytest.mark.parametrize("d", [*sorted(BOUNDARY), "corr"])
    def test_stages_come_out_reduced(self, d, monkeypatch):
        # every grid a pullback hands to `_reduce` is already the least one;
        # an empty stage (a portrait with no hull leaf) reduces to d - 1
        runs = boundary_runs(d)
        module = importlib.import_module("lamlab.leaves")
        reduce, reduced = module._reduce, []

        def spy(n, E, pairs):
            out = reduce(n, E, pairs)
            if pairs:
                reduced.append(out[0] == E)
            return out

        monkeypatch.setattr(module, "_reduce", spy)
        for F0, C, n in runs:
            for policy in _POLICIES:
                pullback(F0, C, n, policy=policy)
        assert reduced and all(reduced)


# SHA-256 of the written document for degree 6 to 12 pullbacks under the first
# canonical placement.  The acceptance sweeps stop at degree 5, so these pin the
# matchings chosen where the fibres are largest.
GOLDEN_DOCUMENTS = [
    (6, ((0, 1),), 2, "shortest", "a59d00aae4a7a9a412a887b12a50b54c13232aa7a8a7f765b2a7c56f02ab49e8"),
    (6, ((0, 1),), 2, "prefer-existing", "aa84306dc5a636726de7ad00ab17c9cf92c1565ddb0291f6d24ccacd8cfc11ef"),
    (6, ((1, 4),), 2, "shortest", "f64573089345661d6fb32ed37cbfb8d6174a6160eb2c6ddd2302c1ddecf9bbe2"),
    (6, ((1, 4),), 2, "prefer-existing", "d5eb77823ec61ef76a730d8bda6d965ca03f356e28322e99c8061c90a74b0fcd"),
    (6, ((0, 1, 2),), 2, "shortest", "dd8058b4e13372e39e0394e57c598abb5feb2c100b5a72f1c329f203cda42b2c"),
    (6, ((0, 1, 2),), 2, "prefer-existing", "6212284238cb2f51b8215a4d098f5bf78e275d111bf299748c8abcd43ec4851e"),
    (6, ((0, 1), (2, 3, 4)), 2, "shortest", "b4ff7cccdb54142089363831c3aa65aad6c49c4ff6aa44a07a384ebf59f5cec6"),
    (6, ((0, 1), (2, 3, 4)), 2, "prefer-existing", "ca463f7c981ae0462bf400fe792e4baa6eb8fc40e92c22f706e9297bcfc9d439"),
    (7, ((0, 1),), 2, "shortest", "24e19e90de5a301ed1c049e6545f12ec1fc174d83740e8f00a90df7e789fd7d0"),
    (7, ((0, 1),), 2, "prefer-existing", "2f6907bf5dc687fe16e4d0ff99d7cc97e398fe10a087e8777f78b4024c965c71"),
    (7, ((0, 1, 2, 3, 4, 5),), 2, "shortest", "b170e29ebdaaad81e42732edf19a98225bc3bffb9681ab2b1989ba01e0599c15"),
    (7, ((0, 1, 2, 3, 4, 5),), 2, "prefer-existing", "a1d5f1436ff2c594bd64fc0846273e754a58b41348c15883185e4b892384b47a"),
    (7, ((1, 2), (3, 5)), 2, "shortest", "ec8c10ef27094b7ef574343e40a72c631f5ae371e6793a009bfdae8b1fc2992a"),
    (7, ((1, 2), (3, 5)), 2, "prefer-existing", "7126b95543e6b5793591f385229985c6380611db4e417a53dedd8e2fa4886d43"),
    (7, ((0, 3),), 1, "shortest", "9082c3ff9a09ebadc2d8ed95383e1cc48fbfc472c6a0eca0549c3d397168559c"),
    (7, ((0, 3),), 1, "prefer-existing", "46d29ae079e4e2aed794131291dbb4de938a9eccbb9ecc0ea09987852d5b7f31"),
    # recorded with the enumerating matcher (`enumerating_best_matching`)
    (8, ((0, 3), (4, 6)), 2, "shortest", "031d147c5e0ff600c4903bf45d016fadb7df73c4a6b365751241c475ece6c8d8"),
    (8, ((0, 3), (4, 6)), 2, "prefer-existing", "2eb52da1f941f1828b1bda09fda68c96c369abd9cbe2db5bceedeb5020218769"),
    (8, ((0, 1, 3, 5),), 1, "shortest", "bd84b73edd3ce54b142e84a86fa1c33b174ba5296b8304db019b52f2fb0d997e"),
    (8, ((0, 1, 3, 5),), 1, "prefer-existing", "933e6e5eb42bb6b6f53a411a8a89f5fff6ff528cd223b04e8bd363fd4db78b07"),
    (10, ((0, 1),), 2, "shortest", "bd1fecefc4b01d4886012020eefc1da6078536e4bbda1530ab7ba3949ba17f23"),
    (10, ((0, 1),), 2, "prefer-existing", "66be6b9461dac58a9f0d696a8f9854f3fc93d6b13e338ccc98456292331cb512"),
    (12, ((0, 1),), 2, "shortest", "4affc2953ca49d07c555d15512d75ca3fd0d21237529b94fb0e93ce212743c81"),
    (12, ((0, 1),), 2, "prefer-existing", "2e377bfce6615503baef1823671859fc8edcd266b3c16b4c9ddcedf65d82453a"),
]


@pytest.mark.parametrize("d,blocks,n,policy,digest", GOLDEN_DOCUMENTS)
def test_high_degree_documents_pinned(d, blocks, n, policy, digest):
    P = FixedPointPortrait(d, blocks)
    C = canonical_portraits(P)[0].as_critical_portrait()
    state = pullback(Lamination(d, P.hull_leaves), C, n, policy=policy)
    text = write_document(document_from_state(state))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_degree_sixteen_pullback():
    # Catalan(16) = 35,357,670 matchings per leaf would be out of reach to rank one by one
    state = canonical_lamination(FixedPointPortrait(16, ((0, 1),)), 2)
    assert [len(L) for L in state.stages] == [1, 17, 273]
    assert validate_prelamination(state.final) == ()
    for prev, nxt in zip(state.stages, state.stages[1:]):
        assert check_invariance(prev, nxt) == ()


def diagnostics_lines(state, sectors):
    """The per-sector diagnostics of a state, one line each, exceptions included.

    For every depth n >= 1 of the state truncated there: the `clp_checks`
    report and each sector's gap report and `invariant_gap`; for every stage:
    `classify_sector` on each sector.
    """

    lines = []
    for n in range(1, state.depth + 1):
        st = replace(state, stages=state.stages[: n + 1])
        report = clp_checks(st)
        lines.append(
            repr((n, report.escape_failures, report.length_failures, report.max_new_length))
        )
        for i, (S, r) in enumerate(zip(sectors, report.sector_reports)):
            lines.append(f"clp {n} {i} {r!r}")
            lines.append(f"gap {n} {i} " + outcome(lambda: invariant_gap(st, S)))
    for k, L in enumerate(state.stages):
        for i, S in enumerate(sectors):
            lines.append(
                f"classify {k} {i} " + outcome(lambda: classify_sector(L, state.portrait, S))
            )
    return lines


def diagnosed_state(key):
    if key[0] == "canonical":
        return canonical_lamination(FixedPointPortrait(key[1], key[2]), 3 if key[1] <= 5 else 2)
    if key[0] == "mixed-quartic":
        return replace(mixed_quartic_state(2), fpp=FixedPointPortrait(4, ()))
    return replace(triangle_quartic_state(), fpp=FixedPointPortrait(4, ((0, 1),)))


# SHA-256 prefixes of `diagnostics_lines`, recorded with the Fraction-arithmetic
# checkers that the integer endpoint kernel replaced: every canonical state for
# d <= 5 at depth 3, and the two hand-built quartic states with a portrait
# attached, whose sectors reach the pinched-face filter of `_gap_witness`.
# The d = 6 states, at depth 2, have up to five sectors each and were recorded
# with the per-sector gap walk that one walk for all sectors replaced.
GOLDEN_DIAGNOSTICS = {
    ('canonical', 2, ()): '460e9d8d2a6525a3',
    ('canonical', 3, ()): '5c3e0f84373ec495',
    ('canonical', 3, ((0, 1),)): '9201c71f63a8dc95',
    ('canonical', 4, ()): 'ec96271395ded07b',
    ('canonical', 4, ((0, 1),)): '872502dbf8f5d529',
    ('canonical', 4, ((0, 1, 2),)): 'd4b6841a13fa0a66',
    ('canonical', 4, ((0, 2),)): '9b2c256c96a61dd4',
    ('canonical', 4, ((1, 2),)): 'adea37f3f0df8cae',
    ('canonical', 5, ()): '3f76d7c000faedf4',
    ('canonical', 5, ((0, 1),)): '66fcfc9e4fcfd0ec',
    ('canonical', 5, ((0, 1, 2),)): '3885ce039040f3ad',
    ('canonical', 5, ((0, 1, 2, 3),)): 'e72b0e6a6961b2d5',
    ('canonical', 5, ((0, 1, 3),)): 'fd3cdf82f940599c',
    ('canonical', 5, ((0, 2),)): 'dc65bcc557b3e630',
    ('canonical', 5, ((0, 2, 3),)): '955ef2a766709ec3',
    ('canonical', 5, ((0, 3),)): '6c013ab854b22073',
    ('canonical', 5, ((1, 2),)): '337fc27d41e87780',
    ('canonical', 5, ((1, 2, 3),)): '4ecd46e00dbf6b42',
    ('canonical', 5, ((1, 3),)): 'e873421a972274b8',
    ('canonical', 5, ((2, 3),)): 'e48d276b6b6a45a7',
    ('canonical', 5, ((0, 1), (2, 3))): '9b1f62d8dbfff314',
    ('canonical', 5, ((0, 3), (1, 2))): '9f12056cb19923c7',
    ('canonical', 6, ()): 'ce719c02e2985faa',
    ('canonical', 6, ((0, 1),)): 'ac0f7cca7e501fe6',
    ('canonical', 6, ((0, 1, 2),)): 'a8dbc2e776f47a46',
    ('canonical', 6, ((0, 1, 2, 3),)): 'bd6fa45b8340a619',
    ('canonical', 6, ((0, 1, 2, 3, 4),)): 'ccad39dc0ad807d4',
    ('canonical', 6, ((0, 1, 2, 4),)): 'aa4dbccfe7f190b2',
    ('canonical', 6, ((0, 1, 3),)): '1ee73e1c4c4c3e0b',
    ('canonical', 6, ((0, 1, 3, 4),)): 'f66862d52859d8bb',
    ('canonical', 6, ((0, 1, 4),)): '923dcd55198c9448',
    ('canonical', 6, ((0, 2),)): 'eca9fe1adb2471e0',
    ('canonical', 6, ((0, 2, 3),)): 'e9bbfd084ab692d7',
    ('canonical', 6, ((0, 2, 3, 4),)): '7cee77777cd5d7dd',
    ('canonical', 6, ((0, 2, 4),)): '2fad01b8222cff14',
    ('canonical', 6, ((0, 3),)): '9a623f2468a200a6',
    ('canonical', 6, ((0, 3, 4),)): 'e4c1230c8338ad1d',
    ('canonical', 6, ((0, 4),)): '2a2e8ca9513db076',
    ('canonical', 6, ((1, 2),)): '65e2e1f031a4c9b7',
    ('canonical', 6, ((1, 2, 3),)): '99e5f1b1e85a3d06',
    ('canonical', 6, ((1, 2, 3, 4),)): '74e04d18cd3bf917',
    ('canonical', 6, ((1, 2, 4),)): 'bbb182dcc53e6bde',
    ('canonical', 6, ((1, 3),)): '3d90cd07f43ca36f',
    ('canonical', 6, ((1, 3, 4),)): 'fdb9e3d0f945a840',
    ('canonical', 6, ((1, 4),)): 'db556797f0cbfa91',
    ('canonical', 6, ((2, 3),)): '44f964899d86c15d',
    ('canonical', 6, ((2, 3, 4),)): '608b97120788d84f',
    ('canonical', 6, ((2, 4),)): 'bdbf34daa794b1cd',
    ('canonical', 6, ((3, 4),)): '282b32d97270a6a6',
    ('canonical', 6, ((0, 1), (2, 3))): '8f9ef7e20ccb786b',
    ('canonical', 6, ((0, 1), (2, 3, 4))): '9c63f43912c0a53d',
    ('canonical', 6, ((0, 1), (2, 4))): '5a4d30e56a5dc999',
    ('canonical', 6, ((0, 1), (3, 4))): '98cc07f9b147157e',
    ('canonical', 6, ((0, 1, 2), (3, 4))): 'bef4fe4efcd472e8',
    ('canonical', 6, ((0, 1, 4), (2, 3))): 'f5544caf55fbade9',
    ('canonical', 6, ((0, 2), (3, 4))): '8c11a7cbd61d417f',
    ('canonical', 6, ((0, 3), (1, 2))): '0eed46659aa32573',
    ('canonical', 6, ((0, 3, 4), (1, 2))): '84deb447708023d3',
    ('canonical', 6, ((0, 4), (1, 2))): '162adbc472fb871c',
    ('canonical', 6, ((0, 4), (1, 2, 3))): 'dece509e0f66f044',
    ('canonical', 6, ((0, 4), (1, 3))): 'cc3e89942833b918',
    ('canonical', 6, ((0, 4), (2, 3))): '33894b6dd6597e91',
    ('canonical', 6, ((1, 2), (3, 4))): '9f952813cc3c5f2f',
    ('canonical', 6, ((1, 4), (2, 3))): '6f3b0396ede5d78a',
    ('mixed-quartic',): 'e87240efbadbc633',
    ('triangle-quartic',): '2620fdc773009b07',
}


@pytest.mark.parametrize("key", list(GOLDEN_DIAGNOSTICS))
def test_sector_diagnostics_pinned(key):
    state = diagnosed_state(key)
    lines = diagnostics_lines(state, fixed_sectors(state.fpp))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == GOLDEN_DIAGNOSTICS[key]


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(lamlab.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, lamlab; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
