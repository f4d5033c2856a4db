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
    check_invariance,
    leaf_image,
    validate_prelamination,
)
from lamlab.pullback import (
    _POLICIES,
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
            assert C.criticality == sum(len(pts) - 1 for pts, _ in groups) == C.degree - 1
            n += 1
        assert n == 5937 + 100

    def test_budget_accepts_shared_endpoint_paths(self):
        # two chords joined at 0 give criticality 2 without a closed polygon
        C = CriticalPortrait(3, frozenset({lf(0, "1/3"), lf(0, "2/3")}))
        assert C.criticality == 2

    def test_vertex_groups(self):
        C = triangle_quartic_state().portrait
        groups = [tuple(v.value for v in g) for g in C.vertex_groups]
        assert groups == [
            (fr(0), fr(1, 4)),
            (fr(22, 63), fr(151, 252), fr(107, 126)),
        ]
        assert C.criticality == 3


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
    """Reference for `_boundary_objects`: the `components` of S's boundary leaves.

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
    reference for `_best_matching`'s forced matchings: the chord of sector S
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
                PullbackState(5, state.portrait, stages, "shortest")
        assert PullbackState(5, state.portrait, (s0, s0, s2), "shortest").frontier(1) == set()

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

    def test_portrait_of_another_degree_rejected(self):
        state = canonical_lamination(FixedPointPortrait(3, ((0, 1),)), 2)
        quartic = canonical_portraits(FixedPointPortrait(4, ()))[0].as_critical_portrait()
        with pytest.raises(ValueError, match="portrait degree disagrees with the state"):
            replace(state, portrait=quartic)
        with pytest.raises(ValueError, match="portrait degree disagrees with the state"):
            PullbackState(3, quartic, state.stages, "shortest")

    def test_fpp_of_another_degree_rejected(self):
        state = canonical_lamination(FixedPointPortrait(3, ((0, 1),)), 2)
        with pytest.raises(ValueError, match="fixed point portrait degree disagrees with the state"):
            replace(state, fpp=FixedPointPortrait(4, ((0, 1),)))
        with pytest.raises(ValueError, match="fixed point portrait degree disagrees with the state"):
            PullbackState(3, state.portrait, state.stages, "shortest", FixedPointPortrait(4, ()))


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
        state = PullbackState(5, quintic_canonical(2).portrait, (s0, s0, s2), "shortest")
        self.assert_matches_references(state)
        assert set(state._first_stage) == {0, 2}

    def test_record_is_not_a_field(self):
        state = quintic_canonical(2)
        assert "_first_stage" not in repr(state)
        assert replace(state, policy="document")._first_stage == state._first_stage

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
                        PullbackState(5, state.portrait, stages, "shortest")
                    )
                else:
                    with pytest.raises(ValueError, match="stages must be nested"):
                        PullbackState(5, state.portrait, stages, "shortest")


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

    def test_policy_recorded(self):
        state = quintic_canonical(1)
        assert state.policy == "shortest"
        assert state.fpp == FixedPointPortrait(5, ((0, 1),))


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

    def test_depth_zero_insufficient(self):
        state = mixed_quartic_state(0)
        S = fixed_sectors(FixedPointPortrait(4, ()))[0]
        with pytest.raises(InsufficientDepthError):
            classify_sector(state.final, state.portrait, S)


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


def enumerating_best_matching(d, pair, denom, ends, acc_pairs, policy):
    """Reference for `_best_matching`: rank all Catalan(d) non-crossing fibre matchings.

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
        reuse = sum(p in acc_pairs for p in pairs)
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


# d=3 portrait 0-1 at its first stage, over D = 6: the hull leaf (0, 3) and the
# critical chords (0, 2), (0, 4), scaled to 18.  Under "shortest" its two
# optimal matchings are mirror images of the same lengths, and only the sorted
# pairs decide.
_MIRROR_TIE = (3, (0, 3), 6, sorted([(0, 9), (9, 0), (0, 6), (6, 0), (0, 12), (12, 0)]))
_MIRROR_PLACED = {(0, 9), (0, 6), (0, 12)}
# d=2, leaf 0-1/2 over 4: the placed 1/8-3/8 crosses 0-1/4 and 1/4-1/2, so
# each of the two fibre matchings has a blocked chord
_BLOCKED = (2, (0, 2), 4, [(1, 3), (3, 1), (3, 5), (5, 3)], {(1, 3), (3, 5)}, "shortest")


def full_index(acc_pairs):
    """The sorted endpoint index of every placed chord, two entries per chord."""
    return sorted(e for x, y in acc_pairs for e in ((x, y), (y, x)))


def recorded_matchings(monkeypatch, runs):
    """The `_best_matching` calls of each pullback (F0, C, n), under both policies.

    Every answer is compared, as it is made, with the enumerator reading
    every placed chord, not just the index `pullback` passed.  Per run, a
    list of (problem, answer, whether the DP ran).
    """
    module = importlib.import_module("lamlab.pullback")
    best, dp = module._best_matching, module._dp_matching
    calls, ran = [], []

    def checked(*problem):
        ran.clear()
        got = best(*problem)
        d, pair, denom, _, acc_pairs, policy = problem[:6]
        assert got == enumerating_best_matching(d, pair, denom, full_index(acc_pairs), acc_pairs, policy)
        calls[-1].append((problem, got, bool(ran)))
        return got

    def dp_spy(*problem):
        ran.append(True)
        return dp(*problem)

    monkeypatch.setattr(module, "_best_matching", checked)
    monkeypatch.setattr(module, "_dp_matching", dp_spy)
    for F0, C, n in runs:
        calls.append([])
        for policy in _POLICIES:
            pullback(F0, C, n, policy=policy)
    return calls


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
            for (d, pair, denom, *_), got, ran in calls:
                if ran:
                    continue
                l = _leaf(pair, denom)
                chords = [sorted(_scaled(branch_inverse(S, t), d * denom) for t in l.endpoints) for S in secs]
                assert list(got) == sorted(map(tuple, chords))
                forced += 1
        assert forced > 100

    def test_dp_runs_only_at_critical_endpoints(self, monkeypatch):
        # d=3 `0-1` at depth 6: exactly the frontier leaves with a fibre point
        # on a critical chord endpoint reach `_fibre_matching`
        module = importlib.import_module("lamlab.pullback")
        best, fibre = module._best_matching, module._fibre_matching
        current, dp_leaves = [], []

        def best_spy(d, pair, denom, *rest):
            current[:] = [_leaf(pair, denom)]
            return best(d, pair, denom, *rest)

        def fibre_spy(chords):
            dp_leaves.append(current[0])
            return fibre(chords)

        monkeypatch.setattr(module, "_best_matching", best_spy)
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

    # every canonical placement to these depths, and perfbench's correspondence
    # grid; d = 2's one portrait has no hull leaf to pull back
    BOUNDARY = {3: 5, 4: 4, 5: 3, 6: 2, 7: 2}

    @pytest.mark.parametrize("d", [*sorted(BOUNDARY), "corr"])
    def test_reduced_index_matches_full_index(self, d, monkeypatch):
        # `pullback` indexes only the placed chords at critical endpoints; at
        # every call that reaches the DP, the DP reading every placed chord
        # must choose the same matching
        module = importlib.import_module("lamlab.pullback")
        dp = module._dp_matching
        calls = []

        def checked(*problem):
            got = dp(*problem)
            ends, acc_pairs = problem[3:5]
            assert got == dp(*problem[:3], full_index(acc_pairs), *problem[4:])
            calls.append(len(ends) < 2 * len(acc_pairs))
            return got

        monkeypatch.setattr(module, "_dp_matching", checked)
        if d == "corr":
            runs = [(F0, C, 3) for F0, C in unicritical_portraits(CORR_GRID)]
        else:
            runs = [
                (Lamination(d, P.hull_leaves), choice.as_critical_portrait(), self.BOUNDARY[d])
                for P in enumerate_fpps(d)
                for choice in canonical_portraits(P)
            ]
        for F0, C, n in runs:
            for policy in _POLICIES:
                pullback(F0, C, n, policy=policy)
        # the DP ran, and on an index smaller than the full one
        assert any(calls)

    def test_index_holds_only_chords_at_critical_endpoints(self, monkeypatch):
        # d=3 `0-1` at depth 8: every entry passed to `_best_matching` has an
        # endpoint on the stage's grid of critical endpoints, and the index
        # grows by a few chords per stage, where one of every placed chord
        # reaches 19,680 entries
        module = importlib.import_module("lamlab.pullback")
        best = module._best_matching
        sizes = []

        def spy(d, pair, denom, ends, acc_pairs, policy, sectors):
            cut = set(sectors[0])
            assert all(x in cut or y in cut for x, y in ends)
            sizes.append(len(ends))
            return best(d, pair, denom, ends, acc_pairs, policy, sectors)

        monkeypatch.setattr(module, "_best_matching", spy)
        canonical_lamination(FixedPointPortrait(3, ((0, 1),)), 8)
        assert max(sizes) <= 54

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

    def test_blocked_and_tied_examples(self):
        dp = importlib.import_module("lamlab.pullback")._dp_matching
        with pytest.raises(ValueError, match=r"no compatible sibling matching exists for Leaf\(0, 1/2\)"):
            dp(*_BLOCKED)
        # 0-1/6, 1/3-1/2, 2/3-5/6 beat their mirror 0-5/6, 1/6-1/3, 1/2-2/3 on
        # sorted pairs alone; reusing 0-1/2 wins outright under prefer-existing
        tie = (*_MIRROR_TIE, _MIRROR_PLACED)
        assert dp(*tie, "shortest") == ((0, 3), (6, 9), (12, 15))
        assert dp(*tie, "prefer-existing") == ((0, 9), (3, 6), (12, 15))


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
