"""Tests for chords, crossing, sibling structure, faces, and invariance checks."""
import itertools
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lamlab.circle import CirclePoint, angle, check_degree, sigma
from lamlab.fpp import FixedPointPortrait, enumerate_fpps
from lamlab.leaves import (
    Arc,
    Face,
    Lamination,
    Leaf,
    Polygon,
    Violation,
    _face,
    _face_sweep,
    _point,
    _strict_siblings,
    check_invariance,
    leaf_image,
    validate_prelamination,
)
from lamlab.pullback import CriticalPortrait, canonical_lamination
from states import canonical_states, fr, lf
from test_circle import ccw_span, in_arc, preimages


def is_critical(d, l):
    """Whether both endpoints share an image, i.e. they differ by some k/d.

    The reference for `CriticalPortrait`'s integer test d*(y - x) % D == 0.
    """
    check_degree(d)
    return ((l.b.value - l.a.value) * d).denominator == 1


def leaves_cross(l1, l2):
    """Reference: strict interleaving of endpoints; sharing an endpoint never crosses.

    The library tests crossings on integer grids instead.
    """
    if {l1.a, l1.b} & {l2.a, l2.b}:
        return False
    return in_arc(l2.a, l1.a, l1.b) != in_arc(l2.b, l1.a, l1.b)


def short_arcs(l):
    """Reference: the arc(s) l subtends on its shorter side, as (start, end) pairs.

    For a leaf of length exactly 1/2 both arcs tie and both are returned.
    """
    if 2 * l.length == 1:
        return ((l.a, l.b), (l.b, l.a))
    if l.b.value - l.a.value <= Fraction(1, 2):
        return ((l.a, l.b),)
    return ((l.b, l.a),)


def arc_length(a):
    """Reference: the length of an Arc; start == end is the full circle."""
    return Fraction(1) if a.start == a.end else ccw_span(a.start, a.end)


def arc_contains(a, t, closed=True):
    """Reference: whether t lies on the Arc a; `closed` includes the endpoints."""
    if a.start == a.end:
        return True
    if t in (a.start, a.end):
        return closed
    return in_arc(t, a.start, a.end)


def contains_point(S, t, closed=True):
    """Reference: whether t lies on one of the arcs of a fixed or critical sector S."""
    return any(arc_contains(a, t, closed) for a in S.arcs)


def on_closure(f, t):
    """Reference: whether t lies on a Face's circle boundary (a vertex or on an arc)."""
    return t in f.vertices or any(arc_contains(a, t) for a in f.arcs)


def faces(L):
    """The Face of every `_face_sweep(L)` boundary, in its order."""
    return [_face(L, b) for b in _face_sweep(L)]


RABBIT = frozenset({lf(fr(1, 7), fr(2, 7)), lf(fr(2, 7), fr(4, 7)), lf(fr(1, 7), fr(4, 7))})

angles = st.fractions(min_value=0, max_value=1, max_denominator=500).map(
    lambda f: CirclePoint(f)
)
degrees = st.integers(2, 8)


def leaf_strategy():
    return st.tuples(angles, angles).filter(lambda t: t[0] != t[1]).map(
        lambda t: Leaf(t[0], t[1])
    )


class TestLeafBasics:
    def test_normalizes_order(self):
        assert lf(fr(3, 4), fr(1, 4)) == lf(fr(1, 4), fr(3, 4))
        l = lf(fr(3, 4), fr(1, 4))
        assert (l.a.value, l.b.value) == (fr(1, 4), fr(3, 4))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            lf(fr(1, 3), fr(1, 3))

    def test_length_is_short_side(self):
        assert lf(0, fr(1, 4)).length == fr(1, 4)
        assert lf(fr(1, 8), fr(7, 8)).length == fr(1, 4)
        assert lf(0, fr(1, 2)).length == fr(1, 2)

    def test_short_arcs(self):
        (arc,) = short_arcs(lf(fr(1, 8), fr(7, 8)))
        assert arc == (angle(fr(7, 8)), angle(fr(1, 8)))
        assert len(short_arcs(lf(0, fr(1, 2)))) == 2


class TestPoint:
    def test_matches_constructor(self):
        # the value CirclePoint.__post_init__ stores, term for term
        for D in (1, 2, 6, 7, 63, 80):
            for x in range(-2 * D, 3 * D):
                got, want = _point(x, D), CirclePoint(Fraction(x, D))
                assert type(got) is CirclePoint and type(got.value) is Fraction
                v, w = got.value, want.value
                assert (v.numerator, v.denominator) == (w.numerator, w.denominator), (x, D)
                assert got == want and hash(got) == hash(want)


class TestLaminationFrozen:
    @pytest.mark.parametrize("name", ["degree", "_pairs", "sorted_leaves"])
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        L = Lamination(2, RABBIT)
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(L, name, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(L, name)
        assert L == Lamination(2, RABBIT) and L.sorted_leaves == tuple(sorted(RABBIT))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            Lamination(2, RABBIT, depth=-1)

    def test_depth_takes_part_in_equality(self):
        L, M = Lamination(2, RABBIT), Lamination(2, RABBIT, depth=1)
        assert L.scaled == M.scaled and L != M
        assert hash(L) == hash(Lamination(2, RABBIT))


class TestLeafImage:
    def test_rabbit_cycle(self):
        l = lf(fr(1, 7), fr(2, 7))
        assert leaf_image(2, l) == lf(fr(2, 7), fr(4, 7))
        assert leaf_image(2, lf(fr(2, 7), fr(4, 7))) == lf(fr(4, 7), fr(1, 7))
        assert leaf_image(2, lf(fr(4, 7), fr(1, 7))) == l

    def test_collapse_to_point(self):
        img = leaf_image(2, lf(fr(1, 4), fr(3, 4)))
        assert img == angle(fr(1, 2))

    def test_critical(self):
        assert is_critical(2, lf(0, fr(1, 2)))
        assert is_critical(5, lf(fr(1, 10), fr(3, 10)))
        assert not is_critical(2, lf(fr(1, 7), fr(2, 7)))
        assert not is_critical(3, lf(0, fr(1, 2)))

    def test_fixed_leaf_never_critical(self):
        l = lf(0, fr(1, 3))
        assert leaf_image(4, l) == l
        assert not is_critical(4, l)

    @given(leaf_strategy(), degrees)
    def test_critical_iff_collapse(self, l, d):
        assert is_critical(d, l) == (not isinstance(leaf_image(d, l), Leaf))

    @given(leaf_strategy(), degrees)
    def test_portrait_grid_test_agrees(self, l, d):
        # CriticalPortrait tests d*(y - x) % D == 0 on its integer grid
        try:
            CriticalPortrait(d, frozenset({l}))
            refused = ""
        except ValueError as exc:
            refused = str(exc)
        assert ("is not critical" in refused) == (not is_critical(d, l))

    @given(leaf_strategy(), degrees)
    def test_length_law(self, l, d):
        img = leaf_image(d, l)
        x = l.length
        if isinstance(img, Leaf):
            span = (d * (l.b.value - l.a.value)) % 1
            assert img.length == min(span, 1 - span)
        else:
            assert (d * x) % 1 == 0


class TestCrossing:
    def test_interleaved(self):
        assert leaves_cross(lf(0, fr(1, 2)), lf(fr(1, 4), fr(3, 4)))

    def test_disjoint_and_nested(self):
        assert not leaves_cross(lf(0, fr(1, 4)), lf(fr(1, 2), fr(3, 4)))
        assert not leaves_cross(lf(0, fr(1, 2)), lf(fr(1, 8), fr(3, 8)))

    def test_shared_endpoint_not_crossing(self):
        assert not leaves_cross(lf(0, fr(1, 2)), lf(fr(1, 2), fr(3, 4)))
        assert not leaves_cross(lf(0, fr(1, 2)), lf(0, fr(1, 4)))

    @given(leaf_strategy(), leaf_strategy())
    def test_symmetric(self, l1, l2):
        assert leaves_cross(l1, l2) == leaves_cross(l2, l1)

    @given(leaf_strategy())
    def test_irreflexive(self, l):
        assert not leaves_cross(l, l)


@cache
def fibre_matchings(d: int) -> tuple[tuple[int, ...], ...]:
    """Reference: the Catalan(d) non-crossing perfect matchings between two preimage fibres.

    For a chord a < b the fibres (a+i)/d and (b+j)/d alternate around the
    circle, a_0 < b_0 < a_1 < ... < b_{d-1}, so the non-crossing matchings do
    not depend on the chord: they are the non-crossing pairings of 2d points
    in convex position.  Each tuple m joins a-preimage i to b-preimage m[i].
    The library picks or finds one matching with `leaves._fibre_matching`.
    """
    check_degree(d)

    def pairings(points: tuple[int, ...]):
        if not points:
            yield ()
            return
        # an even number of points lies between the two ends of any chord
        for k in range(1, len(points), 2):
            for inner in pairings(points[1:k]):
                for outer in pairings(points[k + 1 :]):
                    yield ((points[0], points[k]), *inner, *outer)

    # position 2i holds a-preimage i and position 2j+1 holds b-preimage j
    out = []
    for pairing in pairings(tuple(range(2 * d))):
        m = dict((p // 2, q // 2) if p % 2 == 0 else (q // 2, p // 2) for p, q in pairing)
        out.append(tuple(m[i] for i in range(d)))
    return tuple(sorted(out))


def permutation_matchings(d, l):
    """Reference: filter all d! fibre permutations through a chord crossing table."""
    xs = [x.value for x in preimages(d, l.a)]
    ys = [y.value for y in preimages(d, l.b)]
    chord = {(i, j): tuple(sorted((xs[i], ys[j]))) for i in range(d) for j in range(d)}

    def cross(c1, c2):
        (x1, y1), (x2, y2) = c1, c2
        if x2 in c1 or y2 in c1:
            return False
        return (x1 < x2 < y1) != (x1 < y2 < y1)

    table = {(u, v): cross(chord[u], chord[v]) for u, v in itertools.combinations(chord, 2)}
    return {
        perm
        for perm in itertools.permutations(range(d))
        if not any(
            table[(i, perm[i]), (k, perm[k])] if (i, perm[i]) < (k, perm[k])
            else table[(k, perm[k]), (i, perm[i])]
            for i, k in itertools.combinations(range(d), 2)
        )
    }


class TestFibreMatchings:
    @pytest.mark.parametrize("d", range(2, 8))
    @settings(max_examples=20)
    @given(leaf_strategy())
    def test_equals_permutation_filter(self, d, l):
        assert set(fibre_matchings(d)) == permutation_matchings(d, l)
        assert len(fibre_matchings(d)) == comb(2 * d, d) // (d + 1)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            fibre_matchings(1)


def pairwise_violations(L):
    """Reference: compare every pair of leaves with `leaves_cross`."""
    out = []
    ls = L.sorted_leaves
    for i, l1 in enumerate(ls):
        for l2 in ls[i + 1 :]:
            if leaves_cross(l1, l2):
                out.append(Violation("crossing", f"{l1} crosses {l2}", (l1, l2)))
    return tuple(out)


# Few denominators make shared endpoints and crossings common.
small_leaf_sets = st.sampled_from([6, 8, 12]).flatmap(
    lambda q: st.frozensets(
        st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
        .filter(lambda t: t[0] != t[1])
        .map(lambda t: lf(fr(t[0], q), fr(t[1], q))),
        max_size=12,
    )
)


class TestValidatePrelamination:
    def test_clean(self):
        assert validate_prelamination(Lamination(2, RABBIT)) == ()

    def test_crossing_reported(self):
        L = Lamination(2, frozenset({lf(0, fr(1, 2)), lf(fr(1, 4), fr(3, 4))}))
        (v,) = validate_prelamination(L)
        assert v.check == "crossing"
        assert set(v.leaves) == L.leaves

    @pytest.mark.parametrize("leaves", [frozenset(), RABBIT])
    def test_equals_pairwise_oracle_examples(self, leaves):
        L = Lamination(2, leaves)
        assert validate_prelamination(L) == pairwise_violations(L)

    @settings(max_examples=300)
    @given(small_leaf_sets, st.frozensets(leaf_strategy(), max_size=4))
    def test_equals_pairwise_oracle(self, leaves, extra):
        L = Lamination(2, leaves | extra)
        assert validate_prelamination(L) == pairwise_violations(L)


def _element_key(e):
    if isinstance(e, Leaf):
        return (0, e.a, e.b)
    return (1, e.start, e.end)


def half_edge_faces(L):
    """Reference: walk the half-edge rotation system at each endpoint.

    The counterclockwise order of outgoing edges at a vertex is the forward
    arc, then chords by increasing counterclockwise offset, then the backward
    arc; following predecessors traces every face once.
    """
    chords = L.sorted_leaves
    if not chords:
        zero = angle(0)
        return [Face((Arc(zero, zero),))]
    verts = sorted({p for l in chords for p in l.endpoints})
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}

    # half-edge ids: ("c", j, 0) chord j as a->b, ("c", j, 1) as b->a,
    # ("a", i, 0) arc verts[i]->verts[i+1], ("a", i, 1) its reverse
    def target(h):
        kind, j, direction = h
        if kind == "c":
            return chords[j].b if direction == 0 else chords[j].a
        return verts[(j + 1) % n] if direction == 0 else verts[j]

    def reverse(h):
        return (h[0], h[1], 1 - h[2])

    outgoing: dict[CirclePoint, list] = {v: [] for v in verts}
    for j, l in enumerate(chords):
        outgoing[l.a].append(("c", j, 0))
        outgoing[l.b].append(("c", j, 1))
    pred: dict[tuple, tuple] = {}
    for v in verts:
        i = index[v]
        chord_edges = sorted(
            outgoing[v], key=lambda h: ccw_span(v, target(h))
        )
        rotation = [("a", i, 0), *chord_edges, ("a", (i - 1) % n, 1)]
        for k, h in enumerate(rotation):
            pred[h] = rotation[k - 1]

    all_edges = list(pred.keys())
    seen = set()
    out: list[Face] = []
    for start in all_edges:
        if start in seen:
            continue
        cycle = []
        h = start
        while h not in seen:
            seen.add(h)
            cycle.append(h)
            h = pred[reverse(h)]
        if any(kind == "a" and direction == 1 for kind, _, direction in cycle):
            continue  # the region outside the disk
        elements: list[Leaf | Arc] = []
        for kind, j, direction in cycle:
            if kind == "c":
                elements.append(chords[j])
            else:
                elements.append(Arc(verts[j], verts[(j + 1) % n]))
        k0 = min(range(len(elements)), key=lambda k: _element_key(elements[k]))
        out.append(Face(tuple(elements[k0:] + elements[:k0])))
    out.sort(key=lambda f: tuple(_element_key(e) for e in f.boundary))
    return out


def greedy_noncrossing(q, pairs):
    """The leaves k/q among `pairs` kept in order while they cross no kept leaf."""
    kept = []
    for x, y in pairs:
        l = lf(fr(x, q), fr(y, q))
        if not any(leaves_cross(l, m) for m in kept):
            kept.append(l)
    return Lamination(2, frozenset(kept))


noncrossing_sets = st.sampled_from([6, 8, 12, 30]).flatmap(
    lambda q: st.lists(
        st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)).filter(
            lambda t: t[0] != t[1]
        ),
        max_size=40,
    ).map(lambda pairs: greedy_noncrossing(q, pairs))
)


class TestFacesSweep:
    @settings(max_examples=200)
    @given(noncrossing_sets)
    def test_equals_half_edge_oracle(self, L):
        assert faces(L) == half_edge_faces(L)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equals_half_edge_oracle_on_canonical_stages(self, d):
        for state in canonical_states(d):
            for lam in state.stages:
                for L in (lam, Lamination(d, lam.leaves | state.portrait.chords)):
                    assert faces(L) == half_edge_faces(L)


class TestFaces:
    def test_empty_is_whole_disk(self):
        (f,) = faces(Lamination(2, frozenset()))
        assert f.arcs and arc_length(f.arcs[0]) == 1
        assert not f.leaves

    def test_single_leaf_two_faces(self):
        fs = faces(Lamination(2, frozenset({lf(0, fr(1, 2))})))
        assert len(fs) == 2
        for f in fs:
            assert len(f.leaves) == 1
            assert len(f.arcs) == 1

    def test_rabbit_faces(self):
        fs = faces(Lamination(2, RABBIT))
        assert len(fs) == 4
        polys = [f for f in fs if not f.arcs]
        assert len(polys) == 1
        assert polys[0].vertices == tuple(
            angle(x) for x in (fr(1, 7), fr(2, 7), fr(4, 7))
        )
        assert sum(len(f.leaves) for f in fs) == 2 * len(RABBIT)

    def test_two_disjoint_leaves(self):
        L = Lamination(5, frozenset({lf(0, fr(1, 4)), lf(fr(1, 2), fr(3, 4))}))
        fs = faces(L)
        assert len(fs) == 3
        middle = [f for f in fs if len(f.leaves) == 2]
        assert len(middle) == 1
        assert len(middle[0].arcs) == 2

    @given(
        st.frozensets(leaf_strategy(), max_size=8).map(
            lambda s: Lamination(2, frozenset(s))
        )
    )
    def test_boundary_leaf_count_doubles(self, L):
        if validate_prelamination(L):
            return
        fs = faces(L)
        assert sum(len(f.leaves) for f in fs) == 2 * len(L)
        # Euler sanity: f = e - v + 1 for this subdivision of the disk
        if L.leaves:
            verts = {p for l in L.leaves for p in l.endpoints}
            edges = len(L.leaves) + len(verts)
            assert len(fs) == edges - len(verts) + 1

    def test_face_closure_membership(self):
        fs = faces(Lamination(2, frozenset({lf(0, fr(1, 2))})))
        upper = next(f for f in fs if f.arcs[0].start == angle(0))
        assert on_closure(upper, angle(fr(1, 4)))
        assert on_closure(upper, angle(0))
        assert not on_closure(upper, angle(fr(3, 4)))


class TestCheckInvariance:
    def test_rabbit_self_invariant(self):
        L = Lamination(2, RABBIT)
        violations = check_invariance(L, L)
        kinds = {v.check for v in violations}
        # the cycle maps forward into itself and each leaf is another's
        # preimage, but the second sibling of each leaf is absent
        assert "forward" not in kinds
        assert "backward" not in kinds
        assert "sibling" in kinds
        assert len([v for v in violations if v.check == "sibling"]) == 3

    def test_rabbit_with_siblings(self):
        extra = {
            lf(fr(1, 14), fr(9, 14)),
            lf(fr(1, 14), fr(11, 14)),
            lf(fr(9, 14), fr(11, 14)),
        }
        L1 = Lamination(2, RABBIT | extra, depth=1)
        assert check_invariance(Lamination(2, RABBIT), L1) == ()

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            check_invariance(Lamination(2, RABBIT), Lamination(3, RABBIT))

    def test_subset_required(self):
        with pytest.raises(ValueError):
            check_invariance(
                Lamination(2, frozenset({lf(0, fr(1, 4))})),
                Lamination(2, frozenset({lf(0, fr(1, 3))})),
            )

    def test_critical_leaf_exempt_from_siblings(self):
        L = Lamination(2, frozenset({lf(0, fr(1, 2))}))
        violations = check_invariance(L, L)
        kinds = {v.check for v in violations}
        assert "sibling" not in kinds
        assert "forward" not in kinds  # image degenerates


def probing_check_invariance(L_prev, L_next):
    """Reference: probe L_next for the d*d preimage leaves of each leaf and its image."""
    if L_prev.degree != L_next.degree:
        raise ValueError("degree mismatch between stages")
    if not L_prev.leaves <= L_next.leaves:
        raise ValueError("earlier stage is not contained in the later stage")
    d = L_prev.degree

    def sibling_matching_exists(img):
        xs = preimages(d, img.a)
        ys = preimages(d, img.b)
        present = [[Leaf(x, y) in L_next for y in ys] for x in xs]
        return any(all(present[i][j] for i, j in enumerate(m)) for m in fibre_matchings(d))

    out = []
    for l in L_prev.sorted_leaves:
        img = leaf_image(d, l)
        if isinstance(img, Leaf) and img not in L_next:
            out.append(Violation("forward", f"image {img} of {l} missing", (l,)))
        has_pre = any(
            Leaf(x, y) in L_next
            for x in preimages(d, l.a)
            for y in preimages(d, l.b)
        )
        if not has_pre:
            out.append(Violation("backward", f"no preimage of {l} present", (l,)))
        if isinstance(img, Leaf) and not sibling_matching_exists(img):
            out.append(
                Violation("sibling", f"no full sibling collection over {img}", (l,))
            )
    return tuple(out)


class TestCheckInvarianceIndex:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equals_probing_oracle_on_canonical_stages(self, d):
        for state in canonical_states(d):
            for k, prev in enumerate(state.stages):
                for nxt in state.stages[k:]:
                    # dropping every third new leaf leaves stages without siblings
                    new = sorted(nxt.leaves - prev.leaves)
                    thinned = Lamination(d, nxt.leaves - frozenset(new[::3]))
                    for L_next in (nxt, thinned):
                        got = check_invariance(prev, L_next)
                        assert got == probing_check_invariance(prev, L_next)

    @settings(max_examples=200)
    @given(small_leaf_sets, st.integers(2, 4), st.integers(0, 2**12 - 1))
    def test_equals_probing_oracle(self, leaves, d, mask):
        L_next = Lamination(d, leaves)
        kept = (l for i, l in enumerate(L_next.sorted_leaves) if mask >> i & 1)
        L_prev = Lamination(d, frozenset(kept))
        assert check_invariance(L_prev, L_next) == probing_check_invariance(L_prev, L_next)


@cache
def high_degree_state(d, blocks):
    return canonical_lamination(FixedPointPortrait(d, blocks), 2)


HIGH_DEGREE_PORTRAITS = [(P.degree, P.blocks) for d in (6, 7) for P in enumerate_fpps(d)]


class TestCheckInvarianceHighDegree:
    """The sibling test's matching search against the enumerating oracle, where fibres are large."""

    @settings(max_examples=30)
    @given(
        st.sampled_from(HIGH_DEGREE_PORTRAITS),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, 2**20 - 1),
    )
    def test_equals_probing_oracle(self, portrait, k, j, mask):
        # stage pairs k <= j, some leaves new at j dropped from the later stage
        state = high_degree_state(*portrait)
        k, j = min(k, j), max(k, j)
        prev, nxt = state.stages[k], state.stages[j]
        new = sorted(nxt.leaves - prev.leaves)
        dropped = frozenset(l for i, l in enumerate(new) if mask >> (i % 20) & 1)
        L_next = Lamination(nxt.degree, nxt.leaves - dropped)
        assert check_invariance(prev, L_next) == probing_check_invariance(prev, L_next)

    @pytest.mark.parametrize("d", [6, 7])
    def test_sibling_leaf_removed(self, d):
        # without one stage-1 leaf, the hull leaf's image has no full collection
        state = high_degree_state(d, ((0, 1),))
        prev = state.stages[0]
        L_next = Lamination(d, state.stages[1].leaves - {min(state.frontier(1))})
        got = check_invariance(prev, L_next)
        assert got == probing_check_invariance(prev, L_next)
        assert [v.check for v in got] == ["sibling"]
        assert check_invariance(prev, state.stages[1]) == ()


def probing_strict_siblings(L_prev, L_next):
    """Reference: the non-critical leaves of L_prev that no present full sibling matching holds."""
    d = L_prev.degree
    out = []
    for l in L_prev.sorted_leaves:
        img = leaf_image(d, l)
        if not isinstance(img, Leaf):
            continue
        xs, ys = preimages(d, img.a), preimages(d, img.b)
        sets = [{Leaf(xs[i], ys[j]) for i, j in enumerate(m)} for m in fibre_matchings(d)]
        if not any(l in s and s <= L_next.leaves for s in sets):
            detail = f"no full sibling collection over {img} holds {l}"
            out.append(Violation("sibling", detail, (l,)))
    return tuple(out)


class TestStrictSiblings:
    """`_strict_siblings` against the enumerating oracle; it asks more than `check_invariance`'s (c)."""

    @staticmethod
    def assert_matches_oracle(L_prev, L_next):
        got = _strict_siblings(L_prev, L_next)
        assert got == probing_strict_siblings(L_prev, L_next)
        loose = {v.leaves for v in check_invariance(L_prev, L_next) if v.check == "sibling"}
        assert loose <= {v.leaves for v in got}

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equals_probing_oracle_on_canonical_stages(self, d):
        for state in canonical_states(d):
            for prev, nxt in zip(state.stages, state.stages[1:]):
                new = sorted(nxt.leaves - prev.leaves)
                for dropped in (new[::3], new[1::2]):
                    self.assert_matches_oracle(prev, Lamination(d, nxt.leaves - frozenset(dropped)))
                self.assert_matches_oracle(prev, nxt)

    @settings(max_examples=200)
    @given(small_leaf_sets, st.integers(2, 4), st.integers(0, 2**12 - 1))
    def test_equals_probing_oracle(self, leaves, d, mask):
        L_next = Lamination(d, leaves)
        kept = (l for i, l in enumerate(L_next.sorted_leaves) if mask >> i & 1)
        self.assert_matches_oracle(Lamination(d, frozenset(kept)), L_next)

    def test_rabbit_siblings(self):
        # each rabbit leaf's sibling is a leaf of the triangle {1/14, 9/14, 11/14}
        extra = {lf(fr(1, 14), fr(9, 14)), lf(fr(1, 14), fr(11, 14)), lf(fr(9, 14), fr(11, 14))}
        L = Lamination(2, RABBIT)
        assert _strict_siblings(L, Lamination(2, RABBIT | extra)) == ()
        assert [v.leaves for v in _strict_siblings(L, L)] == [(l,) for l in L.sorted_leaves]

    def test_rejects_what_check_invariance_rejects(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            _strict_siblings(Lamination(2, RABBIT), Lamination(3, RABBIT))
        with pytest.raises(ValueError, match="not contained"):
            _strict_siblings(
                Lamination(2, frozenset({lf(0, fr(1, 4))})),
                Lamination(2, frozenset({lf(0, fr(1, 3))})),
            )


class TestPolygon:
    def test_sides_of_triangle(self):
        p = Polygon(tuple(angle(x) for x in (fr(1, 7), fr(4, 7), fr(2, 7))))
        assert p.vertices == tuple(angle(x) for x in (fr(1, 7), fr(2, 7), fr(4, 7)))
        assert set(p.sides) == set(RABBIT)

    def test_too_small(self):
        with pytest.raises(ValueError):
            Polygon((angle(0), angle(fr(1, 2))))

    def test_repeated_vertex_rejected(self):
        # 1 is the angle 0
        with pytest.raises(ValueError, match="vertices must be distinct"):
            Polygon((angle(0), angle(fr(1, 2)), angle(1)))
