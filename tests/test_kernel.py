"""The integer endpoint kernel against the Fraction routines it replaced.

`Lamination.scaled` gives every leaf as an integer pair (x, y) over one
common denominator D, a multiple of d - 1.  The invariant-face filter, leaf
iteration and the invariance check run on those pairs, with the d-tupling
map as x -> d*x mod D.  The Fraction versions below are the code they
replaced, kept as oracles; `half_edge_faces` supplies the faces, so the
invariant-face oracle does not read the integer view at all.
"""
from fractions import Fraction
from functools import cache
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from lamlab.circle import CirclePoint, angle, sigma
from lamlab.fpp import FixedPointPortrait, enumerate_fpps, fixed_sectors
from lamlab.leaves import (
    Lamination,
    Leaf,
    Violation,
    _closure,
    _face,
    _face_sweep,
    _iterates_onto,
    _scaled,
    _scaled_pair,
    check_invariance,
    leaf_image,
)
from lamlab.pullback import (
    FixedObject,
    _pinched_off,
    _sector_candidates,
    _separates,
)
from states import canonical_states
from test_circle import fixed_points, in_arc
from test_leaves import (
    contains_point,
    faces,
    fibre_matchings,
    half_edge_faces,
    leaves_cross,
    on_closure,
    short_arcs,
)


def fraction_invariant_faces(d, subdivision, S):
    """Reference: faces with every vertex inside S and mapped into the face's vertices."""
    for f in subdivision:
        verts = f.vertices
        vset = set(verts)
        if all(sigma(d, v) in vset for v in verts) and all(
            contains_point(S, v) for v in verts
        ):
            yield f


def assert_invariant_faces_agree(L, sectors):
    subdivision = half_edge_faces(L)
    for S in sectors:
        want = list(fraction_invariant_faces(L.degree, subdivision, S))
        assert [_face(L, b) for b in _sector_candidates(L, S)] == want


def fraction_separates(l, pts, others):
    """Reference: a short side of l holds every point of pts and none of others."""
    for u, v in short_arcs(l):
        if all(in_arc(p, u, v) for p in pts) and not any(in_arc(q, u, v) for q in others):
            return True
    return False


def fraction_pinched_off(f, owner, subtended):
    """Reference: a leaf of f joins two owned objects with every subtended point beyond it."""
    for b in f.leaves:
        ia, ib = owner.get(b.a), owner.get(b.b)
        if ia is None or ib is None or ia == ib:
            continue
        for u, v in ((b.a, b.b), (b.b, b.a)):
            beyond = all(in_arc(p, u, v) for o in subtended for p in o.points)
            if beyond and not any(in_arc(w, u, v) for w in f.vertices):
                return True
    return False


def fraction_iterates_onto(d, l, targets, cap):
    """Reference: whether l or one of its first cap leaf images lies in targets."""
    cur = l
    for _ in range(cap + 1):
        if cur in targets:
            return True
        img = leaf_image(d, cur)
        if isinstance(img, CirclePoint):
            return False
        cur = img
    return False


def fraction_check_invariance(L_prev, L_next):
    """Reference: index the image leaves of L_next by fibre positions, in Fractions."""
    if L_prev.degree != L_next.degree:
        raise ValueError("degree mismatch between stages")
    if not L_prev.leaves <= L_next.leaves:
        raise ValueError("earlier stage is not contained in the later stage")
    d = L_prev.degree
    over = {}
    for m in L_next.leaves:
        ia, ib = sigma(d, m.a), sigma(d, m.b)
        if ia != ib:
            i, j = int(d * m.a.value), int(d * m.b.value)
            over.setdefault(Leaf(ia, ib), set()).add((i, j) if ia < ib else (j, i))
    out = []
    for l in L_prev.sorted_leaves:
        img = leaf_image(d, l)
        if isinstance(img, Leaf) and img not in L_next:
            out.append(Violation("forward", f"image {img} of {l} missing", (l,)))
        if l not in over:
            out.append(Violation("backward", f"no preimage of {l} present", (l,)))
        present = over.get(img, set())
        if isinstance(img, Leaf) and not any(
            all(ij in present for ij in enumerate(m)) for m in fibre_matchings(d)
        ):
            out.append(
                Violation("sibling", f"no full sibling collection over {img}", (l,))
            )
    return tuple(out)


@cache
def all_sectors(d):
    return [S for P in enumerate_fpps(d) for S in fixed_sectors(P)]


def greedy_noncrossing(d, leaves):
    kept = []
    for l in leaves:
        if not any(leaves_cross(l, m) for m in kept):
            kept.append(l)
    return Lamination(d, frozenset(kept))


# leaves over mixed denominators, some prime to d - 1 and to d
mixed_leaves = st.lists(
    st.sampled_from([2, 5, 6, 7, 8, 12, 30]).flatmap(
        lambda q: st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
        .filter(lambda t: t[0] != t[1])
        .map(lambda t: Leaf(angle(Fraction(t[0], q)), angle(Fraction(t[1], q))))
    ),
    max_size=24,
)
mixed_laminations = st.integers(2, 4).flatmap(
    lambda d: mixed_leaves.map(lambda ls: greedy_noncrossing(d, ls))
)


class TestIntegerView:
    def test_pairs_follow_sorted_leaves(self):
        leaves = {Leaf(angle("1/6"), angle("4/5")), Leaf(angle(0), angle("1/7"))}
        L = Lamination(5, frozenset(leaves))
        D, pairs = L.scaled
        assert D == 420  # lcm(d - 1, 6, 5, 7)
        assert pairs == tuple(_scaled_pair(l, D) for l in L.sorted_leaves)
        assert [Fraction(x, D) for x, _ in pairs] == [l.a.value for l in L.sorted_leaves]

    def test_empty_lamination(self):
        assert Lamination(4, frozenset()).scaled == (3, ())
        assert Lamination(2, frozenset()).scaled == (1, ())

    @settings(max_examples=100)
    @given(mixed_laminations)
    def test_sorted_leaves_order(self, L):
        assert L.sorted_leaves == tuple(sorted(L.leaves))
        D, pairs = L.scaled
        assert D % (L.degree - 1) == 0
        for l, (x, y) in zip(L.sorted_leaves, pairs):
            assert (Fraction(x, D), Fraction(y, D)) == (l.a.value, l.b.value)


# leaves whose endpoints mostly lie off the grids of mixed_leaves
probe_leaves = st.lists(
    st.sampled_from([3, 9, 11, 24, 60]).flatmap(
        lambda q: st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
        .filter(lambda t: t[0] != t[1])
        .map(lambda t: Leaf(angle(Fraction(t[0], q)), angle(Fraction(t[1], q))))
    ),
    max_size=6,
)


class TestGridLamination:
    """A Lamination stored as its integer view answers as the Leaf set it was built from."""

    @settings(max_examples=150)
    @given(st.integers(2, 6), mixed_leaves, st.integers(1, 12), st.integers(0, 3), probe_leaves)
    def test_grid_built_equals_leaf_built(self, d, leaves, m, depth, probes):
        L = Lamination(d, frozenset(leaves), depth)
        # the pairs on a grid E that need not be the least one, nor a multiple of d - 1
        E = m * lcm(*(t.value.denominator for l in leaves for t in l.endpoints))
        pairs = sorted(
            (int(l.a.value * E), int(l.b.value * E)) for l in frozenset(leaves)
        )
        G = Lamination._on_grid(d, E, pairs, depth)
        assert G == L and hash(G) == hash(L)
        assert G.scaled == L.scaled
        D = G.scaled[0]
        assert D == lcm(d - 1, *(t.value.denominator for l in leaves for t in l.endpoints))
        assert G.sorted_leaves == L.sorted_leaves == tuple(sorted(set(leaves)))
        assert G.leaves == L.leaves == frozenset(leaves)
        assert len(G) == len(L) == len(set(leaves))
        assert list(G) == list(L.sorted_leaves)
        for probe in leaves + probes:
            assert (probe in G) == (probe in L) == (probe in frozenset(leaves))
        assert "1/2" not in G and (0, 1) not in G

    def test_unequal_degree_or_depth(self):
        L = Lamination(3, frozenset({Leaf(angle(0), angle("1/2"))}))
        assert L != Lamination._on_grid(5, 2, [(0, 1)])
        assert L != Lamination._on_grid(3, 2, [(0, 1)], depth=1)
        assert L == Lamination._on_grid(3, 8, [(0, 4)])

    def test_is_immutable(self):
        L = Lamination(3, frozenset())
        with pytest.raises(AttributeError):
            L.depth = 1


def vertex_set_invariant_faces(L):
    """Reference: every face of the sweep whose vertex set sigma maps into itself, with that set."""
    d, D = L.degree, L.scaled[0]
    out = []
    for boundary in _face_sweep(L):
        verts = {v for e in boundary if e[0] == 0 for v in (e[1], e[2])}
        if all(d * x % D in verts for x in verts):
            out.append((tuple(boundary), frozenset(verts)))
    return tuple(out)


class TestInvariantFacesKernel:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_first_vertex_filter_keeps_every_invariant_face(self, d):
        for state in canonical_states(d):
            for lam in state.stages:
                assert lam._invariant_faces == vertex_set_invariant_faces(lam)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_equals_fraction_oracle_on_canonical_stages(self, d):
        for state in canonical_states(d):
            sectors = fixed_sectors(state.fpp)
            for lam in state.stages:
                # the portrait chords add denominators the stage may lack
                for L in (lam, Lamination(d, lam.leaves | state.portrait.chords)):
                    assert_invariant_faces_agree(L, sectors)

    @settings(max_examples=150)
    @given(mixed_laminations)
    def test_equals_fraction_oracle(self, L):
        assert_invariant_faces_agree(L, all_sectors(L.degree))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_empty_lamination(self, d):
        assert_invariant_faces_agree(Lamination(d, frozenset()), all_sectors(d))

    def test_single_full_circle_sector(self):
        (S,) = fixed_sectors(FixedPointPortrait(2))
        assert len(S.arcs) == 1 and S.arcs[0].start == S.arcs[0].end
        for L in (
            Lamination(2, frozenset()),
            # the diameter 0-1/2 is invariant; both half disks keep 0 and 1/2
            Lamination(2, frozenset({Leaf(angle(0), angle("1/2"))})),
        ):
            assert [_face(L, b) for b in _sector_candidates(L, S)] == faces(L)
            assert_invariant_faces_agree(L, [S])


class TestIteratesOntoKernel:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_equals_fraction_oracle_on_canonical_stages(self, d):
        for state in canonical_states(d):
            D = state.final.scaled[0]
            hull = state.stages[0].leaves
            for targets in (hull, state.stages[1].leaves):
                scaled_targets = {_scaled_pair(l, D) for l in targets}
                for l in state.final.sorted_leaves:
                    for cap in range(4):
                        got = _iterates_onto(d, D, _scaled_pair(l, D), scaled_targets, cap)
                        assert got == fraction_iterates_onto(d, l, targets, cap)

    @settings(max_examples=150)
    @given(mixed_laminations, st.integers(0, 2**24 - 1), st.integers(0, 5))
    def test_equals_fraction_oracle(self, L, mask, cap):
        d = L.degree
        D, pairs = L.scaled
        targets = {l for i, l in enumerate(L.sorted_leaves) if mask >> i & 1}
        scaled_targets = {_scaled_pair(l, D) for l in targets}
        for l, pair in zip(L.sorted_leaves, pairs):
            got = _iterates_onto(d, D, pair, scaled_targets, cap)
            assert got == fraction_iterates_onto(d, l, targets, cap)

    def test_fixed_hull_targets_on_grid(self):
        # the leaf alone has denominators 3 and 2; the hull leaf 0-1/4 lies on
        # the grid because D is a multiple of d - 1 = 4
        d = 5
        L = Lamination(d, frozenset({Leaf(angle("1/3"), angle("1/2"))}))
        D = L.scaled[0]
        fps = fixed_points(d)
        hull = {Leaf(fps[0], fps[1])}
        assert _scaled_pair(Leaf(fps[0], fps[1]), D) == (0, D // 4)
        scaled_hull = {_scaled_pair(h, D) for h in hull}
        assert not _iterates_onto(d, D, L.scaled[1][0], scaled_hull, 3)
        assert not fraction_iterates_onto(d, L.sorted_leaves[0], hull, 3)


class TestCheckInvarianceKernel:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_equals_fraction_oracle_on_canonical_stages(self, d):
        for state in canonical_states(d):
            for k, prev in enumerate(state.stages):
                for nxt in state.stages[k:]:
                    new = sorted(nxt.leaves - prev.leaves)
                    thinned = Lamination(d, nxt.leaves - frozenset(new[::3]))
                    for L_next in (nxt, thinned):
                        got = check_invariance(prev, L_next)
                        assert got == fraction_check_invariance(prev, L_next)

    @settings(max_examples=200)
    @given(mixed_laminations, st.integers(0, 2**24 - 1))
    def test_equals_fraction_oracle(self, L_next, mask):
        kept = (l for i, l in enumerate(L_next.sorted_leaves) if mask >> i & 1)
        L_prev = Lamination(L_next.degree, frozenset(kept))
        assert check_invariance(L_prev, L_next) == fraction_check_invariance(L_prev, L_next)

    @settings(max_examples=100)
    @given(mixed_laminations, mixed_leaves)
    def test_not_contained_rejected_alike(self, L_next, extra):
        L_prev = Lamination(L_next.degree, L_next.leaves | frozenset(extra))
        if L_prev.leaves <= L_next.leaves:
            expected = fraction_check_invariance(L_prev, L_next)
            assert check_invariance(L_prev, L_next) == expected
            return
        for check in (check_invariance, fraction_check_invariance):
            with pytest.raises(ValueError, match="not contained"):
                check(L_prev, L_next)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_empty_stages(self, d):
        empty = Lamination(d, frozenset())
        assert check_invariance(empty, empty) == ()
        L = Lamination(d, frozenset({Leaf(angle(0), angle("1/3"))}))
        assert check_invariance(empty, L) == ()
        assert check_invariance(L, L) == fraction_check_invariance(L, L)


class TestSectorGeometryKernel:
    @settings(max_examples=300)
    @given(st.sampled_from([4, 6, 8, 12]).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)).filter(lambda t: t[0] < t[1]),
            st.lists(st.integers(0, q - 1), min_size=1, max_size=3),
            st.sets(st.integers(0, q - 1), max_size=3),
        )
    ))
    def test_separates_equals_fraction_oracle(self, case):
        q, (x, y), pts, others = case
        l = Leaf(angle(Fraction(x, q)), angle(Fraction(y, q)))
        got = _separates((x, y), pts, others, q)
        expected = fraction_separates(
            l, [angle(Fraction(p, q)) for p in pts], {angle(Fraction(o, q)) for o in others}
        )
        assert got == expected

    def test_diameter_separates_on_both_sides(self):
        # the leaf 1/4-3/4 cuts off 1/2 on one side and 0 on the other
        assert _separates((1, 3), [2], {0}, 4)
        assert _separates((1, 3), [0], {2}, 4)
        assert not _separates((1, 3), [0, 2], set(), 4)

    @settings(max_examples=200)
    @given(mixed_laminations, st.data())
    def test_pinched_off_equals_fraction_oracle(self, L, data):
        D = L.scaled[0]
        for boundary in _face_sweep(L):
            f = _face(L, boundary)
            owner = {
                v: i
                for v in f.vertices
                if (i := data.draw(st.sampled_from([None, 0, 1, 2]))) is not None
            }
            beyond = data.draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=3))
            subtended = [FixedObject(tuple(angle(Fraction(p, D)) for p in beyond), (), True)]
            got = _pinched_off(boundary, {_scaled(v, D): i for v, i in owner.items()}, beyond, D)
            assert got == fraction_pinched_off(f, owner, subtended)

    @settings(max_examples=200)
    @given(mixed_laminations, st.lists(st.fractions(0, 1, max_denominator=60), max_size=8))
    def test_on_closure_equals_face_on_closure(self, L, points):
        # points off L's grid are compared at a finer scale; the empty
        # lamination's one face is the full-circle arc (1, 0, 0)
        points = [angle(t) for t in points] + [t for l in L.sorted_leaves for t in l.endpoints]
        for lam in (L, Lamination(L.degree, frozenset())):
            D = lam.scaled[0]
            for boundary in _face_sweep(lam):
                f = _face(lam, boundary)
                for t in points:
                    p, q = t.value.numerator, t.value.denominator
                    assert _closure(boundary, D, q)(p) == on_closure(f, t)
                # numerators over the lamination's own grid, as the sector diagnostics pass them
                on = _closure(boundary, D, D)
                grid = {z for x, y in lam.scaled[1] for z in (x, y, (x + y) // 2)} or range(D)
                for z in grid:
                    assert on(z) == on_closure(f, angle(Fraction(z, D)))
