"""Chords of the disk, leaf dynamics, finite laminations, and their checkers.

A leaf is an unordered pair of distinct circle points.  Finite leaf sets with
pairwise non-crossing leaves approximate invariant laminations; the checkers
here verify the non-crossing condition, forward/backward/sibling invariance
between successive approximation stages, and compute the planar face
subdivision that the chords induce on the disk.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from typing import Iterator

from .circle import CirclePoint, angle, ccw_span, check_degree, in_arc, preimages, sigma

__all__ = [
    "Arc",
    "Face",
    "Lamination",
    "Leaf",
    "Polygon",
    "SiblingCollection",
    "Violation",
    "check_invariance",
    "faces",
    "fibre_matchings",
    "grand_orbit_truncated",
    "is_critical",
    "leaf_image",
    "leaves_cross",
    "sibling_collections",
    "validate_prelamination",
]


@dataclass(frozen=True, order=True)
class Leaf:
    """An unordered chord {a, b} of the closed unit disk, a != b.

    Stored with a < b (as representatives in [0,1)), so equality and ordering
    are structural.
    """

    a: CirclePoint
    b: CirclePoint

    def __post_init__(self) -> None:
        pa, pb = angle(self.a), angle(self.b)
        if pa == pb:
            raise ValueError(f"degenerate leaf at {pa}")
        if pb < pa:
            pa, pb = pb, pa
        object.__setattr__(self, "a", pa)
        object.__setattr__(self, "b", pb)

    @property
    def endpoints(self) -> tuple[CirclePoint, CirclePoint]:
        return (self.a, self.b)

    @property
    def length(self) -> Fraction:
        """Shorter arc distance between the endpoints, in (0, 1/2]."""
        span = self.b.value - self.a.value
        return min(span, 1 - span)

    def has_endpoint(self, t: CirclePoint) -> bool:
        return t == self.a or t == self.b

    def other(self, t: CirclePoint) -> CirclePoint:
        if t == self.a:
            return self.b
        if t == self.b:
            return self.a
        raise ValueError(f"{t} is not an endpoint of {self}")

    def short_arcs(self) -> tuple[tuple[CirclePoint, CirclePoint], ...]:
        """The subtended arc(s) on the shorter side, as (start, end) pairs.

        For a leaf of length exactly 1/2 both arcs tie and both are returned.
        """
        if 2 * self.length == 1:
            return ((self.a, self.b), (self.b, self.a))
        if self.b.value - self.a.value <= Fraction(1, 2):
            return ((self.a, self.b),)
        return ((self.b, self.a),)

    def __repr__(self) -> str:
        return f"Leaf({self.a}, {self.b})"


@dataclass(frozen=True, order=True)
class Polygon:
    """A convex inscribed polygon: >= 3 distinct circle points, stored sorted."""

    vertices: tuple[CirclePoint, ...]

    def __post_init__(self) -> None:
        verts = tuple(sorted(angle(v) for v in self.vertices))
        if len(verts) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if len(set(verts)) != len(verts):
            raise ValueError("polygon vertices must be distinct")
        object.__setattr__(self, "vertices", verts)

    @property
    def sides(self) -> tuple[Leaf, ...]:
        n = len(self.vertices)
        return tuple(
            Leaf(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)
        )


def leaf_image(d: int, l: Leaf) -> Leaf | CirclePoint:
    """Image of a leaf under the d-tupling map; a CirclePoint when it collapses."""
    ia, ib = sigma(d, l.a), sigma(d, l.b)
    if ia == ib:
        return ia
    return Leaf(ia, ib)


def is_critical(d: int, l: Leaf) -> bool:
    """Whether both endpoints share an image, i.e. they differ by some k/d."""
    check_degree(d)
    return ((l.b.value - l.a.value) * d).denominator == 1


def leaves_cross(l1: Leaf, l2: Leaf) -> bool:
    """Strict interleaving of endpoints; sharing an endpoint never crosses."""
    if l1.has_endpoint(l2.a) or l1.has_endpoint(l2.b):
        return False
    return in_arc(l2.a, l1.a, l1.b) != in_arc(l2.b, l1.a, l1.b)


@dataclass(frozen=True)
class SiblingCollection:
    """Exactly d pairwise-disjoint leaves sharing one non-degenerate image."""

    degree: int
    leaves: frozenset[Leaf]

    def __post_init__(self) -> None:
        check_degree(self.degree)
        leaves = frozenset(self.leaves)
        object.__setattr__(self, "leaves", leaves)
        if len(leaves) != self.degree:
            raise ValueError(f"expected {self.degree} leaves, got {len(leaves)}")
        images = {leaf_image(self.degree, l) for l in leaves}
        if len(images) != 1 or not isinstance(next(iter(images)), Leaf):
            raise ValueError("members must share a single non-degenerate image")
        for l1, l2 in itertools.combinations(leaves, 2):
            if l1.has_endpoint(l2.a) or l1.has_endpoint(l2.b):
                raise ValueError(f"{l1} and {l2} share an endpoint")
            if leaves_cross(l1, l2):
                raise ValueError(f"{l1} and {l2} cross")

    @property
    def image(self) -> Leaf:
        img = leaf_image(self.degree, next(iter(self.leaves)))
        assert isinstance(img, Leaf)
        return img

    @property
    def sorted_leaves(self) -> tuple[Leaf, ...]:
        return tuple(sorted(self.leaves))


@cache
def fibre_matchings(d: int) -> tuple[tuple[int, ...], ...]:
    """The Catalan(d) non-crossing perfect matchings between two preimage fibres.

    For a chord a < b the fibres (a+i)/d and (b+j)/d alternate around the
    circle, a_0 < b_0 < a_1 < ... < b_{d-1}, so the non-crossing matchings do
    not depend on the chord: they are the non-crossing pairings of 2d points
    in convex position.  Each tuple m joins a-preimage i to b-preimage m[i].
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


def sibling_collections(d: int, l: Leaf) -> list[SiblingCollection]:
    """All full collections of d disjoint preimage leaves of image(l) containing l.

    Each member connects one preimage of each image endpoint; the two fibers
    are disjoint point sets, so distinct members can never share endpoints and
    the collections are exactly the non-crossing fibre matchings.
    """
    img = leaf_image(d, l)
    if not isinstance(img, Leaf):
        raise ValueError(f"{l} is critical; sibling collections are undefined")
    xs = preimages(d, img.a)
    ys = preimages(d, img.b)
    found: list[SiblingCollection] = []
    for m in fibre_matchings(d):
        chosen = frozenset(Leaf(xs[i], ys[j]) for i, j in enumerate(m))
        if l in chosen:
            found.append(SiblingCollection(d, chosen))
    found.sort(key=lambda c: c.sorted_leaves)
    return found


@dataclass(frozen=True)
class Lamination:
    """A finite non-crossing-intended leaf set with a degree and a stage tag."""

    degree: int
    leaves: frozenset[Leaf]
    depth: int = 0

    def __post_init__(self) -> None:
        check_degree(self.degree)
        object.__setattr__(self, "leaves", frozenset(self.leaves))
        if self.depth < 0:
            raise ValueError("depth must be >= 0")

    @cached_property
    def sorted_leaves(self) -> tuple[Leaf, ...]:
        return tuple(sorted(self.leaves))

    def __contains__(self, l: Leaf) -> bool:
        return l in self.leaves

    def __len__(self) -> int:
        return len(self.leaves)

    def __iter__(self):
        return iter(self.sorted_leaves)


@dataclass(frozen=True)
class Violation:
    """One failed check, with the witnessing leaves."""

    check: str
    detail: str
    leaves: tuple[Leaf, ...] = ()


def _crossers(ends: list[tuple[int, ...]], x: int, y: int) -> Iterator[tuple[int, ...]]:
    """Lazily, the entries of `ends` whose chords the chord x < y crosses.

    `ends` is a sorted list of (endpoint, partner, ...) integer entries, two
    per chord.  A crosser has one endpoint strictly inside (x, y) and its
    partner outside [x, y]; shared endpoints never cross.  Listing all costs
    O(log N + k) for the k endpoints inside; `any()` stops at the first
    crosser.  `ends` must not change while the result is read.
    """
    inside = range(bisect_left(ends, (x + 1,)), bisect_left(ends, (y,)))
    return (ends[i] for i in inside if not x <= ends[i][1] <= y)


def _scaled(t: CirclePoint, denom: int) -> int:
    v = t.value
    q, r = divmod(denom, v.denominator)
    assert r == 0, "common denominator too coarse"
    return v.numerator * q


def validate_prelamination(L: Lamination) -> tuple[Violation, ...]:
    """All crossing pairs; empty iff any two leaves meet at most in an endpoint.

    One sorted index of the endpoints, scaled to integers, finds each leaf's crossers.
    """
    ls = L.sorted_leaves
    denom = lcm(*(t.value.denominator for l in ls for t in l.endpoints))
    chords = [(_scaled(l.a, denom), _scaled(l.b, denom)) for l in ls]
    ends = sorted(e for i, (x, y) in enumerate(chords) for e in ((x, y, i), (y, x, i)))
    out = []
    for i, (x, y) in enumerate(chords):
        # a crosser j > i has its first endpoint inside (x, y) and its second
        # beyond y, so the index yields those in leaf order
        for j in (e[2] for e in _crossers(ends, x, y) if e[2] > i):
            out.append(Violation("crossing", f"{ls[i]} crosses {ls[j]}", (ls[i], ls[j])))
    return tuple(out)


def check_invariance(L_prev: Lamination, L_next: Lamination) -> tuple[Violation, ...]:
    """Finite-depth invariance report between successive stages.

    For every leaf of L_prev: (a) its image lies in L_next or collapses;
    (b) some preimage leaf lies in L_next; (c) a full collection of d disjoint
    non-crossing leaves with the same image as the leaf exists within L_next.
    Critical leaves are exempt from (c), having no leaf image.  One pass over
    L_next indexes each image leaf by the fibre positions (i, j) of its
    preimage leaves there: the i-th preimage of the image's a joined to the
    j-th of its b.
    """
    if L_prev.degree != L_next.degree:
        raise ValueError("degree mismatch between stages")
    if not L_prev.leaves <= L_next.leaves:
        raise ValueError("earlier stage is not contained in the later stage")
    d = L_prev.degree
    over: dict[Leaf, set[tuple[int, int]]] = {}
    for m in L_next.leaves:
        ia, ib = sigma(d, m.a), sigma(d, m.b)
        if ia != ib:
            # x = (t + i)/d with t in [0, 1) has floor(d x) = i
            i, j = int(d * m.a.value), int(d * m.b.value)
            over.setdefault(Leaf(ia, ib), set()).add((i, j) if ia < ib else (j, i))
    out: list[Violation] = []
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


@dataclass(frozen=True, order=True)
class Arc:
    """A counterclockwise circle arc from start to end; start == end is the full circle."""

    start: CirclePoint
    end: CirclePoint

    @property
    def length(self) -> Fraction:
        if self.start == self.end:
            return Fraction(1)
        return ccw_span(self.start, self.end)

    def contains(self, t: CirclePoint, closed: bool = True) -> bool:
        """Membership in the arc; `closed` includes the endpoints."""
        if self.start == self.end:
            return True
        if t == self.start or t == self.end:
            return closed
        return in_arc(t, self.start, self.end)


def _element_key(e: Leaf | Arc):
    if isinstance(e, Leaf):
        return (0, e.a, e.b)
    return (1, e.start, e.end)


@dataclass(frozen=True)
class Face:
    """One complementary region of the disk: its cyclic boundary of leaves and arcs."""

    boundary: tuple[Leaf | Arc, ...]

    @property
    def leaves(self) -> tuple[Leaf, ...]:
        return tuple(e for e in self.boundary if isinstance(e, Leaf))

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(e for e in self.boundary if isinstance(e, Arc))

    @cached_property
    def vertices(self) -> tuple[CirclePoint, ...]:
        pts = set()
        for e in self.boundary:
            if isinstance(e, Leaf):
                pts.update(e.endpoints)
            elif e.start != e.end:
                pts.update((e.start, e.end))
        return tuple(sorted(pts))

    def is_polygon(self) -> bool:
        return not self.arcs

    def on_closure(self, t: CirclePoint) -> bool:
        """Whether t lies on this face's circle boundary (a vertex or inside an arc)."""
        return t in self.vertices or any(a.contains(t) for a in self.arcs)


def faces(L: Lamination) -> list[Face]:
    """The planar subdivision of the disk induced by the leaf set.

    Requires a pre-lamination (no crossing pair); crossings are not re-checked
    here.  The empty lamination yields the whole disk, bounded by a full-circle
    arc.  Non-crossing leaves, read as intervals [a, b] of [0, 1), are nested
    or disjoint, so one sweep by a ascending, b descending gives each leaf its
    parent.  Each leaf closes the face on its a-to-b side, bounded by the leaf,
    its children in order and one arc across each gap between them; the
    top-level leaves bound one more face, closed by the arc through 0.
    """
    if not L.leaves:
        zero = angle(0)
        return [Face((Arc(zero, zero),))]
    chords = sorted(L.leaves, key=lambda l: (l.a, -l.b.value))
    boundaries: list[list[Leaf | Arc]] = []

    def close(frame: list) -> None:
        boundary, cursor, end = frame
        if cursor != end:
            boundary.append(Arc(cursor, end))
        boundaries.append(boundary)

    first = chords[0].a
    # open faces, innermost last: [boundary so far, vertex reached, closing vertex]
    stack: list[list] = [[[], first, first]]
    for l in chords:
        while len(stack) > 1 and stack[-1][2] < l.b:
            close(stack.pop())
        parent = stack[-1]
        if parent[1] != l.a:
            parent[0].append(Arc(parent[1], l.a))
        parent[0].append(l)
        parent[1] = l.b
        stack.append([[l], l.a, l.b])
    while stack:
        close(stack.pop())

    out: list[Face] = []
    for elements in boundaries:
        k0 = min(range(len(elements)), key=lambda k: _element_key(elements[k]))
        out.append(Face(tuple(elements[k0:] + elements[:k0])))
    out.sort(key=lambda f: tuple(_element_key(e) for e in f.boundary))
    return out


def _iterates_onto(d: int, l: Leaf, targets: set[Leaf], cap: int) -> bool:
    """Whether l or one of its first cap leaf images lies in targets."""
    cur = l
    for _ in range(cap + 1):
        if cur in targets:
            return True
        img = leaf_image(d, cur)
        if isinstance(img, CirclePoint):
            return False
        cur = img
    return False


def grand_orbit_truncated(
    d: int, L: Lamination, seed: Leaf, max_depth: int
) -> set[Leaf]:
    """Leaves of L meeting the seed's forward orbit within max_depth steps each way."""
    if seed not in L:
        raise ValueError(f"seed {seed} is not a leaf of the lamination")
    targets: set[Leaf] = set()
    cur: Leaf | CirclePoint = seed
    for _ in range(max_depth + 1):
        if not isinstance(cur, Leaf) or cur in targets:
            break
        targets.add(cur)
        cur = leaf_image(d, cur)
    return {m for m in L.leaves if _iterates_onto(d, m, targets, max_depth)}
