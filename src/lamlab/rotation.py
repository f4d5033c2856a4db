"""Rotational sets and the unicritical / maximally-critical correspondence.

Covers rotation numbers of finite invariant sets, rotational orbits built
from their base-d digit itineraries, major and minor leaves, co-roots found
on the boundary of the central gap of a unicritical lamination, and the
translation between a unicritical rotational q-gon and its maximally
critical q(d'-1)-gon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .circle import CirclePoint, angle, check_degree, fixed_points, in_arc, orbit, sigma
from .leaves import Face, Leaf, Polygon, faces, leaf_image, leaves_cross
from .pullback import CriticalPortrait, PullbackState, critical_sectors


class NotRotational(ValueError):
    """A point set fails order preservation or invariance; carries the index."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


class MajorTieError(ValueError):
    """Two distinct sides are equally close to critical length."""

    def __init__(self, message: str, candidates: tuple[Leaf, ...]) -> None:
        super().__init__(message)
        self.candidates = candidates


def rotation_number(d: int, points: Iterable[CirclePoint | Fraction]) -> Fraction:
    """Combinatorial rotation number of a finite forward-invariant set.

    The multiplication map must permute the sorted points with a constant
    index shift p; the result is p/q in lowest terms.  A set of fixed points
    has rotation number 0.  Raises NotRotational otherwise.
    """
    check_degree(d)
    pts = sorted({angle(x) for x in points})
    if not pts:
        raise ValueError("rotation number needs at least one point")
    q = len(pts)
    index = {x: i for i, x in enumerate(pts)}
    shift: int | None = None
    for i, x in enumerate(pts):
        j = index.get(sigma(d, x))
        if j is None:
            raise NotRotational(f"the image of point {i} ({x}) leaves the set", i)
        s = (j - i) % q
        if shift is None:
            shift = s
        elif s != shift:
            raise NotRotational(f"the index shift breaks at point {i} ({x})", i)
    assert shift is not None
    return Fraction(shift, q)


@dataclass(frozen=True)
class RotationalOrbit:
    """A finite rotational set: sorted points plus their rotation number.

    Despite the name this may hold several periodic orbits at once, as long
    as the union still rotates with one constant shift.
    """

    degree: int
    points: tuple[CirclePoint, ...]
    rotation: Fraction | None = None

    def __post_init__(self) -> None:
        check_degree(self.degree)
        pts = tuple(sorted({angle(x) for x in self.points}))
        if len(pts) != len(tuple(self.points)):
            raise ValueError("rotational set points must be distinct")
        object.__setattr__(self, "points", pts)
        rho = rotation_number(self.degree, pts)
        if self.rotation is None:
            object.__setattr__(self, "rotation", rho)
        elif Fraction(self.rotation) != rho:
            raise ValueError(f"stated rotation {self.rotation} but the set rotates by {rho}")

    def hull_sides(self) -> tuple[Leaf, ...]:
        """Sides of the convex hull; a pair gives one leaf, a point none."""
        pts = self.points
        if len(pts) == 1:
            return ()
        if len(pts) == 2:
            return (Leaf(pts[0], pts[1]),)
        return Polygon(pts).sides


def enumerate_rotational_orbits(
    d: int, q: int, p: int | None = None
) -> list[RotationalOrbit]:
    """All single rotational orbits of exact period q (rotation p/q if given), sorted.

    The sorted points x_0 < ... < x_{q-1} of a p/q orbit have nondecreasing
    first base-d digits D_i, and x_i is the repeating expansion D_i D_{i+p}
    D_{i+2p} ... (indices mod q).  So each nondecreasing digit tuple whose
    points come out strictly increasing and below 1 is one orbit, and each
    orbit arises once: C(q+d-2, d-2) per rotation number (Goldberg).
    """
    check_degree(d)
    if q < 1:
        raise ValueError("period must be at least 1")
    if p is not None:
        if not 0 <= p < q:
            raise ValueError("numerator out of range")
        if math.gcd(p, q) != 1:
            raise ValueError(f"numerator {p} and period {q} share a factor")
    denom = d**q - 1
    out: list[RotationalOrbit] = []
    for s in [p] if p is not None else [s for s in range(q) if math.gcd(s, q) == 1]:
        for digits in itertools.combinations_with_replacement(range(d), q):
            nums = [
                sum(digits[(i + k * s) % q] * d ** (q - 1 - k) for k in range(q))
                for i in range(q)
            ]
            if nums[-1] < denom and all(a < b for a, b in zip(nums, nums[1:])):
                points = tuple(angle(Fraction(n, denom)) for n in nums)
                out.append(RotationalOrbit(d, points, Fraction(s, q)))
    return sorted(out, key=lambda o: o.points)


@dataclass(frozen=True)
class MajorMinor:
    """A forward-invariant leaf orbit with its major and minor singled out."""

    degree: int
    sides: tuple[Leaf, ...]
    major: Leaf
    minor: Leaf


def major_minor(d: int, sides: Iterable[Leaf]) -> MajorMinor:
    """Pick the major (closest to critical length) of a leaf orbit.

    Only sides of length at least 1/(d+1) compete; if none is that long the
    longest sides compete instead.  The minor is the major's image.  A tie
    between distinct survivors raises MajorTieError rather than guessing.
    """
    check_degree(d)
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
    minor = leaf_image(d, major)
    assert isinstance(minor, Leaf)
    return MajorMinor(d, tuple(sorted(side_set)), major, minor)


def major_length_bound_check(d: int, major: Leaf) -> bool:
    """Whether the major's length is within 1/(d(d+1)) of the critical length 1/d."""
    check_degree(d)
    return abs(Fraction(1, d) - major.length) <= Fraction(1, d * (d + 1))


def unicritical_anchor(d: int, orbit: RotationalOrbit) -> tuple[CirclePoint, ...] | None:
    """Vertices of a compatible all-critical d-gon hung at a major endpoint.

    The d-gon places vertices at anchor + j/d; it is compatible when none of
    its sides crosses a hull side of the orbit.  Both major endpoints are
    tried, the smaller first; a tied major contributes every tied side's
    endpoints.  Returns None when no placement works, which is exactly the
    situation where the orbit admits no unicritical lamination of this
    degree.
    """
    check_degree(d)
    sides = orbit.hull_sides()
    if not sides:
        return None
    try:
        anchors = list(major_minor(d, sides).major.endpoints)
    except MajorTieError as tie:
        anchors = sorted({p for s in tie.candidates for p in s.endpoints})
    step = Fraction(1, d)
    for anchor in anchors:
        verts = tuple(sorted(anchor + step * j for j in range(d)))
        gon = [Leaf(verts[i], verts[(i + 1) % d]) for i in range(d)]
        if not any(leaves_cross(g, s) for g in gon for s in sides):
            return verts
    return None


@dataclass(frozen=True)
class CoRootSet:
    """Co-roots on a central gap boundary, with the all-critical vertex group."""

    gap: Face
    all_critical: tuple[CirclePoint, ...]
    coroots: tuple[CirclePoint, ...]
    local_degree: int

    def __post_init__(self) -> None:
        if len(self.coroots) != self.local_degree - 2:
            raise ValueError(
                f"{len(self.coroots)} co-roots recorded for local degree {self.local_degree}"
            )


def central_gap(
    state: PullbackState, polygon: RotationalOrbit
) -> tuple[Face, tuple[CirclePoint, ...]]:
    """The face adjacent to the polygon's major that carries the all-critical gon.

    Searches the faces of the deepest stage for one whose vertex set contains
    both major endpoints and every vertex of one endpoint-connected group of
    the critical portrait.  Vertex membership, not mere closure, is required:
    a shallow stage can sweep a wanted point inside a boundary arc without
    ever resolving the gap.  Exactly one such face must exist; anything else
    signals insufficient depth or an incompatible polygon.
    """
    if state.degree != polygon.degree:
        raise ValueError("degree mismatch between lamination and polygon")
    if polygon.rotation == 0:
        raise ValueError("the polygon must have nonzero rotation number")
    mm = major_minor(state.degree, polygon.hull_sides())
    hits: list[tuple[Face, tuple[CirclePoint, ...]]] = []
    subdivision = faces(state.final)
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


def find_coroots(state: PullbackState, polygon: RotationalOrbit) -> CoRootSet:
    """Locate the co-roots of a unicritical lamination's central gap.

    A co-root is a boundary point of the central gap on an orbit rotating
    like the polygon that returns to the boundary exactly at itself and is
    not a major endpoint.  The local degree d' is the size of the
    all-critical group on the gap, and exactly d' - 2 co-roots must appear.
    In the global case (d' = d) their pairwise distances must exceed 1/d.
    """
    gap, group = central_gap(state, polygon)
    d = state.degree
    q = len(polygon.points)
    if polygon.rotation.denominator != q:
        raise ValueError(f"the polygon's {q} points form several cycles")
    local_degree = len(group)
    mm = major_minor(d, polygon.hull_sides())
    found: list[CirclePoint] = []
    for candidate in enumerate_rotational_orbits(d, q, polygon.rotation.numerator):
        for x in candidate.points:
            if not gap.on_closure(x) or x in mm.major.endpoints:
                continue
            # first return to the gap boundary must land back on x itself
            y = sigma(d, x)
            while not gap.on_closure(y):
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
    return CoRootSet(gap, group, tuple(sorted(found)), local_degree)


@dataclass(frozen=True)
class CorrespondencePair:
    """A unicritical q-gon matched with its maximally critical q(d'-1)-gon."""

    polygon: RotationalOrbit
    all_critical: tuple[CirclePoint, ...]
    max_polygon: RotationalOrbit
    majors: tuple[Leaf, ...]
    coroots: tuple[CirclePoint, ...]
    local_degree: int

    def __post_init__(self) -> None:
        q = len(self.polygon.points)
        if len(self.max_polygon.points) != q * (self.local_degree - 1):
            raise ValueError("maximally critical polygon has the wrong vertex count")
        if not set(self.polygon.points) <= set(self.max_polygon.points):
            raise ValueError("the q-gon's vertices must survive into the larger polygon")
        if len(self.majors) != self.local_degree - 1:
            raise ValueError("one major per side orbit is required")
        if len(self.coroots) != self.local_degree - 2:
            raise ValueError("co-root count disagrees with the local degree")


def _side_orbits(d: int, sides: tuple[Leaf, ...]) -> list[tuple[Leaf, ...]]:
    """Partition polygon sides into forward-image cycles."""
    side_set = set(sides)
    left = set(sides)
    orbits: list[tuple[Leaf, ...]] = []
    while left:
        s = min(left)
        cycle = [s]
        left.discard(s)
        t = leaf_image(d, s)
        while t != s:
            if not isinstance(t, Leaf) or t not in side_set:
                raise ValueError(f"side image {t} is not a side of the polygon")
            cycle.append(t)
            left.discard(t)
            t = leaf_image(d, t)
        orbits.append(tuple(cycle))
    return orbits


def _majors(
    d: int, grown: RotationalOrbit, q: int, local_degree: int
) -> tuple[tuple[Leaf, ...], set[CirclePoint]]:
    """The sorted majors of the sides' d' - 1 cycles of period q, and the endpoints they share."""
    orbits = _side_orbits(d, grown.hull_sides())
    if len(orbits) != local_degree - 1 or any(len(o) != q for o in orbits):
        raise ValueError("sides do not split into d' - 1 cycles of the period")
    majors = tuple(sorted(major_minor(d, o).major for o in orbits))
    shared = {
        x
        for m1, m2 in itertools.combinations(majors, 2)
        for x in m1.endpoints
        if m2.has_endpoint(x)
    }
    return majors, shared


def uni_to_max(state: PullbackState, polygon: RotationalOrbit) -> CorrespondencePair:
    """Grow a unicritical rotational polygon into its maximally critical one.

    The new vertex set is the polygon's orbit united with the forward orbits
    of its co-roots.  The result must again rotate with the same number, its
    sides must fall into d' - 1 cycles of the polygon's period, and the
    per-cycle majors must chain through the co-roots as shared endpoints.
    """
    d = state.degree
    crs = find_coroots(state, polygon)
    q = len(polygon.points)
    local_degree = crs.local_degree
    verts = set(polygon.points)
    for c in crs.coroots:
        verts.update(orbit(d, c)[1])
    if len(verts) != q * (local_degree - 1):
        raise ValueError(
            f"combined vertex count {len(verts)} != {q} * ({local_degree} - 1)"
        )
    grown = RotationalOrbit(d, tuple(sorted(verts)))
    if grown.rotation != polygon.rotation:
        raise ValueError("rotation number changed while adding co-root orbits")
    majors, shared = _majors(d, grown, q, local_degree)
    if shared != set(crs.coroots):
        raise ValueError("major leaves do not chain through the co-roots")
    return CorrespondencePair(
        polygon=polygon,
        all_critical=crs.all_critical,
        max_polygon=grown,
        majors=majors,
        coroots=crs.coroots,
        local_degree=local_degree,
    )


def max_to_uni(state: PullbackState, gon: Polygon) -> CorrespondencePair:
    """Recover the unicritical q-gon inside a maximally critical polygon.

    The vertex cycles of the polygon are separated into co-root cycles,
    recognized because their points are shared endpoints of two majors, and
    a single surviving cycle which is the unicritical rotational orbit.
    """
    d = state.degree
    grown = RotationalOrbit(d, gon.vertices)
    if grown.rotation == 0:
        raise ValueError("the polygon does not rotate")
    vertex_cycles: list[tuple[CirclePoint, ...]] = []
    left = set(grown.points)
    while left:
        cycle = tuple(orbit(d, min(left))[1])
        left.difference_update(cycle)
        vertex_cycles.append(cycle)
    sizes = {len(c) for c in vertex_cycles}
    if len(sizes) != 1:
        raise ValueError("vertex cycles have mixed periods")
    q = sizes.pop()
    local_degree = len(vertex_cycles) + 1
    majors, shared = _majors(d, grown, q, local_degree)
    if len(shared) != local_degree - 2:
        raise ValueError("the majors are not adjacent through shared endpoints")
    coroot_cycles = [c for c in vertex_cycles if set(c) & shared]
    if len(coroot_cycles) != local_degree - 2:
        raise ValueError("shared endpoints do not sit in distinct vertex cycles")
    rest = [c for c in vertex_cycles if not (set(c) & shared)]
    if len(rest) != 1:
        raise ValueError("no single surviving vertex cycle")
    survivor = RotationalOrbit(d, tuple(sorted(rest[0])))
    if survivor.rotation != grown.rotation:
        raise ValueError("the surviving cycle rotates differently")
    coroots = tuple(sorted(shared))
    gap, group = central_gap(state, survivor)
    if len(group) != local_degree:
        raise ValueError("all-critical group size disagrees with the major structure")
    return CorrespondencePair(
        polygon=survivor,
        all_critical=group,
        max_polygon=grown,
        majors=majors,
        coroots=coroots,
        local_degree=local_degree,
    )


@dataclass(frozen=True)
class PlacementReport:
    """Outcome of checking rotation assignments against a critical portrait."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_rotational_placement(
    C: CriticalPortrait, assignments: Mapping[int, Fraction | int]
) -> PlacementReport:
    """Check rotation-number assignments on the sectors of a portrait.

    Sectors are indexed in the order critical_sectors returns them.  Two
    rules apply: a sector with nonzero rotation may not contain a fixed
    point inside its arcs, and two sectors sharing a critical chord may not
    both carry nonzero rotation.
    """
    sectors = critical_sectors(C)
    for i in assignments:
        if not 0 <= i < len(sectors):
            raise ValueError(f"no sector with index {i}")
    rot = {i: Fraction(assignments.get(i, 0)) for i in range(len(sectors))}
    violations: list[str] = []
    fixed = fixed_points(C.degree)
    for i, sector in enumerate(sectors):
        if rot[i] == 0:
            continue
        for arc in sector.arcs:
            for fp in fixed:
                if in_arc(fp, arc.start, arc.end):
                    violations.append(
                        f"sector {i} carries rotation {rot[i]} but its arc "
                        f"({arc.start}, {arc.end}) contains the fixed point {fp}"
                    )
    for i, j in itertools.combinations(range(len(sectors)), 2):
        if rot[i] != 0 and rot[j] != 0 and set(sectors[i].chords) & set(sectors[j].chords):
            violations.append(f"adjacent sectors {i} and {j} both carry nonzero rotation")
    return PlacementReport(tuple(violations))
