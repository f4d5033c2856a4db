"""Rotational sets and the unicritical / maximally-critical correspondence.

Covers rotation numbers of finite invariant sets, rotational orbits built
from their base-d digit itineraries, major and minor leaves, co-roots found
on the boundary of the central gap of a unicritical lamination, and the
translation between a unicritical rotational q-gon and its maximally
critical q(d'-1)-gon.

Everything runs on integer numerators over a common denominator D, where
the d-tupling map is x -> d*x mod D: the points of a period-q orbit lie on
the grid over d^q - 1.  Each RotationalOrbit keeps one such view, its
sorted points as numerators over their least common denominator, and
builds its CirclePoints on first read.  Leaf and Face objects are built
only for returned values and error messages.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .circle import CirclePoint, angle, check_degree
from .leaves import (
    Face,
    Leaf,
    NotRotational,  # for the callers of rotation_number, which raises it
    Polygon,
    _closure,
    _cycles,
    _face,
    _image,
    _leaf,
    _numerators,
    _point,
    _regrid,
    _rotation,
    _scaled_pair,
    _sides,
)
from .fpp import CriticalPortrait
from .pullback import PullbackState

__all__ = [
    "CoRootSet",
    "CorrespondencePair",
    "MajorMinor",
    "MajorTieError",
    "RotationalOrbit",
    "central_gap",
    "enumerate_rotational_orbits",
    "find_coroots",
    "major_minor",
    "max_to_uni",
    "rotation_number",
    "uni_to_max",
    "unicritical_anchor",
    "validate_rotational_placement",
]


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
    D, nums = _numerators([angle(x).value for x in points])
    return _rotation(d, D, sorted(set(nums)))


@dataclass(frozen=True, init=False, repr=False)
class RotationalOrbit:
    """A finite rotational set: sorted points plus their rotation number.

    Despite the name this may hold several periodic orbits at once, as long
    as the union still rotates with one constant shift.  Stored as the
    integer view `_scaled` (D, nums): the least common denominator of the
    points and the sorted numerators over it.  The degree, that view and
    the rotation give `==` and `hash`; `points` is built on first read.
    """

    degree: int
    _scaled: tuple[int, tuple[int, ...]]
    rotation: Fraction

    def __init__(self, degree: int, points: Iterable, rotation: Fraction | None = None) -> None:
        check_degree(degree)
        pts = [angle(x) for x in points]
        D, nums = _numerators([t.value for t in pts])
        if len(set(nums)) != len(nums):
            raise ValueError("rotational set points must be distinct")
        order = sorted(range(len(nums)), key=nums.__getitem__)
        view = (D, tuple(nums[i] for i in order))
        rho = _rotation(degree, *view)
        if rotation is not None and Fraction(rotation) != rho:
            raise ValueError(f"stated rotation {rotation} but the set rotates by {rho}")
        self.__dict__.update(degree=degree, _scaled=view, points=tuple(pts[i] for i in order))
        self.__dict__["rotation"] = rho if rotation is None else rotation

    @cached_property
    def points(self) -> tuple[CirclePoint, ...]:
        D, nums = self._scaled
        return tuple(_point(x, D) for x in nums)

    def __repr__(self) -> str:
        pts = self.points
        return f"RotationalOrbit(degree={self.degree}, points={pts}, rotation={self.rotation!r})"

    def hull_sides(self) -> tuple[Leaf, ...]:
        """Sides of the convex hull; a pair gives one leaf, a point none."""
        return tuple(Leaf(a, b) for a, b in _sides(self.points))


def _orbit(
    d: int, D: int, nums: tuple[int, ...], rotation: Fraction | None = None
) -> RotationalOrbit:
    """The orbit with sorted distinct points nums[i]/D, built from its integer view.

    The view is reduced to the least common denominator.  A missing rotation
    is derived, and so checked, as RotationalOrbit does; a given one is trusted.
    """
    g = math.gcd(D, *nums)
    if g > 1:
        D, nums = D // g, tuple(x // g for x in nums)
    if rotation is None:
        rotation = _rotation(d, D, nums)
    orb = object.__new__(RotationalOrbit)
    orb.__dict__.update(degree=d, _scaled=(D, nums), rotation=rotation)
    return orb


def _itineraries(d: int, q: int, p: int) -> list[tuple[int, ...]]:
    """The p/q orbits as sorted numerator tuples over d^q - 1, in increasing order.

    The sorted points x_0 < ... < x_{q-1} of a p/q orbit have nondecreasing
    first base-d digits D_i, and x_i is the repeating expansion D_i D_{i+p}
    D_{i+2p} ... (indices mod q).  So x_0 reads the digits in that order,
    and shifting the expansion gives x_{i+p} = d*x_i mod (d^q - 1).  Each
    nondecreasing digit tuple whose points come out strictly increasing and
    below 1 is one orbit, and each orbit arises once.
    """
    Q = d**q - 1
    hops = [k * p % q for k in range(q)]
    out = []
    for digits in itertools.combinations_with_replacement(range(d), q):
        x = 0
        for i in hops:
            x = x * d + digits[i]
        nums = [0] * q
        for i in hops:
            nums[i] = x
            x = d * x % Q
        if nums[-1] < Q and all(a < b for a, b in zip(nums, nums[1:])):
            out.append(tuple(nums))
    out.sort()
    return out


def enumerate_rotational_orbits(
    d: int, q: int, p: int | None = None
) -> list[RotationalOrbit]:
    """All single rotational orbits of exact period q (rotation p/q if given), sorted.

    Each rotation number p/q contributes the orbits of `_itineraries`, built
    from nondecreasing base-d digit tuples: C(q+d-2, d-2) of them (Goldberg).
    The orbits are sorted by their numerators over d^q - 1, which is the
    order of their points.
    """
    check_degree(d)
    if q < 1:
        raise ValueError("period must be at least 1")
    if p is not None:
        if not 0 <= p < q:
            raise ValueError("numerator out of range")
        if math.gcd(p, q) != 1:
            raise ValueError(f"numerator {p} and period {q} share a factor")
    rotations = [p] if p is not None else [s for s in range(q) if math.gcd(s, q) == 1]
    found = sorted((nums, s) for s in rotations for nums in _itineraries(d, q, s))
    Q = d**q - 1
    return [_orbit(d, Q, nums, Fraction(s, q)) for nums, s in found]


@dataclass(frozen=True)
class MajorMinor:
    """A forward-invariant leaf orbit with its major and minor singled out."""

    degree: int
    sides: tuple[Leaf, ...]
    major: Leaf
    minor: Leaf


def _check_sides(d: int, D: int, sides: Sequence[tuple[int, int]]) -> None:
    """Raise ValueError unless the image of every side over D is one of the sides."""
    present = set(sides)
    for s in sides:
        img = _image(d, D, s)
        if isinstance(img, int):
            raise ValueError(f"side {_leaf(s, D)} collapses to a point")
        if img not in present:
            raise ValueError(f"side {_leaf(s, D)} maps to {_leaf(img, D)}, outside the collection")


def _closest(d: int, D: int, sides: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The sorted distinct sides over D closest to critical length, as major_minor ranks them.

    A length n/D is at least 1/(d+1) when n*(d+1) >= D, and its distance
    to 1/d is |d*n - D| / (d*D).  The map carries the sides into the sides
    without collapse, so one is that long: were the longest, l, shorter,
    its image, of length d*l or 1 - d*l, would be longer than l.
    """
    lengths = [min(y - x, D - y + x) for x, y in sides]
    pool = [i for i, n in enumerate(lengths) if n * (d + 1) >= D]
    gaps = {i: abs(d * lengths[i] - D) for i in pool}
    best = min(gaps.values())
    return sorted(sides[i] for i in pool if gaps[i] == best)


def _major(d: int, D: int, sides: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The one side of `_closest`; raises MajorTieError when several tie."""
    winners = _closest(d, D, sides)
    if len(winners) > 1:
        raise MajorTieError(
            f"{len(winners)} sides are equally close to length 1/{d}",
            tuple(_leaf(w, D) for w in winners),
        )
    return winners[0]


def major_minor(d: int, sides: Iterable[Leaf]) -> MajorMinor:
    """Pick the major (closest to critical length) of a leaf orbit.

    Only sides of length at least 1/(d+1) compete, and the longest side of
    an orbit is always that long.  The minor is the major's image.  A tie
    between distinct survivors raises MajorTieError rather than guessing.

    A Python-only diagnostic until ROADMAP item 1 routes it through `lam diagnose`.
    """
    check_degree(d)
    side_set = frozenset(sides)
    if not side_set:
        raise ValueError("empty side collection")
    D, nums = _numerators([t.value for s in side_set for t in s.endpoints])
    pairs = list(zip(nums[::2], nums[1::2]))
    _check_sides(d, D, pairs)
    by_pair = dict(zip(pairs, side_set))
    major = _major(d, D, pairs)
    return MajorMinor(
        d,
        tuple(by_pair[s] for s in sorted(pairs)),
        by_pair[major],
        by_pair[_image(d, D, major)],
    )


def _gon_fits(d: int, D: int, nums: Sequence[int], a: int) -> bool:
    """Whether the d-gon with vertices v_j = a/D + j/d crosses no hull side of the points nums[i]/D.

    For k, r = divmod(d*(x - a) mod d*D, D), x/D lies on the closed arc
    [v_k, v_k+1], and on [v_k-1, v_k] too when r = 0, x being v_k.  A hull
    side crosses no gon side exactly when both its ends are vertices or
    both lie on one such arc, so the test costs O(q) for q points.
    """
    slots = [divmod(d * (x - a) % (d * D), D) for x in nums]
    for (k, r), (m, s) in _sides(slots):
        if k != m and (r or s) and (r or (k - m) % d != 1) and (s or (m - k) % d != 1):
            return False
    return True


def unicritical_anchor(d: int, orbit: RotationalOrbit) -> tuple[CirclePoint, ...] | None:
    """Vertices of a compatible all-critical d-gon hung at a major endpoint.

    The d-gon places vertices at anchor + j/d; it is compatible when none of
    its sides crosses a hull side of the orbit.  Both major endpoints are
    tried, the smaller first; a tied major contributes every tied side's
    endpoints.  Returns None when no placement works, which is exactly the
    situation where the orbit admits no unicritical lamination of this
    degree.  No tied major has given an anchor: of the 11,987 single orbits
    with d <= 7 and q <= 7, the 66 with a tied major have none.

    A Python-only diagnostic until ROADMAP item 1 routes it through `lam diagnose`.
    """
    check_degree(d)
    D, nums = orbit._scaled
    sides = _sides(nums)
    if not sides:
        return None
    if d != orbit.degree:
        # only the orbit's own map is known to carry its sides onto each other
        _check_sides(d, D, [_scaled_pair(s, D) for s in frozenset(orbit.hull_sides())])
    anchors = sorted({x for side in _closest(d, D, sides) for x in side})
    for a in anchors:
        if _gon_fits(d, D, nums, a):
            verts = sorted((d * a + j * D) % (d * D) for j in range(d))
            return tuple(_point(v, d * D) for v in verts)
    return None


@dataclass(frozen=True)
class CoRootSet:
    """Co-roots on a central gap boundary, with the all-critical vertex group.

    The local degree d' is the size of that group, and d' - 2 co-roots are required.
    """

    gap: Face
    all_critical: tuple[CirclePoint, ...]
    coroots: tuple[CirclePoint, ...]

    @property
    def local_degree(self) -> int:
        return len(self.all_critical)

    def __post_init__(self) -> None:
        if len(self.coroots) != self.local_degree - 2:
            raise ValueError(
                f"{len(self.coroots)} co-roots recorded for local degree {self.local_degree}"
            )


def _central_gap(
    state: PullbackState, polygon: RotationalOrbit
) -> tuple[tuple[int, int], list[tuple[int, ...]], tuple[CirclePoint, ...]]:
    """The polygon's major over its view, and central_gap's face as a `_faces` boundary."""
    if state.degree != polygon.degree:
        raise ValueError("degree mismatch between lamination and polygon")
    if polygon.rotation == 0:
        raise ValueError("the polygon must have nonzero rotation number")
    D, nums = polygon._scaled
    major = _major(state.degree, D, _sides(nums))
    L = state.final
    DL = L.scaled[0]
    # a point off the stage's grid is no vertex of any face
    ends = {_regrid(x, D, DL) for x in major}
    wanted = [
        (group, ends | {_regrid(t.value.numerator, t.value.denominator, DL) for t in group})
        for group in state.portrait.vertex_groups
    ]
    hits = []
    for boundary in L._faces:
        verts = {v for e in boundary if e[0] == 0 for v in e[1:3]}
        if ends <= verts:
            hits += [(boundary, group) for group, want in wanted if want <= verts]
    if len(hits) != 1:
        raise ValueError(
            f"central gap not identified: {len(hits)} candidate faces "
            "(insufficient depth or incompatible polygon)"
        )
    return major, *hits[0]


def central_gap(
    state: PullbackState, polygon: RotationalOrbit
) -> tuple[Face, tuple[CirclePoint, ...]]:
    """The face adjacent to the polygon's major that carries the all-critical gon.

    Searches the faces of the deepest stage for one whose vertex set contains
    both major endpoints and every vertex of one endpoint-connected group of
    the critical portrait.  Vertex membership, not mere closure, is required:
    a shallow stage can sweep a wanted point inside a boundary arc without
    ever resolving the gap.  Exactly one such face must exist; anything else
    signals insufficient depth or an incompatible polygon.  The search reads
    the `_faces` boundaries of the deepest stage by their integer vertex
    sets, a point off that stage's grid being no vertex of any face, and
    builds the Face of the one hit only.

    A Python-only diagnostic until ROADMAP item 1 routes it through `lam diagnose`.
    """
    _, boundary, group = _central_gap(state, polygon)
    return _face(state.final, boundary), group


def _coroots(
    state: PullbackState, polygon: RotationalOrbit
) -> tuple[list[tuple[int, ...]], tuple[CirclePoint, ...], int, list[int]]:
    """find_coroots on integers: (gap boundary, group, Q, sorted co-roots over Q = d^q - 1)."""
    major, boundary, group = _central_gap(state, polygon)
    d = state.degree
    D, nums = polygon._scaled
    q = len(nums)
    if polygon.rotation.denominator != q:
        raise ValueError(f"the polygon's {q} points form several cycles")
    local_degree = len(group)
    # one q-cycle lies on the grid over Q = d^q - 1, where the candidates
    # meet the gap boundary over the stage's grid
    Q = d**q - 1
    majors = {x * (Q // D) for x in major}
    on_closure = _closure(boundary, state.final.scaled[0], Q)
    found: list[int] = []
    for candidate in _itineraries(d, q, polygon.rotation.numerator):
        for x in candidate:
            if x in majors or not on_closure(x):
                continue
            # first return to the gap boundary must land back on x itself
            y = d * x % Q
            while not on_closure(y):
                y = d * y % Q
            if y == x:
                found.append(x)
    if len(found) != local_degree - 2:
        raise ValueError(
            f"found {len(found)} co-roots where {local_degree - 2} were expected "
            "(insufficient depth or non-canonical input)"
        )
    if local_degree == d:
        for x, y in itertools.combinations(found, 2):
            gap = (y - x) % Q
            if min(gap, Q - gap) * d <= Q:
                raise ValueError(
                    f"co-roots {_point(x, Q)} and {_point(y, Q)} are within 1/{d} of each other"
                )
    return boundary, group, Q, sorted(found)


def find_coroots(state: PullbackState, polygon: RotationalOrbit) -> CoRootSet:
    """Locate the co-roots of a unicritical lamination's central gap.

    A co-root is a boundary point of the central gap on an orbit rotating
    like the polygon that returns to the boundary exactly at itself and is
    not a major endpoint.  The local degree d' is the size of the
    all-critical group on the gap, and exactly d' - 2 co-roots must appear.
    In the global case (d' = d) their pairwise distances must exceed 1/d.
    The candidates are the points of the orbits with the polygon's rotation
    number, as numerators over Q = d^q - 1.  Closure on the gap (a vertex,
    or a point of a closed boundary arc) is an integer test on the grid over
    lcm(Q, D), D the deepest stage's denominator; the first return runs
    x -> d*x mod Q, and the spacing compares distances over Q with Q/d.
    The polygon's major is ranked once, for the gap and the co-roots.

    A Python-only diagnostic until ROADMAP item 1 routes it through `lam diagnose`.
    """
    boundary, group, Q, found = _coroots(state, polygon)
    coroots = tuple(_point(x, Q) for x in found)
    return CoRootSet(_face(state.final, boundary), group, coroots)


@dataclass(frozen=True)
class CorrespondencePair:
    """A unicritical q-gon matched with its maximally critical q(d'-1)-gon.

    The local degree d' is the size of the all-critical group; the pair
    holds d' - 1 majors and d' - 2 co-roots.
    """

    polygon: RotationalOrbit
    all_critical: tuple[CirclePoint, ...]
    max_polygon: RotationalOrbit
    majors: tuple[Leaf, ...]
    coroots: tuple[CirclePoint, ...]

    @property
    def local_degree(self) -> int:
        return len(self.all_critical)

    def __post_init__(self) -> None:
        (D, nums), (G, grown) = self.polygon._scaled, self.max_polygon._scaled
        if len(grown) != len(nums) * (self.local_degree - 1):
            raise ValueError("maximally critical polygon has the wrong vertex count")
        if not {_regrid(x, D, G) for x in nums} <= set(grown):
            raise ValueError("the q-gon's vertices must survive into the larger polygon")
        if len(self.majors) != self.local_degree - 1:
            raise ValueError("one major per side orbit is required")
        if len(self.coroots) != self.local_degree - 2:
            raise ValueError("co-root count disagrees with the local degree")


def _majors(d: int, grown: RotationalOrbit) -> tuple[list[tuple[int, int]], set[int]]:
    """The sorted majors of the side cycles of `grown`, and the endpoints they share.

    Both are over the view of `grown`, a rotational set whose N points the
    map shifts by a constant s.  From 3 points on, its N sides shift by s
    too, so they form gcd(s, N) cycles of N/gcd(s, N) sides: d' - 1 cycles
    of the period q for N = q(d' - 1) points rotating by p/q.  A period-2
    leaf is its own one side, fixed as a set while its ends swap: when its
    gap carries a single critical chord (d' = 2), the leaf is its own
    maximally critical polygon and its own major.
    """
    D, nums = grown._scaled
    cycles = _cycles(lambda s: _image(d, D, s), _sides(nums))
    majors = sorted(_major(d, D, c) for c in cycles)
    shared = {x for m1, m2 in itertools.combinations(majors, 2) for x in m1 if x in m2}
    return majors, shared


def uni_to_max(state: PullbackState, polygon: RotationalOrbit) -> CorrespondencePair:
    """Grow a unicritical rotational polygon into its maximally critical one.

    The new vertex set is the polygon's orbit united with the forward orbits
    of its d' - 2 co-roots, and must again be a rotational set.  Its cycles
    all rotate alike, so it rotates with the polygon's number.  Each co-root
    has a cycle of its own, which is not the polygon's: a second point of
    one cycle on the gap would be met before the first return.  So the set
    has q(d' - 1) points, and its sides fall into d' - 1 cycles of the
    polygon's period, whose majors must chain through the co-roots as shared
    endpoints.  A period-2 leaf whose gap carries a single critical chord is
    its own maximally critical polygon.
    """
    d = state.degree
    _, group, Q, coroots = _coroots(state, polygon)
    D, nums = polygon._scaled
    verts = {x * (Q // D) for x in nums}
    verts.update(x for cycle in _cycles(lambda x: d * x % Q, coroots) for x in cycle)
    grown = _orbit(d, Q, tuple(sorted(verts)))
    majors, shared = _majors(d, grown)
    G = grown._scaled[0]
    if shared != {c * G // Q for c in coroots}:
        raise ValueError("major leaves do not chain through the co-roots")
    return CorrespondencePair(
        polygon=polygon,
        all_critical=group,
        max_polygon=grown,
        majors=tuple(_leaf(m, G) for m in majors),
        coroots=tuple(_point(c, Q) for c in coroots),
    )


def max_to_uni(state: PullbackState, gon: Polygon) -> CorrespondencePair:
    """Recover the unicritical q-gon inside a maximally critical polygon.

    The polygon, of 3 or more vertices, must be a rotational set; its
    vertex cycles all have one period q and rotate alike, and d' - 1 is
    their number.  The d' - 2 co-roots are the shared endpoints of two
    majors.  A shared endpoint is a vertex both of whose sides are majors,
    so two in one vertex cycle would give one side cycle two majors: the
    co-roots sit in d' - 2 cycles, and the one cycle left is the
    unicritical rotational orbit.
    """
    d = state.degree
    grown = RotationalOrbit(d, gon.vertices)
    if grown.rotation == 0:
        raise ValueError("the polygon does not rotate")
    D, nums = grown._scaled
    vertex_cycles = _cycles(lambda x: d * x % D, nums)
    local_degree = len(vertex_cycles) + 1
    majors, shared = _majors(d, grown)
    if len(shared) != local_degree - 2:
        raise ValueError("the majors are not adjacent through shared endpoints")
    rest = next(c for c in vertex_cycles if not shared.intersection(c))
    survivor = _orbit(d, D, tuple(sorted(rest)), grown.rotation)
    _, _, group = _central_gap(state, survivor)
    if len(group) != local_degree:
        raise ValueError("all-critical group size disagrees with the major structure")
    return CorrespondencePair(
        polygon=survivor,
        all_critical=group,
        max_polygon=grown,
        majors=tuple(_leaf(m, D) for m in majors),
        coroots=tuple(_point(x, D) for x in sorted(shared)),
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

    Sectors are indexed by least arc start, as `pullback` numbers them.
    Keys must be ints naming a sector, and rotations ints or Fractions in [0, 1).
    Two rules apply: a sector with nonzero rotation may not contain a fixed
    point inside its arcs, and two sectors sharing a critical chord may not
    both carry nonzero rotation.  Both are tested on the chords' integer
    grid over D, a multiple of d - 1, where fixed point i is i*D/(d - 1).

    A Python-only diagnostic until ROADMAP item 1 routes it through `lam diagnose`.
    """
    sectors = C._sectors
    rot = {i: Fraction(0) for i in range(len(sectors))}
    for i, r in assignments.items():
        if not isinstance(i, int) or isinstance(i, bool):
            raise ValueError(f"sector index {i!r} is not an int")
        if not 0 <= i < len(sectors):
            raise ValueError(f"no sector with index {i}")
        if not isinstance(r, (int, Fraction)) or isinstance(r, bool):
            raise ValueError(f"rotation {r!r} of sector {i} is not an int or a Fraction")
        rot[i] = Fraction(r)
        if not 0 <= rot[i] < 1:
            raise ValueError(f"rotation {rot[i]} of sector {i} is outside [0, 1)")
    D = C._lamination.scaled[0]
    n = C.degree - 1
    fixed = [i * D // n for i in range(n)]
    violations: list[str] = []
    for i, boundary in enumerate(sectors):
        if rot[i] == 0:
            continue
        # the open arc from u to v holds x when 0 < (x - u) mod D < (v - u) mod D
        for _, u, v in sorted(e for e in boundary if e[0] == 1):
            for x in fixed:
                if 0 < (x - u) % D < (v - u) % D:
                    violations.append(
                        f"sector {i} carries rotation {rot[i]} but its arc ({Fraction(u, D)}, "
                        f"{Fraction(v, D)}) contains the fixed point {Fraction(x, D)}"
                    )
    chords = [{e[3] for e in b if e[0] == 0} for b in sectors]
    for i, j in itertools.combinations(range(len(sectors)), 2):
        if rot[i] != 0 and rot[j] != 0 and chords[i] & chords[j]:
            violations.append(f"adjacent sectors {i} and {j} both carry nonzero rotation")
    return PlacementReport(tuple(violations))
