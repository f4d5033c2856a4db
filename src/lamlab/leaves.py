"""Chords of the disk, leaf dynamics, finite laminations, and their checkers.

A leaf is an unordered pair of distinct circle points.  Finite leaf sets with
pairwise non-crossing leaves approximate invariant laminations; the checkers
here verify the non-crossing condition and forward/backward/sibling
invariance between successive approximation stages.  One private sweep of
the integer view lists the faces the chords cut the disk into, for the
sector and gap diagnostics built on top.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

from .circle import CirclePoint, angle, check_degree, sigma

__all__ = [
    "Arc",
    "Face",
    "Lamination",
    "Leaf",
    "NotRotational",
    "Polygon",
    "Violation",
    "check_invariance",
    "leaf_image",
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
        # one cross-multiplication of the reduced terms decides = and <
        u, v = pa.value, pb.value
        lhs, rhs = u.numerator * v.denominator, v.numerator * u.denominator
        if lhs == rhs:
            raise ValueError(f"degenerate leaf at {pa}")
        if rhs < lhs:
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
        return tuple(Leaf(a, b) for a, b in _sides(self.vertices))


def leaf_image(d: int, l: Leaf) -> Leaf | CirclePoint:
    """Image of a leaf under the d-tupling map; a CirclePoint when it collapses."""
    ia, ib = sigma(d, l.a), sigma(d, l.b)
    if ia == ib:
        return ia
    return Leaf(ia, ib)


# `pullback` and `canonical_lamination` refuse a degree whose d - 1 fixed
# points exceed this before they build anything: `_fibre_matching` over the
# 2d fibre points of a sibling matching that meets a critical endpoint costs
# about d^3 (about 0.15 s at degree 201), and every hull leaf between fixed
# points meets one.  At the bound, degree 101, the full polygon's 100 hull
# leaves at depth 1 (10,200 leaves) take about 2 s and 24 MB max RSS on a
# 2-CPU Xeon
_MAX_FIXED_POINTS = 100


def _fibre_matching(
    chords: list[list[tuple[int, int, int]]],
) -> tuple[int, list[tuple[int, int]]] | None:
    """The best non-crossing perfect matching of n = len(chords) points in convex position.

    `chords[l]` lists the allowed chords from point l to later points m as
    (m, cost, gain), ascending in m, with m - l odd.  The matching maximises
    the total gain, then minimises its largest cost.  A matching of the
    interval [l, r) joins l to some m and matches [l+1, m) and [m+1, r)
    independently, and a gain sum and a largest cost compose over those
    parts, so one bottom-up pass, from the last l down, fills flat tables
    indexed by l*(n+1) + r with each interval's best gain (-1: no
    matching), its cost and its m.  Among tied m the smallest wins: every
    chord inside (l, m) sorts before every chord after m, so with zero
    costs the result is the least sorted chord list of the matchings of
    most gain.  Returns (largest cost, chords (l, m) in ascending order), or
    None when no perfect matching uses only allowed chords.
    """
    n = len(chords)
    w = n + 1
    gain = [-1] * (w * w)
    gain[:: w + 1] = [0] * w  # the empty intervals [l, l)
    cost = [0] * (w * w)
    pick = [0] * (w * w)
    for l in range(n - 2, -1, -1):
        row = l * w
        inner = row + w  # the interval [l+1, m) sits at inner + m
        for m, c, g in chords[l]:
            gi = gain[inner + m]
            if gi < 0:
                continue
            g += gi
            ci = cost[inner + m]
            if ci > c:
                c = ci
            # offer l-m with [l+1, m) to every [l, r) whose rest [m+1, r) has a matching
            outer = (m + 1) * w
            for r in range(m + 1, n + 1, 2):
                go = gain[outer + r]
                if go < 0:
                    continue
                tg, tc = g + go, cost[outer + r]
                if c > tc:
                    tc = c
                bg = gain[row + r]
                if tg > bg or (tg == bg and tc < cost[row + r]):
                    gain[row + r], cost[row + r], pick[row + r] = tg, tc, m
    if gain[n] < 0:
        return None
    out = []
    stack = [(0, n)]
    while stack:
        l, r = stack.pop()
        if l < r:
            m = pick[l * w + r]
            out.append((l, m))
            stack.append((m + 1, r))
            stack.append((l + 1, m))
    return cost[n], out


@dataclass(frozen=True, init=False, repr=False)
class Lamination:
    """A finite non-crossing-intended leaf set with a degree and a stage tag.

    Stored as its integer view `scaled`, which answers `len` and `in`; a
    frozen dataclass over the degree, the depth and that view, which give
    `==` and `hash`.  `leaves`, `sorted_leaves`, the face sweep `_faces` and
    the invariant faces are built on first use; `_faces` is kept, about 7.9 MiB
    on the 29,524-leaf degree-3 stage (portrait 0-1, depth 9; tracemalloc).
    """

    degree: int
    depth: int
    _D: int
    _pairs: tuple[tuple[int, int], ...]

    def __init__(self, degree: int, leaves: Iterable[Leaf], depth: int = 0) -> None:
        n = check_degree(degree) - 1
        ls = frozenset(leaves)
        D, nums = _numerators([t.value for l in ls for t in (l.a, l.b)], n)
        # scaling by D > 0 keeps every comparison, so sorting by the integer
        # pairs orders the leaves as Leaf comparison does, without Fractions
        keyed = sorted(zip(zip(nums[::2], nums[1::2]), ls))
        self._init(degree, D, tuple(p for p, _ in keyed), depth)
        self.__dict__["leaves"] = ls
        self.__dict__["sorted_leaves"] = tuple(l for _, l in keyed)

    @classmethod
    def _on_grid(
        cls, degree: int, E: int, pairs: Iterable[tuple[int, int]], depth: int = 0
    ) -> Lamination:
        """The lamination of the sorted distinct pairs x < y over E; the caller vouches for them."""
        D, pairs = _reduce(check_degree(degree) - 1, E, tuple(pairs))
        L = object.__new__(cls)
        L._init(degree, D, pairs, depth)
        return L

    def _init(self, degree: int, D: int, pairs: tuple[tuple[int, int], ...], depth: int) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        set_ = object.__setattr__
        set_(self, "degree", degree)
        set_(self, "depth", depth)
        set_(self, "_D", D)
        set_(self, "_pairs", pairs)

    @property
    def scaled(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The integer view: a common denominator D and each sorted leaf as (x, y).

        The leaf `sorted_leaves[i]` has endpoints x/D < y/D for the i-th pair.
        D = lcm(d - 1, every endpoint denominator), so the fixed points
        i/(d - 1) lie on the grid too, and the d-tupling map is x -> d*x mod D.
        """
        return self._D, self._pairs

    @cached_property
    def sorted_leaves(self) -> tuple[Leaf, ...]:
        D = self._D
        return tuple(_leaf(p, D) for p in self._pairs)

    @cached_property
    def leaves(self) -> frozenset[Leaf]:
        return frozenset(self.sorted_leaves)

    @cached_property
    def _faces(self) -> list[list[tuple[int, ...]]]:
        """`_face_sweep(self)`, swept once for every later reader."""
        return _face_sweep(self)

    @cached_property
    def _invariant_faces(self) -> tuple[tuple[tuple[tuple[int, ...], ...], frozenset[int]], ...]:
        """The faces whose vertices map into the face's vertices, each with that vertex set.

        `_faces` boundaries, kept for every later reader: the vertex tests run
        on the integer view, where sigma is x -> d*x mod D.
        Few faces pass, so each is first tested on the image of its first
        element's first endpoint alone: every vertex is an endpoint of some
        element, and the vertex set is built only when the image is one.
        """
        d, D = self.degree, self._D
        out = []
        for boundary in self._faces:
            u = d * boundary[0][1] % D
            for e in boundary:
                if u == e[1] or u == e[2]:
                    break
            else:
                continue
            verts = {v for e in boundary if e[0] == 0 for v in (e[1], e[2])}
            if all(d * x % D in verts for x in verts):
                out.append((tuple(boundary), frozenset(verts)))
        return tuple(out)

    def _leaf_at(self, i: int) -> Leaf:
        """`sorted_leaves[i]`, built alone unless the Leaf forms exist already."""
        ls = self.__dict__.get("sorted_leaves")
        return _leaf(self._pairs[i], self._D) if ls is None else ls[i]

    def _index(self, l: Leaf) -> int | None:
        """The index of l in `sorted_leaves`, or None when l is not a leaf here."""
        u, v, D = l.a.value, l.b.value, self._D
        x, y = _regrid(u.numerator, u.denominator, D), _regrid(v.numerator, v.denominator, D)
        if x is None or y is None:
            return None  # an endpoint off the grid
        pairs = self._pairs
        i = bisect_left(pairs, (x, y))
        return i if i < len(pairs) and pairs[i] == (x, y) else None

    def __contains__(self, l: object) -> bool:
        return isinstance(l, Leaf) and self._index(l) is not None

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Leaf]:
        return iter(self.sorted_leaves)

    def __repr__(self) -> str:
        return f"Lamination(degree={self.degree!r}, leaves={self.leaves!r}, depth={self.depth!r})"


@dataclass(frozen=True)
class Violation:
    """One failed check, with the witnessing leaves."""

    check: str
    detail: str
    leaves: tuple[Leaf, ...] = ()


class NotRotational(ValueError):
    """A point set fails order preservation or invariance; carries the index."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


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


def _numerators(values: Sequence[Fraction], base: int = 1) -> tuple[int, list[int]]:
    """The least common denominator D of base and the values, and each value's numerator over D."""
    D = lcm(base, *(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


def _reduce(
    n: int, E: int, pairs: tuple[tuple[int, int], ...]
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The least grid D = lcm(n, every endpoint denominator) of the pairs over E, and the pairs over D.

    A point x/E has reduced denominator E/gcd(x, E), so once n divides E the
    least D is E/g for g = gcd(E/n, every x): one division reduces the grid.
    """
    up = n // gcd(E, n)
    if up > 1:
        E, pairs = E * up, tuple((x * up, y * up) for x, y in pairs)
    g = gcd(E // n, *chain.from_iterable(pairs))
    if g > 1:
        E, pairs = E // g, tuple((x // g, y // g) for x, y in pairs)
    return E, pairs


def _regrid(x: int, D: int, E: int) -> int | None:
    """The numerator over E of the point x/D, or None when it is not on that grid."""
    n = x * E
    return None if n % D else n // D


def _scaled(t: CirclePoint, denom: int) -> int:
    v = t.value
    x = _regrid(v.numerator, v.denominator, denom)
    assert x is not None, "common denominator too coarse"
    return x


def _scaled_pair(l: Leaf, denom: int) -> tuple[int, int]:
    return _scaled(l.a, denom), _scaled(l.b, denom)


def _image(d: int, D: int, pair: tuple[int, int]) -> tuple[int, int] | int:
    """The image of the leaf pair x < y over D, sorted; the point when it collapses."""
    u, v = d * pair[0] % D, d * pair[1] % D
    if u == v:
        return u
    return (u, v) if u < v else (v, u)


def _sides(pts: Sequence) -> list[tuple]:
    """Hull sides of sorted points as pairs: neighbours, then first and last; two give one."""
    if len(pts) < 3:
        return [tuple(pts)] if len(pts) == 2 else []
    return list(zip(pts, pts[1:])) + [(pts[0], pts[-1])]


def _cross(l1: tuple[int, int], l2: tuple[int, int]) -> bool:
    """Strict interleaving of two integer chords x < y; sharing an endpoint never crosses."""
    (a, b), (x, y) = l1, l2
    if x == a or x == b or y == a or y == b:
        return False
    return (a < x < b) != (a < y < b)


def _cycles(step: Callable, items: Iterable) -> list[list]:
    """The cycles of `step` through the items, each from its least member, in that order.

    `step` must permute a finite set holding the items: points over D under
    x -> d*x mod D with d prime to D, or a rotational set's hull sides under
    `_image`, which carries sides onto sides as it shifts the sorted points.
    """
    left = set(items)
    out = []
    while left:
        cycle = [min(left)]
        x = step(cycle[0])
        while x != cycle[0]:
            cycle.append(x)
            x = step(x)
        left.difference_update(cycle)
        out.append(cycle)
    return out


def _rotation(d: int, D: int, nums: Sequence[int]) -> Fraction:
    """The rotation number of the sorted distinct points nums[i]/D.

    x -> d*x mod D must permute them with a constant index shift p; the
    result is p/q.  Raises NotRotational at the first point whose image
    leaves the set or whose shift differs from the earlier ones.
    """
    if not nums:
        raise ValueError("rotation number needs at least one point")
    q = len(nums)
    index = {x: i for i, x in enumerate(nums)}
    shift: int | None = None
    for i, x in enumerate(nums):
        j = index.get(d * x % D)
        if j is None:
            raise NotRotational(f"the image of point {i} ({_point(x, D)}) leaves the set", i)
        s = (j - i) % q
        if shift is None:
            shift = s
        elif s != shift:
            raise NotRotational(f"the index shift breaks at point {i} ({_point(x, D)})", i)
    return Fraction(shift, q)


def validate_prelamination(L: Lamination) -> tuple[Violation, ...]:
    """All crossing pairs; empty iff any two leaves meet at most in an endpoint.

    One sorted index of the integer endpoints finds each leaf's crossers.
    """
    _, chords = L.scaled
    ends = sorted(e for i, (x, y) in enumerate(chords) for e in ((x, y, i), (y, x, i)))
    out = []
    for i, (x, y) in enumerate(chords):
        # a crosser j > i has its first endpoint inside (x, y) and its second
        # beyond y, so the index yields those in leaf order
        for j in (e[2] for e in _crossers(ends, x, y) if e[2] > i):
            li, lj = L._leaf_at(i), L._leaf_at(j)
            out.append(Violation("crossing", f"{li} crosses {lj}", (li, lj)))
    return tuple(out)


def check_invariance(L_prev: Lamination, L_next: Lamination) -> tuple[Violation, ...]:
    """Finite-depth invariance report between successive stages.

    For every leaf of L_prev: (a) its image lies in L_next or collapses;
    (b) some preimage leaf lies in L_next; (c) a full collection of d disjoint
    non-crossing leaves with the same image as the leaf exists within L_next.
    Critical leaves are exempt from (c), having no leaf image.  `_fibre_index`
    indexes each image leaf by the fibre positions of its preimage leaves in
    L_next, and (c) asks `_full_siblings` about those positions, once per
    image.  The collection need not hold the leaf itself; `_strict_siblings`
    asks that it does.
    """
    d = L_prev.degree
    prev, present, over = _fibre_index(L_prev, L_next)
    D = L_next.scaled[0]
    out: list[Violation] = []
    full: dict[tuple[int, int], bool] = {}  # whether an image has a full sibling collection
    for k, pair in enumerate(prev):
        fibre = _fibre_position(d, D, pair)
        if fibre is not None and fibre[0] not in present:
            l = L_prev._leaf_at(k)
            detail = f"image {_leaf(fibre[0], D)} of {l} missing"
            out.append(Violation("forward", detail, (l,)))
        if pair not in over:
            l = L_prev._leaf_at(k)
            out.append(Violation("backward", f"no preimage of {l} present", (l,)))
        if fibre is None:
            continue
        img = fibre[0]
        if img not in full:
            full[img] = _full_siblings(d, over.get(img, ()))
        if not full[img]:
            detail = f"no full sibling collection over {_leaf(img, D)}"
            out.append(Violation("sibling", detail, (L_prev._leaf_at(k),)))
    return tuple(out)


def _strict_siblings(L_prev: Lamination, L_next: Lamination) -> tuple[Violation, ...]:
    """The non-critical leaves of L_prev that no full sibling collection in L_next holds.

    Sibling invariance asks every leaf for d pairwise disjoint leaves with
    one image, the leaf itself among them (Blokh, Mimbs, Oversteegen and
    Valkenburg, "Laminations in the language of leaves", Trans. AMS 365,
    2013); `check_invariance`'s test (c) asks only for some collection over
    the image.  Here `_full_siblings` marks the leaf's own fibre position.
    Raises ValueError as `check_invariance` does.
    """
    d = L_prev.degree
    prev, _, over = _fibre_index(L_prev, L_next)
    D = L_next.scaled[0]
    out: list[Violation] = []
    for k, pair in enumerate(prev):
        fibre = _fibre_position(d, D, pair)
        # L_next holds the leaf, so the index holds its image
        if fibre is not None and not _full_siblings(d, over[fibre[0]], fibre[1]):
            l = L_prev._leaf_at(k)
            detail = f"no full sibling collection over {_leaf(fibre[0], D)} holds {l}"
            out.append(Violation("sibling", detail, (l,)))
    return tuple(out)


def _fibre_position(
    d: int, D: int, pair: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The image (u, v), u < v, of the leaf pair x < y over D, and the leaf's fibre position (i, j).

    The leaf joins the i-th preimage of u to the j-th of v, counted from 0
    up the circle: x = (t + i)/d with t in [0, 1) has floor(d x) = i.
    None when the leaf collapses.
    """
    x, y = pair
    ia, ib = d * x % D, d * y % D
    if ia == ib:
        return None
    i, j = d * x // D, d * y // D
    return ((ia, ib), (i, j)) if ia < ib else ((ib, ia), (j, i))


def _fibre_index(
    L_prev: Lamination, L_next: Lamination
) -> tuple[
    list[tuple[int, int]], set[tuple[int, int]], dict[tuple[int, int], set[tuple[int, int]]]
]:
    """L_prev's pairs on L_next's grid, L_next's pairs, and each image leaf's fibre positions.

    Raises ValueError unless both have one degree and L_prev lies in
    L_next.  One pass over L_next's integer view maps each image leaf of
    its pairs to the `_fibre_position`s of its preimage leaves there.
    """
    if L_prev.degree != L_next.degree:
        raise ValueError("degree mismatch between stages")
    d = L_prev.degree
    D, pairs = L_next.scaled
    D_prev, prev_pairs = L_prev.scaled
    present = set(pairs)
    # every endpoint denominator of a subset divides D
    up, rem = divmod(D, D_prev)
    prev = [(x * up, y * up) for x, y in prev_pairs]
    if rem or not present.issuperset(prev):
        raise ValueError("earlier stage is not contained in the later stage")
    over: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for pair in pairs:
        fibre = _fibre_position(d, D, pair)
        if fibre is not None:
            over.setdefault(fibre[0], set()).add(fibre[1])
    return prev, present, over


def _full_siblings(
    d: int, positions: Iterable[tuple[int, int]], mark: tuple[int, int] | None = None
) -> bool:
    """Whether the fibre positions (i, j) over one image hold a non-crossing full sibling collection.

    With a mark, whether some such collection holds the marked position.
    The 2d sorted fibre points alternate: the i-th preimage of the image's
    first endpoint sits at point 2i and the j-th of its second at 2j + 1.
    `_fibre_matching` maximises gain and the marked chord alone has gain 1,
    so the matching it returns holds the mark exactly when some matching
    does.
    """
    chords: list[list[tuple[int, int, int]]] = [[] for _ in range(2 * d)]
    held = None
    for i, j in sorted(positions):
        p, q = (2 * i, 2 * j + 1) if i <= j else (2 * j + 1, 2 * i)
        marked = (i, j) == mark
        if marked:
            held = (p, q)
        chords[p].append((q, 0, marked))
    found = _fibre_matching(chords)
    return found is not None and (mark is None or held in found[1])


def _point(x: int, D: int) -> CirclePoint:
    """CirclePoint(Fraction(x, D)) for D > 0, storing the value its __post_init__ would."""
    t = object.__new__(CirclePoint)
    object.__setattr__(t, "value", Fraction(x % D, D))
    return t


def _leaf(pair: tuple[int, int], D: int) -> Leaf:
    return Leaf(_point(pair[0], D), _point(pair[1], D))


@dataclass(frozen=True, order=True)
class Arc:
    """A counterclockwise circle arc from start to end; start == end is the full circle."""

    start: CirclePoint
    end: CirclePoint


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


def _face_sweep(L: Lamination) -> list[list[tuple[int, ...]]]:
    """The faces the leaves cut the disk into, as boundaries on L's integer view.

    Requires a pre-lamination (no crossing pair); crossings are not re-checked
    here.  Non-crossing leaves, read as intervals [x, y] of the grid, are
    nested or disjoint, so one sweep by x ascending, y descending gives each
    leaf its parent.  Each leaf closes the face on its x-to-y side, bounded by
    the leaf, its children in order and one arc across each gap between
    them; the top-level leaves bound one more face, closed by the arc
    through 0.

    A leaf `sorted_leaves[i]` with pair (x, y) is the element (0, x, y, i)
    and an arc from u/D to v/D is (1, u, v), so elements order leaves first,
    then by endpoints.  Each boundary starts at its least element and the
    boundaries are sorted.  A face's vertices are the endpoints of its leaf
    elements; the empty lamination has one face, the full circle (1, 0, 0).
    """
    pairs = L.scaled[1]
    if not pairs:
        return [[(1, 0, 0)]]
    boundaries: list[list[tuple[int, ...]]] = []

    def close(frame: list) -> None:
        boundary, cursor, end = frame
        if cursor != end:
            boundary.append((1, cursor, end))
        boundaries.append(boundary)

    order = sorted(range(len(pairs)), key=lambda i: (pairs[i][0], -pairs[i][1]))
    first = pairs[order[0]][0]
    # open faces, innermost last: [boundary so far, vertex reached, closing vertex]
    stack: list[list] = [[[], first, first]]
    for i in order:
        x, y = pairs[i]
        while len(stack) > 1 and stack[-1][2] < y:
            close(stack.pop())
        parent = stack[-1]
        if parent[1] != x:
            parent[0].append((1, parent[1], x))
        leaf = (0, x, y, i)
        parent[0].append(leaf)
        parent[1] = y
        stack.append([[leaf], x, y])
    while stack:
        close(stack.pop())

    out = []
    for elements in boundaries:
        k0 = elements.index(min(elements))
        out.append(elements[k0:] + elements[:k0])
    out.sort()
    return out


def _face(L: Lamination, boundary: Sequence[tuple[int, ...]]) -> Face:
    """The Face of one `_face_sweep(L)` boundary."""
    D = L.scaled[0]
    return Face(
        tuple(
            L._leaf_at(e[3]) if e[0] == 0 else Arc(_point(e[1], D), _point(e[2], D))
            for e in boundary
        )
    )


def _closure(boundary: Sequence[tuple[int, ...]], D: int, q: int) -> Callable[[int], bool]:
    """A test of x: whether x/q is a vertex of a `_face_sweep` boundary over D or on a closed arc.

    x/q need not lie on the boundary's grid: both meet on the grid M =
    lcm(D, q).  An arc from u to v spans (v - u - 1) % D + 1 steps of 1/D,
    all D of them on the full circle u = v.
    """
    M = lcm(D, q)
    up, lift = M // D, M // q
    verts = {v * up for e in boundary if e[0] == 0 for v in e[1:3]}
    arcs = [(e[1] * up, ((e[2] - e[1] - 1) % D + 1) * up) for e in boundary if e[0] == 1]

    def on(x: int) -> bool:
        x *= lift
        return x in verts or any((x - u) % M <= span for u, span in arcs)

    return on


def _iterates_onto(
    d: int, D: int, pair: tuple[int, int], targets: set[tuple[int, int]], cap: int
) -> bool:
    """Whether a leaf or one of its first cap leaf images lies in targets.

    Leaves are integer pairs x < y over D; the image of (x, y) is
    (d*x mod D, d*y mod D), sorted, and a leaf collapsing to a point stops.
    """
    x, y = pair
    for _ in range(cap + 1):
        if (x, y) in targets:
            return True
        x, y = d * x % D, d * y % D
        if x == y:
            return False
        if y < x:
            x, y = y, x
    return False

