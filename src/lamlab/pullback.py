"""Inverse branches along a critical portrait, and the stagewise preimage scheme.

A maximal critical portrait cuts the disk into d sectors on which the
d-tupling map is injective, so chord systems can be pulled back stage by
stage: every leaf added at the previous stage receives a full set of d
pairwise disjoint preimage chords compatible with the portrait, forced by
the sectors away from the critical values and chosen by an interval DP at
them.  The stages nest, and each passes `check_invariance`: every image has
a full non-crossing sibling collection, which need not hold the leaf itself.
`leaves._strict_siblings` asks that it does; ROADMAP item 4B wires it into
`check_invariance`.  The module also checks the diagnostics of canonically
built states (length decay, escape to the initial set, invariant gap faces
per fixed sector) and classifies the fixed objects each sector carries.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Sequence

from .circle import CirclePoint
from .fpp import CriticalPortrait, FixedPointPortrait, FixedSector
from .fpp import canonical_portraits, fixed_sectors
from .leaves import (
    Face,
    Lamination,
    Leaf,
    NotRotational,
    _MAX_FIXED_POINTS,
    _closure,
    _face,
    _fibre_matching,
    _image,
    _iterates_onto,
    _leaf,
    _point,
    _rotation,
    leaf_image,
    validate_prelamination,
)

__all__ = [
    "InsufficientDepthError",
    "PullbackState",
    "SectorClassification",
    "canonical_lamination",
    "classify_sector",
    "clp_checks",
    "cp_pullback_equality",
    "invariant_gap",
    "pullback",
]


class InsufficientDepthError(ValueError):
    """The available stages are too shallow to certify the requested structure."""


@dataclass(frozen=True)
class PullbackState:
    """Nested stages F_0 <= F_1 <= ... <= F_n of the preimage construction.

    `fpp` is set when the initial set came from a fixed point portrait's hull.
    """

    degree: int
    portrait: CriticalPortrait
    stages: tuple[Lamination, ...]
    fpp: FixedPointPortrait | None = None

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a state needs at least stage 0")
        for lam in self.stages:
            if lam.degree != self.degree:
                raise ValueError("all stages must share the state's degree")
        if self.portrait.degree != self.degree:
            raise ValueError("portrait degree disagrees with the state")
        if self.fpp is not None and self.fpp.degree != self.degree:
            raise ValueError("fixed point portrait degree disagrees with the state")
        # each stage's pairs on the final grid, tagged with the first stage
        # holding each; the stages nest exactly when each stage's D divides
        # the final D and each stage holds every pair of the stage before
        D = self.final.scaled[0]
        pairs: Sequence[tuple[int, int]] = ()
        tags: tuple[int, ...] = ()
        for k, lam in enumerate(self.stages):
            first = dict(zip(pairs, tags))
            D_k, pairs = lam.scaled
            if D % D_k:
                raise ValueError("stages must be nested")
            up = D // D_k
            if up > 1:
                pairs = [(x * up, y * up) for x, y in pairs]
            tags = tuple(map(first.get, pairs, repeat(k)))
            # the pairs tagged before k are those of the stage before
            if len(tags) - tags.count(k) != len(first):
                raise ValueError("stages must be nested")
        # parallel to final.scaled[1]; not a field, so equality and repr ignore it
        object.__setattr__(self, "_first_stage", tags)

    @property
    def initial(self) -> Lamination:
        return self.stages[0]

    @property
    def final(self) -> Lamination:
        return self.stages[-1]

    @property
    def depth(self) -> int:
        return len(self.stages) - 1

    def frontier(self, k: int) -> frozenset[Leaf]:
        """Leaves first appearing at stage k, for 0 <= k <= depth."""
        if not 0 <= k <= self.depth:
            raise ValueError(f"stage {k} outside 0..{self.depth}")
        if k == 0:
            return self.stages[0].leaves
        D, pairs = self.final.scaled
        return frozenset(_leaf(p, D) for p, s in zip(pairs, self._first_stage) if s == k)


_POLICIES = ("prefer-existing", "shortest")


def _check_fixed_points(d: int) -> None:
    if d - 1 > _MAX_FIXED_POINTS:
        raise ValueError(
            f"degree {d} means {d - 1} fixed points; the limit is {_MAX_FIXED_POINTS}"
        )


def _dp_matching(
    d: int,
    pair: tuple[int, int],
    denom: int,
    ends: list[tuple[int, int]],
    reusable: set[tuple[int, int]],
    policy: str,
) -> tuple[tuple[int, int], ...]:
    """The policy's matching of the leaf pair/denom among the valid chords, as sorted pairs over d*denom.

    The preimages of the leaf's endpoints x < y alternate around the circle,
    so point 2i of the sorted fibres is (x + i*denom)/(d*denom) and point
    2i+1 is (y + i*denom)/(d*denom).  A chord between points of the two
    fibres is valid when it crosses nothing already placed.  `ends` holds
    sorted (endpoint, partner) entries of only the placed chords at a critical
    endpoint (critical chords, F0 leaves and DP answers), and a chord that
    crosses a placed chord crosses one of those:

    - a chord joining two closed critical sectors crosses a critical chord,
      and every critical chord is in `ends`;
    - a placed chord crossing a chord inside one closed sector lies in that
      sector too, since placed chords cross no critical chord.  On a closed
      sector sigma keeps circular order, except that it identifies the
      sector's critical endpoints, so the two chords map onto the frontier
      leaf and a leaf of the previous stage (or a point), which do not
      cross.  The chords cross anyway only where that order breaks, at a
      critical endpoint of the placed chord: one at the scored chord's own
      end breaks nothing, since sigma sends both identified ends to one
      point.

    So a chord is valid when every endpoint in `ends` strictly inside it has
    its partner in the closed span.  One sweep per fibre point x finds its
    valid chords: a bisect finds the first endpoint above x, and as the far
    end y grows the endpoints below y are taken in.  A taken-in partner
    below x crosses this chord and every longer one from x, which ends the
    row; otherwise the chord to y is valid when the largest partner taken in
    is at most y.  An endpoint at y itself is taken in for the next y.

    A valid chord is reused when it is in `reusable`: F0's pairs at stage 1
    and none later, as no other placed chord maps onto the leaf (see
    `pullback`).  `_fibre_matching` runs at most twice over the valid chords.
    The first run finds the policy's longest chord tau: the least bottleneck
    ("shortest", zero gains), or the least bottleneck among the matchings
    that reuse the most placed chords ("prefer-existing", reuse as the gain).  The second keeps the chords no
    longer than tau and maximises reuse, taking the least sorted chord pairs
    among ties.  So the winner is the least (maxlen, -reuse, pairs), or
    (-reuse, maxlen, pairs), over every non-crossing matching of valid
    chords, and does not depend on any enumeration order.
    """
    pts = [p + i * denom for i in range(d) for p in pair]
    full = d * denom
    prefer = policy == "prefer-existing"
    valid: list[list[tuple[int, int, int]]] = []
    n_ends = len(ends)
    for l, x in enumerate(pts):
        row = []
        # ends[i:] are the endpoints not yet taken in, reach the largest partner taken in
        i, reach = bisect_left(ends, (x + 1,)), x
        for m in range(l + 1, 2 * d, 2):
            y = pts[m]
            while i < n_ends and ends[i][0] < y and ends[i][1] >= x:
                reach = max(reach, ends[i][1])
                i += 1
            if i < n_ends and ends[i][0] < y:
                # that chord's partner is below x: it crosses every longer chord from x
                break
            if reach <= y:
                row.append((m, min(y - x, full - y + x), prefer and (x, y) in reusable))
        valid.append(row)
    first = _fibre_matching(valid)
    if first is None:
        raise ValueError(
            f"no compatible sibling matching exists for {_leaf(pair, denom)}"
        )
    tau, chosen = first
    # two perfect matchings of the 2d points differ in at least two chords
    # each, so with at most d + 1 valid chords the first run found the only one
    if sum(map(len, valid)) > d + 1:
        _, chosen = _fibre_matching(
            [
                [(m, 0, (pts[l], pts[m]) in reusable) for m, c, _ in row if c <= tau]
                for l, row in enumerate(valid)
            ]
        )
    return tuple((pts[l], pts[m]) for l, m in chosen)


def _slices(C: CriticalPortrait) -> tuple[list[int], list[tuple[int, ...]]]:
    """The critical values v_0 < ... < v_{m-1} over the chords' grid, and a table per slice.

    Slice p is [0, v_0), (v_{p-1}, v_p) or (v_{m-1}, 1).  No preimage of a
    point moving inside a slice crosses a critical endpoint, so one table
    serves the slice: entry s is the offset i with (x + i)/d in sector s.
    Crossing 0 raises each offset by one, so the end slices keep two tables.
    """
    d, D = C.degree, C._lamination.scaled[0]
    arc_starts = {e[1]: s for s, b in enumerate(C._sectors) for e in b if e[0] == 1}
    starts = sorted(arc_starts)
    cut = [2 * d * u for u in starts]
    vals = sorted({d * u % D for u in starts})
    tables = []
    # a point r/(2D) of each slice, whose preimages lie over 2dD with `cut`
    for r in (0, *map(sum, zip(vals, vals[1:])), vals[-1] + D):
        row = [0] * d
        for i in range(d):
            # the arc before cut[0] is the one that cut[-1] starts
            row[arc_starts[starts[bisect_right(cut, r + 2 * D * i) - 1]]] = i
        tables.append(tuple(row))
    return vals, tables


def pullback(
    F0: Lamination, C: CriticalPortrait, n: int, *, policy: str = "prefer-existing"
) -> PullbackState:
    """Grow n preimage stages of F0 along the sectors of C.

    F0 must be forward invariant (leaf images back in F0, or degenerate) and
    the portrait chords may touch F0 leaves only at shared endpoints.  Each
    stage adds, per leaf of the previous frontier, the d disjoint preimage
    chords selected by the policy:

    - "prefer-existing": reuse already-placed chords whenever possible, then
      shortest; this keeps refinements aligned with the coarser stages.
    - "shortest": minimize the longest added chord; for d <= 5 this keeps
      the stage-k additions under the 1/(2 d^k) decay bound.

    A stage is built in bulk, on three facts:

    - (a) Each sector's open arcs map one-to-one onto the circle less the
      critical values.  So a frontier leaf with no endpoint at a critical
      value has one preimage of each endpoint per sector, and joining them
      gives the only valid matching (see `_dp_matching`), which `_slices`
      finds by a bisect per endpoint.  Other leaves go to `_dp_matching`.
    - (b) Stage k lives on denom * d^k, denom = lcm(D0, the critical
      values' grid), as the critical endpoints, preimages of critical
      values, lie on d * denom.  When F0's grid holds the critical values,
      as for canonical portraits, each stage comes out reduced.  Only F0's
      crossing check against the chords runs on lcm(D0, Dc).
    - (c) A chord chosen at stage k maps onto a frontier leaf of stage k - 1,
      F0's leaves map into F0 and the critical chords onto points.  So only
      stage 1 can reuse a placed chord, and only an F0 leaf.  Forced chords
      never touch a critical endpoint, so `ends` grows only from DP answers.

    A degree with more than 100 fixed points raises ValueError before any work.
    """
    _check_fixed_points(F0.degree)
    return PullbackState(F0.degree, C, _stages(F0, C, n, policy))


def _stages(F0: Lamination, C: CriticalPortrait, n: int, policy: str) -> tuple[Lamination, ...]:
    """The stages of `pullback`, so that `canonical_lamination` builds its state once."""
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if n < 0:
        raise ValueError("stage count must be >= 0")
    d = F0.degree
    if d != C.degree:
        raise ValueError("degree mismatch between initial set and portrait")
    # the initial leaves and the chords on one grid, to check their crossings
    D0, initial = F0.scaled
    Dc, chords = C._lamination.scaled
    E = lcm(D0, Dc)
    up, upc = E // D0, E // Dc
    placed = {(x * up, y * up) for x, y in initial} | {(x * upc, y * upc) for x, y in chords}
    with_chords = Lamination._on_grid(d, E, sorted(placed))
    bad = validate_prelamination(with_chords)
    inner = [v for v in bad if all(l in F0 for l in v.leaves)]
    if inner:
        raise ValueError(f"initial set is not a pre-lamination: {inner[0].detail}")
    if bad:
        l1, l2 = bad[0].leaves
        c, l = (l2, l1) if l1 in F0 else (l1, l2)
        raise ValueError(f"critical chord {c} crosses initial leaf {l}")
    present = set(initial)
    for i, pair in enumerate(initial):
        img = _image(d, D0, pair)
        if isinstance(img, tuple) and img not in present:
            l = F0._leaf_at(i)
            raise ValueError(
                f"initial leaf {l} maps to {leaf_image(d, l)} outside the initial set"
            )

    vals, tables = _slices(C)
    denom = lcm(D0, *(Dc // gcd(v, Dc) for v in vals))
    # the critical values over denom, closed by denom, which no endpoint reaches
    vals = [v * denom // Dc for v in vals] + [denom]
    # the frontier over denom; over d*denom, the stage-1 grid, F0's pairs,
    # the critical endpoints and `ends`, the placed chords touching one
    frontier = [(x * (denom // D0), y * (denom // D0)) for x, y in initial]
    reuse = {(x * d, y * d) for x, y in frontier}
    upc = d * denom // Dc
    at_cut = {x * upc for p in chords for x in p}
    placed = [*reuse, *((x * upc, y * upc) for x, y in chords)]
    ends = sorted(e for x, y in placed if x in at_cut or y in at_cut for e in ((x, y), (y, x)))

    stage = frontier
    stages = [Lamination._on_grid(d, D0, initial)]
    for k in range(1, n + 1):
        offsets = [tuple(i * denom for i in row) for row in tables]
        new: list[tuple[int, int]] = []
        for x, y in frontier:
            p, q = bisect_left(vals, x), bisect_left(vals, y)
            if vals[p] == x or vals[q] == y:
                got = _dp_matching(d, (x, y), denom, ends, reuse, policy)
                for c in got:
                    if c not in reuse and (c[0] in at_cut or c[1] in at_cut):
                        ends = sorted([*ends, c, c[::-1]])
                new += got
            else:
                ab = zip(offsets[p], offsets[q])
                new += [(x + a, y + b) if a <= b else (y + b, x + a) for a, b in ab]
        if reuse:
            new = [c for c in new if c not in reuse]
            reuse = set()
        denom *= d
        frontier = sorted(new)
        # the scaled old stage stays sorted, so sorting merges two runs
        stage = sorted([(x * d, y * d) for x, y in stage] + frontier)
        stages.append(Lamination._on_grid(d, denom, stage, depth=k))
        vals = [v * d for v in vals]
        at_cut = {u * d for u in at_cut}
        ends = [(x * d, y * d) for x, y in ends]
    return tuple(stages)


def canonical_lamination(P: FixedPointPortrait, n: int) -> PullbackState:
    """Pull back the portrait's hull leaves under its first canonical placement.

    Matchings use the "shortest" policy, which keeps every stage-k addition
    within the 1/(2 d^k) length bound for d <= 5; at d = 6 the bound can fail.
    Like `pullback`, it refuses more than 100 fixed points before any work.
    """
    _check_fixed_points(P.degree)
    C = P._first_choice().as_critical_portrait()
    return PullbackState(P.degree, C, _stages(P._hull, C, n, "shortest"), P)


@dataclass(frozen=True)
class PortraitPullbackReport:
    """Stagewise comparison of pullbacks across all canonical placements."""

    portrait: FixedPointPortrait
    depth: int
    choice_count: int
    equal: bool
    mismatches: tuple[str, ...]


def cp_pullback_equality(P: FixedPointPortrait, n: int) -> PortraitPullbackReport:
    """Whether every canonical placement of P pulls back to the same stages.

    Stages 1..n are compared as `Lamination`s, each on its least grid, so two
    are equal exactly when their leaf sets are.  Leaf sets are built only to
    count the leaves of a mismatch.

    A Python-only diagnostic until ROADMAP item 1 routes it through `lam diagnose`.
    """
    runs = [pullback(P._hull, c.as_critical_portrait(), n) for c in canonical_portraits(P)]
    mismatches: list[str] = []
    for k in range(1, n + 1):
        ref = runs[0].stages[k]
        for idx, st in enumerate(runs[1:], start=1):
            if st.stages[k] != ref:
                mismatches.append(
                    f"stage {k}: choice {idx} differs from choice 0 "
                    f"by {len(st.stages[k].leaves ^ ref.leaves)} leaves"
                )
                break
    return PortraitPullbackReport(P, n, len(runs), not mismatches, tuple(mismatches))


def _within(S: FixedSector, points: Iterable[int], D: int) -> bool:
    """Whether every point x/D lies on one of S's closed unit arcs, which S keeps over n = d - 1.

    x/D lies on unit arc q = floor(x*n / D), and when it is the fixed point
    q/n also on arc q - 1, which ends there.
    """
    n = S.degree - 1
    units = S._units
    for x in points:
        q, r = divmod(x * n, D)
        if q not in units and (r or (q - 1) % n not in units):
            return False
    return True


def _sector_candidates(L: Lamination, S: FixedSector) -> list[tuple[tuple[int, ...], ...]]:
    """The invariant faces of L with every vertex inside S."""
    D = L.scaled[0]
    return [b for b, verts in L._invariant_faces if _within(S, verts, D)]


def _is_polygon(boundary: Sequence[tuple[int, ...]]) -> bool:
    return all(e[0] == 0 for e in boundary)


def _walk_back_gap(
    state: PullbackState, S: FixedSector
) -> tuple[tuple[tuple[int, ...], ...], int] | None:
    """The deepest stage k carrying exactly one invariant gap face inside S, as (boundary, k).

    A gap carries on its closure every portrait chord with both endpoints
    in the sector.  Refined stages can temporarily lose boundary-vertex
    invariance (preimages of other sectors' leaves land on the gap arcs),
    so shallower stages are consulted.  Each stage keeps its invariant
    faces, so the sectors' walks sweep it once between them.
    """
    Dc, chords = state.portrait._lamination.scaled
    needed = [x for p in chords if _within(S, p, Dc) for x in p]
    for k in range(state.depth, 0, -1):
        lam = state.stages[k]
        D = lam.scaled[0]
        gaps = [b for b in _sector_candidates(lam, S) if all(map(_closure(b, D, Dc), needed))]
        if len(gaps) == 1:
            return gaps[0], k
    return None


def invariant_gap(state: PullbackState, S: FixedSector) -> Face:
    """The face inside S with forward-invariant boundary vertices.

    The face must also carry, on its closure, every portrait chord whose
    endpoints lie in S.  The deepest stage with a unique such face wins.

    A Python-only diagnostic until ROADMAP item 1 routes it through `lam diagnose`.
    """
    if state.depth < 1:
        raise ValueError("need at least one pullback stage")
    if S.degree != state.degree:
        # the sector's unit arcs are arcs of the stages' own degree
        raise ValueError("degree mismatch between lamination and sector")
    found = _walk_back_gap(state, S)
    if found is None:
        raise ValueError("no invariant gap face in this sector")
    boundary, k = found
    return _face(state.stages[k], boundary)


@dataclass(frozen=True)
class SectorGapReport:
    """Invariant-gap diagnostics for one fixed sector."""

    sector: FixedSector
    gap_depth: int
    vertex_count: int
    unresolved: tuple[Leaf, ...]

    @property
    def ok(self) -> bool:
        return self.gap_depth >= 1 and not self.unresolved


@dataclass(frozen=True)
class CanonicalReport:
    """Diagnostics of a canonically constructed state.

    `escape_failures` lists (stage, leaf) pairs that fail to iterate into the
    initial set within their stage index; `length_failures` lists stage-k
    additions longer than 1/(2 d^k); `sector_reports` covers the per-sector
    invariant gap checks.
    """

    degree: int
    depth: int
    escape_failures: tuple[tuple[int, Leaf], ...]
    length_failures: tuple[tuple[int, Leaf], ...]
    max_new_length: tuple[Fraction, ...]
    sector_reports: tuple[SectorGapReport, ...]

    @property
    def ok(self) -> bool:
        return (
            not self.escape_failures
            and not self.length_failures
            and all(r.ok for r in self.sector_reports)
        )


def clp_checks(state: PullbackState) -> CanonicalReport:
    """Verify the stage diagnostics of a canonically built state.

    Checks that stage-k additions iterate into the initial set within k steps
    and respect the 1/(2 d^k) length bound, and that every fixed sector
    carries an invariant gap face whose boundary leaves iterate onto that
    sector's own hull leaves.

    A Python-only diagnostic until ROADMAP item 1 routes it through `lam diagnose`.
    """
    if state.fpp is None:
        raise ValueError("state was not built from a fixed point portrait")
    d = state.degree
    final = state.final
    D, pairs = final.scaled
    # the indices of the final pairs, grouped by the first stage holding each
    added: list[list[int]] = [[] for _ in state.stages]
    for i, k in enumerate(state._first_stage):
        added[k].append(i)
    initial = {pairs[i] for i in added[0]}
    escapes: list[tuple[int, Leaf]] = []
    too_long: list[tuple[int, Leaf]] = []
    worst: list[Fraction] = []
    for k in range(1, state.depth + 1):
        stage_max = 0
        scale = 2 * d**k  # length/D > 1/(2 d^k) iff scale * length > D
        for i in added[k]:
            x, y = pairs[i]
            length = min(y - x, D - y + x)
            if scale * length > D:
                too_long.append((k, final._leaf_at(i)))
            stage_max = max(stage_max, length)
            if not _iterates_onto(d, D, (x, y), initial, k):
                escapes.append((k, final._leaf_at(i)))
        worst.append(Fraction(stage_max, D))
    sector_reports: list[SectorGapReport] = []
    if state.depth >= 1:
        for S in fixed_sectors(state.fpp):
            found = _walk_back_gap(state, S)
            if found is None:
                sector_reports.append(SectorGapReport(S, 0, 0, ()))
                continue
            boundary, gap_depth = found
            # the boundary is over stage gap_depth's grid, which divides D
            up = D // state.stages[gap_depth].scaled[0]
            m = D // (d - 1)
            hull = {(x * m, y * m) for x, y in S._pairs}
            unresolved = tuple(
                _leaf((x, y), D)
                for x, y in sorted((e[1] * up, e[2] * up) for e in boundary if e[0] == 0)
                if not _iterates_onto(d, D, (x, y), hull, state.depth)
            )
            # a face's vertices are its leaves' endpoints: its arcs run between them
            verts = {v for e in boundary if e[0] == 0 for v in e[1:3]}
            sector_reports.append(SectorGapReport(S, gap_depth, len(verts), unresolved))
    return CanonicalReport(
        d,
        state.depth,
        tuple(escapes),
        tuple(too_long),
        tuple(worst),
        tuple(sector_reports),
    )


@dataclass(frozen=True)
class FixedObject:
    """A connected piece of a sector's fixed boundary: hull component or lone fixed point."""

    points: tuple[CirclePoint, ...]
    leaves: tuple[Leaf, ...]
    subtended: bool


@dataclass(frozen=True)
class SectorClassification:
    """Outcome of the fixed-object analysis inside one fixed sector.

    Case 1: no object subtended; case 2: all; case 3: some.  The witness is
    an invariant gap face (type 1) or a rotational polygon face (type 2).
    """

    sector: FixedSector
    case: int
    witness_type: int
    objects: tuple[FixedObject, ...]
    witness: Face
    rotation: Fraction | None = None


def _holds(u: int, n: int, pts: Iterable[int], others: Iterable[int], D: int) -> bool:
    """Whether the open arc of length n from u holds all of pts and none of others, over D."""
    return all(0 < (p - u) % D < n for p in pts) and not any(0 < (q - u) % D < n for q in others)


def _separates(pair: tuple[int, int], pts: list[int], others: set[int], D: int) -> bool:
    """Whether a short side of the leaf pair/D holds every point of pts and none of others.

    Points are integers over D; a side (u, n) is the open arc of length n
    from u, and it is short when n <= D/2 (a diameter has two).
    """
    x, y = pair
    return any(
        2 * n <= D and _holds(u, n, pts, others, D) for u, n in ((x, y - x), (y, D - y + x))
    )


def classify_sector(L: Lamination, C: CriticalPortrait, S: FixedSector) -> SectorClassification:
    """Classify the fixed objects on S's boundary against the leaves of L.

    An object is subtended when some non-boundary leaf of L separates it from
    every other object of the sector.  No subtended object yields case 1, all
    yields case 2 (with a rotational polygon witness), a mix yields case 3.

    C is read only for its degree: no test and no witness reads its chords,
    so every portrait of L's degree gives the same classification.  It stays
    in the signature because perfbench's check job passes it.
    """
    if L.degree != C.degree or L.degree != S.degree:
        raise ValueError("degree mismatch")
    if L.depth < 1:
        raise InsufficientDepthError("insufficient depth: need at least stage 1 leaves")
    raw = S._objects
    D, pairs = L.scaled
    n = S.degree - 1
    m = D // n
    boundary = {(x * m, y * m) for x, y in S._pairs}
    inside = [p for p in pairs if p not in boundary and _within(S, p, D)]
    points = [[x * m for x in pts] for pts, _ in raw]
    flags: list[bool] = []
    for i, pts in enumerate(points):
        others = {q for j, qs in enumerate(points) if j != i for q in qs}
        flags.append(any(_separates(p, pts, others, D) for p in inside))
    objects = tuple(
        FixedObject(tuple(_point(x, n) for x in pts), lvs, flag)
        for (pts, lvs), flag in zip(raw, flags)
    )
    if flags and all(flags):
        witness, rho = _rotational_polygon_witness(L, S)
        return SectorClassification(S, 2, 2, objects, witness, rho)
    case = 3 if any(flags) else 1
    witness = _gap_witness(L, S, points, flags)
    return SectorClassification(S, case, 1, objects, witness, None)


def _rotational_polygon_witness(L: Lamination, S: FixedSector) -> tuple[Face, Fraction]:
    """S's one invariant polygon face with a nonzero rotation number, and that number."""
    D = L.scaled[0]
    cands: list[tuple[tuple[tuple[int, ...], ...], Fraction]] = []
    for b, verts in L._invariant_faces:
        if not _is_polygon(b) or not _within(S, verts, D):
            continue
        try:
            rho = _rotation(L.degree, D, sorted(verts))
        except NotRotational:
            continue
        if rho:
            cands.append((b, rho))
    if len(cands) != 1:
        raise InsufficientDepthError(
            f"insufficient depth: found {len(cands)} rotational polygon faces, expected 1"
        )
    b, rho = cands[0]
    return _face(L, b), rho


def _gap_witness(L: Lamination, S: FixedSector, points: list[list[int]], flags: list[bool]) -> Face:
    """S's one non-polygon invariant face holding every unsubtended object's points over L's grid."""
    D = L.scaled[0]
    required = [x for pts, flag in zip(points, flags) if not flag for x in pts]
    cands = [
        b
        for b in _sector_candidates(L, S)
        if not _is_polygon(b) and all(map(_closure(b, D, D), required))
    ]
    subtended = [x for pts, flag in zip(points, flags) if flag for x in pts]
    if len(cands) > 1 and subtended:
        # A face pinched off behind a leaf joining two distinct required
        # objects only ever touches those two; when every subtended object
        # sits beyond the pinch it cannot be the sector's gap.
        owner = {x: i for i, (pts, flag) in enumerate(zip(points, flags)) if not flag for x in pts}
        cands = [b for b in cands if not _pinched_off(b, owner, subtended, D)]
    if len(cands) != 1:
        raise InsufficientDepthError(
            f"insufficient depth: found {len(cands)} invariant gap faces, expected 1"
        )
    return _face(L, cands[0])


def _pinched_off(
    boundary: Sequence[tuple[int, ...]], owner: dict[int, int], beyond: list[int], D: int
) -> bool:
    """Whether a leaf of the face joins two required objects with all of `beyond` behind it.

    Points are integers over D; behind means strictly inside the open arc
    on the leaf's far side from the face, which holds no face vertex.
    """
    leaves = [(e[1], e[2]) for e in boundary if e[0] == 0]
    verts = [v for leaf in leaves for v in leaf]
    for x, y in leaves:
        ia, ib = owner.get(x), owner.get(y)
        if ia is None or ib is None or ia == ib:
            continue
        # the open arcs x -> y and y -> x
        if _holds(x, y - x, beyond, verts, D) or _holds(y, D - y + x, beyond, verts, D):
            return True
    return False
