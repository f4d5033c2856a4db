"""Portraits of fixed points: non-crossing groupings, sectors, and critical placements.

The d-tupling map fixes the d-1 points i/(d-1).  A portrait groups some of
them into blocks whose hulls (leaves or polygons) are forward invariant and
pairwise disjoint; the hulls cut the disk into fixed sectors.  Each sector
supports finitely many canonical placements of all-critical chords/polygons
anchored at its fixed points, which seed the pullback constructions.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .circle import CirclePoint, angle, ccw_span, check_degree, fixed_points
from .leaves import Arc, Lamination, Leaf, Polygon, _cross, _sides, faces

__all__ = [
    "CanonicalPortraitChoice",
    "FixedPointPortrait",
    "FixedSector",
    "canonical_portraits",
    "enumerate_fpps",
    "fixed_sectors",
    "fpps_up_to_rotation",
]


def _blocks_cross(b1: tuple[int, ...], b2: tuple[int, ...]) -> bool:
    """Whether two disjoint sorted index blocks interleave on the circle of fixed points.

    Two inscribed hulls with no common vertex meet exactly when a side of one
    crosses a side of the other.
    """
    return any(_cross(s, t) for s in _sides(b1) for t in _sides(b2))


@dataclass(frozen=True)
class FixedPointPortrait:
    """A non-crossing partition of the d-1 fixed points; singleton blocks implied."""

    degree: int
    blocks: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        check_degree(self.degree)
        n = self.degree - 1
        norm = []
        seen: set[int] = set()
        for b in self.blocks:
            bb = tuple(sorted(set(int(i) for i in b)))
            if len(bb) <= 1:
                continue
            for i in bb:
                if not 0 <= i < n:
                    raise ValueError(f"fixed point index {i} out of range for degree {self.degree}")
                if i in seen:
                    raise ValueError(f"fixed point index {i} appears in two blocks")
                seen.add(i)
            norm.append(bb)
        norm.sort()
        for b1, b2 in itertools.combinations(norm, 2):
            if _blocks_cross(b1, b2):
                raise ValueError(f"blocks {b1} and {b2} cross")
        object.__setattr__(self, "blocks", tuple(norm))

    def point(self, i: int) -> CirclePoint:
        return angle(Fraction(i, self.degree - 1))

    @cached_property
    def hull_leaves(self) -> frozenset[Leaf]:
        """All hull sides: one leaf per 2-block, polygon sides per larger block."""
        return frozenset(
            Leaf(x, y) for b in self.blocks for x, y in _sides([self.point(i) for i in b])
        )

    def rotated(self, k: int = 1) -> "FixedPointPortrait":
        n = self.degree - 1
        return FixedPointPortrait(
            self.degree, tuple(tuple((i + k) % n for i in b) for b in self.blocks)
        )

    def __str__(self) -> str:
        inner = ",".join("[" + ",".join(str(i) for i in b) + "]" for b in self.blocks)
        return "[" + inner + "]"


def _noncrossing_partitions(elems: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The non-crossing partitions of elems in circular order, the block of elems[0] first.

    elems[0] is alone, or its next block-mate is rest[i]: then rest[:i] lies
    between the two and is partitioned on its own, and the block of rest[i]
    in a partition of rest[i:] gains elems[0].
    """
    if not elems:
        yield ()
        return
    x, rest = elems[0], elems[1:]
    for p in _noncrossing_partitions(rest):
        yield ((x,), *p)
    for i in range(len(rest)):
        for inner in _noncrossing_partitions(rest[:i]):
            for outer in _noncrossing_partitions(rest[i:]):
                yield ((x, *outer[0]), *inner, *outer[1:])


def enumerate_fpps(d: int) -> list[FixedPointPortrait]:
    """All portraits for degree d: the non-crossing partitions of d-1 points."""
    check_degree(d)
    out = [FixedPointPortrait(d, p) for p in _noncrossing_partitions(tuple(range(d - 1)))]
    return sorted(out, key=lambda P: (len(P.blocks), P.blocks))


def fpps_up_to_rotation(d: int) -> list[FixedPointPortrait]:
    """One representative per rotation class, the least under block ordering.

    Rotating by k fixed points keeps the block count, so the least rotation
    is the least of the rotated block tuples, each sorted as a portrait
    normalizes its blocks.
    """
    n = d - 1
    return [
        P
        for P in enumerate_fpps(d)
        if all(
            P.blocks <= tuple(sorted(tuple(sorted((i + k) % n for i in b)) for b in P.blocks))
            for k in range(1, n)
        )
    ]


@dataclass(frozen=True)
class FixedSector:
    """One complementary region of the portrait hulls, arcs split at fixed points."""

    degree: int
    arcs: tuple[Arc, ...]
    boundary_leaves: tuple[Leaf, ...]

    @property
    def sector_degree(self) -> int:
        """Covering degree of the d-tupling map on the sector: arc count plus one."""
        return len(self.arcs) + 1

    @cached_property
    def sector_fixed_points(self) -> tuple[CirclePoint, ...]:
        pts: set[CirclePoint] = set()
        for a in self.arcs:
            pts.add(a.start)
            if a.end != a.start:
                pts.add(a.end)
        return tuple(sorted(pts))

    def contains_point(self, t: CirclePoint, closed: bool = True) -> bool:
        return any(a.contains(t, closed=closed) for a in self.arcs)

    def contains_leaf(self, l: Leaf, closed: bool = True) -> bool:
        return self.contains_point(l.a, closed) and self.contains_point(l.b, closed)


def fixed_sectors(P: FixedPointPortrait) -> list[FixedSector]:
    """The arc-bearing faces of the hull lamination, arcs split at every fixed point."""
    d = P.degree
    fps = [angle(x) for x in fixed_points(d)]
    hull = Lamination(d, P.hull_leaves)
    out = []
    for f in faces(hull):
        if not f.arcs:
            continue
        arcs: list[Arc] = []
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
                (p for p in fps if a.contains(p, closed=False)),
                key=lambda p: ccw_span(a.start, p),
            )
            chain = [a.start, *interior, a.end]
            arcs.extend(Arc(u, v) for u, v in zip(chain, chain[1:]))
        arcs.sort()
        out.append(FixedSector(d, tuple(arcs), tuple(sorted(f.leaves))))
    out.sort(key=lambda s: s.arcs[0])
    return out


@dataclass(frozen=True)
class CanonicalPortraitChoice:
    """One all-critical placement per arc run, jointly carrying criticality d-1."""

    portrait: FixedPointPortrait
    placements: tuple[Leaf | Polygon, ...]

    @cached_property
    def chords(self) -> frozenset[Leaf]:
        out: set[Leaf] = set()
        for p in self.placements:
            if isinstance(p, Leaf):
                out.add(p)
            else:
                out.update(p.sides)
        return frozenset(out)

    def as_critical_portrait(self):
        from .pullback import CriticalPortrait

        return CriticalPortrait(self.portrait.degree, self.chords)


def _arc_runs(arcs: tuple[Arc, ...]) -> list[list[Arc]]:
    """Maximal chains of arcs sharing endpoints, joined across the circle seam."""
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


def _run_placements(d: int, run: list[Arc]) -> list[Leaf | Polygon]:
    r = len(run)
    full_circle = run[0].start == run[-1].end and sum(a.length for a in run) == 1
    start = run[0].start
    span = sum((a.length for a in run), Fraction(0))
    anchors: list[CirclePoint] = [run[0].start]
    for a in run:
        if a.end not in anchors:
            anchors.append(a.end)
    found: dict[tuple, Leaf | Polygon] = {}
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
                found[verts] = (
                    Leaf(*verts) if r == 1 else Polygon(verts)
                )
    return [found[k] for k in sorted(found)]


def canonical_portraits(P: FixedPointPortrait) -> list[CanonicalPortraitChoice]:
    """Every combination of per-run canonical placements, in deterministic order.

    The first choice anchors every placement at the least possible vertex and
    is the one the canonical pullback construction uses.
    """
    d = P.degree
    run_options: list[list[Leaf | Polygon]] = []
    for S in fixed_sectors(P):
        for run in _arc_runs(S.arcs):
            run_options.append(_run_placements(d, run))
    out = [
        CanonicalPortraitChoice(P, combo)
        for combo in itertools.product(*run_options)
    ]
    return out
