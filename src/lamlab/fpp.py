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
from functools import cached_property
from typing import Iterator

from .circle import CirclePoint, check_degree
from .leaves import Arc, Lamination, Leaf, Polygon, _cross, _face_sweep, _point, _sides

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


def _noncrossing(blocks: list[tuple[int, ...]]) -> bool:
    """Whether disjoint sorted index blocks, each of two or more, are pairwise non-crossing.

    One sort of the indices and a stack walk: a block opens at its first
    index and closes at its last.  Two blocks cross exactly when one has an
    index between the first and last of a block opened after it, that is
    when a block's later index comes with another block on top of it.
    """
    stack: list[int] = []
    for i, k in sorted((i, k) for k, b in enumerate(blocks) for i in b):
        b = blocks[k]
        if i == b[0]:
            stack.append(k)
        elif stack[-1] != k:
            return False
        if i == b[-1]:
            stack.pop()
    return True


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
        if not _noncrossing(norm):
            # the pairwise scan names the first crossing pair
            for b1, b2 in itertools.combinations(norm, 2):
                if _blocks_cross(b1, b2):
                    raise ValueError(f"blocks {b1} and {b2} cross")
        object.__setattr__(self, "blocks", tuple(norm))

    def point(self, i: int) -> CirclePoint:
        return _point(i, self.degree - 1)

    @cached_property
    def _hull(self) -> Lamination:
        """The hull sides as a lamination on the fixed points' grid n = d - 1.

        The sides of a block's sorted indices are sorted pairs over n, and
        disjoint blocks share no side.
        """
        pairs = sorted(s for b in self.blocks for s in _sides(b))
        return Lamination._on_grid(self.degree, self.degree - 1, pairs)

    @cached_property
    def hull_leaves(self) -> frozenset[Leaf]:
        """All hull sides: one leaf per 2-block, polygon sides per larger block."""
        return self._hull.leaves

    def _first_choice(self) -> CanonicalPortraitChoice:
        """`canonical_portraits(self)[0]`, built alone: each run's first placement.

        The choices are the product of the runs' sorted placements, so the
        first takes each run's first.  A run of r arcs has r + 1 placements of
        r + 1 vertices, so building only this choice costs at most about d^2
        points, where all choices number up to 2^(d - 1).
        """
        return CanonicalPortraitChoice(self, tuple(opts[0] for opts in _run_options(self)))

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


def _portrait(d: int, partition: tuple[tuple[int, ...], ...]) -> FixedPointPortrait:
    """The portrait of a non-crossing partition into sorted blocks, built without re-checking it.

    FixedPointPortrait drops the singletons and sorts the blocks; so does this.
    """
    P = object.__new__(FixedPointPortrait)
    object.__setattr__(P, "degree", d)
    object.__setattr__(P, "blocks", tuple(sorted(b for b in partition if len(b) > 1)))
    return P


def enumerate_fpps(d: int) -> list[FixedPointPortrait]:
    """All portraits for degree d: the non-crossing partitions of d-1 points."""
    check_degree(d)
    out = [_portrait(d, p) for p in _noncrossing_partitions(tuple(range(d - 1)))]
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
    """One complementary region of the portrait hulls, arcs split at fixed points.

    Its arcs and leaves end at fixed points i/n, n = d - 1: the tests read them once over n.
    """

    degree: int
    arcs: tuple[Arc, ...]
    boundary_leaves: tuple[Leaf, ...]

    @property
    def sector_degree(self) -> int:
        """Covering degree of the d-tupling map on the sector: arc count plus one."""
        return len(self.arcs) + 1

    @cached_property
    def _units(self) -> frozenset[int]:
        """The sector's unit arcs: i for the arc from i/n to (i + 1)/n, n = d - 1."""
        n = self.degree - 1
        return frozenset(int(a.start.value * n) for a in self.arcs)

    @cached_property
    def _pairs(self) -> tuple[tuple[int, int], ...]:
        """The sorted boundary leaves as pairs x < y over n = d - 1."""
        n = self.degree - 1
        return tuple((int(l.a.value * n), int(l.b.value * n)) for l in sorted(self.boundary_leaves))


def _sectors(
    P: FixedPointPortrait,
) -> list[tuple[list[int], list[tuple[int, int]], tuple[Leaf, ...]]]:
    """Each fixed sector as its unit arcs, its arc runs and its boundary leaves, in order.

    Every hull endpoint is a fixed point i/n, n = d - 1, so the hull's
    integer view has denominator n, and unit arc i runs from i/n to
    (i + 1)/n.  A face arc from u to v holds the (v - u - 1) % n + 1 unit
    arcs from u: all n of them, from 0, on the full circle u = v.  A leaf
    separates any two arcs of one face, so each face arc is a maximal run,
    kept as (start, length).  Per arc-bearing face of the hull: its sorted
    unit arcs, its runs by start and its sorted leaves; the sectors are
    sorted by least unit arc.
    """
    n = P.degree - 1
    ls = P._hull.sorted_leaves
    out = []
    for boundary in _face_sweep(P._hull):
        runs = sorted((e[1], (e[2] - e[1] - 1) % n + 1) for e in boundary if e[0] == 1)
        if runs:
            units = sorted((u + k) % n for u, r in runs for k in range(r))
            # leaves sort as their indices into sorted_leaves
            leaves = tuple(ls[i] for i in sorted(e[3] for e in boundary if e[0] == 0))
            out.append((units, runs, leaves))
    # sectors share no unit arc, so the first units decide the order
    out.sort(key=lambda s: s[0])
    return out


def fixed_sectors(P: FixedPointPortrait) -> list[FixedSector]:
    """The arc-bearing faces of the hull lamination, arcs split at every fixed point."""
    n = P.degree - 1
    pts = [_point(i, n) for i in range(n)]
    return [
        FixedSector(P.degree, tuple(Arc(pts[i], pts[(i + 1) % n]) for i in units), leaves)
        for units, _, leaves in _sectors(P)
    ]


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


def _run_placements(d: int, s: int, r: int) -> list[Leaf | Polygon]:
    """The all-critical placements in the run of r unit arcs from fixed point s, sorted.

    Over G = d(d - 1) fixed point i is i*d and a step of 1/d is n = d - 1,
    so the run spans r*d and r + 1 vertices 1/d apart span r*n = r*d - r.
    The first vertex from the run's start can therefore sit at s*d + j for
    j = 0..r; on the full circle, r = n, j = n gives the polygon of j = 0.
    """
    n = d - 1
    G = d * n
    verts = sorted(
        tuple(sorted((s * d + j + i * n) % G for i in range(r + 1)))
        for j in range(r + 1 if r < n else n)
    )
    out: list[Leaf | Polygon] = []
    for v in verts:
        pts = tuple(_point(x, G) for x in v)
        out.append(Leaf(*pts) if r == 1 else Polygon(pts))
    return out


def _run_options(P: FixedPointPortrait) -> list[list[Leaf | Polygon]]:
    """The sorted placements of each arc run of each fixed sector, in sector order."""
    return [_run_placements(P.degree, s, r) for _, runs, _ in _sectors(P) for s, r in runs]


def canonical_portraits(P: FixedPointPortrait) -> list[CanonicalPortraitChoice]:
    """Every combination of per-run canonical placements, in deterministic order.

    The first choice anchors every placement at the least possible vertex and
    is the one the canonical pullback construction uses; `P._first_choice()`
    builds it alone.
    """
    return [CanonicalPortraitChoice(P, combo) for combo in itertools.product(*_run_options(P))]
