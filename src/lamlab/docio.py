"""Reading, writing, and rendering lamination documents.

JSON on disk, SVG for pictures.  A document stores exact rationals only;
floating point shows up at render time and nowhere else.  Writing is
canonical: equal documents produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from . import __version__
from .circle import CirclePoint, check_degree, parse_angle, render_dnary
from .fpp import FixedPointPortrait
from .leaves import Lamination, Leaf
from .pullback import CriticalPortrait, PullbackState

__all__ = [
    "LaminationDocument",
    "RenderSpec",
    "document_from_state",
    "format_angle",
    "read_document",
    "read_portrait",
    "write_document",
    "write_portrait",
    "write_svg",
]

TOOL_VERSION = __version__

_DOC_KEYS = {"degree", "leaves", "portrait", "fpp", "stages", "metadata"}


def format_angle(t: CirclePoint) -> str:
    """Serialize an angle as `p/q`, denominator always explicit."""
    v = t.value
    return f"{v.numerator}/{v.denominator}"


_fmt = format_angle


@dataclass(frozen=True)
class LaminationDocument:
    """A lamination with its construction data, ready for disk.

    Leaves are kept sorted by (smaller endpoint, larger endpoint), so two
    documents with the same content compare equal and serialize identically.
    `stages`, when present, runs parallel to `leaves` and records the first
    construction depth at which each leaf appeared.
    """

    degree: int
    leaves: tuple[Leaf, ...]
    portrait: CriticalPortrait | None = None
    fpp: FixedPointPortrait | None = None
    stages: tuple[int, ...] | None = None
    tool_version: str = TOOL_VERSION
    command: str = ""

    def __post_init__(self) -> None:
        check_degree(self.degree)
        ls = tuple(self.leaves)
        if len(set(ls)) != len(ls):
            raise ValueError("document contains a duplicate leaf")
        if self.stages is None:
            object.__setattr__(self, "leaves", tuple(sorted(ls)))
        else:
            st = tuple(int(s) for s in self.stages)
            if len(st) != len(ls):
                raise ValueError("stage annotations must cover the leaves exactly")
            if any(s < 0 for s in st):
                raise ValueError("stage annotations must be >= 0")
            # leaves are distinct, so the stages never break a tie
            order = sorted(zip(ls, st), key=itemgetter(0))
            object.__setattr__(self, "leaves", tuple(l for l, _ in order))
            object.__setattr__(self, "stages", tuple(s for _, s in order))
        if self.portrait is not None and self.portrait.degree != self.degree:
            raise ValueError("portrait degree disagrees with the document")
        if self.fpp is not None and self.fpp.degree != self.degree:
            raise ValueError("fixed point portrait degree disagrees with the document")

    def lamination(self) -> Lamination:
        depth = max(self.stages, default=0) if self.stages is not None else 0
        return Lamination(self.degree, frozenset(self.leaves), depth)

    def pullback_state(self) -> PullbackState:
        """Rebuild the staged construction recorded in this document.

        Requires a critical portrait.  Without stage annotations the whole
        leaf set is treated as a single stage.
        """
        if self.portrait is None:
            raise ValueError("document has no critical portrait to rebuild a state from")
        tags = self.stages or (0,) * len(self.leaves)
        lams = [
            Lamination(
                self.degree,
                frozenset(l for l, s in zip(self.leaves, tags) if s <= k),
                depth=k,
            )
            for k in range(max(tags, default=0) + 1)
        ]
        return PullbackState(self.degree, self.portrait, tuple(lams), "document", self.fpp)


def document_from_state(state: PullbackState, command: str = "") -> LaminationDocument:
    """Package a pullback state, tagging each leaf with its first stage."""
    first: dict[Leaf, int] = {}
    for k in range(state.depth + 1):
        # fromkeys and update reuse the hashes the frontier sets hold
        first.update(dict.fromkeys(state.frontier(k), k))
    leaves = state.final.sorted_leaves
    return LaminationDocument(
        degree=state.degree,
        leaves=leaves,
        portrait=state.portrait,
        fpp=state.fpp,
        stages=tuple(first[l] for l in leaves),
        command=command,
    )


def _pair_block(leaves: Iterable[Leaf]) -> str:
    # one pair per line, as json.dumps would write it: `p/q` needs no escaping
    body = ",\n".join(f'    ["{_fmt(l.a)}", "{_fmt(l.b)}"]' for l in leaves)
    return "[\n" + body + "\n  ]" if body else "[]"


def write_document(doc: LaminationDocument) -> str:
    out = ["{"]
    out.append(f'  "degree": {doc.degree},')
    out.append(f'  "leaves": {_pair_block(doc.leaves)},')
    out.append(
        '  "portrait": '
        + ("null" if doc.portrait is None else _pair_block(doc.portrait.sorted_chords))
        + ","
    )
    out.append(
        '  "fpp": '
        + ("null" if doc.fpp is None else json.dumps([list(b) for b in doc.fpp.blocks]))
        + ","
    )
    out.append(
        '  "stages": '
        + ("null" if doc.stages is None else json.dumps(list(doc.stages)))
        + ","
    )
    meta = {"tool_version": doc.tool_version, "command": doc.command}
    out.append(f'  "metadata": {json.dumps(meta)}')
    out.append("}")
    return "\n".join(out) + "\n"


def _parse_pair(entry: object, degree: int, what: str) -> Leaf:
    if not isinstance(entry, list) or len(entry) != 2:
        raise ValueError(f"each {what} must be a pair of angle strings")
    a, b = entry
    if not isinstance(a, str) or not isinstance(b, str):
        raise ValueError(f"{what} endpoints must be angle strings, got {entry!r}")
    return Leaf(parse_angle(a, degree), parse_angle(b, degree))


def _parse_chords(raw: object, degree: int, what: str) -> CriticalPortrait:
    if not isinstance(raw, list):
        raise ValueError(f"{what} must be a list of angle pairs")
    return CriticalPortrait(
        degree, frozenset(_parse_pair(e, degree, "portrait chord") for e in raw)
    )


def read_document(text: str) -> LaminationDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("document must be a JSON object")
    unknown = set(payload) - _DOC_KEYS
    if unknown:
        raise ValueError(f"unknown document keys: {sorted(unknown)}")
    if "degree" not in payload or "leaves" not in payload:
        raise ValueError("document needs 'degree' and 'leaves'")
    degree = payload["degree"]
    if not isinstance(degree, int):
        raise ValueError("'degree' must be an integer")
    raw_leaves = payload["leaves"]
    if not isinstance(raw_leaves, list):
        raise ValueError("'leaves' must be a list of angle pairs")
    leaves = tuple(_parse_pair(e, degree, "leaf") for e in raw_leaves)
    portrait = None
    if payload.get("portrait") is not None:
        portrait = _parse_chords(payload["portrait"], degree, "'portrait'")
    fpp = None
    if payload.get("fpp") is not None:
        raw_fpp = payload["fpp"]
        # `type(i) is int` here and below refuses JSON booleans, which are ints
        if not isinstance(raw_fpp, list) or not all(
            isinstance(b, list) and all(type(i) is int for i in b) for b in raw_fpp
        ):
            raise ValueError("'fpp' must be a list of index blocks")
        fpp = FixedPointPortrait(degree, tuple(tuple(b) for b in raw_fpp))
    stages = None
    if payload.get("stages") is not None:
        raw_stages = payload["stages"]
        if not isinstance(raw_stages, list) or not all(
            type(s) is int for s in raw_stages
        ):
            raise ValueError("'stages' must be a list of integers")
        stages = tuple(raw_stages)
    meta = payload.get("metadata") or {}
    if not isinstance(meta, dict):
        raise ValueError("'metadata' must be an object")
    return LaminationDocument(
        degree=degree,
        leaves=leaves,
        portrait=portrait,
        fpp=fpp,
        stages=stages,
        tool_version=str(meta.get("tool_version", "")),
        command=str(meta.get("command", "")),
    )


def write_portrait(C: CriticalPortrait) -> str:
    """Serialize a critical portrait as the JSON that `read_portrait` reads.

    Python-only: the CLI reads portrait files but writes none; ROADMAP item 1
    decides its route.
    """
    return (
        "{\n"
        + f'  "degree": {C.degree},\n'
        + f'  "chords": {_pair_block(C.sorted_chords)}\n'
        + "}\n"
    )


def read_portrait(text: str) -> CriticalPortrait:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"portrait is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "degree" not in payload or "chords" not in payload:
        raise ValueError("portrait needs 'degree' and 'chords'")
    degree = payload["degree"]
    if not isinstance(degree, int):
        raise ValueError("'degree' must be an integer")
    return _parse_chords(payload["chords"], degree, "'chords'")


_STYLES = ("straight", "geodesic")
_LABELS = (None, "dnary", "rational")

_BACKGROUND = "#ffffff"
_CIRCLE_COLOR = "#333333"
_FIXED_POINT_COLOR = "#c0392b"
_INITIAL_LEAF_COLOR = "#2c3e50"
_CRITICAL_COLOR = "#8e44ad"
_DEPTH_COLORS = (
    "#1f77b4",
    "#2ca02c",
    "#ff7f0e",
    "#d62728",
    "#9467bd",
    "#8c564b",
)


@dataclass(frozen=True)
class RenderSpec:
    """Look of an SVG rendering: canvas size, chord style, labels.

    Chords are straight segments by default; `geodesic` draws each one as
    the circular arc meeting the unit circle at right angles.  Pullback
    leaves take their color from their stage annotation.
    """

    size: int = 600
    style: str = "straight"
    labels: str | None = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("canvas size must be positive")
        if self.style not in _STYLES:
            raise ValueError(f"style must be one of {_STYLES}, got {self.style!r}")
        if self.labels not in _LABELS:
            raise ValueError(f"labels must be one of {_LABELS[1:]} or omitted")


def _coord(x: float) -> str:
    # fixed precision keeps output byte-stable and files small
    return f"{x:.4f}"


def write_svg(doc: LaminationDocument, spec: RenderSpec = RenderSpec()) -> str:
    """Render a document to SVG 1.1 text.

    Deterministic: equal document and options give byte-identical output.
    Element order is background, circle, leaves from deepest stage up,
    critical chords, fixed point dots, labels.
    """
    d = doc.degree
    if spec.labels == "dnary" and d > 10:
        raise ValueError("base-d labels are limited to d <= 10; use rational labels")
    size = spec.size
    cx = cy = size / 2
    r = size * 0.46

    # Angles enter as integer terms n/q.  Python's n / q is the correctly
    # rounded value of the rational, so it equals float(Fraction(n, q)) for
    # reduced and unreduced terms alike.
    def xy(n: int, q: int) -> tuple[float, float]:
        theta = 2 * math.pi * (n / q)
        return cx + r * math.cos(theta), cy - r * math.sin(theta)

    def chord_path(l: Leaf) -> str:
        u, v = l.a.value, l.b.value
        na, qa, nb, qb = u.numerator, u.denominator, v.numerator, v.denominator
        x1, y1 = xy(na, qa)
        x2, y2 = xy(nb, qb)
        # the span b - a = num/den lies in (0, 1) because a < b
        num, den = nb * qa - na * qb, qa * qb
        if spec.style == "straight" or 2 * num == den:
            return (
                f'M {_coord(x1)} {_coord(y1)} L {_coord(x2)} {_coord(y2)}'
            )
        # run along the short side so the arc formula sees span <= 1/2
        if 2 * num > den:
            (x1, y1), (x2, y2) = (x2, y2), (x1, y1)
            num = den - num
        # circle through both endpoints orthogonal to the main circle:
        # radius r*tan(pi*span), always the minor arc, sweeping clockwise
        # on screen when the start-to-end walk is the short way around
        rho = r * math.tan(math.pi * (num / den))
        return (
            f'M {_coord(x1)} {_coord(y1)} '
            f'A {_coord(rho)} {_coord(rho)} 0 0 1 {_coord(x2)} {_coord(y2)}'
        )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="{_BACKGROUND}"/>',
        f'<circle cx="{_coord(cx)}" cy="{_coord(cy)}" r="{_coord(r)}" '
        f'fill="none" stroke="{_CIRCLE_COLOR}" stroke-width="1.5"/>',
    ]

    stages = doc.stages if doc.stages is not None else tuple(0 for _ in doc.leaves)
    by_depth: dict[int, list[Leaf]] = {}
    for l, s in zip(doc.leaves, stages):
        by_depth.setdefault(s, []).append(l)
    for depth in sorted(by_depth, reverse=True):
        if depth <= 0:
            color = _INITIAL_LEAF_COLOR
        else:
            color = _DEPTH_COLORS[(depth - 1) % len(_DEPTH_COLORS)]
        # doc.leaves is sorted, so each depth's list is too
        for l in by_depth[depth]:
            lines.append(
                f'<path d="{chord_path(l)}" fill="none" '
                f'stroke="{color}" stroke-width="1.2"/>'
            )

    if doc.portrait is not None:
        for c in doc.portrait.sorted_chords:
            lines.append(
                f'<path d="{chord_path(c)}" fill="none" '
                f'stroke="{_CRITICAL_COLOR}" stroke-width="1.2" '
                f'stroke-dasharray="5 4"/>'
            )

    dot = max(2.0, size / 200)
    for i in range(d - 1):
        fx, fy = xy(i, d - 1)
        lines.append(
            f'<circle cx="{_coord(fx)}" cy="{_coord(fy)}" r="{_coord(dot)}" '
            f'fill="{_FIXED_POINT_COLOR}"/>'
        )

    if spec.labels is not None:
        pts = sorted({p for l in doc.leaves for p in (l.a, l.b)})
        rr = r * 1.07
        fs = max(8, size // 55)
        for p in pts:
            theta = 2 * math.pi * (p.value.numerator / p.value.denominator)
            lx = cx + rr * math.cos(theta)
            ly = cy - rr * math.sin(theta)
            text = _fmt(p) if spec.labels == "rational" else str(render_dnary(p, d))
            lines.append(
                f'<text x="{_coord(lx)}" y="{_coord(ly)}" font-size="{fs}" '
                f'font-family="monospace" text-anchor="middle" '
                f'dominant-baseline="middle" '
                f'fill="{_CIRCLE_COLOR}">{text}</text>'
            )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
