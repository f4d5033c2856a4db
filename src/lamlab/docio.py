"""Reading, writing, and rendering lamination documents.

JSON on disk, SVG for pictures.  A document stores exact rationals only;
floating point shows up at render time and nowhere else.  Writing is
canonical: equal documents produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from operator import eq, lt, mul
from typing import NamedTuple

from . import __version__
from .circle import CirclePoint, _rational, check_degree, parse_angle, render_dnary
from .fpp import CriticalPortrait, FixedPointPortrait
from .leaves import Lamination, _leaf, _numerators, _point
from .pullback import PullbackState

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
_PORTRAIT_KEYS = {"degree", "chords"}


def format_angle(t: CirclePoint) -> str:
    """Serialize an angle as `p/q`, denominator always explicit."""
    v = t.value
    return f"{v.numerator}/{v.denominator}"


class _Pairs(NamedTuple):
    """The leaves `read_document` read, as integer pairs x < y over one D, in document order."""

    D: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LaminationDocument:
    """A lamination with its construction data, ready for disk.

    `leaves` is the document's `Lamination`, at the depth of the deepest
    stage tag (0 without tags): it iterates the sorted `Leaf`s and keeps
    them as the pairs of its integer grid, `scaled`, building the `Leaf`
    forms on first use.  A `Lamination` of the document's degree and depth
    is kept as it is; any other leaf collection is checked for duplicates,
    sorted with its stage tags and built onto the grid once.  `stages`, when
    present, runs parallel to `leaves` and records the first construction
    depth at which each leaf appeared.
    """

    degree: int
    leaves: Lamination
    portrait: CriticalPortrait | None = None
    fpp: FixedPointPortrait | None = None
    stages: tuple[int, ...] | None = None
    tool_version: str = TOOL_VERSION
    command: str = ""

    def __post_init__(self) -> None:
        n = check_degree(self.degree) - 1
        ls, st = self.leaves, self.stages
        if isinstance(ls, Lamination):
            D, pairs = ls.scaled
        elif isinstance(ls, _Pairs):
            D, pairs = ls
        else:
            D, nums = _numerators([t.value for l in ls for t in (l.a, l.b)], n)
            pairs = tuple(zip(nums[::2], nums[1::2]))
        # pairs in strictly increasing order, as a Lamination's are, are sorted and distinct
        ordered = isinstance(ls, Lamination) or all(map(lt, pairs, pairs[1:]))
        if not ordered and len(set(pairs)) != len(pairs):
            raise ValueError("document contains a duplicate leaf")
        if st is not None:
            st = tuple(st)
            # `type` refuses bools, which are ints, as well as floats and strings
            if set(map(type, st)) - {int}:
                raise ValueError("stage annotations must be integers")
            if len(st) != len(pairs):
                raise ValueError("stage annotations must cover the leaves exactly")
            if min(st, default=0) < 0:
                raise ValueError("stage annotations must be >= 0")
        depth = max(st, default=0) if st is not None else 0
        if not ordered:
            # pairs order as their leaves do, and are distinct, so the rest never breaks a tie
            order = sorted(range(len(pairs)), key=pairs.__getitem__)
            pairs = tuple(pairs[i] for i in order)
            if st is not None:
                st = tuple(st[i] for i in order)
        if not isinstance(ls, Lamination) or (ls.degree, ls.depth) != (self.degree, depth):
            ls = Lamination._on_grid(self.degree, D, pairs, depth)
        object.__setattr__(self, "leaves", ls)
        object.__setattr__(self, "stages", st)
        if self.portrait is not None and self.portrait.degree != self.degree:
            raise ValueError("portrait degree disagrees with the document")
        if self.fpp is not None and self.fpp.degree != self.degree:
            raise ValueError("fixed point portrait degree disagrees with the document")

    def lamination(self) -> Lamination:
        """The document's leaves as a Lamination at its deepest stage: `leaves` itself."""
        return self.leaves

    def pullback_state(self) -> PullbackState:
        """Rebuild the staged construction recorded in this document.

        Requires a critical portrait.  Without stage annotations the whole
        leaf set is treated as a single stage.  The final stage is `leaves`
        itself, so both share what it keeps, such as its faces.
        """
        if self.portrait is None:
            raise ValueError("document has no critical portrait to rebuild a state from")
        D, pairs = self.leaves.scaled
        tags = self.stages or (0,) * len(pairs)
        lams = [
            Lamination._on_grid(self.degree, D, compress(pairs, [s <= k for s in tags]), k)
            for k in range(self.leaves.depth)
        ]
        lams.append(self.leaves)
        return PullbackState(self.degree, self.portrait, tuple(lams), self.fpp)


def document_from_state(state: PullbackState, command: str = "") -> LaminationDocument:
    """Package a pullback state, tagging each leaf with its first stage.

    A document keeps no empty stage, so a state whose last stages add no
    leaves reads back at the depth of its deepest leaf.  The known case is
    `canonical_lamination` of a portrait with no blocks: its stages are all
    empty, and its document reads back at depth 0.
    """
    return LaminationDocument(
        degree=state.degree,
        leaves=state.final,
        portrait=state.portrait,
        fpp=state.fpp,
        stages=state._first_stage,
        command=command,
    )


def _pair_block(D: int, pairs: tuple[tuple[int, int], ...]) -> str:
    """The pairs over D as a JSON list of `p/q` pairs in lowest terms."""
    names = {
        x: f"{x // (g := math.gcd(x, D))}/{D // g}" for x in set(chain.from_iterable(pairs))
    }
    # one pair per line, as json.dumps would write it: `p/q` needs no escaping
    body = ",\n".join(f'    ["{names[x]}", "{names[y]}"]' for x, y in pairs)
    return "[\n" + body + "\n  ]" if body else "[]"


def _chords_block(C: CriticalPortrait) -> str:
    return _pair_block(*C._lamination.scaled)


def write_document(doc: LaminationDocument) -> str:
    out = ["{"]
    out.append(f'  "degree": {doc.degree},')
    out.append(f'  "leaves": {_pair_block(*doc.leaves.scaled)},')
    out.append(
        '  "portrait": '
        + ("null" if doc.portrait is None else _chords_block(doc.portrait))
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


def _pair_strings(entry: object, what: str) -> tuple[str, str]:
    if not isinstance(entry, list) or len(entry) != 2:
        raise ValueError(f"each {what} must be a pair of angle strings")
    a, b = entry
    if not isinstance(a, str) or not isinstance(b, str):
        raise ValueError(f"{what} endpoints must be angle strings, got {entry!r}")
    return a, b


def _terms(text: str, degree: int) -> tuple[int, int]:
    """The lowest terms (p, q) of the angle `parse_angle(text, degree)`, with 0 <= p < q."""
    terms = None if "_" in text else _rational(text.strip())
    if terms is None:
        # digit strings, and the errors of malformed literals
        v = parse_angle(text, degree).value
        return v.numerator, v.denominator
    p, q = terms
    p %= q
    g = math.gcd(p, q)
    return p // g, q // g


def _parse_leaves(raw: list, degree: int, what: str) -> list[tuple[int, int]]:
    """The lowest terms of the leaf endpoints, two per leaf, in document order.

    Reads the literals as `parse_angle` does and refuses what `Leaf` refuses,
    naming the first flaw in document order.
    """
    terms: list[tuple[int, int]] = []
    for entry in raw:
        a, b = _pair_strings(entry, what)
        ta, tb = _terms(a, degree), _terms(b, degree)
        if ta == tb:
            raise ValueError(f"degenerate leaf at {CirclePoint(Fraction(*ta))}")
        terms += (ta, tb)
    return terms


_NO_DIGITS = str.maketrans("", "", "0123456789")


def _bulk_numerators(raw: list, n: int) -> tuple[int, list[int]] | None:
    """D = lcm(n, every denominator) and the endpoints over D, two per leaf, or None.

    Reads the list column by column when every entry is a pair of ASCII
    `p/q` literals with q > 0 and no leaf is degenerate; the terms need not
    be reduced.  Any other list gives None.
    """
    if set(map(type, raw)) != {list} or set(map(len, raw)) != {2}:
        return None
    flat = list(chain.from_iterable(raw))
    if set(map(type, flat)) != {str}:
        return None
    uniq = list(dict.fromkeys(flat))
    joined = ",".join(uniq)
    # without its digits, each literal must leave exactly one "/"
    if joined.translate(_NO_DIGITS) != ",".join(["/"] * len(uniq)):
        return None
    parts = joined.replace(",", "/").split("/")
    if "" in parts:
        return None
    try:
        ps = list(map(int, parts[::2]))
        q_of = {s: int(s) for s in set(parts[1::2])}  # a document has few denominators
    except ValueError:  # longer than sys.get_int_max_str_digits()
        return None
    if 0 in q_of.values():
        return None
    D = math.lcm(n, *q_of.values())
    scale = {s: D // q for s, q in q_of.items()}
    xs = list(map(mul, ps, map(scale.__getitem__, parts[1::2])))
    if max(xs) >= D:  # p/q with p >= q: (p * D/q) % D = (p % q) * D/q
        xs = [x % D for x in xs]
    at = dict(zip(uniq, xs))
    xs = list(map(at.__getitem__, flat))
    if any(map(eq, xs[::2], xs[1::2])):
        return None
    return D, xs


def _read_pairs(raw: object, degree: int, where: str, what: str) -> _Pairs:
    """A document's list of angle pairs on its grid, D = lcm(d - 1, every denominator).

    `_bulk_numerators` reads the ASCII `p/q` form; any other list goes
    through `_parse_leaves`, which reads every literal form and names the
    first flaw.  The degree is not checked here: the document or portrait
    built from the pairs refuses a degree below 2 after its other fields,
    and until then the grid is that of the denominators alone.
    """
    if not isinstance(raw, list):
        raise ValueError(f"{where} must be a list of angle pairs")
    n = degree - 1 if degree >= 2 else 1
    grid = _bulk_numerators(raw, n)
    if grid is None:
        terms = _parse_leaves(raw, degree, what)
        D = math.lcm(n, *{q for _, q in terms})
        grid = D, [p * (D // q) for p, q in terms]
    D, xs = grid
    a, b = xs[::2], xs[1::2]
    if all(map(lt, a, b)):
        return _Pairs(D, tuple(zip(a, b)))
    return _Pairs(D, tuple((x, y) if x < y else (y, x) for x, y in zip(a, b)))


def _read_chords(raw: object, degree: int, where: str) -> CriticalPortrait:
    D, pairs = _read_pairs(raw, degree, where, "portrait chord")
    return CriticalPortrait(check_degree(degree), frozenset(_leaf(p, D) for p in pairs))


def read_document(text: str) -> LaminationDocument:
    """Parse a document written by `write_document`, or by hand.

    A leaf list of unsigned ASCII `p/q` literals, as `write_document` writes
    them (reduced or not, q > 0), is read column by column onto its grid.
    Any other list, with digit strings `pre_per`, signs, spaces or bare
    integers, goes through the per-literal reader, which also names the
    first flaw of a flawed list.  Portrait chords share the same reader.
    """
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
    leaves = _read_pairs(payload["leaves"], degree, "'leaves'", "leaf")
    portrait = None
    if payload.get("portrait") is not None:
        portrait = _read_chords(payload["portrait"], degree, "'portrait'")
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
        if not isinstance(raw_stages, list) or set(map(type, raw_stages)) - {int}:
            raise ValueError("'stages' must be a list of integers")
        stages = tuple(raw_stages)
    meta = payload.get("metadata")
    if meta is None:
        meta = {}
    elif not isinstance(meta, dict):
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

    Python-only: the CLI takes a portrait from the document it reads and
    writes no portrait file; ROADMAP item 1 decides its route.
    """
    return (
        "{\n"
        + f'  "degree": {C.degree},\n'
        + f'  "chords": {_chords_block(C)}\n'
        + "}\n"
    )


def read_portrait(text: str) -> CriticalPortrait:
    """Read a critical portrait from the `{"degree", "chords"}` JSON of `write_portrait`.

    Python-only: the CLI takes a portrait from the document it reads;
    ROADMAP item 1 decides its route.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"portrait is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "degree" not in payload or "chords" not in payload:
        raise ValueError("portrait needs 'degree' and 'chords'")
    unknown = set(payload) - _PORTRAIT_KEYS
    if unknown:
        raise ValueError(f"unknown portrait keys: {sorted(unknown)}")
    degree = payload["degree"]
    if not isinstance(degree, int):
        raise ValueError("'degree' must be an integer")
    return _read_chords(payload["chords"], degree, "'chords'")


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
    critical chords, fixed point dots, labels.  Each distinct chord
    endpoint is placed once, and every chord sharing it reuses its text.
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

    def chord_paths(D: int, pairs: Sequence[tuple[int, int]]) -> list[str]:
        """The path data of each chord a < b over D; each distinct endpoint is placed once."""
        at: dict[int, str] = {}
        for x in set(chain.from_iterable(pairs)):
            theta = 2 * math.pi * (x / D)  # as xy(x, D)
            at[x] = f"{cx + r * math.cos(theta):.4f} {cy - r * math.sin(theta):.4f}"
        if spec.style == "straight":
            return [f"M {at[a]} L {at[b]}" for a, b in pairs]
        paths = []
        arc_of_span: dict[int, str] = {}
        for a, b in pairs:
            # the span (b - a)/D lies in (0, 1) because a < b
            num = b - a
            if 2 * num == D:
                paths.append(f"M {at[a]} L {at[b]}")
                continue
            # run along the short side so the arc formula sees span <= 1/2
            if 2 * num > D:
                a, b, num = b, a, D - num
            if num not in arc_of_span:
                # circle through both endpoints orthogonal to the main circle:
                # radius r*tan(pi*span), always the minor arc, sweeping clockwise
                # on screen when the start-to-end walk is the short way around
                rho = _coord(r * math.tan(math.pi * (num / D)))
                arc_of_span[num] = f" A {rho} {rho} 0 0 1 "
            paths.append(f"M {at[a]}{arc_of_span[num]}{at[b]}")
        return paths

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="{_BACKGROUND}"/>',
        f'<circle cx="{_coord(cx)}" cy="{_coord(cy)}" r="{_coord(r)}" '
        f'fill="none" stroke="{_CIRCLE_COLOR}" stroke-width="1.5"/>',
    ]

    D, pairs = doc.leaves.scaled
    stages = doc.stages if doc.stages is not None else (0,) * len(pairs)
    by_depth: dict[int, list[str]] = {}
    for path, s in zip(chord_paths(D, pairs), stages):
        by_depth.setdefault(s, []).append(path)
    for depth in sorted(by_depth, reverse=True):
        if depth <= 0:
            color = _INITIAL_LEAF_COLOR
        else:
            color = _DEPTH_COLORS[(depth - 1) % len(_DEPTH_COLORS)]
        # the pairs are sorted, so each depth's list is too
        lines.extend(
            f'<path d="{path}" fill="none" stroke="{color}" stroke-width="1.2"/>'
            for path in by_depth[depth]
        )

    if doc.portrait is not None:
        lines.extend(
            f'<path d="{path}" fill="none" '
            f'stroke="{_CRITICAL_COLOR}" stroke-width="1.2" '
            f'stroke-dasharray="5 4"/>'
            for path in chord_paths(*doc.portrait._lamination.scaled)
        )

    dot = max(2.0, size / 200)
    for i in range(d - 1):
        fx, fy = xy(i, d - 1)
        lines.append(
            f'<circle cx="{_coord(fx)}" cy="{_coord(fy)}" r="{_coord(dot)}" '
            f'fill="{_FIXED_POINT_COLOR}"/>'
        )

    if spec.labels is not None:
        rr = r * 1.07
        fs = max(8, size // 55)
        for x in sorted(set(chain.from_iterable(pairs))):
            theta = 2 * math.pi * (x / D)
            lx = cx + rr * math.cos(theta)
            ly = cy - rr * math.sin(theta)
            p = _point(x, D)
            text = format_angle(p) if spec.labels == "rational" else str(render_dnary(p, d))
            lines.append(
                f'<text x="{_coord(lx)}" y="{_coord(ly)}" font-size="{fs}" '
                f'font-family="monospace" text-anchor="middle" '
                f'dominant-baseline="middle" '
                f'fill="{_CIRCLE_COLOR}">{text}</text>'
            )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
