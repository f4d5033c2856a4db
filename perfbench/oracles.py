"""Output checks that do not use the code under test.

They read the texts and rows the jobs produce, with the benchmark's own
parsing and integer arithmetic, and run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_digests(out) -> dict[str, str]:
    """SHA-256 of each document, SVG and the JSON rows of one job."""
    got = {"rows": digest(json.dumps(out.rows, sort_keys=True))}
    if out.doc is not None:
        got["doc"] = digest(out.doc)
    if out.svg is not None:
        got["svg"] = digest(out.svg)
    return got


def leaf_pairs(doc_text: str) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(a), Fraction(b)) for a, b in json.loads(doc_text)["leaves"]]


def crossing(pairs: list[tuple[Fraction, Fraction]]) -> tuple | None:
    """A pair of crossing chords, or None; chords may share endpoints.

    Sort-based: scale to integers, sweep the endpoints in order and keep the
    open chords on a stack.  Chords starting at a point are pushed longest
    first.  At each point every chord ending there must sit on top of the
    stack; a chord ending there that is buried crosses the one above it.
    """
    if not pairs:
        return None
    denom = math.lcm(*(x.denominator for pair in pairs for x in pair))
    chords = sorted(
        (min(a, b), max(a, b))
        for a, b in (
            (p.numerator * (denom // p.denominator), q.numerator * (denom // q.denominator))
            for p, q in pairs
        )
    )
    ends: dict[int, int] = {}
    starts: dict[int, list[tuple[int, int]]] = {}
    for lo, hi in chords:
        if lo == hi:
            raise ValueError("degenerate chord")
        ends[hi] = ends.get(hi, 0) + 1
        starts.setdefault(lo, []).append((lo, hi))
    stack: list[tuple[int, int]] = []
    for x in sorted(set(ends) | set(starts)):
        for _ in range(ends.get(x, 0)):
            if stack[-1][1] != x:
                buried = next(c for c in reversed(stack) if c[1] == x)
                return (buried, stack[-1])
            stack.pop()
        stack.extend(sorted(starts.get(x, ()), key=lambda c: -c[1]))
    return None


def goldberg_count(d: int, q: int, p: int | None) -> int:
    """Number of period-q rotational orbits of z -> z^d, per rotation
    number p/q or summed over all p (Goldberg 1992), for q >= 2."""
    per_rotation = math.comb(q + d - 2, d - 2)
    if p is not None:
        return per_rotation
    return per_rotation * sum(1 for k in range(1, q) if math.gcd(k, q) == 1)


def rotates(d: int, q: int, points: list[str]) -> bool:
    """The q points form one orbit under t -> d t on which d acts as a rotation."""
    xs = sorted(Fraction(s) for s in points)
    if len(xs) != q or len(set(xs)) != q:
        return False
    index = {x: i for i, x in enumerate(xs)}
    shifts = set()
    for i, x in enumerate(xs):
        j = index.get((d * x) % 1)
        if j is None:
            return False
        shifts.add((j - i) % q)
    return len(shifts) == 1


def check_output(spec, out) -> list[str]:
    """Problems with one job's output found by the independent oracles."""
    problems = []
    if out.doc is not None:
        bad = crossing(leaf_pairs(out.doc))
        if bad is not None:
            problems.append(f"{spec.key}: leaves cross: {bad}")
    if spec.kind == "rot":
        d, q, p = spec.args
        row = out.rows[0]
        if row["count"] != goldberg_count(d, q, p) or len(row["orbits"]) != row["count"]:
            problems.append(f"{spec.key}: {row['count']} orbits, Goldberg count {goldberg_count(d, q, p)}")
        if not all(rotates(d, q, o) for o in row["orbits"]):
            problems.append(f"{spec.key}: a listed orbit is not rotational of period {q}")
    if spec.kind == "corr":
        d, q, p, _ = spec.args
        head, there, back = out.rows
        if head["orbits"] != goldberg_count(d, q, p):
            problems.append(f"{spec.key}: {head['orbits']} orbits, Goldberg count {goldberg_count(d, q, p)}")
        for field in ("polygon", "max_polygon", "coroots", "majors", "rotation"):
            if there[field] != back[field]:
                problems.append(f"{spec.key}: uni -> max -> uni changes {field}")
        if there["rotation"] != f"{p}/{q}":
            problems.append(f"{spec.key}: rotation {there['rotation']} is not {p}/{q}")
    return problems
