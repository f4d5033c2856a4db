"""Workloads: their job strata, the seeded draw, and the jobs themselves.

A workload is a list of strata.  Every member of a stratum costs about the
same, so a seed picks one member per stratum and shuffles the order: the
seed changes the inputs but hardly the cost of a pass, which keeps runs
with different seeds comparable.  The union of all members is the universe
that `reference.json` covers.

A job is one user command (or a short chain of them) expressed as the
library calls the matching `lamlab` subcommand makes, in the same order.
Jobs return the JSON rows the command would print, plus the document and
SVG texts it would write, so that every output can be compared with the
reference digests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

WORKLOADS = ("build-deep", "build-wide", "check", "orbits")


@dataclass(frozen=True)
class Spec:
    """One drawable job: its reference key and its generated arguments."""

    key: str
    kind: str
    args: tuple


@dataclass
class Output:
    rows: list = field(default_factory=list)
    doc: str | None = None
    svg: str | None = None


def _blocks_str(blocks) -> str:
    return ",".join("-".join(str(i) for i in b) for b in blocks) if blocks else "none"


def _rotation_class(P) -> tuple:
    n = P.degree - 1
    rotations = [
        tuple(sorted(tuple(sorted((i + k) % n for i in b)) for b in P.blocks))
        for k in range(n)
    ]
    return min(rotations)


def _classes(api, d: int) -> dict[tuple, list]:
    """Non-empty portraits of degree d grouped by rotation class."""
    out: dict[tuple, list] = {}
    for P in api.enumerate_fpps(d):
        if P.blocks:
            out.setdefault(_rotation_class(P), []).append(P)
    return out


# build-deep: (degree, depth, rotation class, policy, render style)
_DEEP = (
    (4, 3, ((0, 1),), "shortest", "straight"),
    (4, 3, ((0, 1, 2),), "prefer-existing", "straight"),
    (4, 5, ((0, 1),), "prefer-existing", "geodesic"),
    (4, 5, ((0, 1, 2),), "shortest", "geodesic"),
    (5, 3, ((0, 1),), "shortest", "straight"),
    (5, 3, ((0, 2),), "prefer-existing", "straight"),
    (5, 3, ((0, 1, 2),), "shortest", "geodesic"),
    (5, 3, ((0, 1, 2, 3),), "prefer-existing", "straight"),
    (5, 3, ((0, 1), (2, 3)), "shortest", "straight"),
    (5, 4, ((0, 1),), "prefer-existing", "geodesic"),
    (5, 4, ((0, 2),), "shortest", "straight"),
    (5, 4, ((0, 1, 2),), "prefer-existing", "straight"),
    (5, 4, ((0, 1), (2, 3)), "prefer-existing", "geodesic"),
)

# build-wide: (degree, depth, hull leaf count)
_WIDE = (
    [(6, 2, h) for h in range(1, 6)]
    + [(7, 1, h) for h in range(1, 7)]
    + [(7, 2, h) for h in range(1, 5)]
    + [(8, 1, h) for h in range(1, 8)]
    + [(8, 2, 1), (8, 2, 2)]
)

# check: (degree, depth of the checked document, rotation class)
_CHECK = (
    (3, 3, ((0, 1),)),
    (3, 4, ((0, 1),)),
    (4, 3, ((0, 1),)),
    (4, 2, ((0, 1, 2),)),
    (4, 3, ((0, 1, 2),)),
    (5, 2, ((0, 1),)),
    (5, 2, ((0, 2),)),
    (5, 2, ((0, 1, 2),)),
    (5, 2, ((0, 1, 2, 3),)),
    (5, 2, ((0, 1), (2, 3))),
    (5, 3, ((0, 1),)),
)

# orbits: `rot orbits` grid and correspondence grid, as (degree, period)
_ROT = ((2, 9), (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (5, 4), (5, 5), (6, 4), (6, 5))
_CORR = ((2, 7), (2, 9), (3, 5), (3, 6), (4, 4), (4, 5), (4, 6), (5, 3), (5, 4), (5, 5), (6, 3), (6, 4))


def _coprime(q: int) -> list[int]:
    return [p for p in range(1, q) if math.gcd(p, q) == 1]


def strata(workload: str, api) -> list[list[Spec]]:
    """The workload's strata, each a list of equally costly job specs."""
    if workload == "build-deep":
        by_degree = {d: _classes(api, d) for d in (4, 5)}
        return [
            [
                Spec(
                    f"deep:d{d}:n{n}:{_blocks_str(P.blocks)}:{policy}:{style}",
                    "deep",
                    (d, P.blocks, n, policy, style),
                )
                for P in by_degree[d][cls]
            ]
            for d, n, cls, policy, style in _DEEP
        ]
    if workload == "build-wide":
        by_hull: dict[tuple[int, int], list] = {}
        for d in sorted({d for d, _, _ in _WIDE}):
            for P in api.enumerate_fpps(d):
                if P.blocks:
                    by_hull.setdefault((d, len(P.hull_leaves)), []).append(P)
        return [
            [
                Spec(f"wide:d{d}:n{n}:{_blocks_str(P.blocks)}", "wide", (d, P.blocks, n))
                for P in by_hull[(d, h)]
            ]
            for d, n, h in _WIDE
        ]
    if workload == "check":
        by_degree = {d: _classes(api, d) for d in (3, 4, 5)}
        return [
            [
                Spec(f"check:d{d}:n{n}:{_blocks_str(P.blocks)}", "check", (d, P.blocks, n))
                for P in by_degree[d][cls]
            ]
            for d, n, cls in _CHECK
        ]
    if workload == "orbits":
        out = [
            [
                Spec(f"rot:d{d}:q{q}:p{p}", "rot", (d, q, p))
                for p in [None] + _coprime(q)
            ]
            for d, q in _ROT
        ]
        # Every rotation number p/q on this grid has d - 1 orbits with a
        # unicritical anchor; make_reference.py runs every k and would fail
        # on a missing one.
        out += [
            [
                Spec(f"corr:d{d}:q{q}:p{p}:k{k}", "corr", (d, q, p, k))
                for p in _coprime(q)
                for k in range(d - 1)
            ]
            for d, q in _CORR
        ]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def universe(workload: str, api) -> list[Spec]:
    return [s for stratum in strata(workload, api) for s in stratum]


def draw(workload: str, seed: int, api) -> list[Spec]:
    """One member per stratum, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    picked = [rng.choice(stratum) for stratum in strata(workload, api)]
    rng.shuffle(picked)
    return picked


def command_of(spec: Spec, depth: int | None = None) -> str:
    """The `fpp canonical` command line recorded in a built document."""
    d, blocks, n = spec.args[:3]
    n = n if depth is None else depth
    return f"fpp canonical --degree {d} --fpp {_blocks_str(blocks)} --depth {n}"


def prepare(spec: Spec, api, lamlab) -> dict:
    """Inputs a job reads that a user would have produced beforehand."""
    if spec.kind == "deep" and spec.args[3] == "prefer-existing":
        d, blocks, n = spec.args[:3]
        P = lamlab.FixedPointPortrait(d, blocks)
        C = api.canonical_portraits(P)[0].as_critical_portrait()
        return {"F0": lamlab.Lamination(d, P.hull_leaves), "C": C, "P": P}
    if spec.kind == "check":
        d, blocks, n = spec.args
        P = lamlab.FixedPointPortrait(d, blocks)
        deeper = api.canonical_lamination(P, n + 1)
        shallow = replace(deeper, stages=deeper.stages[: n + 1])
        return {
            "file": api.write_document(api.document_from_state(shallow, command_of(spec))),
            "against": api.write_document(
                api.document_from_state(deeper, command_of(spec, n + 1))
            ),
            "portrait": api.write_portrait(deeper.portrait),
        }
    return {}


def _angle(t) -> str:
    v = t.value
    return f"{v.numerator}/{v.denominator}"


def _violations(vs) -> list:
    return [{"kind": v.check, "detail": v.detail} for v in vs]


def _build(spec: Spec, prepared: dict, api, lamlab) -> Output:
    d, blocks, n = spec.args[:3]
    if spec.kind == "deep" and spec.args[3] == "prefer-existing":
        state = api.pullback(prepared["F0"], prepared["C"], n, policy="prefer-existing")
        state = replace(state, fpp=prepared["P"])
    else:
        # lamlab fpp canonical --degree d --fpp blocks --depth n
        state = api.canonical_lamination(lamlab.FixedPointPortrait(d, blocks), n)
    doc = api.document_from_state(state, command_of(spec))
    text = api.write_document(doc)
    out = Output(doc=text)
    out.rows.append({"status": "ok", "degree": d, "depth": n, "leaves": len(doc.leaves)})
    if spec.kind == "deep":
        # `lamlab render --file doc --style ...` reads the document back
        style = spec.args[4]
        svg = api.write_svg(api.read_document(text), lamlab.RenderSpec(style=style))
        out.svg = svg
        out.rows.append({"status": "ok", "leaves": len(doc.leaves), "style": style})
    return out


def _check(spec: Spec, prepared: dict, api, lamlab) -> Output:
    out = Output()
    # lamlab lam check --file F --against G
    doc = api.read_document(prepared["file"])
    L = doc.lamination()
    pre = api.validate_prelamination(L)
    out.rows.append({"check": "prelamination", "leaves": len(doc.leaves), "violations": _violations(pre)})
    other = api.read_document(prepared["against"])
    inv = api.check_invariance(L, other.lamination())
    out.rows.append({"check": "invariance", "violations": _violations(inv)})
    # the canonical-construction diagnostics of the checked document
    report = api.clp_checks(api.pullback_state(doc))
    out.rows.append(
        {
            "check": "clp",
            "ok": report.ok,
            "escape_failures": len(report.escape_failures),
            "length_failures": len(report.length_failures),
            "gap_depths": [r.gap_depth for r in report.sector_reports],
        }
    )
    # lamlab classify --file F --portrait C
    doc = api.read_document(prepared["file"])
    C = api.read_portrait(prepared["portrait"])
    L = doc.lamination()
    for i, S in enumerate(api.fixed_sectors(doc.fpp)):
        try:
            res = api.classify_sector(L, C, S)
        except lamlab.InsufficientDepthError as exc:
            out.rows.append({"sector": i, "status": "insufficient", "error": str(exc)})
            continue
        out.rows.append(
            {
                "sector": i,
                "case": res.case,
                "witness_type": res.witness_type,
                "rotation": None if res.rotation is None else str(res.rotation),
                "subtended": [o.subtended for o in res.objects],
                "witness": [_angle(x) for x in res.witness.vertices],
            }
        )
    return out


def _orbit_row(d: int, q: int, p, orbits) -> dict:
    return {
        "degree": d,
        "period": q,
        "rotation": None if p is None else f"{p}/{q}",
        "count": len(orbits),
        "orbits": [[_angle(x) for x in o.points] for o in orbits],
    }


def _pair_row(pair) -> dict:
    return {
        "polygon": [_angle(x) for x in pair.polygon.points],
        "rotation": str(pair.polygon.rotation),
        "local_degree": pair.local_degree,
        "all_critical": [_angle(x) for x in pair.all_critical],
        "max_polygon": [_angle(x) for x in pair.max_polygon.points],
        "majors": [[_angle(l.a), _angle(l.b)] for l in pair.majors],
        "coroots": [_angle(x) for x in pair.coroots],
    }


def _rot(spec: Spec, prepared: dict, api, lamlab) -> Output:
    d, q, p = spec.args
    return Output(rows=[_orbit_row(d, q, p, api.enumerate_rotational_orbits(d, q, p))])


def _corr(spec: Spec, prepared: dict, api, lamlab) -> Output:
    """rot orbits --rotation p/q, then the k-th anchored orbit through
    corr uni-to-max and corr max-to-uni on its unicritical lamination."""
    d, q, p, k = spec.args
    orbits = api.enumerate_rotational_orbits(d, q, p)
    anchored = []
    for o in orbits:
        verts = api.unicritical_anchor(d, o)
        if verts is not None:
            anchored.append((o, verts))
    orbit, verts = anchored[k]
    F0 = lamlab.Lamination(d, frozenset(orbit.hull_sides()))
    sides = (lamlab.Leaf(*verts),) if d == 2 else lamlab.Polygon(verts).sides
    state = api.pullback(F0, lamlab.CriticalPortrait(d, frozenset(sides)), 2)
    there = api.uni_to_max(state, orbit)
    back = api.max_to_uni(state, lamlab.Polygon(there.max_polygon.points))
    return Output(
        rows=[
            {"orbits": len(orbits), "anchored": len(anchored), "anchor": [_angle(x) for x in verts]},
            _pair_row(there),
            _pair_row(back),
        ]
    )


RUNNERS = {"deep": _build, "wide": _build, "check": _check, "rot": _rot, "corr": _corr}


def run(spec: Spec, prepared: dict, api, lamlab) -> Output:
    return RUNNERS[spec.kind](spec, prepared, api, lamlab)
