"""Command line front end.

Reports go to stdout as JSON lines carrying a `status` field; the one
exception is `rot number`, which prints the bare fraction.  Exit codes:
0 success, 1 validation failure (report still printed), 2 usage error.
All output is deterministic, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .circle import CirclePoint, _rational, parse_angle
from .fpp import FixedPointPortrait, enumerate_fpps, fixed_sectors, fpps_up_to_rotation
from .leaves import _MAX_FIXED_POINTS, Polygon, check_invariance, validate_prelamination
from .pullback import canonical_lamination, classify_sector
from .rotation import (
    RotationalOrbit,
    enumerate_rotational_orbits,
    max_to_uni,
    rotation_number,
    uni_to_max,
)
from .docio import (
    LaminationDocument,
    RenderSpec,
    document_from_state,
    format_angle,
    read_document,
    write_document,
    write_svg,
)

__all__ = ["main"]

# `fpp canonical` builds at most |F0| * (d^(n+1) - 1)/(d - 1) leaves in n
# stages; for the 29,524 of degree 3, portrait 0-1, depth 9 the whole command
# takes about 0.43 s and 34 MB max RSS on a 2-CPU Xeon, 0.16 s of it in
# pullback, whose time grows with the leaf count (about 5.5 us per leaf at
# depths 8 to 10)
MAX_LEAVES = 50_000
# `fpp canonical` refuses a degree whose d - 1 fixed points exceed the
# library's bound before it builds the portrait.  The leaf cap alone does not
# bound the work: without this bound `--fpp none --depth 0` at degree 10^6
# passes the leaf cap.  At the bound, degree 101, `--fpp none --depth 0`
# takes about 0.25 s and 20 MB max RSS on a 2-CPU Xeon
MAX_FIXED_POINTS = _MAX_FIXED_POINTS
# `render` refuses a document's degree whose d - 1 fixed points exceed this
# before it draws, since it draws one dot per fixed point; a one-leaf
# document at the bound, degree 100,001, takes about 0.35 s and 42 MB max RSS
# on a 2-CPU Xeon and writes 6.4 MB of SVG
MAX_DRAWN_FIXED_POINTS = 100_000
# `rot orbits` reads C(q+d-1, q) digit tuples per rotation number p/q; the
# 92,378 of degree 10, rotation 1/10 take about 3 s with their 12 MB of
# output on a 2-CPU Xeon
MAX_ORBIT_TUPLES = 100_000
# `fpp enum` builds all Catalan(d - 1) portraits of degree d, also when it
# prints them up to rotation; the 16,796 of degree 11 take about 1 s either
# way on a 2-CPU Xeon, and degree 12 has 58,786
MAX_PORTRAITS = 20_000


class _CliError(Exception):
    """Abort the current command with a specific exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def _usage(message: str) -> _CliError:
    return _CliError(2, message)


def _invalid(message: str) -> _CliError:
    return _CliError(1, message)


def _check_degree_arg(d: int) -> int:
    if d < 2:
        raise _usage(f"degree must be at least 2, got {d}")
    return d


def _check_fixed_points(d: int, limit: int) -> None:
    if d - 1 > limit:
        raise _usage(f"degree {d} means {d - 1} fixed points; the limit is {limit}")


def _parse_points(text: str, d: int) -> tuple[CirclePoint, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise _usage("expected a comma separated list of angles")
    out = []
    for p in parts:
        try:
            out.append(parse_angle(p, d))
        except ValueError as exc:
            raise _usage(str(exc)) from None
    return tuple(out)


def _parse_blocks(text: str) -> tuple[tuple[int, ...], ...]:
    text = text.strip()
    if text in ("", "none"):
        return ()
    blocks = []
    for part in text.split(","):
        try:
            block = tuple(int(i) for i in part.split("-"))
        except ValueError:
            raise _usage(
                f"malformed block {part!r}: expected dash separated indices like 0-1"
            ) from None
        if len(block) < 2:
            raise _usage(f"block {part!r} needs at least two indices")
        blocks.append(block)
    return tuple(blocks)


def _blocks_str(P: FixedPointPortrait) -> str:
    if not P.blocks:
        return "none"
    return ",".join("-".join(str(i) for i in b) for b in P.blocks)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _usage(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _usage(f"cannot write {path}: {exc}") from None


def _load_document(path: str) -> LaminationDocument:
    text = _read_text(path)
    try:
        return read_document(text)
    except ValueError as exc:
        raise _invalid(f"{path}: {exc}") from None


def _load_prelamination(path: str) -> LaminationDocument:
    """Load a document whose leaves must not cross, as face subdivisions require."""
    doc = _load_document(path)
    bad = validate_prelamination(doc.lamination())
    if bad:
        raise _invalid(f"{path}: not a pre-lamination: {bad[0].detail}")
    return doc


def _violation_rows(violations) -> list[dict]:
    return [{"kind": v.check, "detail": v.detail} for v in violations]


def _cmd_fpp_enum(args: argparse.Namespace) -> int:
    d = _check_degree_arg(args.degree)
    count = _portrait_count(d)
    if count is None or count > MAX_PORTRAITS:
        shown = f"more than {10 * MAX_PORTRAITS}" if count is None else str(count)
        raise _usage(
            f"degree {d} means {shown} portraits to enumerate; the limit is {MAX_PORTRAITS}"
        )
    portraits = fpps_up_to_rotation(d) if args.up_to_rotation else enumerate_fpps(d)
    obj = {
        "status": "ok",
        "degree": d,
        "up_to_rotation": bool(args.up_to_rotation),
        "count": len(portraits),
        "portraits": [[list(b) for b in P.blocks] for P in portraits],
    }
    _emit(obj)
    if args.json:
        _write_text(args.json, json.dumps(obj, indent=2) + "\n")
    return 0


def _cmd_fpp_canonical(args: argparse.Namespace) -> int:
    d = _check_degree_arg(args.degree)
    _check_fixed_points(d, MAX_FIXED_POINTS)
    if args.depth < 0:
        raise _usage("depth must be >= 0")
    blocks = _parse_blocks(args.fpp)
    try:
        P = FixedPointPortrait(d, blocks)
    except ValueError as exc:
        raise _usage(str(exc)) from None
    work = _leaf_work(len(P.hull_leaves), d, args.depth)
    if work is None or work > MAX_LEAVES:
        shown = f"more than {10 * MAX_LEAVES}" if work is None else str(work)
        raise _usage(
            f"degree {d}, depth {args.depth} and {len(P.hull_leaves)} initial leaves "
            f"mean {shown} leaves and stages to build; the limit is {MAX_LEAVES}"
        )
    try:
        state = canonical_lamination(P, args.depth)
    except ValueError as exc:
        raise _invalid(str(exc)) from None
    command = f"fpp canonical --degree {d} --fpp {_blocks_str(P)} --depth {args.depth}"
    doc = document_from_state(state, command)
    _write_text(args.out, write_document(doc))
    _emit(
        {
            "status": "ok",
            "out": args.out,
            "degree": d,
            "depth": args.depth,
            "leaves": len(doc.leaves),
        }
    )
    return 0


def _cmd_lam_check(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    L = doc.lamination()
    rc = 0
    pre = validate_prelamination(L)
    _emit(
        {
            "status": "ok" if not pre else "fail",
            "check": "prelamination",
            "degree": doc.degree,
            "leaves": len(doc.leaves),
            "violations": _violation_rows(pre),
        }
    )
    if pre:
        rc = 1
    if args.against:
        other = _load_document(args.against)
        try:
            inv = check_invariance(L, other.lamination())
        except ValueError as exc:
            _emit({"status": "fail", "check": "invariance", "error": str(exc)})
            return 1
        _emit(
            {
                "status": "ok" if not inv else "fail",
                "check": "invariance",
                "against": args.against,
                "violations": _violation_rows(inv),
            }
        )
        if inv:
            rc = 1
    return rc


def _portrait_count(d: int) -> int | None:
    """The Catalan(d - 1) portraits of degree d.  None once the count exceeds
    ten times MAX_PORTRAITS, so a huge degree never forms a huge number or a
    long loop."""
    count = 1
    for k in range(d - 1):
        # Catalan(k + 1) = Catalan(k) * 2(2k + 1)/(k + 2), which at least
        # doubles it from k = 1 on
        count = count * 2 * (2 * k + 1) // (k + 2)
        if count > 10 * MAX_PORTRAITS:
            return None
    return count


def _leaf_work(leaves: int, d: int, n: int) -> int | None:
    """The leaves n pullback stages of `leaves` initial ones can hold, leaves *
    (d^(n+1) - 1)/(d - 1), plus one per stage, so that an empty start still
    counts its stages.  None once the sum exceeds ten times MAX_LEAVES, so a
    huge degree or depth never forms a huge number or a long loop.  Choosing
    the sibling matching of one leaf takes time polynomial in d (an interval
    DP over its 2d fibre points), so this cap bounds the work only together
    with MAX_FIXED_POINTS, which bounds d."""
    total, stage = 0, leaves
    # each stage adds at least one, which bounds the loop
    for _ in range(n + 1):
        total += stage + 1
        if total > 10 * MAX_LEAVES:
            return None
        stage *= d
    return total


def _orbit_tuples(d: int, q: int, one_rotation: bool) -> int | None:
    """The digit tuples `rot orbits` reads: C(q+d-1, q) for each of the phi(q)
    rotation numbers p/q, or for one.  None once a single C(q+d-1, q) exceeds
    ten times MAX_ORBIT_TUPLES, so a huge degree or period never forms a huge
    number or a long loop."""
    ceiling = 10 * MAX_ORBIT_TUPLES
    n, k = q + d - 1, min(q, d - 1)
    per = 1
    for i in range(1, k + 1):
        # C(n - k + i, i) at each step; C(n, k) grows at least like 2^k
        per = per * (n - k + i) // i
        if per > ceiling:
            return None
    if one_rotation:
        return per
    # q <= C(n, k) <= ceiling, which bounds the loop
    return per * sum(1 for s in range(q) if math.gcd(s, q) == 1)


def _orbit_angles(D: int, nums: tuple[int, ...]) -> list[str]:
    """format_angle of each point nums[i]/D, read off the orbit's integer view."""
    return [f"{x // g}/{D // g}" for x in nums for g in (math.gcd(x, D),)]


def _cmd_rot_orbits(args: argparse.Namespace) -> int:
    d = _check_degree_arg(args.degree)
    q = args.period
    if q < 1:
        raise _usage("period must be >= 1")
    p = None
    if args.rotation is not None:
        terms = _rational(args.rotation.strip())
        if terms is None:
            raise _usage(f"malformed rotation number {args.rotation!r}")
        rho = Fraction(*terms)
        if rho.denominator != q or not 0 <= rho < 1:
            raise _usage(
                f"rotation {args.rotation} is not of the form p/{q} in lowest terms"
            )
        p = rho.numerator
    count = _orbit_tuples(d, q, p is not None)
    if count is None or count > MAX_ORBIT_TUPLES:
        shown = f"more than {10 * MAX_ORBIT_TUPLES}" if count is None else str(count)
        raise _usage(
            f"degree {d} and period {q} mean {shown} digit tuples to read; "
            f"the limit is {MAX_ORBIT_TUPLES}"
        )
    try:
        orbits = enumerate_rotational_orbits(d, q, p)
    except ValueError as exc:
        raise _usage(str(exc)) from None
    _emit(
        {
            "status": "ok",
            "degree": d,
            "period": q,
            "rotation": None if p is None else f"{p}/{q}",
            "count": len(orbits),
            "orbits": [
                {"points": _orbit_angles(*o._scaled), "rotation": str(o.rotation)}
                for o in orbits
            ],
        }
    )
    return 0


def _cmd_rot_number(args: argparse.Namespace) -> int:
    d = _check_degree_arg(args.degree)
    pts = _parse_points(args.points, d)
    try:
        rho = rotation_number(d, pts)
    except ValueError as exc:
        raise _invalid(str(exc)) from None
    print(rho)
    return 0


def _correspondence_obj(pair) -> dict:
    return {
        "status": "ok",
        "polygon": [format_angle(x) for x in pair.polygon.points],
        "rotation": str(pair.polygon.rotation),
        "local_degree": pair.local_degree,
        "all_critical": [format_angle(x) for x in pair.all_critical],
        "max_polygon": [format_angle(x) for x in pair.max_polygon.points],
        "max_rotation": str(pair.max_polygon.rotation),
        "majors": [[format_angle(l.a), format_angle(l.b)] for l in pair.majors],
        "coroots": [format_angle(x) for x in pair.coroots],
    }


def _cmd_corr(args: argparse.Namespace) -> int:
    doc = _load_prelamination(args.file)
    pts = _parse_points(args.polygon, doc.degree)
    try:
        state = doc.pullback_state()
        if args.op == "uni-to-max":
            pair = uni_to_max(state, RotationalOrbit(doc.degree, pts))
        else:
            pair = max_to_uni(state, Polygon(pts))
    except ValueError as exc:
        raise _invalid(str(exc)) from None
    _emit(_correspondence_obj(pair))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    doc = _load_prelamination(args.file)
    C = doc.portrait
    if C is None:
        raise _invalid("document has no critical portrait to classify against")
    P = doc.fpp if doc.fpp is not None else FixedPointPortrait(doc.degree, ())
    L = doc.lamination()
    rc = 0
    for i, S in enumerate(fixed_sectors(P)):
        try:
            res = classify_sector(L, C, S)
        except ValueError as exc:
            _emit({"status": "fail", "sector": i, "error": str(exc)})
            rc = 1
            continue
        _emit(
            {
                "status": "ok",
                "sector": i,
                "case": res.case,
                "witness_type": res.witness_type,
                "rotation": None if res.rotation is None else str(res.rotation),
                "subtended": [o.subtended for o in res.objects],
                "witness": [format_angle(x) for x in res.witness.vertices],
            }
        )
    return rc


def _cmd_render(args: argparse.Namespace) -> int:
    doc = _load_document(args.file)
    _check_fixed_points(doc.degree, MAX_DRAWN_FIXED_POINTS)
    try:
        spec = RenderSpec(size=args.size, style=args.style, labels=args.labels)
    except ValueError as exc:
        raise _usage(str(exc)) from None
    try:
        svg = write_svg(doc, spec)
    except ValueError as exc:
        raise _invalid(str(exc)) from None
    _write_text(args.out, svg)
    _emit({"status": "ok", "out": args.out, "leaves": len(doc.leaves)})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamlab",
        description="Invariant laminations under angle d-tupling, exactly.",
    )
    parser.add_argument("--version", action="version", version=f"lamlab {__version__}")
    top = parser.add_subparsers(dest="group", required=True)

    fpp = top.add_parser("fpp", help="fixed point portraits")
    fpp_sub = fpp.add_subparsers(dest="op", required=True)
    enum = fpp_sub.add_parser("enum", help="enumerate portraits for a degree")
    enum.add_argument("--degree", type=int, required=True)
    enum.add_argument("--up-to-rotation", action="store_true")
    enum.add_argument("--json", metavar="PATH", help="also write the report here")
    enum.set_defaults(func=_cmd_fpp_enum)
    canon = fpp_sub.add_parser("canonical", help="build the canonical lamination")
    canon.add_argument("--degree", type=int, required=True)
    canon.add_argument(
        "--fpp",
        required=True,
        help="blocks of fixed point indices, e.g. 0-1,2-3; 'none' for no blocks",
    )
    canon.add_argument("--depth", type=int, required=True)
    canon.add_argument("--out", required=True, metavar="PATH")
    canon.set_defaults(func=_cmd_fpp_canonical)

    lam = top.add_parser("lam", help="lamination checks")
    lam_sub = lam.add_subparsers(dest="op", required=True)
    check = lam_sub.add_parser("check", help="validate a lamination document")
    check.add_argument("--file", required=True, metavar="PATH")
    check.add_argument(
        "--against", metavar="PATH", help="later stage to test invariance into"
    )
    check.set_defaults(func=_cmd_lam_check)

    rot = top.add_parser("rot", help="rotational sets")
    rot_sub = rot.add_subparsers(dest="op", required=True)
    orbits = rot_sub.add_parser("orbits", help="enumerate rotational orbits")
    orbits.add_argument("--degree", type=int, required=True)
    orbits.add_argument("--period", type=int, required=True)
    orbits.add_argument("--rotation", metavar="P/Q", help="keep one rotation number")
    orbits.set_defaults(func=_cmd_rot_orbits)
    number = rot_sub.add_parser("number", help="rotation number of a finite set")
    number.add_argument("--degree", type=int, required=True)
    number.add_argument("--points", required=True, metavar="A,B,...")
    number.set_defaults(func=_cmd_rot_number)

    corr = top.add_parser("corr", help="unicritical correspondence")
    corr_sub = corr.add_subparsers(dest="op", required=True)
    for op, text in (
        ("uni-to-max", "q-gon to maximally critical gon"),
        ("max-to-uni", "maximally critical gon to q-gon"),
    ):
        sub = corr_sub.add_parser(op, help=text)
        sub.add_argument("--file", required=True, metavar="PATH")
        sub.add_argument("--polygon", required=True, metavar="A,B,...")
        sub.set_defaults(func=_cmd_corr)

    classify = top.add_parser("classify", help="classify fixed sectors")
    classify.add_argument("--file", required=True, metavar="PATH")
    classify.set_defaults(func=_cmd_classify)

    render = top.add_parser("render", help="draw a document as SVG")
    render.add_argument("--file", required=True, metavar="PATH")
    render.add_argument("--out", required=True, metavar="PATH")
    render.add_argument("--style", choices=("straight", "geodesic"), default="straight")
    render.add_argument("--labels", choices=("dnary", "rational"), default=None)
    render.add_argument("--size", type=int, default=600)
    render.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except _CliError as exc:
        if exc.code == 2:
            print(f"lamlab: error: {exc.message}", file=sys.stderr)
        else:
            _emit({"status": "fail", "error": exc.message})
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
