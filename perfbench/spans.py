"""Spans around the benchmark's calls into lamlab, and the per-layer table.

Jobs never call lamlab directly: they go through an `Api` object whose
attributes are the library's public functions.  Untraced, those attributes
are the functions themselves.  Traced, each one is wrapped so that a call
records a span (name, start, end, parent, job id) and bumps the counters of
its layer.  Spans stay in memory and are written out when the run ends.

The layers are the modules of `src/lamlab`.  `circle` has no public entry
point the jobs call, so its cost shows up inside every other span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# (attribute on Api, module, function name, busy metric it feeds)
BOUNDARIES = (
    ("enumerate_fpps", "fpp", "enumerate_fpps", "fpp.busy_s"),
    ("canonical_portraits", "fpp", "canonical_portraits", "fpp.busy_s"),
    ("fixed_sectors", "fpp", "fixed_sectors", "fpp.busy_s"),
    ("canonical_lamination", "pullback", "canonical_lamination", "pullback.busy_s"),
    ("pullback", "pullback", "pullback", "pullback.busy_s"),
    ("clp_checks", "pullback", "clp_checks", "pullback.clp_busy_s"),
    ("classify_sector", "pullback", "classify_sector", "pullback.classify_busy_s"),
    ("validate_prelamination", "leaves", "validate_prelamination", "leaves.validate_busy_s"),
    ("check_invariance", "leaves", "check_invariance", "leaves.invariance_busy_s"),
    ("enumerate_rotational_orbits", "rotation", "enumerate_rotational_orbits", "rotation.orbits_busy_s"),
    ("unicritical_anchor", "rotation", "unicritical_anchor", "rotation.anchor_busy_s"),
    ("uni_to_max", "rotation", "uni_to_max", "rotation.corr_busy_s"),
    ("max_to_uni", "rotation", "max_to_uni", "rotation.corr_busy_s"),
    ("document_from_state", "docio", "document_from_state", "docio.write_busy_s"),
    ("write_document", "docio", "write_document", "docio.write_busy_s"),
    ("write_portrait", "docio", "write_portrait", "docio.write_busy_s"),
    ("write_svg", "docio", "write_svg", "docio.svg_busy_s"),
    ("read_document", "docio", "read_document", "docio.read_busy_s"),
    ("read_portrait", "docio", "read_portrait", "docio.read_busy_s"),
    ("pullback_state", "docio", "LaminationDocument.pullback_state", "docio.read_busy_s"),
)

LAYERS = ("cli", "fpp", "pullback", "leaves", "rotation", "docio", "circle", "bench")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str


def _pullback_counts(c: dict, args: tuple, state) -> None:
    # Sibling searches at stage k are the leaves new at stage k-1; each
    # places d chords, and those not already present become new leaves.
    d = state.degree
    frontier = sum(len(state.frontier(k - 1)) for k in range(1, state.depth + 1))
    added = len(state.final.leaves) - len(state.stages[0].leaves)
    c["pullback.calls"] += 1
    c["pullback.frontier_leaves"] += frontier
    c["pullback.leaves_out"] += len(state.final.leaves)
    c["pullback.placed"] += d * frontier
    c["pullback.reused"] += d * frontier - added


def _count(key: str, size=None):
    def hook(c: dict, args: tuple, result) -> None:
        c[key] += 1 if size is None else size(args, result)

    return hook


COUNTERS = {
    "enumerate_fpps": _count("fpp.portraits", lambda a, r: len(r)),
    "canonical_lamination": _pullback_counts,
    "pullback": _pullback_counts,
    "clp_checks": _count("pullback.clp_not_ok", lambda a, r: int(not r.ok)),
    "validate_prelamination": _count("leaves.validate_leaves", lambda a, r: len(a[0].leaves)),
    "enumerate_rotational_orbits": _count("rotation.orbits_out", lambda a, r: len(r)),
    "unicritical_anchor": _count("rotation.anchor_calls"),
    "write_document": _count("docio.write_bytes", lambda a, r: len(r)),
    "write_svg": _count("docio.svg_bytes", lambda a, r: len(r)),
}


@dataclass
class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    job: str = ""
    _stack: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts = {
            k: 0
            for k in (
                "fpp.portraits",
                "pullback.calls",
                "pullback.frontier_leaves",
                "pullback.leaves_out",
                "pullback.placed",
                "pullback.reused",
                "pullback.clp_not_ok",
                "pullback.classify_insufficient",
                "leaves.validate_leaves",
                "rotation.orbits_out",
                "rotation.anchor_calls",
                "rotation.anchor_none",
                "docio.write_bytes",
                "docio.svg_bytes",
            )
        }

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, attr: str, module: str, fn):
        name = f"{module}.{fn.__qualname__}"
        hook = COUNTERS.get(attr)
        insufficient = attr == "classify_sector"
        anchor = attr == "unicritical_anchor"

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if insufficient and type(exc).__name__ == "InsufficientDepthError":
                    self.counts["pullback.classify_insufficient"] += 1
                raise
            finally:
                self.close(idx)
            if hook is not None:
                hook(self.counts, args, result)
            if anchor and result is None:
                self.counts["rotation.anchor_none"] += 1
            return result

        return traced


class Api:
    """The lamlab entry points the jobs use, optionally traced."""

    def __init__(self, lamlab_modules: dict, tracer: Tracer | None = None):
        for attr, module, fname, _ in BOUNDARIES:
            fn = lamlab_modules[module]
            for part in fname.split("."):
                fn = getattr(fn, part)
            setattr(self, attr, fn if tracer is None else tracer.wrap(attr, module, fn))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def layer_table(spans: list[Span], passes: int) -> dict[str, dict[str, float]]:
    """Calls and self time per layer, divided by the number of passes."""
    table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for s, own in zip(spans, self_times(spans)):
        row = table[layer_of(s.name)]
        row["calls"] += 1
        row["self_s"] += own
    return {
        layer: {"calls": row["calls"] / passes, "self_s": row["self_s"] / passes}
        for layer, row in table.items()
    }


def busy_by_metric(spans: list[Span]) -> dict[str, float]:
    """Wall time inside each busy metric's library calls."""
    by_name = {f"{module}.{fname}": metric for _, module, fname, metric in BOUNDARIES}
    out = {metric: 0.0 for metric in by_name.values()}
    for s in spans:
        metric = by_name.get(s.name)
        if metric is not None:
            out[metric] += s.end - s.start
    return out
