"""lamlab benchmark: closed-loop command workloads with per-layer spans.

    python3 perfbench/run.py --workload build-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One client, one process, one thread.  A run sets up its inputs three
times, then repeats passes over the seeded job list, each job sent when the
previous one has finished, until `--seconds` have passed and the current
pass is complete.  Job times are scaled to a reference machine speed by a
calibration probe timed around each job and each set-up step (see
`speed.py`); wall times are kept in the result file.  `setup_s` is the
median scaled set-up plus the median wall time to import lamlab in a fresh
interpreter, sampled twice after each set-up and twice after each pass:
starting an interpreter and importing do not track the probe.
Every output is compared with the SHA-256 digests in `reference.json` and
with the independent oracles in `oracles.py`, outside the timed region.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced passes, which call lamlab directly, and traced passes, which call
it through the span wrappers; it reports the per-layer metrics of one
set-up plus one traced pass, and the tracing overhead as traced job time
against untraced job time.  Results, the per-layer table and the span dump
go to `perfbench/out/`.  The last line of standard output is one JSON
object; a run whose outputs fail a check exits with code 1.

Run from a checkout of the repository: the library is imported from the
checkout's `src/`.  Without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT_SAMPLES = 2  # fresh imports timed after each set-up and after each pass
TAIL_RANK = 3  # latency_tail_s is the third-slowest job

import jobs  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

# Small jobs of every kind, run once per set-up so that lazy imports and
# first-call costs land before timing and every layer shows in the trace.
WARMUP = (
    jobs.Spec("warmup:deep", "deep", (3, ((0, 1),), 1, "prefer-existing", "straight")),
    jobs.Spec("warmup:check", "check", (3, ((0, 1),), 1)),
    jobs.Spec("warmup:rot", "rot", (2, 3, None)),
    jobs.Spec("warmup:corr", "corr", (2, 3, 1, 0)),
)


def load_lamlab():
    if not (SRC / "lamlab" / "__init__.py").is_file():
        print(f"perfbench: no lamlab sources under {SRC}; run from a repository checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import importlib

    import lamlab

    if Path(lamlab.__file__).resolve().parent != (SRC / "lamlab").resolve():
        print(f"perfbench: imported lamlab from {lamlab.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    # lamlab re-exports a function named `pullback`, so look modules up by path
    modules = {
        name: importlib.import_module(f"lamlab.{name}")
        for name in ("fpp", "pullback", "leaves", "rotation", "docio")
    }
    return lamlab, modules


def fresh_import_s(module: str) -> float:
    """Seconds to import `module` in a new interpreter, measured inside it."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        f"t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"importing {module} failed: {done.stderr.strip()}")
    return float(done.stdout.strip())


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    try:
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if got.returncode == 0:
            commit = got.stdout.strip()
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "lamlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def setup(workload: str, seed: int, api, lamlab) -> tuple[list, list, speed.Clock]:
    """Draw the job list, build the inputs it reads, and warm up.

    Each step is timed between two probes, as a job is, so that the set-up
    time can be scaled to the reference speed.
    """
    clock = speed.Clock()
    specs = clock.time(lambda: jobs.draw(workload, seed, api))
    prepared = [clock.time(lambda: jobs.prepare(s, api, lamlab)) for s in specs]
    for w in WARMUP:
        clock.time(lambda: jobs.run(w, jobs.prepare(w, api, lamlab), api, lamlab))
    return specs, prepared, clock


def latency_metrics(per_pass: list[list[float]]) -> tuple[float, float, float, int]:
    """jobs_per_s, p50, tail, and the index in the job list of the tail job.

    A job's latency is its median over the passes, which damps the drift
    in machine speed between passes.  The tail is the TAIL_RANK-slowest
    job's latency: a rank in the fixed job list, which the number of passes
    cannot move.
    """
    medians = [statistics.median(col) for col in zip(*per_pass)]
    tail_job = sorted(range(len(medians)), key=medians.__getitem__)[-TAIL_RANK]
    return len(medians) / sum(medians), statistics.median(medians), medians[tail_job], tail_job


class Runner:
    """Runs passes over the job list and checks every output."""

    def __init__(self, specs, prepared, reference, lamlab):
        self.specs = specs
        self.prepared = prepared
        self.reference = reference
        self.lamlab = lamlab
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checked: set[str] = set()

    def one_pass(self, number: int, api, tracer=None) -> float:
        """Run every job once through `api`; returns the summed scaled job time.

        With a tracer (whose wrappers `api` holds), each job is a span.
        """
        gc.collect()
        busy = 0.0
        before = speed.probe()
        self.probes.append(before)
        for i, (spec, prep) in enumerate(zip(self.specs, self.prepared)):
            span = None
            if tracer is not None:
                tracer.job = f"{number}:{i}:{spec.key}"
                span = tracer.open(f"job.{spec.kind}")
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = jobs.run(spec, prep, api, self.lamlab)
            except Exception:
                t1 = time.perf_counter()
                self.failed += 1
                self.problems.append(f"{spec.key}: raised\n{traceback.format_exc()}")
                out = None
            else:
                t1 = time.perf_counter()
            if span is not None:
                tracer.close(span)
            after = speed.probe()
            self.probes.append(after)
            scaled = speed.scale(t1 - t0, before, after)
            before = after
            self.wall.append(t1 - t0)
            self.latencies.append(scaled)
            busy += scaled
            if out is not None:
                self.verify(spec, out)
        return busy

    def verify(self, spec, out) -> None:
        want = self.reference.get(spec.key)
        got = oracles.output_digests(out)
        bad = []
        if want is None:
            bad.append(f"{spec.key}: no reference digests")
        elif got != want:
            bad.append(f"{spec.key}: output digests differ from the reference in {sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))}")
        if spec.key not in self.checked:
            self.checked.add(spec.key)
            bad += oracles.check_output(spec, out)
        if bad:
            self.failed += 1
            self.problems += bad


def layer_metrics(setup_spans, pass_spans, setup_counts, pass_counts, passes, overhead, cli_import_s) -> dict:
    per_pass = {k: v / passes for k, v in spans.busy_by_metric(pass_spans).items()}
    busy = {k: v + per_pass[k] for k, v in spans.busy_by_metric(setup_spans).items()}
    c = {k: setup_counts[k] + pass_counts[k] / passes for k in setup_counts}
    frontier = c["pullback.frontier_leaves"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cli.import_s": (cli_import_s, "s"),
        "fpp.busy_s": (busy["fpp.busy_s"], "s"),
        "fpp.portraits": (c["fpp.portraits"], "count"),
        "pullback.busy_s": (busy["pullback.busy_s"], "s"),
        "pullback.calls": (c["pullback.calls"], "count"),
        "pullback.frontier_leaves": (frontier, "count"),
        "pullback.leaves_out": (c["pullback.leaves_out"], "count"),
        "pullback.reuse_ratio": (ratio(c["pullback.reused"], c["pullback.placed"]), "ratio"),
        "pullback.us_per_frontier_leaf": (ratio(1e6 * busy["pullback.busy_s"], frontier), "us"),
        "pullback.clp_busy_s": (busy["pullback.clp_busy_s"], "s"),
        "pullback.clp_not_ok": (c["pullback.clp_not_ok"], "count"),
        "pullback.classify_busy_s": (busy["pullback.classify_busy_s"], "s"),
        "pullback.classify_insufficient": (c["pullback.classify_insufficient"], "count"),
        "leaves.validate_busy_s": (busy["leaves.validate_busy_s"], "s"),
        "leaves.validate_leaves": (c["leaves.validate_leaves"], "count"),
        "leaves.invariance_busy_s": (busy["leaves.invariance_busy_s"], "s"),
        "rotation.orbits_busy_s": (busy["rotation.orbits_busy_s"], "s"),
        "rotation.orbits_out": (c["rotation.orbits_out"], "count"),
        "rotation.anchor_busy_s": (busy["rotation.anchor_busy_s"], "s"),
        "rotation.anchor_none_ratio": (ratio(c["rotation.anchor_none"], c["rotation.anchor_calls"]), "ratio"),
        "rotation.corr_busy_s": (busy["rotation.corr_busy_s"], "s"),
        "docio.write_busy_s": (busy["docio.write_busy_s"], "s"),
        "docio.write_bytes": (c["docio.write_bytes"], "bytes"),
        "docio.svg_busy_s": (busy["docio.svg_busy_s"], "s"),
        "docio.svg_bytes": (c["docio.svg_bytes"], "bytes"),
        "docio.read_busy_s": (busy["docio.read_busy_s"], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    lamlab, modules = load_lamlab()
    reference = json.loads((HERE / "reference.json").read_text())["jobs"]
    api = spans.Api(modules)
    tracer = spans.Tracer(job="setup") if trace else None
    traced_api = spans.Api(modules, tracer) if trace else None

    # Importing in a fresh interpreter is the noisiest part of set-up, and its
    # time comes in spells, so it is also sampled after every pass; `setup_s`
    # is taken when the passes are done.  Only the last set-up is traced.
    setup_times, setup_wall, import_times = [], [], []
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        specs, prepared, clock = setup(workload, seed, traced_api if trace and last else api, lamlab)
        setup_times.append(clock.scaled)
        setup_wall.append(clock.wall)
        import_times += [fresh_import_s("lamlab") for _ in range(IMPORT_SAMPLES)]
    setup_problems = [
        f"{spec.key}: prepared {name} document has crossing leaves"
        for spec, prep in zip(specs, prepared)
        for name in ("file", "against")
        if name in prep and oracles.crossing(oracles.leaf_pairs(prep[name])) is not None
    ]

    setup_spans, setup_counts = [], {}
    if tracer is not None:
        setup_spans, setup_counts = tracer.spans, tracer.counts
        tracer.spans = []
        tracer.reset_counts()
    runner = Runner(specs, prepared, reference, lamlab)

    start = time.perf_counter()
    passes = traced_passes = 0
    busy_plain = busy_traced = 0.0
    while True:
        traced = trace and passes % 2 == 1
        busy = runner.one_pass(passes, traced_api, tracer) if traced else runner.one_pass(passes, api)
        if traced:
            traced_passes += 1
            busy_traced += busy
        else:
            busy_plain += busy
        passes += 1
        import_times += [fresh_import_s("lamlab") for _ in range(IMPORT_SAMPLES)]
        if time.perf_counter() - start >= seconds and (not trace or traced_passes):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    def by_pass(xs):
        return [xs[i : i + len(specs)] for i in range(0, len(xs), len(specs))]

    per_pass = by_pass(runner.latencies)
    jobs_per_s, p50, tail_value, tail_job = latency_metrics(per_pass)
    wall = latency_metrics(by_pass(runner.wall))
    # per-layer times come from spans; they are scaled by the run's median probe
    factor = speed.REFERENCE_S / statistics.median(runner.probes)
    problems = setup_problems + runner.problems
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "jobs_per_pass": len(specs),
        "passes": passes,
        "job_keys": [s.key for s in specs],
        "latencies_s": per_pass,
        "wall_latencies_s": by_pass(runner.wall),
        "probe_s": {
            "median": statistics.median(runner.probes),
            "min": min(runner.probes),
            "max": max(runner.probes),
        },
        "wall_metrics": {
            "jobs_per_s": wall[0],
            "latency_p50_s": wall[1],
            "latency_tail_s": wall[2],
            "setup_s": statistics.median(import_times) + statistics.median(setup_wall),
        },
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_ratio": runner.failed / runner.attempted,
        "latency_tail_job": specs[tail_job].key,
        "setup_times_s": setup_times,
        "wall_setup_times_s": setup_wall,
        "import_times_s": import_times,
        "problems": problems,
    }
    if trace:
        overhead = busy_traced / traced_passes / (busy_plain / (passes - traced_passes)) - 1
        cli_import_s = statistics.median(fresh_import_s("lamlab.cli") for _ in range(SETUP_REPEATS))
        metrics = layer_metrics(
            setup_spans, tracer.spans, setup_counts, tracer.counts, traced_passes, overhead, cli_import_s
        )
        metrics = {k: (v * factor if u in ("s", "us") else v, u) for k, (v, u) in metrics.items()}
        table = {
            layer: {"calls": row["calls"], "self_s": row["self_s"] * factor}
            for layer, row in spans.layer_table(tracer.spans, traced_passes).items()
        }
        result["layer_table_per_pass"] = table
        result["traced_passes"] = traced_passes
    else:
        metrics = {
            "jobs_per_s": (jobs_per_s, "1/s"),
            "latency_p50_s": (p50, "s"),
            "latency_tail_s": (tail_value, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if trace:
        dump = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "job": s.job}
            for s in setup_spans + tracer.spans
        ]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(dump) + "\n")

    print(f"# {workload} seed={seed} passes={passes} jobs/pass={len(specs)} env={json.dumps(result['environment'])}")
    for p in problems[:20]:
        print(f"# PROBLEM {p}")
    print(f"# failed_ratio {result['failed_ratio']:.6g} ({runner.failed}/{runner.attempted})")
    print(
        f"# times scaled to a probe of {1000 * speed.REFERENCE_S:.0f} ms; probe median "
        f"{1000 * result['probe_s']['median']:.1f} ms; wall (unscaled) "
        + ", ".join(f"{k}={v:.6g}" for k, v in result["wall_metrics"].items())
    )
    if not trace:
        print(f"# latency_tail_s is the median latency of {specs[tail_job].key}, the job of rank {TAIL_RANK} from the slowest")
    else:
        wall = sum(r["self_s"] for r in table.values())
        print(f"# per-layer self time per traced pass ({wall:.4f} s); circle has no outside boundary")
        for layer, row in table.items():
            share = row["self_s"] / wall if wall else 0.0
            print(f"#   {layer:9s} calls {row['calls']:9.1f}  self {row['self_s']:9.5f} s  {100 * share:5.1f}%")
        print(f"# tracing overhead {100 * overhead:.2f}% of untraced job time")
    for k, m in result["metrics"].items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if not problems else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload, untraced then traced, each in a fresh process."""
    rc = 0
    summary = {}
    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                rc = done.returncode
                continue
            last = json.loads(done.stdout.strip().splitlines()[-1])
            summary[f"{workload}/trace{trace}"] = last
            rc = rc or (0 if last["correct"] else 1)
    print(json.dumps(summary))
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
