"""Record the reference digests of every job the generator can draw.

    python3 perfbench/make_reference.py

Runs each job of every workload's universe once, checks it with the
independent oracles, and writes the SHA-256 digests of its document, SVG
and JSON rows to `perfbench/reference.json`, replacing the whole file.
Expected outcomes, such as `InsufficientDepthError` from `classify_sector`
or a failing `clp_checks` report, are part of the rows and so of the
reference.
"""

from __future__ import annotations

import json
import sys
import time

import jobs
import oracles
import run
import spans


def main() -> int:
    lamlab, modules = run.load_lamlab()
    api = spans.Api(modules)
    ref = {}
    problems = []
    for workload in jobs.WORKLOADS:
        t0 = time.perf_counter()
        specs = jobs.universe(workload, api)
        for spec in specs:
            prep = jobs.prepare(spec, api, lamlab)
            out = jobs.run(spec, prep, api, lamlab)
            problems += oracles.check_output(spec, out)
            for name in ("file", "against"):
                if name in prep and oracles.crossing(oracles.leaf_pairs(prep[name])) is not None:
                    problems.append(f"{spec.key}: {name} document has crossing leaves")
            ref[spec.key] = oracles.output_digests(out)
        print(f"{workload}: {len(specs)} jobs in {time.perf_counter() - t0:.1f} s", flush=True)
    for p in problems:
        print("PROBLEM", p)
    if problems:
        return 1
    env = run.environment()
    payload = {"made_with": {k: env[k] for k in ("python", "numpy", "src_sha256")}, "jobs": dict(sorted(ref.items()))}
    (run.HERE / "reference.json").write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
