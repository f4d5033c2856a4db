"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import jobs
import oracles
import run
import spans

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def api():
    _, modules = run.load_lamlab()
    return spans.Api(modules)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_draw_is_deterministic_per_seed(api, workload):
    first = jobs.draw(workload, 7, api)
    assert first == jobs.draw(workload, 7, api)
    assert len(first) == len(jobs.strata(workload, api))
    others = [jobs.draw(workload, seed, api) for seed in range(8)]
    assert any(o != first for o in others), "the seed should change the inputs"


def test_reference_covers_exactly_the_drawable_jobs(api):
    reference = json.loads((HERE / "reference.json").read_text())["jobs"]
    keys = [s.key for w in jobs.WORKLOADS for s in jobs.universe(w, api)]
    assert len(keys) == len(set(keys))
    missing = sorted(set(keys) - set(reference))
    stale = sorted(set(reference) - set(keys))
    assert not missing and not stale, (missing[:5], stale[:5])


def test_metric_names_are_valid_and_match_the_run():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for key in ("end_to_end", "per_layer"):
        for m in BENCHMARK[key]:
            assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS)
    zero = {k: 0 for k in spans.Tracer().counts}
    layer = run.layer_metrics([], [], zero, zero, 1, 0.0, 0.0)
    assert {k: u for k, (_, u) in layer.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {
        "jobs_per_s", "latency_p50_s", "latency_tail_s", "setup_s", "peak_rss_mb"
    }


def test_crossing_oracle():
    f = Fraction
    assert oracles.crossing([(f(0), f(1, 2)), (f(1, 2), f(3, 4)), (f(0), f(3, 4))]) is None
    assert oracles.crossing([(f(1, 8), f(3, 8)), (f(1, 8), f(7, 8)), (f(3, 8), f(7, 8))]) is None
    assert oracles.crossing([(f(0), f(1, 2)), (f(1, 4), f(3, 4))]) is not None
    assert oracles.crossing([(f(1, 4), f(3, 4)), (f(0), f(1, 2))]) is not None


def test_goldberg_count_and_rotation_oracle():
    assert oracles.goldberg_count(2, 3, None) == 2
    assert oracles.goldberg_count(3, 2, None) == 3
    assert oracles.rotates(2, 3, ["1/7", "2/7", "4/7"])
    assert not oracles.rotates(2, 3, ["1/7", "2/7", "3/7"])


def test_latency_metrics_do_not_depend_on_the_pass_count():
    one = [[0.1, 0.4, 0.2, 0.3, 0.5]]
    for passes in (1, 3, 7):
        jobs_per_s, p50, tail, tail_job = run.latency_metrics(one * passes)
        assert (p50, tail, tail_job) == (0.3, 0.3, 3)
        assert abs(jobs_per_s - 5 / 1.5) < 1e-12


def test_tail_is_the_third_slowest_job_median():
    per_pass = [[0.1, 0.9, 0.5, 0.7, 0.2], [0.1, 0.8, 0.6, 0.9, 0.2], [0.3, 0.7, 0.4, 0.8, 0.1]]
    _, _, tail, tail_job = run.latency_metrics(per_pass)
    assert (tail, tail_job) == (0.5, 2)
