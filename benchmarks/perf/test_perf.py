"""Smoke test of the perf harness at tiny scale.

Runs every workload at 1 site per bucket and 2 pages per site, with a
budget of 0 seconds (so two repetitions per run), by calling the harness
directly.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py -q
"""

from __future__ import annotations

import json

import pytest

from benchmarks.perf import report, run, workloads
from benchmarks.perf.harness import measure
from benchmarks.perf.metrics import END_TO_END, PER_LAYER
from benchmarks.perf.workloads import WORKLOADS, Scale

TINY = Scale(sites_per_bucket=1, pages_per_site=2)
SEED = 2023


def _declared():
    return json.loads((report.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_harness():
    declared = _declared()
    # run.py names the workloads before it can import them.
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    assert declared["workloads"] == [
        {"name": workload.name, "why": workload.why} for workload in WORKLOADS.values()
    ]
    assert declared["end_to_end"] == [metric.declaration() for metric in END_TO_END]
    assert declared["per_layer"] == [metric.declaration() for metric in PER_LAYER]


@pytest.fixture(scope="module", params=list(WORKLOADS))
def measured(request, tmp_path_factory):
    workload = WORKLOADS[request.param]
    work_dir = tmp_path_factory.mktemp(workload.name)
    untraced = measure(workload, SEED, 0, False, work_dir, scale=TINY)
    traced = measure(workload, SEED, 0, True, work_dir, scale=TINY)
    return workload, untraced, traced


def test_every_declared_metric_is_emitted_with_its_unit(measured):
    _, untraced, traced = measured
    declared = _declared()
    for kind, measurement in (("end_to_end", untraced), ("per_layer", traced)):
        payload = report.workload_payload(measurement, 0)
        assert payload["correct"], payload["errors"]
        emitted = payload["metrics"]
        assert set(emitted) == {metric["name"] for metric in declared[kind]}
        for metric in declared[kind]:
            value = emitted[metric["name"]]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], float)
            if kind == "end_to_end":
                assert value["value"] > 0, metric["name"]


def test_traced_self_times_fit_in_the_traced_wall(measured):
    workload, _, traced = measured
    # Pool workers run beside the parent: the crawl pool, then the
    # analysis pool, each of ``workers`` processes.
    processes = 1 + 2 * workload.workers if workload.workers > 1 else 1
    assert traced.traced_repetitions
    for rep in traced.traced_repetitions:
        self_seconds = sum(
            value for key, value in rep.layers.items() if key.endswith(".self_s")
        )
        assert 0 < self_seconds <= rep.wall * processes


def test_a_corrupted_digest_fails_the_run(monkeypatch, tmp_path):
    calls = iter(range(1000))
    monkeypatch.setattr(workloads, "store_digest", lambda store: f"corrupt-{next(calls)}")
    measurement = measure(WORKLOADS["crawl"], SEED, 0, False, tmp_path, scale=TINY)
    payload = report.workload_payload(measurement, 0)
    assert payload["fail_ratio"] > 0
    assert not payload["correct"]
    assert report.exit_status(payload) != 0
