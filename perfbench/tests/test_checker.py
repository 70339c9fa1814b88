"""Self-tests of the benchmark: its checker counts bad outputs as failed,
its tracer sees every layer call, and it prints exactly the metrics that
BENCHMARK.json declares.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import catalog
import generate
import spans
import workloads
import worker
from conftest import BENCH, ROOT
from pdmd import archive, pipeline, rkoi

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)


def _shrunk_run(name, tmp_path, seed=1):
    workload = workloads.get(name, shrink=True)
    generate.write_inputs(workload, seed, str(tmp_path))
    return worker.Run(workload, str(tmp_path), seed)


def test_catalog_matches_benchmark_json():
    for key, table in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.LAYER_METRICS)):
        declared = [(m["name"], m["unit"], m["better"]) for m in DECLARED[key]]
        assert declared == [row[:3] for row in table]
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    for entry in DECLARED["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_shrunk_run_prints_declared_metrics(name, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--shrink"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_clean_pass_has_no_failures(tmp_path):
    run = _shrunk_run("wide-state", tmp_path)
    run.fixed_pass()
    n_queries = 4 * run.workload.trace_queries
    assert run.attempted == 4 + n_queries
    assert run.failed == 0, run.reasons


def test_scaled_prediction_is_a_failure(tmp_path, monkeypatch):
    run = _shrunk_run("wide-state", tmp_path)
    original = pipeline.predict_surrogate
    monkeypatch.setattr(pipeline, "predict_surrogate", lambda *a: 1.1 * original(*a))
    run.fixed_pass()
    assert run.failed == 4 * run.workload.trace_queries
    assert all("above bound" in reason for reason in run.reasons)


def test_non_finite_prediction_is_a_failure(tmp_path, monkeypatch):
    run = _shrunk_run("wide-state", tmp_path)
    original = pipeline.predict_surrogate

    def poisoned(*args):
        pred = original(*args).copy()
        pred[0, 0] = np.nan
        return pred

    monkeypatch.setattr(pipeline, "predict_surrogate", poisoned)
    run.fixed_pass()
    assert run.failed == 4 * run.workload.trace_queries
    assert all("non-finite" in reason for reason in run.reasons)


def test_truncated_archive_is_a_failure(tmp_path, monkeypatch):
    run = _shrunk_run("wide-state", tmp_path)
    original = archive.save_model

    def truncating(model, path, metadata=None):
        original(model, path, metadata)
        with open(path, "rb+") as handle:
            handle.truncate(os.path.getsize(path) - 1)

    monkeypatch.setattr(archive, "save_model", truncating)
    run.fixed_pass()
    assert (run.attempted, run.failed) == (4, 4)
    assert not run.models


def test_install_rebinds_imported_names_and_restores():
    before = (pipeline.fit_global_basis, rkoi.fit_optdmd, pipeline.predict_surrogate)
    restore = spans.install(spans.Tracer("test"))
    try:
        assert pipeline.fit_global_basis is not before[0]
        assert rkoi.fit_optdmd is not before[1]
        assert pipeline.predict_surrogate is not before[2]
        assert pipeline.fit_global_basis.__wrapped__ is before[0]
    finally:
        restore()
    assert (pipeline.fit_global_basis, rkoi.fit_optdmd, pipeline.predict_surrogate) == before


def _timed_op(tracer, body):
    """One traced operation timed the way the worker times it."""
    with tracer.op("query", "roi"):
        start = time.perf_counter()
        body()
        tracer.note_elapsed(time.perf_counter() - start)


def test_attribution_accepts_fully_wrapped_operation():
    tracer = spans.Tracer("test")
    layer_call = tracer.wrap("roi.predict_roi", lambda: time.sleep(0.02))
    _timed_op(tracer, layer_call)
    assert tracer.attribution_failures(tracer.arrays()) == []


def test_attribution_catches_unwrapped_function():
    tracer = spans.Tracer("test")
    layer_call = tracer.wrap("roi.predict_roi", lambda: time.sleep(0.01))

    def body():
        layer_call()
        time.sleep(0.01)  # a layer function that no wrapper covers

    _timed_op(tracer, body)
    failures = tracer.attribution_failures(tracer.arrays())
    assert len(failures) == 1 and failures[0].startswith("query.roi:")


def test_traced_pass_counts_online_fits_and_attributes_time(tmp_path):
    run = _shrunk_run("wide-state", tmp_path)
    result = worker.traced_run(run, str(tmp_path / "spans.jsonl"))
    assert run.failed == 0, run.reasons
    assert len(result["outside_layers"]) == 8
    n_t = run.instants.size
    queries = run.workload.trace_queries
    assert result["metrics"]["regression.fit.online_calls"] == 2 * n_t * queries
    with open(tmp_path / "spans.jsonl", encoding="utf-8") as handle:
        first = json.loads(handle.readline())
    assert set(first) >= {"name", "start", "end", "parent", "op", "workload", "algorithm"}
