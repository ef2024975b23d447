"""Tests of the benchmark harness itself, on smoke-sized inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from repro.algorithms.hyfd import HyFD  # noqa: E402
from repro.core.eulerfd import EulerFD  # noqa: E402
from repro.fd.fd import FD  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py")] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def _clean_env():
    return {k: v for k, v in os.environ.items() if k not in ("REPRO_BACKEND", "REPRO_JOBS")}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_reports_every_metric(trace):
    spec = _benchmark_json()
    section = "end_to_end" if trace == "0" else "per_layer"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    child = _run(
        ["--workload", "all", "--seed", "7", "--seconds", "0", "--trace", trace, "--smoke"],
        env=_clean_env(),
    )
    assert child.returncode == 0, child.stderr
    lines = child.stdout.strip().splitlines()
    per_workload = [json.loads(line) for line in lines[:-1] if line.startswith("{")]
    assert len(per_workload) == len(spec["workloads"])
    for result in per_workload:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        for result in per_workload:
            assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        for result in per_workload:
            assert result["metrics"]["trace.coverage"]["value"] == pytest.approx(1.0, abs=0.02)


def test_benchmark_json_matches_the_harness():
    spec = _benchmark_json()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)


def test_refuses_overridden_library_defaults():
    env = _clean_env() | {"REPRO_JOBS": "thread:2"}
    child = _run(["--workload", "exact-hyfd", "--seed", "1", "--seconds", "0", "--smoke"], env=env)
    assert child.returncode != 0
    assert "REPRO_JOBS" in child.stderr and not child.stdout.strip()


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache"))
    child = _run(["--workload", "wide-eulerfd", "--seed", "1", "--seconds", "1"],
                 cwd=tmp_path, env=_clean_env())
    assert child.returncode != 0 and not child.stdout.strip()


def test_inputs_are_a_function_of_the_seed():
    workload = workloads.WORKLOADS["append-stream"]
    first = workloads.make_inputs(workload, 3, smoke=True)
    again = workloads.make_inputs(workload, 3, smoke=True)
    other = workloads.make_inputs(workload, 4, smoke=True)
    assert first.relation(0) == again.relation(0) and first.batches == again.batches
    assert first.relation(0) != other.relation(0)
    assert first.relation(0) != first.relation(1)
    appended = sum(len(batch) for batch in first.batches)
    assert first.base_rows + appended == first.source.num_rows
    assert all(1 <= len(batch) <= workload.max_batch for batch in first.batches)
    assert len(first.batches) == len(other.batches)
    assert first.batches != other.batches


def test_timings_are_scaled_by_the_reference_kernel():
    samples = workloads.Samples()
    slow = 2 * workloads.REFERENCE_S  # the host ran at half the reference speed
    samples.setup_s = [(0.2, slow)]
    samples.record(0, 0.1, slow, 10)
    samples.record(0, 0.3, slow, 10)
    samples.record(1, 0.2, workloads.REFERENCE_S, 10)
    metrics = workloads.end_to_end(samples, workloads.Tally(attempted=3))
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["op_p50_ms"] == pytest.approx(150.0)  # ops at 100 and 200 ms
    assert metrics["rows_per_s"] == pytest.approx(20 / 0.3)
    assert workloads.as_measured(samples)["op_p50_ms"] == pytest.approx(200.0)


def test_an_operation_that_raises_is_counted(tmp_path, monkeypatch):
    original = EulerFD.discover
    calls = []

    def flaky(self, relation):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return original(self, relation)

    monkeypatch.setattr(EulerFD, "discover", flaky)
    outcome = workloads.run("wide-eulerfd", 1, 0, False, tmp_path, smoke=True)
    assert outcome.tally.failed == 1
    assert outcome.tally.attempted == (workloads.SETUP_REPEATS + 1) * len(calls)
    assert "injected" in outcome.tally.reasons[0]
    assert outcome.metrics["success_rate"] == 1 - 1 / outcome.tally.attempted


def test_a_corrupted_exact_result_is_counted(tmp_path, monkeypatch):
    original = HyFD.discover

    def corrupted(self, relation):
        result = original(self, relation)
        return dataclasses.replace(result, fds=frozenset(sorted(result.fds)[1:]))

    monkeypatch.setattr(HyFD, "discover", corrupted)
    outcome = workloads.run("exact-hyfd", 1, 0, False, tmp_path, smoke=True)
    assert outcome.tally.failed == workloads.MIN_BATCH_OPS
    assert "differs from the oracle" in outcome.tally.reasons[0]


def test_malformed_results_are_rejected(tmp_path):
    relation = workloads.make_inputs(workloads.WORKLOADS["exact-hyfd"], 1, smoke=True).relation(0)
    result = HyFD().discover(relation)
    width = relation.num_columns
    assert workloads.malformed(result, width) is None
    assert "empty" in workloads.malformed(dataclasses.replace(result, fds=frozenset()), width)
    trivial = dataclasses.replace(result, fds=result.fds | {FD(0b11, 0)})
    assert "trivial" in workloads.malformed(trivial, width)
    assert "not a DiscoveryResult" in workloads.malformed(None, width)


def test_tracer_restores_the_library_and_adds_up():
    relation = workloads.make_inputs(workloads.WORKLOADS["exact-hyfd"], 1, smoke=True).relation(0)
    before = HyFD.__dict__["discover"]
    tracer = Tracer()
    with tracer.installed():
        with tracer.root("op"):
            HyFD().discover(relation)
    assert HyFD.__dict__["discover"] is before
    assert {s.op for s in tracer.spans} == {0}
    assert {s.name for s in tracer.spans} >= {
        "bench.op", "algorithms.hyfd.discover", "engine.context.init",
        "engine.context.validate_many", "core.inversion.process",
    }
    metrics = tracer.metrics(untraced_wall_s=1.0)
    assert list(metrics) == list(PER_LAYER)
    assert metrics["engine.backends.group_keys_calls"] > 0
    total_self = sum(tracer.self_seconds().values())
    assert total_self == pytest.approx(metrics["trace.op_wall_s"], rel=0.01)
