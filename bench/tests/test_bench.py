"""Tests of the benchmark itself: ring generator, oracle, tracer, output.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from comodel import executor, frontend, ir, partition

import ringgen
import workloads
from tracer import EXACT_COUNTS, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

SMALL = [
    ringgen.RingSpec(8, 2, 13, "light"),
    ringgen.RingSpec(4, 4, 9, "heavy"),
    ringgen.RingSpec(6, 3, 0, "heavy"),
]


@pytest.mark.parametrize("spec", SMALL)
@pytest.mark.parametrize("seed", [0, 1, 97])
def test_generated_ring_parses_and_validates(spec, seed):
    ring = ringgen.generate(spec, seed)
    model = frontend.parse_model(ring.model_text)
    assert ir.validate(model).ok
    assert len(model.classes) == spec.instances
    scenario = frontend.parse_scenario(ring.scenario_text)
    assert scenario.confluent
    assert len(scenario.injections) == spec.tokens
    p = partition.derive_partition(model, frontend.parse_marks(ring.marks_text))
    assert [p.domain[f"R{i}"] for i in range(spec.instances)] == ["SW", "HW"] * (spec.instances // 2)
    assert len(partition.boundary(model, p)) == ring.boundary_signals


@pytest.mark.parametrize("spec", SMALL)
@pytest.mark.parametrize("seed", [0, 5])
def test_small_ring_matches_oracle_under_run_and_cosim(spec, seed):
    ring = ringgen.generate(spec, seed)
    model = frontend.parse_model(ring.model_text)
    scenario = frontend.parse_scenario(ring.scenario_text)
    trace = executor.run(model, scenario)
    assert trace.passed
    assert len(trace.events) == ring.steps == spec.tokens * (spec.ttl + 1)
    assert trace.final.states == ring.expected_states
    assert trace.final.attrs == ring.expected_attrs
    p = partition.derive_partition(model, frontend.parse_marks(ring.marks_text))
    part = partition.cosim(model, p, scenario, latency=2)
    assert part.passed
    assert part.bus_crossings == ring.bus_crossings == spec.tokens * spec.ttl


def test_oracle_is_seeded():
    spec = SMALL[1]
    assert ringgen.generate(spec, 3).scenario_text == ringgen.generate(spec, 3).scenario_text
    assert ringgen.generate(spec, 3).model_text != ringgen.generate(spec, 4).model_text


@pytest.mark.parametrize("bad", [(7, 1, 3, "light"), (8, 3, 3, "light"), (8, 2, -1, "light"),
                                 (8, 2, 3, "medium")])
def test_ring_spec_rejects_bad_shapes(bad):
    with pytest.raises(ValueError):
        ringgen.RingSpec(*bad)


def test_tracer_counts_repeat_and_match_oracle(tmp_path):
    workload = workloads.RingWorkload(SMALL[0], 2, tmp_path)
    tracer = Tracer()
    originals = (executor.run, executor.Machine.__init__)
    tracer.install()
    try:
        per_pass = []
        for _ in range(2):
            gate, first, jobs = workloads.Gate(), len(tracer.spans), tracer.jobs
            workload.run_pass(gate, workloads.PassStats(), tracer)
            assert gate.failed == 0, gate.notes
            per_pass.append(layer_metrics(tracer.spans, first, len(tracer.spans), tracer.jobs - jobs))
    finally:
        tracer.uninstall()
    assert (executor.run, executor.Machine.__init__) == originals
    assert all(per_pass[0][k] == per_pass[1][k] for k in EXACT_COUNTS)
    for k, v in workload.expected_counts().items():
        assert per_pass[0][k] == v
    m = per_pass[0]
    assert m["executor.run.self_s"] <= m["executor.run.s"]
    assert m["executor.s"] >= m["executor.self_s"] > 0


def test_gate_counts_wrong_verdicts_and_exceptions():
    gate = workloads.Gate()
    with gate.op("ok"):
        gate.expect(True, "fine")
    with gate.op("wrong"):
        gate.expect(False, "wrong verdict")
    with gate.op("raises"):
        raise ValueError("boom")
    assert (gate.attempted, gate.failed) == (3, 2)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_checked_result_last(trace):
    proc = _bench("--workload", "ring-narrow", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "ring-wide", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
