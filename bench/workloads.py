"""The benchmark's workloads: one pass each, checked against known answers.

* ``ring-wide``  - one full job on a 1024-instance ring, 16 tokens;
* ``ring-narrow`` - the same job on a 4-instance ring with a heavy hop body;
* ``corpus-sweep`` - every corpus (model, scenario) pair over every
  partition at latencies 1, 2 and 3, plus golden traces, a random-scheduler
  campaign and one round of CLI commands per corpus model.

Every pass calls comodel through module attributes (``frontend.parse_model``
rather than an imported name), so the tracer's wrappers see the calls.
Every check goes through `Gate`, which counts a wrong verdict or an
exception against the operation and carries on.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from comodel import cli, codegen, executor, frontend, ir, partition

import ringgen
from tracer import Tracer

RING_WIDE = ringgen.RingSpec(instances=1024, tokens=16, ttl=1023, body="light")
RING_NARROW = ringgen.RingSpec(instances=4, tokens=4, ttl=2047, body="heavy")
RING_WARMUP = {
    "light": ringgen.RingSpec(8, 2, 15, "light"),
    "heavy": ringgen.RingSpec(4, 2, 15, "heavy"),
}
COSIM_LATENCY = 2

CORPUS_PAIRS = [
    ("pingpong", "pingpong_hit"),
    ("pingpong", "pingpong_double"),
    ("pipeline", "pipeline_three"),
    ("pipeline", "pipeline_two"),
    ("race", "race_both"),
    ("race", "race_single"),
    ("widths", "widths_load"),
    ("widths", "widths_wrap"),
    ("chain", "chain_one"),
    ("chain", "chain_two"),
]
GOLDEN = ("pingpong_hit", "pipeline_three")
LATENCIES = (1, 2, 3)
CAMPAIGN_SEEDS = 20  # random-scheduler seeds per corpus pair and pass


class Gate:
    """Counts attempted operations and failed ones; never aborts the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._bad = False

    @contextlib.contextmanager
    def op(self, label: str):
        self.attempted += 1
        self._bad = False
        try:
            yield
        except Exception:  # counted as a wrong verdict; the run goes on
            self._bad = True
            self._note(f"{label}: exception\n{traceback.format_exc()}")
        if self._bad:
            self.failed += 1

    def expect(self, cond: bool, what: str) -> None:
        if not cond:
            self._bad = True
            self._note(what)

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


@dataclass
class PassStats:
    """Host times the benchmark takes around its own calls (no wrappers)."""

    run_s: float = 0.0
    run_steps: int = 0
    cosim_s: float = 0.0
    cosim_steps: int = 0
    compile_s: float = 0.0
    jobs_ms: list[float] = field(default_factory=list)


def _run(stats: PassStats, model, scenario, config=None):
    t = perf_counter()
    trace = executor.run(model, scenario, config)
    stats.run_s += perf_counter() - t
    stats.run_steps += len(trace.events)
    return trace


def _cosim(stats: PassStats, model, p, scenario, config, latency):
    t = perf_counter()
    trace = partition.cosim(model, p, scenario, config, latency=latency)
    stats.cosim_s += perf_counter() - t
    stats.cosim_steps += len(trace.events)
    return trace


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_gen(out_dir: Path, stem: str, out) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for suffix, text in (
        ("_sw.c", out.c_source),
        ("_sw.h", out.c_header),
        ("_hw.vhd", out.vhdl_source),
        ("_interface.json", codegen.manifest_to_json(out.manifest)),
    ):
        (out_dir / f"{stem}{suffix}").write_text(text, encoding="utf-8")


def _last_line(text: str) -> dict:
    return json.loads(text[text.rindex("\n", 0, len(text) - 1) + 1:])


class RingWorkload:
    """One full job per pass on a generated ring."""

    def __init__(self, spec: ringgen.RingSpec, seed: int, tmp: Path):
        self.ring = ringgen.generate(spec, seed)
        self.tmp = tmp

    def warm_up(self) -> None:
        small = ringgen.generate(RING_WARMUP[self.ring.spec.body], 0)
        gate = Gate()
        _ring_pass(small, gate, PassStats(), Tracer(), self.tmp / "warmup")
        if gate.failed:
            raise RuntimeError("warm-up failed:\n" + "\n".join(gate.notes))

    def run_pass(self, gate: Gate, stats: PassStats, tracer: Tracer) -> None:
        _ring_pass(self.ring, gate, stats, tracer, self.tmp / "gen")

    def expected_counts(self) -> dict[str, float]:
        """Exact per-pass counts the oracle predicts for the traced run."""
        return {
            "executor.execute_rtc_step.calls": 2 * self.ring.steps,
            "partition.cosim.bus_crossings": self.ring.bus_crossings,
        }


def _ring_pass(ring: ringgen.Ring, gate: Gate, stats: PassStats, tracer: Tracer,
               out_dir: Path) -> None:
    t_job = perf_counter()
    with gate.op("ring job"), tracer.job():
        t = perf_counter()
        model = frontend.parse_model(ring.model_text, "ring.model")
        report = ir.validate(model)
        gate.expect(report.ok, "ring model does not validate")
        marks = frontend.parse_marks(ring.marks_text, "ring.marks")
        p = partition.derive_partition(model, marks)
        signals = partition.boundary(model, p)
        stats.compile_s += perf_counter() - t
        gate.expect(len(signals) == ring.boundary_signals, "boundary size differs from oracle")

        scenario = frontend.parse_scenario(ring.scenario_text, "ring.scn")
        config = executor.ExecConfig(max_steps=ring.steps + 1)
        ref = _run(stats, model, scenario, config)
        gate.expect(ref.passed, f"run: {ref.outcome.render()}")
        gate.expect(len(ref.events) == ring.steps, "run step count differs from oracle")
        gate.expect(ref.final.states == ring.expected_states, "run final states differ")
        gate.expect(executor.check_causality(ref), "run trace not causal")
        gate.expect(executor.check_pair_fifo(ref), "run trace breaks pair FIFO")

        part = _cosim(stats, model, p, scenario, config, COSIM_LATENCY)
        gate.expect(part.passed, f"cosim: {part.outcome.render()}")
        gate.expect(len(part.events) == ring.steps, "cosim step count differs from oracle")
        gate.expect(part.bus_crossings == ring.bus_crossings, "bus crossings differ from oracle")
        gate.expect(part.final.states == ring.expected_states, "cosim final states differ")
        verdict = partition.equivalence_check(ref, part, scenario.confluent)
        gate.expect(all(level.passed for level in verdict.levels), verdict.render())

        for text in (executor.serialize_trace(ref), partition.serialize_partitioned_trace(part)):
            gate.expect(text.count("\n") == ring.steps + 1, "trace line count differs")
            gate.expect(_last_line(text)["outcome"] == executor.QUIESCENT, "trace summary")

        t = perf_counter()
        out = codegen.emit(model, p, "ring")
        manifest = codegen.manifest_from_json(codegen.manifest_to_json(out.manifest))
        check = codegen.check_interfaces(out.c_header, out.vhdl_source, manifest)
        stats.compile_s += perf_counter() - t
        gate.expect(manifest == out.manifest, "manifest JSON round trip differs")
        gate.expect(len(manifest.signals) == ring.boundary_signals, "manifest size")
        gate.expect(check.ok, check.render())
    stats.jobs_ms.append((perf_counter() - t_job) * 1e3)

    with gate.op("cli checkgen"):
        _write_gen(out_dir, "ring", out)
        code, text = _cli(["checkgen", str(out_dir)])
        gate.expect(code == cli.EXIT_OK and text == "interfaces consistent\n",
                    f"checkgen exit {code}")


@dataclass
class _Job:
    model: str
    model_text: str
    scenario_text: str
    marks_text: str
    latency: int


class CorpusWorkload:
    """The corpus sweep: many short jobs, where per-job fixed costs dominate."""

    def __init__(self, corpus: Path, seed: int, tmp: Path):
        rng = random.Random(seed)
        models = {m: (corpus / f"{m}.model").read_text(encoding="utf-8") for m, _ in CORPUS_PAIRS}
        self.pairs = [
            (m, s, models[m], (corpus / f"{s}.scn").read_text(encoding="utf-8"))
            for m, s in CORPUS_PAIRS
        ]
        self.golden = {
            s: (corpus / "golden" / f"{s}.trace.jsonl").read_text(encoding="utf-8")
            for s in GOLDEN
        }
        # marks built in memory, one text per partition of each model
        marks: dict[str, list[str]] = {}
        for m, text in models.items():
            parsed = frontend.parse_model(text, f"{m}.model")
            marks[m] = [
                frontend.print_marks(partition.marks_for_partition(p))
                for p in partition.all_partitions(parsed)
            ]
        self.jobs = [
            _Job(m, mtext, stext, mk, lat)
            for m, _, mtext, stext in self.pairs
            for mk in marks[m]
            for lat in LATENCIES
        ]
        self.campaign = [rng.randrange(2**31) for _ in range(CAMPAIGN_SEEDS)]
        # one CLI round per model, on its first scenario and a seeded partition
        self.cli_rounds = []
        for m in models:
            scn = next(s for mm, s in CORPUS_PAIRS if mm == m)
            marks_file = tmp / f"{m}.marks"
            marks_file.parent.mkdir(parents=True, exist_ok=True)
            marks_file.write_text(rng.choice(marks[m]), encoding="utf-8")
            self.cli_rounds.append(
                (m, str(corpus / f"{m}.model"), str(corpus / f"{scn}.scn"),
                 str(marks_file), str(tmp / f"gen_{m}"), rng.choice(LATENCIES))
            )

    def warm_up(self) -> None:
        gate = Gate()
        stats = PassStats()
        tracer = Tracer()
        for job in self.jobs[:: len(LATENCIES) * 4]:
            _corpus_job(job, gate, stats, tracer)
        self._cli_round(self.cli_rounds[0], gate)
        if gate.failed:
            raise RuntimeError("warm-up failed:\n" + "\n".join(gate.notes))

    def expected_counts(self) -> dict[str, float]:
        return {}

    def run_pass(self, gate: Gate, stats: PassStats, tracer: Tracer) -> None:
        for job in self.jobs:
            _corpus_job(job, gate, stats, tracer)
        for name in GOLDEN:
            with gate.op(f"golden {name}"):
                _, _, mtext, stext = next(p for p in self.pairs if p[1] == name)
                trace = _run(stats, frontend.parse_model(mtext), frontend.parse_scenario(stext))
                gate.expect(executor.serialize_trace(trace) == self.golden[name],
                            f"golden trace {name} differs")
        for m, s, mtext, stext in self.pairs:
            self._campaign(m, s, mtext, stext, gate, stats)
        for rnd in self.cli_rounds:
            self._cli_round(rnd, gate)

    def _campaign(self, m, s, mtext, stext, gate: Gate, stats: PassStats) -> None:
        model = frontend.parse_model(mtext, f"{m}.model")
        scenario = frontend.parse_scenario(stext, f"{s}.scn")
        ref = _run(stats, model, scenario)
        for seed in self.campaign:
            with gate.op(f"campaign {s} seed {seed}"):
                config = executor.ExecConfig(scheduler=executor.RANDOM, seed=seed)
                trace = _run(stats, model, scenario, config)
                gate.expect(trace.outcome.kind == executor.QUIESCENT, f"{s}: {trace.outcome.render()}")
                gate.expect(executor.check_causality(trace), f"{s} seed {seed}: not causal")
                gate.expect(executor.check_pair_fifo(trace), f"{s} seed {seed}: pair FIFO")
                if scenario.confluent:
                    gate.expect(trace.final.attrs == ref.final.attrs,
                                f"{s} seed {seed}: confluent final state differs")

    def _cli_round(self, rnd, gate: Gate) -> None:
        m, model, scn, marks, out, latency = rnd
        for argv, want in (
            (["gen", model, "--marks", marks, "-o", out], cli.EXIT_OK),
            (["checkgen", out], cli.EXIT_OK),
            (["validate", model], cli.EXIT_OK),
            (["run", model, "--scenario", scn], cli.EXIT_OK),
            (["cosim", model, "--marks", marks, "--scenario", scn, "--latency", str(latency),
              "--trace", str(Path(out) / "cosim.jsonl")], cli.EXIT_OK),
            (["cosim", model, "--marks", marks, "--scenario", scn, "--latency", "0"],
             cli.EXIT_USAGE),
        ):
            with gate.op(f"cli {argv[0]} {m}"):
                code, text = _cli(argv)
                gate.expect(code == want, f"cli {' '.join(argv)}: exit {code}, want {want}")
                if argv[0] == "cosim" and want == cli.EXIT_OK:
                    gate.expect(text.startswith("L1 pass L2 pass"), f"cli cosim {m}: {text!r}")


def _corpus_job(job: _Job, gate: Gate, stats: PassStats, tracer: Tracer) -> None:
    """Model, scenario and marks text to a checked verdict and checked halves."""
    t_job = perf_counter()
    with gate.op(f"job {job.model} latency {job.latency}"), tracer.job():
        t = perf_counter()
        model = frontend.parse_model(job.model_text, f"{job.model}.model")
        report = ir.validate(model)
        gate.expect(report.ok, f"{job.model}: {report.render()}")
        p = partition.derive_partition(model, frontend.parse_marks(job.marks_text))
        stats.compile_s += perf_counter() - t
        scenario = frontend.parse_scenario(job.scenario_text)

        ref = _run(stats, model, scenario)
        gate.expect(ref.passed, f"{job.model} reference: {ref.outcome.render()}")
        part = _cosim(stats, model, p, scenario, None, job.latency)
        # expectations pin one order, so they bind the partitioned run only when confluent
        ok = part.passed if scenario.confluent else part.outcome.kind == executor.QUIESCENT
        gate.expect(ok, f"{job.model} cosim: {part.outcome.render()}")
        verdict = partition.equivalence_check(ref, part, scenario.confluent)
        for level in verdict.levels:
            if level.level != "L3" or scenario.confluent:
                gate.expect(level.passed, f"{job.model} {p.domain}: {level.level} {level.detail}")

        t = perf_counter()
        out = codegen.emit(model, p, job.model)
        check = codegen.check_interfaces(out.c_header, out.vhdl_source, out.manifest)
        stats.compile_s += perf_counter() - t
        gate.expect(check.ok, f"{job.model} {p.domain}: {check.render()}")
    stats.jobs_ms.append((perf_counter() - t_job) * 1e3)


def make(name: str, root: Path, seed: int, tmp: Path):
    if name == "ring-wide":
        return RingWorkload(RING_WIDE, seed, tmp)
    if name == "ring-narrow":
        return RingWorkload(RING_NARROW, seed, tmp)
    if name == "corpus-sweep":
        return CorpusWorkload(root / "corpus", seed, tmp)
    raise ValueError(f"unknown workload {name!r}")
