"""Acceptance suite: one printed pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -s` to watch the lines live; the
whole suite is desk-scale and finishes in a few seconds.
"""

import hashlib
import re
import shutil

import pytest
from conftest import (
    CORPUS_MODELS,
    CORPUS_PAIRS,
    GOLDEN,
    load_model,
    load_scenario,
    model_path,
    scenario_path,
)

from comodel.cli import main
from comodel.codegen import check_interfaces, emit, manifest_to_json
from comodel.executor import (
    ARGS,
    SENDER,
    SENT,
    SIGNAL,
    ExecConfig,
    check_causality,
    check_pair_fifo,
    event_dict,
    run,
    serialize_trace,
)
from comodel.frontend import parse_marks, print_marks
from comodel.partition import (
    HW,
    SW,
    Partition,
    all_partitions,
    cosim,
    derive_partition,
    equivalence_check,
    marks_for_partition,
)

SEED_CAMPAIGN = 1000
FREEDOM_SEEDS = 100


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def corpus():
    return [
        (mn, sn, load_model(mn), load_scenario(sn)) for mn, sn in CORPUS_PAIRS
    ]


@pytest.fixture(scope="module")
def seed_campaign(corpus):
    """The shared 1000-seed random-scheduler campaign (criteria 2 and 3)."""
    causality_ok = fifo_ok = total = 0
    for _, _, model, scenario in corpus:
        for seed in range(SEED_CAMPAIGN):
            trace = run(model, scenario, ExecConfig(scheduler="random", seed=seed))
            causality_ok += check_causality(trace)
            fifo_ok += check_pair_fifo(trace)
            total += 1
    return causality_ok, fifo_ok, total


def test_criterion_1_semantics_determinism(corpus):
    ok = True
    for _, _, model, scenario in corpus:
        if serialize_trace(run(model, scenario)) != serialize_trace(run(model, scenario)):
            ok = False
            break
    report(1, "semantics determinism", ok, f"{len(corpus)} pairs, byte-exact")


def test_criterion_2_causality(seed_campaign):
    causality_ok, _, total = seed_campaign
    report(2, "causality", causality_ok == total, f"{causality_ok}/{total}")


def test_criterion_3_pair_fifo(seed_campaign):
    _, fifo_ok, total = seed_campaign
    report(3, "pair FIFO", fifo_ok == total, f"{fifo_ok}/{total}")


def test_criterion_4_scheduler_freedom(corpus):
    checked = matched = 0
    for _, _, model, scenario in corpus:
        if not scenario.confluent:
            continue
        reference = run(model, scenario).final.attrs
        for seed in range(FREEDOM_SEEDS):
            trace = run(model, scenario, ExecConfig(scheduler="random", seed=seed))
            checked += 1
            matched += trace.final.attrs == reference
    report(4, "scheduler freedom", matched == checked, f"{matched}/{checked}")


def _partition_sweep():
    for name in CORPUS_MODELS:
        model = load_model(name)
        for p in all_partitions(model):
            yield name, model, p


_SIG_LINE = re.compile(r"(SIG_[A-Za-z0-9_]+)(.*?)(\d+)")


def _mutations(text: str) -> list[str]:
    """Single-character corruptions of every SIG_ name and value."""
    out = []
    for line_no, line in enumerate(text.splitlines()):
        m = _SIG_LINE.search(line)
        if not m or not line.lstrip().startswith(("#define", "constant")):
            continue
        # flip one digit of the value
        vstart = m.start(3)
        digit = line[vstart]
        flipped = str((int(digit) + 1) % 10)
        out.append(_replace_line(text, line_no, line[:vstart] + flipped + line[vstart + 1:]))
        # corrupt one letter of the name (after the SIG_ prefix)
        nstart = m.start(1) + 4
        out.append(_replace_line(text, line_no, line[:nstart] + "Q" + line[nstart + 1:]))
    return out


def _replace_line(text: str, line_no: int, new_line: str) -> str:
    lines = text.splitlines()
    lines[line_no] = new_line
    return "\n".join(lines) + "\n"


def test_criterion_5_generated_interface_consistency(tmp_path):
    emitted = 0
    for name, model, p in _partition_sweep():
        out = emit(model, p, name=name)
        assert check_interfaces(out.c_header, out.vhdl_source, out.manifest).ok
        emitted += 1

    # mutation check through the CLI, on models with nonempty boundaries
    mutations_checked = 0
    for i, (name, marks_text) in enumerate(
        [
            ("pingpong", "mark isHardware on Pong;"),
            ("pipeline", "mark isHardware on Counter;"),
            ("widths", "mark isHardware on Sink;"),
        ]
    ):
        marks_file = tmp_path / f"{name}.marks"
        marks_file.write_text(marks_text + "\n")
        gen_dir = tmp_path / f"gen_{name}"
        assert main(["gen", str(model_path(name)), "--marks", str(marks_file),
                     "-o", str(gen_dir)]) == 0
        for fname in (f"{name}_sw.h", f"{name}_hw.vhd"):
            original = (gen_dir / fname).read_text()
            for k, mutated in enumerate(_mutations(original)):
                mut_dir = tmp_path / f"mut_{name}_{fname.split('.')[-1]}_{k}"
                shutil.copytree(gen_dir, mut_dir)
                (mut_dir / fname).write_text(mutated)
                assert main(["checkgen", str(mut_dir)]) == 3, (fname, k)
                mutations_checked += 1
    report(
        5,
        "generated-interface consistency",
        emitted == 28 and mutations_checked >= 20,
        f"{emitted} partitions clean, {mutations_checked} mutations caught",
    )


def test_criterion_6_repartition_by_marks():
    checks = 0
    for name in CORPUS_MODELS:
        model = load_model(name)
        model_bytes = model_path(name).read_bytes()
        hashes = set()
        scenarios = [sn for mn, sn in CORPUS_PAIRS if mn == name]
        for p in all_partitions(model):
            # repartition strictly through a marks file
            marks = parse_marks(print_marks(marks_for_partition(p)))
            derived = derive_partition(model, marks)
            assert derived.domain == p.domain
            hashes.add(hashlib.sha256(model_path(name).read_bytes()).hexdigest())
            for sn in scenarios:
                scenario = load_scenario(sn)
                reference = run(model, scenario)
                partitioned = cosim(model, derived, scenario)
                rep = equivalence_check(reference, partitioned, scenario.confluent)
                l1, l2, l3 = rep.levels
                assert l1.passed, (name, sn, p.domain, l1.detail)
                assert l2.passed, (name, sn, p.domain)
                if scenario.confluent:
                    assert l3.passed, (name, sn, p.domain, l3.detail)
                checks += 1
        assert len(hashes) == 1
        assert model_path(name).read_bytes() == model_bytes
    report(6, "repartition by marks", True, f"{checks} partition/scenario checks")


def test_criterion_7_degenerate_partition_identity(corpus):
    checked = 0
    for _, _, model, scenario in corpus:
        reference = [event_dict(e, i) for i, e in enumerate(run(model, scenario).events)]
        for domain in (SW, HW):
            p = Partition(domain={c.name: domain for c in model.classes})
            partitioned = [event_dict(e, i) for i, e in enumerate(cosim(model, p, scenario).events)]
            assert partitioned == reference
            checked += 1
    report(7, "degenerate-partition identity", True, f"{checked} traces event-exact")


def test_criterion_8_codegen_determinism():
    checked = 0
    for name, model, p in _partition_sweep():
        def digest():
            out = emit(model, p, name=name)
            blob = (
                out.c_source + out.c_header + out.vhdl_source + manifest_to_json(out.manifest)
            )
            return hashlib.sha256(blob.encode()).hexdigest()

        assert digest() == digest()
        checked += 1
    report(8, "codegen determinism", True, f"{checked} double emissions hash-equal")


def test_criterion_9_golden_conformance():
    # pingpong: hand simulation is 2 dispatch steps ending at hits 1/1
    trace = run(load_model("pingpong"), load_scenario("pingpong_hit"))
    assert len(trace.events) == 2
    assert trace.events[0][SENDER] == "$env"
    assert trace.events[0][SENT] == range(1, 2)
    assert trace.final.attrs == {"ping": {"hits": 1}, "pong": {"hits": 1}}
    golden = (GOLDEN / "pingpong_hit.trace.jsonl").read_text()
    assert serialize_trace(trace) == golden

    # pipeline: three ticks, threshold report fires exactly once at total 3
    trace = run(load_model("pipeline"), load_scenario("pipeline_three"))
    assert len(trace.events) == 7
    assert [e[SIGNAL] for e in trace.events] == [
        "Go", "Go", "Go", "Bump", "Bump", "Bump", "Report",
    ]
    assert trace.events[6][ARGS] == (3,)
    assert trace.final.attrs == {
        "ticker": {"fired": 3},
        "counter": {"total": 3},
        "reporter": {"last": 3, "count": 1},
    }
    golden = (GOLDEN / "pipeline_three.trace.jsonl").read_text()
    assert serialize_trace(trace) == golden
    report(9, "golden-trace conformance", True, "pingpong + pipeline byte-exact")
