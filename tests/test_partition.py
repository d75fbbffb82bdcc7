"""Partition derivation, boundary computation, co-simulation, equivalence."""

import copy
import dataclasses
import json

import pytest
from conftest import (
    C_RINGS,
    CORPUS_MODELS,
    CORPUS_PAIRS,
    LATE_PUT,
    load_marks,
    load_model,
    load_ring,
    load_scenario,
    model_path,
)

from comodel import ir
from comodel.executor import (
    COSIM_KEYS,
    LENIENT,
    ExecConfig,
    TraceEvent,
    check_causality,
    check_pair_fifo,
    event_dict,
    run,
    summary_dict,
)
from comodel.frontend import parse_marks, parse_model, parse_scenario, print_marks
from comodel.partition import (
    HW,
    SW,
    MarkError,
    Partition,
    all_partitions,
    boundary,
    cosim,
    derive_partition,
    equivalence_check,
    marks_for_partition,
    serialize_partitioned_trace,
)

TWIN_SEND = """
class S { signal Go(); statemachine { initial I;
  state I { on Go -> I { send t.Put(1); send t.Put(2); } } } }
class T { attr last: u8 = 0; signal Put(v: u8); statemachine { initial I;
  state I { on Put -> I { last = $v; } } } }
instance s: S;
instance t: T;
"""



def _cosim_keys(trace) -> list[tuple]:
    """(step, domain, bus_enqueue_step, bus_deliver_step) of each rendered
    event line: the trace derives them, its events do not store them."""
    lines = serialize_partitioned_trace(trace).splitlines()[:-1]
    return [tuple(json.loads(line)[k] for k in ("step",) + COSIM_KEYS) for line in lines]


# --- derive_partition ---


def test_default_all_software(pingpong):
    p = derive_partition(pingpong, ir.MarkSet())
    assert p.domain == {"Ping": SW, "Pong": SW}


def test_is_hardware_mark(pingpong):
    p = derive_partition(pingpong, parse_marks("mark isHardware on Pong;"))
    assert p.domain == {"Ping": SW, "Pong": HW}


def test_explicit_false_stays_software(pingpong):
    p = derive_partition(pingpong, parse_marks("mark isHardware = false on Pong;"))
    assert p.domain == {"Ping": SW, "Pong": SW}


def test_unknown_mark_key_warns_and_is_ignored(pingpong):
    p = derive_partition(pingpong, parse_marks("mark colour = 3 on Pong;"))
    assert p.domain == {"Ping": SW, "Pong": SW}
    assert [w.code for w in p.warnings] == ["W_UNKNOWN_MARK"]


def test_bad_mark_path(pingpong):
    with pytest.raises(MarkError) as exc:
        derive_partition(pingpong, parse_marks("mark isHardware on Nope;"))
    assert exc.value.code == "E_MARK_PATH"


def test_mark_granularity(pingpong):
    with pytest.raises(MarkError) as exc:
        derive_partition(pingpong, parse_marks("mark isHardware on Ping.Hit;"))
    assert exc.value.code == "E_MARK_GRANULARITY"


def test_mark_type(pingpong):
    with pytest.raises(MarkError) as exc:
        derive_partition(pingpong, parse_marks("mark isHardware = 5 on Pong;"))
    assert exc.value.code == "E_MARK_TYPE"


def test_instance_path_is_not_class_granularity(pingpong):
    with pytest.raises(MarkError) as exc:
        derive_partition(pingpong, parse_marks("mark isHardware on pong;"))
    assert exc.value.code == "E_MARK_GRANULARITY"


def test_valid_class_marks_resolve_no_path(monkeypatch):
    # a class mark is looked up in the validated index; the path resolver
    # only tells a bad path from a non-class one
    calls = []
    real = ir.resolve
    monkeypatch.setattr(ir, "resolve", lambda model, path: calls.append(path) or real(model, path))
    model = load_model("pipeline")
    for p in all_partitions(model):
        assert derive_partition(model, marks_for_partition(p)).domain == p.domain
    assert calls == []
    with pytest.raises(MarkError):
        derive_partition(model, parse_marks("mark isHardware on Counter.Bump;"))
    assert calls == ["Counter.Bump"]


# --- boundary ---


def test_pingpong_boundary(pingpong):
    p = Partition(domain={"Ping": SW, "Pong": HW})
    b = boundary(pingpong, p)
    assert len(b) == 1
    bs = b[0]
    assert (bs.receiver, bs.signal, bs.direction) == ("pong", "Hit", "sw_to_hw")


@pytest.mark.parametrize("domain", [SW, HW])
def test_uniform_partition_has_empty_boundary(pingpong, domain):
    p = Partition(domain={"Ping": domain, "Pong": domain})
    assert boundary(pingpong, p) == []


def test_boundary_direction_hw_to_sw():
    model = load_model("race")
    p = Partition(domain={"Alpha": SW, "Beta": HW, "Recorder": SW})
    b = boundary(model, p)
    assert [(x.receiver, x.signal, x.direction) for x in b] == [
        ("rec", "Put", "hw_to_sw")
    ]
    # the sender rule is on classes: Beta's send crosses even with no Beta instance
    no_b = parse_model(model_path("race").read_text().replace("instance b: Beta;", ""))
    assert no_b.instance_by_name("b") is None
    assert boundary(no_b, p) == b


def test_boundary_sorted_and_grouped():
    model = load_model("pipeline")
    p = Partition(domain={"Ticker": SW, "Counter": HW, "Reporter": SW})
    b = boundary(model, p)
    assert [(x.receiver, x.signal) for x in b] == [
        ("counter", "Bump"),
        ("reporter", "Report"),
    ]
    assert [x.direction for x in b] == ["sw_to_hw", "hw_to_sw"]


# --- cosim ---


def test_cosim_pingpong_oracle(pingpong, pingpong_scenario):
    p = Partition(domain={"Ping": SW, "Pong": HW})
    trace = cosim(pingpong, p, pingpong_scenario, latency=1)
    assert trace.outcome.kind == "quiescent"
    assert trace.final.attrs == {"ping": {"hits": 1}, "pong": {"hits": 1}}
    assert len(trace.events) == 2
    first, second = _cosim_keys(trace)
    assert first == (0, SW, None, None)
    assert second[:2] == (1, HW)
    assert second[3] >= second[2] + 1
    assert trace.bus_crossings == 1


def test_cosim_latency_three(pingpong, pingpong_scenario):
    p = Partition(domain={"Ping": SW, "Pong": HW})
    trace = cosim(pingpong, p, pingpong_scenario, latency=3)
    second = _cosim_keys(trace)[1]
    assert second[3] >= second[2] + 3
    assert trace.final.attrs == {"ping": {"hits": 1}, "pong": {"hits": 1}}


def test_cosim_rejects_bad_latency(pingpong, pingpong_scenario):
    with pytest.raises(ValueError):
        cosim(pingpong, Partition(domain={"Ping": SW, "Pong": SW}),
              pingpong_scenario, latency=0)


# (id suffix, config); the default config keeps the bare domain id
DEGENERATE_CONFIGS = [
    ("", ExecConfig()),
    ("-max3", ExecConfig(max_steps=3)),
    ("-lenient", ExecConfig(mode=LENIENT)),
    ("-lenient-max3", ExecConfig(mode=LENIENT, max_steps=3)),
]


@pytest.mark.parametrize("model_name,scn_name", CORPUS_PAIRS)
@pytest.mark.parametrize(
    "domain,config",
    [pytest.param(d, c, id=d + suffix) for suffix, c in DEGENERATE_CONFIGS for d in (SW, HW)],
)
def test_degenerate_partitions_reproduce_reference(model_name, scn_name, domain, config):
    model = load_model(model_name)
    scenario = load_scenario(scn_name)
    reference = run(model, scenario, config)
    p = Partition(domain={c.name: domain for c in model.classes})
    partitioned = cosim(model, p, scenario, config)
    assert [event_dict(e, i) for i, e in enumerate(partitioned.events)] == [
        event_dict(e, i) for i, e in enumerate(reference.events)
    ]
    assert summary_dict(partitioned) == summary_dict(reference)
    assert partitioned.bus_crossings == 0


@pytest.mark.parametrize("model_name,scn_name", CORPUS_PAIRS + [("unhandled", None)])
def test_cosim_event_carries_every_trace_event_field(model_name, scn_name):
    # cosim builds the same records as run; a lenient drop covers
    # `dropped`; with one domain the event streams match
    if model_name == "unhandled":
        model = parse_model(
            "class A { signal S(); statemachine { initial I; state I {"
            " on S -> I { send b.S(); } } } }"
            "class B { signal S(); statemachine { initial I; state I { } } }"
            "instance a: A; instance b: B;"
        )
        scenario = parse_scenario("at 0 send a.S();")
    else:
        model, scenario = load_model(model_name), load_scenario(scn_name)
    config = ExecConfig(mode=LENIENT)
    reference = run(model, scenario, config)
    partitioned = cosim(model, Partition(domain={c.name: SW for c in model.classes}),
                        scenario, config)
    names = [f.name for f in dataclasses.fields(TraceEvent)]
    assert names and len(partitioned.events) == len(reference.events)
    for got, want in zip(partitioned.events, reference.events):
        assert type(got) is type(want) is TraceEvent
        assert not hasattr(got, "__dict__") and not hasattr(want, "__dict__")  # slotted
        assert [getattr(got, n) for n in names] == [getattr(want, n) for n in names]
    if model_name == "unhandled":
        assert [e.dropped for e in partitioned.events] == [False, True]


@pytest.mark.parametrize("model_name,scn_name", CORPUS_PAIRS)
def test_cosim_traces_pass_executor_checks(model_name, scn_name):
    # and each rendered line's step, domain and bus rounds agree with the
    # facts the trace derives them from
    model = load_model(model_name)
    scenario = load_scenario(scn_name)
    for p in all_partitions(model):
        domain = {i.name: p.domain[i.class_name] for i in model.instances}
        for latency in (1, 2, 3):
            trace = cosim(model, p, scenario, latency=latency)
            assert check_causality(trace)
            assert check_pair_fifo(trace)
            lines = serialize_partitioned_trace(trace).splitlines()[:-1]
            crossings = 0
            for step, line in enumerate(map(json.loads, lines)):
                assert line["step"] == step
                assert line["domain"] == domain[line["receiver"]]
                if line["bus_enqueue_step"] is None:
                    assert line["bus_deliver_step"] is None
                    continue
                crossings += 1
                assert line["bus_deliver_step"] - line["bus_enqueue_step"] == latency
                assert domain[line["sender"]] != domain[line["receiver"]]
            assert crossings == trace.bus_crossings


def test_bus_monotonicity_same_pair():
    model = parse_model(TWIN_SEND)
    scenario = parse_scenario("at 0 send s.Go(); expect t.last == 2; confluent;")
    p = Partition(domain={"S": SW, "T": HW})
    for latency in (1, 2, 3, 4):
        trace = cosim(model, p, scenario, latency=latency)
        puts = [e.envelope.args for e in trace.events if e.envelope.signal == "Put"]
        assert puts == [(1,), (2,)]
        assert trace.final.attrs["t"]["last"] == 2
        assert check_pair_fifo(trace)


def test_bus_delivery_waits_behind_younger_queued_envelope():
    # b's Put (seq 3) reaches the HW island before a's Put (seq 2) comes
    # off the bus; fifo serves in arrival order, not the smallest seq
    model = load_model("race")
    p = Partition(domain={"Alpha": SW, "Beta": HW, "Recorder": HW})
    trace = cosim(model, p, load_scenario("race_both"), latency=1)
    assert [e.envelope.seq for e in trace.events if e.envelope.receiver == "rec"] == [3, 2]
    assert trace.final.attrs["rec"]["last"] == 1


@pytest.mark.parametrize("latency,order", [
    (1, "a.Go 0, h.Kick 1, a.Go 2, c.Put 3, a.Go 4, a.Go 5"),
    (2, "a.Go 0, h.Kick 1, a.Go 2, a.Go 4, c.Put 3, a.Go 5"),
    (3, "a.Go 0, h.Kick 1, a.Go 2, a.Go 4, a.Go 5, c.Put 3"),
])
def test_island_serves_envelopes_in_arrival_order(latency, order):
    # c.Put (seq 3) reaches the SW island `latency` rounds after h sent
    # it, behind every a.Go that a sent itself before then
    model, scenario = parse_model(LATE_PUT[0]), parse_scenario(LATE_PUT[1])
    p = derive_partition(model, parse_marks("mark isHardware on Kick;"))
    trace = cosim(model, p, scenario, latency=latency)
    assert trace.passed
    assert ", ".join(
        f"{e.envelope.receiver}.{e.envelope.signal} {e.envelope.seq}" for e in trace.events
    ) == order


@pytest.mark.parametrize("seed,orders", [
    (0, ["h1 c2 a0 a3 a4 a5", "a0 h1 a2 c3 a4 a5", "a0 h1 a2 c3 a4 a5", "a0 h1 a2 a4 c3 a5"]),
    (1, ["a0 a2 h1 a3 c4 a5", "a0 h1 c3 a2 a4 a5", "a0 h1 a2 a4 c3 a5", "a0 h1 a2 a4 c3 a5"]),
    (2, ["a0 a2 a3 h1 a4 c5", "a0 h1 a2 c3 a4 a5", "a0 h1 a2 c3 a4 a5", "a0 h1 a2 a4 a5 c3"]),
    (3, ["a0 a2 h1 c4 a3 a5", "a0 h1 c3 a2 a4 a5", "a0 h1 a2 c3 a4 a5", "a0 h1 a2 a4 a5 c3"]),
    (4, ["a0 h1 a2 c3 a4 a5", "a0 h1 a2 c3 a4 a5", "a0 h1 a2 c3 a4 a5", "a0 h1 a2 a4 c3 a5"]),
])
def test_random_order_of_a_late_bus_delivery_is_pinned(seed, orders):
    # the (receiver, seq) order of `run` and of `cosim` at latencies 1-3;
    # in cosim c.Put (seq 3) can reach the SW island behind a.Go 4, so the
    # island's FIFO is not in seq order; each draw must still pick among
    # the waiting receivers in instance order and take the drawn one's
    # oldest envelope
    model, scenario = parse_model(LATE_PUT[0]), parse_scenario(LATE_PUT[1])
    p = derive_partition(model, parse_marks("mark isHardware on Kick;"))
    config = ExecConfig(scheduler="random", seed=seed)
    traces = [run(model, scenario, config)]
    traces += [cosim(model, p, scenario, config, latency=latency) for latency in (1, 2, 3)]
    assert all(trace.passed for trace in traces)
    assert [
        " ".join(f"{e.envelope.receiver}{e.envelope.seq}" for e in trace.events)
        for trace in traces
    ] == orders


@pytest.mark.parametrize("model_name,scn_name", CORPUS_PAIRS + list(C_RINGS))
def test_run_dispatches_in_seq_order(model_name, scn_name):
    # every envelope reaches run's one island in seq order, so serving in
    # arrival order is serving in seq order
    if (model_name, scn_name) in C_RINGS:
        model, scenario, _ = load_ring(model_name, scn_name)
    else:
        model, scenario = load_model(model_name), load_scenario(scn_name)
    seqs = [e.envelope.seq for e in run(model, scenario).events]
    assert seqs and all(a < b for a, b in zip(seqs, seqs[1:]))


def test_seeded_random_order_is_pinned():
    model = load_model("pipeline")
    scenario = load_scenario("pipeline_three")
    p = derive_partition(model, load_marks("pipeline_counter_hw"))
    config = ExecConfig(scheduler="random", seed=11)
    order = [(e.envelope.receiver, e.envelope.seq) for e in run(model, scenario, config).events]
    assert order == [("ticker", 0), ("counter", 3), ("ticker", 1), ("ticker", 2),
                     ("counter", 4), ("counter", 5), ("reporter", 6)]
    trace = cosim(model, p, scenario, config, latency=2)
    order = [(e.envelope.receiver, e.envelope.seq) for e in trace.events]
    assert order == [("ticker", 0), ("ticker", 1), ("ticker", 2), ("counter", 3),
                     ("counter", 4), ("counter", 5), ("reporter", 6)]


def test_cosim_unhandled_strict():
    model = parse_model(
        "class A { signal S(); statemachine { initial I; state I {"
        " on S -> I { send b.S(); } } } }"
        "class B { signal S(); statemachine { initial I; state I { } } }"
        "instance a: A; instance b: B;"
    )
    p = Partition(domain={"A": SW, "B": HW})
    trace = cosim(model, p, parse_scenario("at 0 send a.S();"))
    assert trace.outcome.kind == "runtime-error"
    assert trace.outcome.detail == "E_UNHANDLED b.S in state I at step 1"


def test_cosim_step_limit():
    model = parse_model(
        "class A { signal Go(); statemachine { initial I;"
        " state I { on Go -> I { send b.Go(); } } } }"
        "class B { signal Go(); statemachine { initial I;"
        " state I { on Go -> I { send a.Go(); } } } }"
        "instance a: A; instance b: B;"
    )
    p = Partition(domain={"A": SW, "B": HW})
    trace = cosim(model, p, parse_scenario("at 0 send a.Go();"),
                  ExecConfig(max_steps=8))
    assert trace.outcome.kind == "step-limit"
    assert len(trace.events) == 8
    # the envelope the limit cut off, the last step's send, stays queued
    assert [env.seq for queue in trace.final.pending for env in queue] == [8]
    assert list(trace.events[-1].sent) == [8]


def test_cosim_injections_beyond_quiescence_resume(pingpong):
    p = derive_partition(pingpong, load_marks("pingpong_pong_hw"))
    scenario = parse_scenario("at 0 send ping.Hit(); at 50 send ping.Hit();")
    trace = cosim(pingpong, p, scenario, latency=2)
    assert trace.outcome.kind == "quiescent"
    report = equivalence_check(run(pingpong, scenario), trace, scenario.confluent)
    assert [l.passed for l in report.levels[:2]] == [True, True]
    assert _cosim_keys(trace) == [
        (0, SW, None, None),
        (1, HW, 0, 2),
        (2, SW, None, None),
        (3, HW, 3, 5),
    ]


def test_partitioned_trace_serialization_keys(pingpong, pingpong_scenario):
    p = Partition(domain={"Ping": SW, "Pong": HW})
    text = serialize_partitioned_trace(cosim(pingpong, p, pingpong_scenario))
    first = json.loads(text.splitlines()[0])
    assert list(first)[-3:] == ["domain", "bus_enqueue_step", "bus_deliver_step"]


# --- equivalence ---


def test_equivalence_identity(pingpong, pingpong_scenario):
    reference = run(pingpong, pingpong_scenario)
    p = Partition(domain={"Ping": SW, "Pong": SW})
    report = equivalence_check(reference, cosim(pingpong, p, pingpong_scenario), True)
    assert report.ok
    assert all(l.passed for l in report.levels)


def test_equivalence_partitioned(pingpong, pingpong_scenario):
    reference = run(pingpong, pingpong_scenario)
    p = Partition(domain={"Ping": SW, "Pong": HW})
    report = equivalence_check(reference, cosim(pingpong, p, pingpong_scenario), True)
    assert report.ok


def test_l1_fails_on_reordered_pair():
    model = parse_model(TWIN_SEND)
    scenario = parse_scenario("at 0 send s.Go();")
    reference = run(model, scenario)
    p = Partition(domain={"S": SW, "T": HW})
    trace = cosim(model, p, scenario)
    mutated = copy.deepcopy(trace)
    puts = [i for i, e in enumerate(mutated.events) if e.envelope.signal == "Put"]
    i, j = puts[0], puts[1]
    mutated.events[i], mutated.events[j] = mutated.events[j], mutated.events[i]
    report = equivalence_check(reference, mutated, False)
    l1 = report.levels[0]
    assert not l1.passed
    assert "s->t" in l1.detail
    assert not report.ok


def test_l2_fails_on_causality_violation(pingpong, pingpong_scenario):
    reference = run(pingpong, pingpong_scenario)
    p = Partition(domain={"Ping": SW, "Pong": HW})
    mutated = copy.deepcopy(cosim(pingpong, p, pingpong_scenario))
    mutated.events[0], mutated.events[1] = mutated.events[1], mutated.events[0]
    report = equivalence_check(reference, mutated, False)
    assert not report.levels[1].passed


def test_l3_informative_when_not_confluent(pingpong, pingpong_scenario):
    reference = run(pingpong, pingpong_scenario)
    p = Partition(domain={"Ping": SW, "Pong": HW})
    trace = cosim(pingpong, p, pingpong_scenario)
    trace.final.attrs["pong"]["hits"] = 42
    required = equivalence_check(reference, trace, True)
    informative = equivalence_check(reference, trace, False)
    assert not required.ok
    assert informative.ok
    assert not informative.levels[2].passed
    assert "(informative)" in informative.render()


# --- repartition helpers ---


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_partitions_round_trip_through_marks(name):
    model = load_model(name)
    for p in all_partitions(model):
        marks = parse_marks(print_marks(marks_for_partition(p)))
        assert derive_partition(model, marks).domain == p.domain


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_corpus_marks_files_parse_and_apply(name):
    model = load_model(name)
    p = derive_partition(model, load_marks(__import__("conftest").CORPUS_MARKS[name]))
    assert HW in p.domain.values()
