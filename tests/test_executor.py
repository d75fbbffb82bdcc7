"""Run-to-completion execution, trace checks, serialization."""

import copy

import pytest
from conftest import CORPUS_PAIRS, load_model, load_scenario

from comodel import ir
from comodel.executor import (
    ExecConfig,
    Machine,
    ScenarioError,
    SignalEnvelope,
    Trace,
    TraceEvent,
    Outcome,
    check_causality,
    check_pair_fifo,
    event_dict,
    run,
    serialize_trace,
)
from comodel.frontend import parse_model, parse_scenario

UNHANDLED = """
class Ping { attr hits: u32 = 0; signal Hit();
  statemachine { initial Waiting;
    state Waiting { on Hit -> Waiting { hits = hits + 1; send pong.Hit(); } } } }
class Pong { attr hits: u32 = 0; signal Hit();
  statemachine { initial Waiting; state Waiting { } } }
instance ping: Ping;
instance pong: Pong;
"""

LOOPER = """
class A { signal Go(); statemachine { initial I;
  state I { on Go -> I { send b.Go(); } } } }
class B { signal Go(); statemachine { initial I;
  state I { on Go -> I { send a.Go(); } } } }
instance a: A;
instance b: B;
"""


# --- init ---


def test_init_pingpong(pingpong):
    state = Machine(pingpong).initial_state()
    assert state.states == {"ping": "Waiting", "pong": "Waiting"}
    assert state.attrs == {"ping": {"hits": 0}, "pong": {"hits": 0}}
    assert state.next_seq == 0
    assert state.pending == []


def test_init_zero_instances():
    model = parse_model("class A { statemachine { initial I; state I {} } }")
    trace = run(model, ir.Scenario())
    assert trace.outcome.kind == "quiescent"
    assert trace.events == []


def test_init_bool_default():
    model = parse_model(
        "class A { attr f: bool = true; statemachine { initial I; state I {} } }"
        " instance a: A;"
    )
    assert Machine(model).initial_state().attrs["a"]["f"] == 1


# --- the hand-simulated oracle ---


def test_pingpong_oracle(pingpong, pingpong_scenario):
    trace = run(pingpong, pingpong_scenario)
    assert trace.outcome.kind == "quiescent"
    assert [event_dict(e, i) for i, e in enumerate(trace.events)] == [
        {
            "step": 0, "seq": 0, "sender": "$env", "receiver": "ping",
            "signal": "Hit", "args": [], "from": "Waiting", "to": "Waiting",
            "writes": [["hits", 1]], "sent": [1], "dropped": False,
        },
        {
            "step": 1, "seq": 1, "sender": "ping", "receiver": "pong",
            "signal": "Hit", "args": [], "from": "Waiting", "to": "Waiting",
            "writes": [["hits", 1]], "sent": [], "dropped": False,
        },
    ]
    assert trace.final.attrs == {"ping": {"hits": 1}, "pong": {"hits": 1}}
    assert trace.passed


def test_empty_scenario_is_quiescent(pingpong):
    trace = run(pingpong, ir.Scenario())
    assert trace.outcome.kind == "quiescent"
    assert trace.events == []


def test_unhandled_strict():
    model = parse_model(UNHANDLED)
    trace = run(model, parse_scenario("at 0 send ping.Hit();"))
    assert trace.outcome.kind == "runtime-error"
    assert trace.outcome.detail == "E_UNHANDLED pong.Hit in state Waiting at step 1"
    assert len(trace.events) == 1  # only the successful first step


def test_unhandled_lenient_drops():
    model = parse_model(UNHANDLED)
    trace = run(model, parse_scenario("at 0 send ping.Hit();"), ExecConfig(mode="lenient"))
    assert trace.outcome.kind == "quiescent"
    dropped = trace.events[1]
    assert dropped.dropped
    assert dropped.writes == () and dropped.sent == range(0)
    assert dropped.from_state == dropped.to_state
    assert trace.final.attrs["pong"]["hits"] == 0


def test_step_limit():
    model = parse_model(LOOPER)
    trace = run(model, parse_scenario("at 0 send a.Go();"), ExecConfig(max_steps=10))
    assert trace.outcome.kind == "step-limit"
    assert len(trace.events) == 10
    # the envelope the limit cut off stays queued in the final state
    assert sum(len(q) for q in trace.final.pending) == 1


def test_run_finishing_at_exactly_max_steps_is_quiescent(pingpong, pingpong_scenario):
    trace = run(pingpong, pingpong_scenario, ExecConfig(max_steps=2))
    assert trace.outcome.kind == "quiescent"


def test_injections_beyond_quiescence_resume(pingpong):
    scenario = parse_scenario("at 0 send ping.Hit(); at 50 send ping.Hit();")
    trace = run(pingpong, scenario)
    assert trace.outcome.kind == "quiescent"
    assert len(trace.events) == 4
    assert trace.final.attrs["ping"]["hits"] == 2


def test_injection_groups_sorted_by_step(pingpong):
    # file order within a group, ascending at-steps across groups
    scenario = parse_scenario("at 50 send ping.Hit(); at 0 send ping.Hit();")
    trace = run(pingpong, scenario)
    assert trace.outcome.kind == "quiescent"
    assert len(trace.events) == 4
    assert trace.final.attrs["ping"]["hits"] == 2


def test_self_send_chain():
    trace = run(load_model("chain"), load_scenario("chain_one"))
    assert trace.outcome.kind == "quiescent"
    assert len(trace.events) == 10
    assert trace.final.attrs["me"]["n"] == 5
    assert trace.final.attrs["mirror"]["seen"] == 5


def test_failed_expectation_reported(pingpong):
    scenario = parse_scenario("at 0 send ping.Hit(); expect pong.hits == 9;")
    trace = run(pingpong, scenario)
    assert trace.outcome.kind == "quiescent"
    assert not trace.passed
    assert trace.outcome.detail is None
    assert [(e.path, e.expected, e.actual, e.passed) for e in trace.expectations] == [
        ("pong.hits", 9, 1, False)
    ]


@pytest.mark.parametrize(
    "text",
    [
        "at 0 send ghost.Hit();",
        "at 0 send ping.Ghost();",
        "at 0 send ping.Hit(1);",
        "expect ghost.hits == 1;",
        "expect ping.ghost == 1;",
    ],
)
def test_scenario_ref_errors(pingpong, text):
    with pytest.raises(ScenarioError):
        run(pingpong, parse_scenario(text))


def test_scenario_arg_width_checked():
    model = load_model("widths")
    with pytest.raises(ScenarioError):
        run(model, parse_scenario("at 0 send gadget.Load(true, 999, 0, 0);"))


@pytest.mark.parametrize(
    "args,message",
    [
        ("true, 999, 0, 0", "argument 999 does not fit parameter a: u8"),
        ("true, true, 0, 0", "boolean argument for u8 parameter a"),
        ("2, 0, 0, 0", "argument 2 does not fit parameter f: bool"),
        ("1, 255, 65535, 4294967295", None),
    ],
)
def test_scenario_arg_messages(args, message):
    # one literal-fit rule for scenario args and attribute defaults
    scenario = parse_scenario(f"at 0 send gadget.Load({args});")
    if message is None:
        assert run(load_model("widths"), scenario).outcome.kind == "quiescent"
        return
    with pytest.raises(ScenarioError) as exc:
        run(load_model("widths"), scenario)
    assert str(exc.value) == f"E_SCENARIO_REF: {message}"


@pytest.mark.parametrize(
    "expect,message",
    [
        ("gadget.small == 256", "expectation 256 does not fit attribute small: u8"),
        ("gadget.large == 4294967296", "expectation 4294967296 does not fit attribute large: u32"),
        ("gadget.large == true", "boolean expectation for u32 attribute large"),
        ("gadget.armed == 2", "expectation 2 does not fit attribute armed: bool"),
        ("gadget.small == 255", None),
        ("gadget.armed == 1", None),
        ("gadget.armed == false", None),
    ],
)
def test_scenario_expectation_messages(expect, message):
    # expected values follow the literal-fit rule of scenario args
    scenario = parse_scenario(f"expect {expect};")
    if message is None:
        assert run(load_model("widths"), scenario).outcome.kind == "quiescent"
        return
    with pytest.raises(ScenarioError) as exc:
        run(load_model("widths"), scenario)
    assert str(exc.value) == f"E_SCENARIO_REF: {message}"


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ExecConfig(max_steps=0)
    with pytest.raises(ValueError):
        ExecConfig(scheduler="alphabetical")


# --- determinism and properties ---


@pytest.mark.parametrize("model_name,scn_name", CORPUS_PAIRS)
def test_fifo_determinism(model_name, scn_name):
    model = load_model(model_name)
    scenario = load_scenario(scn_name)
    assert serialize_trace(run(model, scenario)) == serialize_trace(run(model, scenario))


@pytest.mark.parametrize("model_name,scn_name", CORPUS_PAIRS)
def test_random_runs_keep_causality_and_fifo(model_name, scn_name):
    model = load_model(model_name)
    scenario = load_scenario(scn_name)
    for seed in range(50):
        trace = run(model, scenario, ExecConfig(scheduler="random", seed=seed))
        assert check_causality(trace)
        assert check_pair_fifo(trace)


@pytest.mark.parametrize("model_name,scn_name", CORPUS_PAIRS)
def test_width_safety(model_name, scn_name):
    model = load_model(model_name)
    machine = Machine(model)
    trace = run(model, load_scenario(scn_name))
    widths = {
        (c.name, a.name): ir.WIDTHS[a.type]
        for c in model.classes
        for a in c.attributes
    }
    for ev in trace.events:
        cls = machine.instance_class[ev.envelope.receiver]
        for attr, value in ev.writes:
            assert 0 <= value < (1 << widths[(cls.name, attr)])
    for inst, attrs in trace.final.attrs.items():
        cls = machine.instance_class[inst]
        for attr, value in attrs.items():
            assert 0 <= value < (1 << widths[(cls.name, attr)])


@pytest.mark.parametrize("model_name,scn_name", CORPUS_PAIRS)
def test_rtc_atomicity_via_replay(model_name, scn_name):
    # replaying only each event's writes onto its receiver reproduces the
    # final valuation: no step touched any other instance
    model = load_model(model_name)
    trace = run(model, load_scenario(scn_name))
    state = Machine(model).initial_state()
    for ev in trace.events:
        owned = set(state.attrs[ev.envelope.receiver])
        for attr, value in ev.writes:
            assert attr in owned
            state.attrs[ev.envelope.receiver][attr] = value
    assert state.attrs == trace.final.attrs


# --- trace checks on constructed traces ---


def _mutated(trace: Trace) -> Trace:
    twin = copy.deepcopy(trace)
    # an event's step is its index, so swapping them swaps their steps
    twin.events[0], twin.events[1] = twin.events[1], twin.events[0]
    return twin


def test_causality_rejects_dispatch_before_send(pingpong, pingpong_scenario):
    trace = run(pingpong, pingpong_scenario)
    assert check_causality(trace)
    assert not check_causality(_mutated(trace))


def test_causality_on_empty_trace(pingpong):
    empty = Trace(events=[], final=Machine(pingpong).initial_state(), outcome=Outcome("quiescent"))
    assert check_causality(empty)
    assert check_pair_fifo(empty)


def test_pair_fifo_rejects_reordered_pair():
    env1 = SignalEnvelope(0, "a", "b", "S", ())
    env2 = SignalEnvelope(5, "a", "b", "S", ())
    events = [
        TraceEvent(env2, "I", "I", [], []),
        TraceEvent(env1, "I", "I", [], []),
    ]
    trace = Trace(events=events, final=None, outcome=Outcome("quiescent"))
    assert not check_pair_fifo(trace)


def test_pair_fifo_single_envelope_per_pair_vacuous():
    events = [
        TraceEvent(SignalEnvelope(0, "a", "b", "S", ()), "I", "I", [], []),
        TraceEvent(SignalEnvelope(1, "a", "c", "S", ()), "I", "I", [], []),
    ]
    trace = Trace(events=events, final=None, outcome=Outcome("quiescent"))
    assert check_pair_fifo(trace)


# --- serialization ---


def test_serialize_key_order(pingpong, pingpong_scenario):
    line = serialize_trace(run(pingpong, pingpong_scenario)).splitlines()[0]
    keys = list(__import__("json").loads(line))
    assert keys == [
        "step", "seq", "sender", "receiver", "signal", "args",
        "from", "to", "writes", "sent", "dropped",
    ]
