"""The JSON Lines rendering of run and cosim traces.

One renderer in `executor` formats every event line from a template. Its
oracle is `json.dumps(event_dict(ev, step))`, plus the three cosim keys
in order for a cosim line, read from the trace's domain and bus maps.
The cosim goldens pin the bytes of one cosim per corpus model; the run
goldens are checked in `test_acceptance.py`.
"""

import json

import pytest
from conftest import (
    CORPUS_MARKS,
    CORPUS_MODELS,
    CORPUS_PAIRS,
    GOLDEN,
    load_marks,
    load_model,
    load_ringgen,
    load_scenario,
    marks_path,
    model_path,
    scenario_path,
)

from comodel import frontend
from comodel.cli import main
from comodel.executor import (
    ARGS,
    ENV_SENDER,
    RECEIVER,
    SENT,
    SEQ,
    WRITES,
    ExecConfig,
    Outcome,
    SystemState,
    Trace,
    event_dict,
    run,
    serialize_trace,
    summary_dict,
)
from comodel.partition import (
    HW,
    SW,
    PartitionedTrace,
    all_partitions,
    cosim,
    derive_partition,
    serialize_partitioned_trace,
)

COSIM_LATENCY = 2


def _oracle_run(trace: Trace) -> list[str]:
    lines = [json.dumps(event_dict(ev, step)) for step, ev in enumerate(trace.events)]
    return lines + [json.dumps(summary_dict(trace))]


def _oracle_cosim(trace: PartitionedTrace) -> list[str]:
    lines = []
    for step, ev in enumerate(trace.events):
        d = event_dict(ev, step)
        enqueued = trace.bus.get(ev[SEQ])
        d["domain"] = trace.domain_of[ev[RECEIVER]]
        d["bus_enqueue_step"] = enqueued
        d["bus_deliver_step"] = None if enqueued is None else enqueued + trace.latency
        lines.append(json.dumps(d))
    return lines + [json.dumps(summary_dict(trace))]


def _assert_renders_as_oracle(model, scenario, config=None) -> None:
    config = config or ExecConfig()
    reference = run(model, scenario, config)
    assert serialize_trace(reference).splitlines() == _oracle_run(reference)
    for p in all_partitions(model):
        for latency in (1, 2, 3):
            trace = cosim(model, p, scenario, config, latency)
            assert serialize_partitioned_trace(trace).splitlines() == _oracle_cosim(trace)


# --- cosim goldens ---

# the first scenario of each corpus model
_FIRST_SCENARIO = {m: next(s for mm, s in CORPUS_PAIRS if mm == m) for m in CORPUS_MODELS}


@pytest.mark.parametrize("model_name", CORPUS_MODELS)
def test_cosim_trace_matches_golden(model_name, tmp_path, capsys):
    """The goldens were written by the per-event `json.dumps` renderer:

      comodel cosim corpus/$m.model --marks corpus/<marks>.marks \\
          --scenario corpus/<scn>.scn --latency 2 --trace corpus/golden/<scn>.cosim.trace.jsonl
    """
    scn_name = _FIRST_SCENARIO[model_name]
    marks_name = CORPUS_MARKS[model_name]
    golden = GOLDEN / f"{scn_name}.cosim.trace.jsonl"

    model = load_model(model_name)
    p = derive_partition(model, load_marks(marks_name))
    trace = cosim(model, p, load_scenario(scn_name), latency=COSIM_LATENCY)
    assert serialize_partitioned_trace(trace) == golden.read_text(encoding="utf-8")

    out = tmp_path / "cosim.jsonl"
    rc = main([
        "cosim", str(model_path(model_name)), "--marks", str(marks_path(marks_name)),
        "--scenario", str(scenario_path(scn_name)), "--latency", str(COSIM_LATENCY),
        "--trace", str(out),
    ])
    assert rc == 0
    assert out.read_bytes() == golden.read_bytes()
    capsys.readouterr()


# --- the json.dumps oracle ---


@pytest.mark.parametrize("model_name,scn_name", CORPUS_PAIRS)
def test_corpus_traces_render_as_json_dumps(model_name, scn_name):
    _assert_renders_as_oracle(load_model(model_name), load_scenario(scn_name))


@pytest.mark.parametrize("body", ["light", "heavy"])
def test_ring_traces_render_as_json_dumps(body):
    ringgen = load_ringgen()
    ring = ringgen.generate(ringgen.RingSpec(instances=4, tokens=2, ttl=5, body=body), 3)
    model = frontend.parse_model(ring.model_text, "ring.model")
    scenario = frontend.parse_scenario(ring.scenario_text, "ring.scn")
    _assert_renders_as_oracle(model, scenario, ExecConfig(max_steps=ring.steps + 1))


BOOLS = """
class A {
  attr flag: bool = true;
  attr n: u8 = 0;
  signal Go(b: bool, v: u8);
  statemachine { initial S;
    state S { on Go -> S {
      flag = $b && flag;
      if ($b) { n = $v; }
      send b.Put($b, !$b);
    } }
  }
}
class B {
  attr got: bool = false;
  signal Put(x: bool, y: bool);
  statemachine { initial S; state S { on Put -> S { got = $x || $y; } } }
}
instance a: A;
instance b: B;
"""


def test_true_literals_render_as_one():
    model = frontend.parse_model(BOOLS, "bools.model")
    scenario = frontend.parse_scenario(
        "at 0 send a.Go(true, 7);\nat 2 send a.Go(false, 9);\nexpect b.got == true;\n",
        "bools.scn",
    )
    trace = run(model, scenario)
    assert trace.passed
    for ev in trace.events:
        values = [*ev[ARGS], *(v for _, v in ev[WRITES]), *ev[SENT]]
        assert all(type(v) is int for v in values)
    lines = serialize_trace(trace).splitlines()
    assert lines == _oracle_run(trace)
    assert '"args": [1, 7]' in lines[0] and '"writes": [["flag", 1], ["n", 7]]' in lines[0]
    assert '"args": [1, 0]' in lines[1] and '"writes": [["got", 1]]' in lines[1]
    # `true` is only ever the value of the `dropped` and `pass` keys
    assert all("true" not in line for line in lines[:-1])
    assert '"flag": 0' in lines[-1] and '"got": 1' in lines[-1]
    assert lines[-1].count("true") == 1 and '"pass": true' in lines[-1]


# --- escaping ---

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)

_U32 = st.integers(0, (1 << 32) - 1)
# quotes, backslashes, control characters, non-ASCII and astral text, and
# the injection sender
_NAMES = st.one_of(
    st.just(ENV_SENDER),
    st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", " ", "é", "€",
                             "\U0001f600", "a", "_", "$"]), max_size=6),
    st.text(max_size=6),
)


def _trace_of(events, cls=Trace, *maps):
    final = SystemState(states={"i": "S"}, attrs={"i": {"a": 1}}, pending={})
    return cls(events, final, Outcome("quiescent"), [], *maps)


@st.composite
def _traces(draw, cosim: bool):
    # a small pool, so that names repeat within one trace as real ones do
    names = st.sampled_from(draw(st.lists(_NAMES, min_size=1, max_size=4)))
    events = []
    for _ in range(draw(st.integers(0, 5))):
        envelope = (
            draw(_U32), draw(names), draw(names), draw(names),
            tuple(draw(st.lists(_U32, max_size=3))),
        )
        events.append(envelope + (
            draw(names), draw(names),
            draw(st.lists(st.tuples(names, _U32), max_size=3)),
            draw(st.lists(_U32, max_size=3)),
            draw(st.booleans()),
        ))
    if not cosim:
        return _trace_of(events)
    # any receiver's domain, and any seq on the bus at any round
    domain_of = {ev[RECEIVER]: draw(st.sampled_from([SW, HW]) | names) for ev in events}
    bus = {ev[SEQ]: draw(_U32) for ev in events if draw(st.booleans())}
    return _trace_of(events, PartitionedTrace, domain_of, bus, draw(st.integers(1, 3)))


@_SETTINGS
@given(_traces(cosim=False))
def test_run_lines_escape_as_json_dumps(trace):
    assert serialize_trace(trace).splitlines() == _oracle_run(trace)


@_SETTINGS
@given(_traces(cosim=True))
def test_cosim_lines_escape_as_json_dumps(trace):
    assert serialize_partitioned_trace(trace).splitlines() == _oracle_cosim(trace)


def test_rendered_names_stay_ascii():
    env = (0, ENV_SENDER, 'q"\\\n', "é\U0001f600", (1,))
    trace = _trace_of([env + ("\x00", " ", [("€", 3)], [], True)])
    line = serialize_trace(trace).splitlines()[0]
    assert line.isascii()
    assert json.loads(line) == event_dict(trace.events[0], 0)
    assert r'"receiver": "q\"\\\n"' in line and '"dropped": true' in line
