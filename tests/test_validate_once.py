"""A model is validated once; every later layer trusts its Checked record."""

import pytest
from conftest import (
    CORPUS_MARKS,
    CORPUS_MODELS,
    CORPUS_PAIRS,
    GOLDEN,
    load_marks,
    load_model,
    load_scenario,
    marks_path,
    model_path,
    scenario_path,
)

from comodel import frontend, ir
from comodel.cli import main
from comodel.codegen import emit
from comodel.executor import RANDOM, ExecConfig, ScenarioError, run, serialize_trace
from comodel.partition import SW, Partition, boundary, cosim, derive_partition

BROKEN = """
class A { signal S(); statemachine { initial I; state I { on S -> I { } } } }
instance a: A;
instance g: Ghost;
"""


@pytest.fixture
def validations(monkeypatch):
    """The models `ir.validate` is called on, counted through the module attribute."""
    calls = []
    real = ir.validate

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(ir, "validate", counting)
    return calls


# --- the safety check stays ---


@pytest.mark.parametrize(
    "operation",
    [
        lambda m: run(m, ir.Scenario()),
        lambda m: cosim(m, Partition(domain={"A": SW}), ir.Scenario()),
        lambda m: derive_partition(m, ir.MarkSet()),
        lambda m: boundary(m, Partition(domain={"A": SW})),
        lambda m: emit(m, Partition(domain={"A": SW})),
    ],
    ids=["run", "cosim", "derive_partition", "boundary", "emit"],
)
def test_invalid_model_is_refused(operation):
    model = frontend.parse_model(BROKEN)
    with pytest.raises(ir.InvalidModelError):
        operation(model)
    assert model.checked is None


def test_failed_revalidation_clears_the_record():
    model = load_model("pingpong")
    assert ir.validate(model).ok
    assert model.checked is not None
    model.instances[0].class_name = "Ghost"
    assert not ir.validate(model).ok
    assert model.checked is None


def test_record_indexes_the_model(pingpong):
    ir.validate(pingpong)
    checked = pingpong.checked
    assert list(checked.classes) == [c.name for c in pingpong.classes]
    assert {n: c.name for n, c in checked.instance_class.items()} == {
        i.name: i.class_name for i in pingpong.instances
    }
    pong = checked.classes["Pong"]
    assert checked.signals[("Pong", "Hit")] is pong.signals[0]
    assert checked.transitions[("Pong", "Waiting", "Hit")] is pong.machine.states[0].transitions[0]
    assert checked.sends == (("Ping", "pong", "Hit"),)


def test_record_lists_every_send_in_document_order():
    model = frontend.parse_model(
        "class A { signal Go(f: bool); statemachine { initial I; state I { on Go -> I {"
        " send b.X(); if ($f) { send b.Y(); } else { if (!$f) { send a.Go(true); } }"
        " send b.X(); } } } }"
        "class B { signal X(); signal Y(); statemachine { initial I; state I { } } }"
        "instance a: A; instance b: B;"
    )
    assert ir.validate(model).ok
    assert model.checked.sends == (
        ("A", "b", "X"), ("A", "b", "Y"), ("A", "a", "Go"), ("A", "b", "X"),
    )


def test_record_is_not_part_of_the_model_value(pingpong):
    # same annotated IR, one with the record and one without
    fresh = load_model("pingpong")
    ir.validate(pingpong)
    ir.validate(fresh)
    fresh.checked = None
    assert pingpong == fresh
    assert repr(pingpong) == repr(fresh)
    assert frontend.print_model(pingpong) == frontend.print_model(fresh)


# --- validate once ---


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_library_job_validates_once(validations, name):
    model = load_model(name)
    assert ir.validate(model).ok
    p = derive_partition(model, load_marks(CORPUS_MARKS[name]))
    boundary(model, p)
    scenario = load_scenario(next(s for m, s in CORPUS_PAIRS if m == name))
    run(model, scenario)
    cosim(model, p, scenario, latency=2)
    emit(model, p, name)
    assert validations == [model]


def test_cli_gen_validates_once(validations, tmp_path):
    argv = ["gen", str(model_path("pingpong")), "--marks", str(marks_path("pingpong_pong_hw"))]
    assert main(argv + ["-o", str(tmp_path / "gen")]) == 0
    assert len(validations) == 1


def test_cli_cosim_validates_once(validations):
    assert main([
        "cosim", str(model_path("pingpong")), "--marks", str(marks_path("pingpong_pong_hw")),
        "--scenario", str(scenario_path("pingpong_hit")),
    ]) == 0
    assert len(validations) == 1


@pytest.mark.parametrize(
    "model_name,scn_name", [("pingpong", "pingpong_hit"), ("pipeline", "pipeline_three")]
)
def test_never_validated_model_validates_once_in_run(validations, model_name, scn_name):
    model = load_model(model_name)
    assert model.checked is None
    trace = run(model, load_scenario(scn_name))
    assert validations == [model]
    assert serialize_trace(trace) == (GOLDEN / f"{scn_name}.trace.jsonl").read_text()


# --- a scenario is checked once per validated model ---

# pingpong without a `pong`, so pingpong's scenarios do not resolve
PING_ONLY = """
class Ping { attr hits: u32 = 0; signal Hit();
  statemachine { initial Waiting; state Waiting { on Hit -> Waiting { hits = hits + 1; } } } }
instance ping: Ping;
"""


class _Walked(list):
    """A scenario's injection list that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _counted(name: str) -> ir.Scenario:
    scenario = load_scenario(name)
    scenario.injections = _Walked(scenario.injections)
    return scenario


def test_one_scenario_check_serves_a_job(pingpong):
    scenario = _counted("pingpong_hit")
    run(pingpong, scenario)
    cosim(pingpong, derive_partition(pingpong, load_marks("pingpong_pong_hw")), scenario, latency=2)
    for seed in range(20):
        run(pingpong, scenario, ExecConfig(scheduler=RANDOM, seed=seed))
    assert scenario.injections.walks == 1
    assert scenario.checked[0] is pingpong.checked


def test_revalidated_model_checks_the_scenario_again(pingpong):
    scenario = _counted("pingpong_hit")
    run(pingpong, scenario)
    first = pingpong.checked
    assert ir.validate(pingpong).ok
    trace = run(pingpong, scenario)
    assert scenario.injections.walks == 2
    assert pingpong.checked is not first
    assert scenario.checked[0] is pingpong.checked
    assert serialize_trace(trace) == (GOLDEN / "pingpong_hit.trace.jsonl").read_text()


def test_failing_scenario_raises_every_time_and_keeps_nothing(pingpong):
    scenario = frontend.parse_scenario("at 0 send ping.Hit();\nexpect pong.hits == true;\n")
    for _ in range(3):
        with pytest.raises(ScenarioError, match="boolean expectation for u32 attribute hits"):
            run(pingpong, scenario)
        assert scenario.checked is None


def test_scenario_is_checked_against_another_model(pingpong):
    scenario = load_scenario("pingpong_hit")
    run(pingpong, scenario)
    stored = scenario.checked
    with pytest.raises(ScenarioError, match="unknown instance pong"):
        run(frontend.parse_model(PING_ONLY), scenario)
    assert scenario.checked is stored


def test_checked_scenario_keeps_its_value(pingpong):
    scenario = load_scenario("pingpong_hit")
    run(pingpong, scenario)
    assert scenario.checked is not None
    assert frontend.parse_scenario(frontend.print_scenario(scenario)) == scenario
    assert repr(scenario) == repr(load_scenario("pingpong_hit"))
