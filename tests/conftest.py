"""Shared corpus loaders for the test suite."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from comodel import frontend, ir

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = CORPUS / "golden"

# (model, scenario) pairs; every model has at least two scenarios.
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

CORPUS_MODELS = ["pingpong", "pipeline", "race", "widths", "chain"]

# heavy rings of bench/ringgen.py (seed 7), as (instances, tokens, ttl) under a
# (model, scenario) id: they take 8,192 and 602 steps
C_RINGS = {("ring4", "heavy_ttl2047"): (4, 4, 2047), ("ring8", "heavy_ttl300"): (8, 2, 300)}

# (model, scenario) text of a bus delivery that reaches an island after a
# younger envelope for another receiver: with `Kick` in HW, `c.Put` (seq 3)
# rides the bus while `a` keeps sending itself `Go` (seqs 2, 4, 5)
LATE_PUT = ("""
class Loop { attr n: u8; signal Go(); statemachine { initial S;
  state S { on Go -> S { n = n + 1; if (n < 4) { send a.Go(); } } } } }
class Sink { attr got: u8; signal Put(v: u8); statemachine { initial S;
  state S { on Put -> S { got = $v; } } } }
class Kick { signal Kick(); statemachine { initial S;
  state S { on Kick -> S { send c.Put(7); } } } }
instance a: Loop; instance c: Sink; instance h: Kick;
""", "at 0 send a.Go(); at 0 send h.Kick(); expect c.got == 7; expect a.n == 4; confluent;\n")

# (model, scenario) text of one SW receiver class with two instances fed from
# HW: with `Kick` in HW, each `Put` crosses the bus to `x` or `y` under its
# own id, so the C half's bus delivery must inject into the right `Sink`
TWO_SINKS = ("""
class Sink { attr got: u8; signal Put(v: u8); statemachine { initial S;
  state S { on Put -> S { got = got + $v; } } } }
class Kick { attr n: u8; signal Kick(); statemachine { initial S;
  state S { on Kick -> S { n = n + 1; send x.Put(n); send y.Put(n + 10);
    if (n < 3) { send h.Kick(); } } } } }
instance x: Sink; instance y: Sink; instance h: Kick;
""", "at 0 send h.Kick(); at 1 send x.Put(100); expect x.got == 106; expect y.got == 36;\n"
    "confluent;\n")

# (model, scenario) text of one HW receiver class with two instances fed from
# SW: with `Kick` in HW, `x.Hit` and `y.Hit` each cross the bus under their
# own id, so the outbound wire names the receiving instance
TWO_HITS = ("""
class S { attr n: u8; signal Go(); statemachine { initial I;
  state I { on Go -> I { n = n + 1; send x.Hit(n); send y.Hit(n + 10); } } } }
class Kick { attr got: u8; signal Hit(v: u8); statemachine { initial I;
  state I { on Hit -> I { got = got + $v; } } } }
instance s: S; instance x: Kick; instance y: Kick;
""", "at 0 send s.Go(); at 1 send s.Go(); expect x.got == 3; expect y.got == 23; confluent;\n")

# the inline (model, scenario) texts, by name
INLINE = {"late_put": LATE_PUT, "two_sinks": TWO_SINKS, "two_hits": TWO_HITS}

CORPUS_MARKS = {
    "pingpong": "pingpong_pong_hw",
    "pipeline": "pipeline_counter_hw",
    "race": "race_beta_hw",
    "widths": "widths_sink_hw",
    "chain": "chain_mirror_hw",
}


def model_path(name: str) -> Path:
    return CORPUS / f"{name}.model"


def scenario_path(name: str) -> Path:
    return CORPUS / f"{name}.scn"


def marks_path(name: str) -> Path:
    return CORPUS / f"{name}.marks"


def load_model(name: str) -> ir.Model:
    return frontend.parse_model(model_path(name).read_text(), f"{name}.model")


def load_scenario(name: str) -> ir.Scenario:
    return frontend.parse_scenario(scenario_path(name).read_text(), f"{name}.scn")


def load_marks(name: str) -> ir.MarkSet:
    return frontend.parse_marks(marks_path(name).read_text(), f"{name}.marks")


def load_ringgen():
    """bench/ringgen.py, loaded from its file without changing the bench."""
    path = CORPUS.parent / "bench" / "ringgen.py"
    name = "_bench_ringgen"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        # registered first: its dataclasses look their module up by name
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def load_ring(model_name: str, scn_name: str) -> tuple[ir.Model, ir.Scenario, ir.MarkSet]:
    """The model, scenario and marks of the ring `C_RINGS` names."""
    ringgen = load_ringgen()
    ring = ringgen.generate(ringgen.RingSpec(*C_RINGS[model_name, scn_name], body="heavy"), 7)
    return (frontend.parse_model(ring.model_text), frontend.parse_scenario(ring.scenario_text),
            frontend.parse_marks(ring.marks_text))


@pytest.fixture
def pingpong() -> ir.Model:
    return load_model("pingpong")


@pytest.fixture
def pingpong_scenario() -> ir.Scenario:
    return load_scenario("pingpong_hit")
