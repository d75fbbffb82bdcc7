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


@pytest.fixture
def pingpong() -> ir.Model:
    return load_model("pingpong")


@pytest.fixture
def pingpong_scenario() -> ir.Scenario:
    return load_scenario("pingpong_hit")
