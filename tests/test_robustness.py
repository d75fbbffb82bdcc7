"""Every corrupted input ends in an exit code, never in a traceback.

Byte-level edits of the corpus model, marks and scenario files, and of the
files `gen` writes, go through `cli.main` for every command that reads
them. Each call must return an exit code in 0-4. The examples are
derandomized, so the suite runs the same inputs every time.
"""

import tempfile
from pathlib import Path

import pytest
from conftest import CORPUS_MARKS, CORPUS_PAIRS, marks_path, model_path, scenario_path

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from comodel import frontend, ir  # noqa: E402
from comodel.cli import main  # noqa: E402

_SETTINGS = settings(derandomize=True, max_examples=15, deadline=None, database=None)

# (offset, bytes inserted there, number of bytes deleted); the offset is
# taken modulo the file length so that every file is corrupted somewhere
_EDITS = st.tuples(
    st.integers(0, 1 << 16),
    st.one_of(
        st.sampled_from(
            [b"", b";", b"{", b"}", b"(", b")", b",", b".", b"0", b"99999999999", b"x",
             b"send", b"on", b"$", b"->", b"//", b"\n", b"\r", b"\t", b"\x00", b"\xff",
             "é".encode(), "½".encode(), "²".encode(), "٣".encode()]
        ),
        st.binary(max_size=2),
    ),
    st.integers(0, 3),
)

# the commands that read each input file; checkgen reads what gen wrote
_READERS = {
    "model": ("validate", "run", "partition", "cosim", "gen", "checkgen"),
    "marks": ("partition", "cosim", "gen", "checkgen"),
    "scenario": ("run", "cosim"),
}


def _corrupt(data: bytes, edit: tuple[int, bytes, int]) -> bytes:
    at, insert, delete = edit
    at %= len(data) + 1
    return data[:at] + insert + data[at + delete:]


def _commands(model: str, marks: str, scenario: str, out: str) -> dict[str, list[str]]:
    return {
        "validate": ["validate", model],
        "run": ["run", model, "--scenario", scenario],
        "partition": ["partition", model, "--marks", marks],
        "cosim": ["cosim", model, "--marks", marks, "--scenario", scenario, "--latency", "2"],
        "gen": ["gen", model, "--marks", marks, "-o", out],
        "checkgen": ["checkgen", out],
    }


def _check_exit_code(argv: list[str]) -> None:
    code = main(argv)
    assert isinstance(code, int) and 0 <= code <= 4, (argv, code)


@_SETTINGS
@given(
    pair=st.sampled_from(CORPUS_PAIRS), role=st.sampled_from(sorted(_READERS)), edit=_EDITS
)
@example(pair=CORPUS_PAIRS[0], role="model", edit=(10, b"\xff", 0))
@example(pair=CORPUS_PAIRS[0], role="marks", edit=(3, b"\xff", 1))
@example(pair=CORPUS_PAIRS[0], role="scenario", edit=(0, b"\xff", 0))
def test_corrupted_inputs_end_in_an_exit_code(pair, role, edit):
    model_name, scenario_name = pair
    sources = {
        "model": model_path(model_name),
        "marks": marks_path(CORPUS_MARKS[model_name]),
        "scenario": scenario_path(scenario_name),
    }
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / sources[role].name
        data = _corrupt(sources[role].read_bytes(), edit)
        bad.write_bytes(data)
        paths = {r: str(bad if r == role else p) for r, p in sources.items()}
        commands = _commands(paths["model"], paths["marks"], paths["scenario"],
                             str(Path(tmp) / "gen"))
        for name in _READERS[role]:
            _check_exit_code(commands[name])
    if role == "model":
        try:
            model = frontend.parse_model(data.decode("utf-8"))
        except (UnicodeDecodeError, frontend.ParseError):
            return
        ir.validate(model)  # returns a report of coded diagnostics, never raises


@_SETTINGS
@given(
    name=st.sampled_from(sorted(CORPUS_MARKS)),
    suffix=st.sampled_from(["_interface.json", "_sw.h", "_hw.vhd", "_sw.c"]),
    edit=_EDITS,
)
@example(name="pingpong", suffix="_interface.json", edit=(0, b"\xff", 0))
def test_corrupted_generated_files_end_in_an_exit_code(name, suffix, edit):
    with tempfile.TemporaryDirectory() as out:
        assert main(["gen", str(model_path(name)), "--marks",
                     str(marks_path(CORPUS_MARKS[name])), "-o", out]) == 0
        target = Path(out) / f"{name}{suffix}"
        target.write_bytes(_corrupt(target.read_bytes(), edit))
        _check_exit_code(["checkgen", out])
