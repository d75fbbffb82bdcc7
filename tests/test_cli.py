"""Exit codes and output contract of the command-line driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import CORPUS, marks_path, model_path, scenario_path

import comodel
from comodel.cli import main
from comodel.frontend import MAX_EXPR_DEPTH, MAX_STMT_DEPTH, ParseError, parse_model

PP = str(model_path("pingpong"))
PP_SCN = str(scenario_path("pingpong_hit"))
PP_MARKS = str(marks_path("pingpong_pong_hw"))

# b has no transition on S, so a strict run ends in a runtime error
UNHANDLED = (
    "class A { signal S(); statemachine { initial I;"
    " state I { on S -> I { send b.S(); } } } }"
    "class B { signal S(); statemachine { initial I; state I { } } }"
    "instance a: A; instance b: B;"
)


def test_validate_ok(capsys):
    assert main(["validate", PP]) == 0
    out = capsys.readouterr()
    assert out.out == "" and out.err == ""


def test_validate_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text(
        "class A { statemachine { initial I; state I {} } }\n"
        "class A { statemachine { initial I; state I {} } }\n"
    )
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["ERROR E_DUP_CLASS A: duplicate class name"]


def test_validate_reports_every_diagnostic_in_order(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text(
        "class A {\n  attr x: u8;\n  signal go(p: u16);\n"
        "  statemachine { initial S; state S { on go -> S {"
        " x = y; x = $q; if (x) { x = $p; } } } }\n}\ninstance a: A;\n"
    )
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "ERROR E_UNKNOWN_ATTR A.y: unknown attribute y\n"
        "ERROR E_UNKNOWN_PARAM A.q: unknown parameter $q\n"
        "ERROR E_TYPE_MISMATCH A.x: attribute x has type u8, expected bool\n"
        "ERROR E_TYPE_MISMATCH A.p: parameter $p has type u16, expected u8\n"
    )


def test_validate_parse_error_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("class {")
    assert main(["validate", str(bad)]) == 1
    assert "expected" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/nope.model"]) == 4


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", PP, "--scenario", PP_SCN, "--warp", "9"]) == 4


def test_bad_max_steps_is_usage_error(capsys):
    assert main(["run", PP, "--scenario", PP_SCN, "--max-steps", "0"]) == 4


def test_bad_latency_is_usage_error(capsys):
    assert main(["cosim", PP, "--scenario", PP_SCN, "--latency", "0"]) == 4


def test_run_summary_line(capsys, tmp_path):
    trace_file = tmp_path / "out.jsonl"
    rc = main(["run", PP, "--scenario", PP_SCN, "--trace", str(trace_file)])
    assert rc == 0
    assert capsys.readouterr().out == "outcome=quiescent steps=2 expectations=2/2\n"
    lines = trace_file.read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[-1])["outcome"] == "quiescent"


def test_run_failed_expectation_exits_2(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("at 0 send ping.Hit(); expect ping.hits == 1; expect pong.hits == 9;\n")
    assert main(["run", PP, "--scenario", str(scn)]) == 2
    out = capsys.readouterr()
    assert "expectations=1/2" in out.out
    assert "pong.hits" in out.err


def test_run_unhandled_strict_exits_2(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text(UNHANDLED)
    scn = tmp_path / "s.scn"
    scn.write_text("at 0 send a.S();\n")
    assert main(["run", str(model), "--scenario", str(scn)]) == 2
    assert "runtime-error" in capsys.readouterr().out


def test_run_scenario_ref_error_exits_2(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("at 0 send ghost.Hit();\n")
    assert main(["run", PP, "--scenario", str(scn)]) == 2
    assert "E_SCENARIO_REF" in capsys.readouterr().err


def test_run_random_seed_reproducible(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        rc = main([
            "run", str(model_path("race")), "--scenario", str(scenario_path("race_single")),
            "--scheduler", "random", "--seed", "11", "--trace", str(path),
        ])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_partition_listing(capsys):
    assert main(["partition", PP, "--marks", PP_MARKS]) == 0
    assert capsys.readouterr().out == "Ping SW\nPong HW\npong.Hit sw_to_hw\n"


def test_partition_empty_marks(capsys):
    assert main(["partition", PP]) == 0
    assert capsys.readouterr().out == "Ping SW\nPong SW\n"


def test_partition_bad_marks_exits_1(tmp_path, capsys):
    marks = tmp_path / "m.marks"
    marks.write_text("mark isHardware on Nope;\n")
    assert main(["partition", PP, "--marks", str(marks)]) == 1
    assert "E_MARK_PATH" in capsys.readouterr().err


def test_cosim_confluent(capsys):
    rc = main(["cosim", PP, "--marks", PP_MARKS, "--scenario", PP_SCN])
    assert rc == 0
    assert capsys.readouterr().out == "L1 pass L2 pass L3 pass\n"


def test_cosim_all_sw_identity(capsys):
    assert main(["cosim", PP, "--scenario", PP_SCN]) == 0
    assert capsys.readouterr().out == "L1 pass L2 pass L3 pass\n"


def test_cosim_non_confluent_informative(capsys):
    rc = main([
        "cosim", str(model_path("race")), "--marks", str(marks_path("race_beta_hw")),
        "--scenario", str(scenario_path("race_both")),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("L1 pass L2 pass L3 ")
    assert "(informative)" in out


def test_cosim_skips_idle_bus_rounds(tmp_path):
    # no island can step while pong.Hit rides the bus, so those rounds are
    # skipped at once: at latency 2^40 the two-step cosim still ends, and
    # its bus rounds read the enqueue round and that round plus the latency
    latency = 2**40
    trace = tmp_path / "t.jsonl"
    src = str(Path(comodel.__file__).resolve().parent.parent)
    code = "import sys; from comodel.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run(
        [sys.executable, "-c", code, "cosim", PP, "--marks", PP_MARKS, "--scenario", PP_SCN,
         "--latency", str(latency), "--trace", str(trace)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, check=True, timeout=60,
    )
    lines = [json.loads(line) for line in trace.read_text().splitlines()[:-1]]
    assert [(line["bus_enqueue_step"], line["bus_deliver_step"]) for line in lines] == [
        (None, None), (0, latency)]


def test_cosim_scenario_ref_error_exits_2(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("at 0 send ghost.Hit();\n")
    assert main(["cosim", PP, "--marks", PP_MARKS, "--scenario", str(scn)]) == 2
    assert "E_SCENARIO_REF" in capsys.readouterr().err


def test_cosim_reference_runtime_error_exits_2(tmp_path, capsys):
    model = tmp_path / "m.model"
    model.write_text(UNHANDLED)
    scn = tmp_path / "s.scn"
    scn.write_text("at 0 send a.S();\n")
    assert main(["cosim", str(model), "--scenario", str(scn)]) == 2
    assert "reference run: runtime-error(" in capsys.readouterr().err


def test_gen_and_cosim_warn_on_unknown_mark_key(tmp_path, capsys):
    # the unknown key changes nothing but the warning on stderr
    marks = tmp_path / "foreign.marks"
    marks.write_text("mark isHardware on Pong;\nmark colour = 3 on Ping;\n")
    out_dir = str(tmp_path / "gen")
    for extra in (["gen", "-o", out_dir], ["cosim", "--scenario", PP_SCN]):
        argv = [extra[0], PP] + extra[1:]
        assert main(argv + ["--marks", PP_MARKS]) == 0
        plain = capsys.readouterr()
        assert "W_UNKNOWN_MARK" not in plain.err
        assert main(argv + ["--marks", str(marks)]) == 0
        foreign = capsys.readouterr()
        assert foreign.out == plain.out
        assert "W_UNKNOWN_MARK Ping: ignoring unknown mark key colour" in foreign.err


def test_gen_writes_four_files(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    assert main(["gen", PP, "--marks", PP_MARKS, "-o", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "pingpong_hw.vhd",
        "pingpong_interface.json",
        "pingpong_sw.c",
        "pingpong_sw.h",
    ]


def test_gen_repartition_needs_no_model_edit(tmp_path):
    # flipping the mark moves Ping to hardware; the ping->pong send now
    # crosses the other way, and regeneration needs no model edit
    flipped = tmp_path / "flipped.marks"
    flipped.write_text("mark isHardware on Ping;\n")
    assert main(["gen", PP, "--marks", str(flipped), "-o", str(tmp_path / "g")]) == 0
    manifest = json.loads((tmp_path / "g" / "pingpong_interface.json").read_text())
    assert [(s["receiver"], s["direction"]) for s in manifest["signals"]] == [
        ("pong", "hw_to_sw")
    ]
    vhdl = (tmp_path / "g" / "pingpong_hw.vhd").read_text()
    assert "entity Ping is" in vhdl


def test_gen_name_clash_exits_1(tmp_path, capsys):
    # a_b.C and a.B_C both mangle to SIG_A_B_C
    model = tmp_path / "clash.model"
    model.write_text(
        "class A_B { signal C(); statemachine { initial I; state I { on C -> I {} } } }"
        "class A { signal B_C(); statemachine { initial I; state I { on B_C -> I {} } } }"
        "class D { signal Go(); statemachine { initial I;"
        " state I { on Go -> I { send a_b.C(); send a.B_C(); } } } }"
        "instance a_b: A_B; instance a: A; instance d: D;"
    )
    marks = tmp_path / "clash.marks"
    marks.write_text("mark isHardware on A_B;\nmark isHardware on A;\n")
    rc = main(["gen", str(model), "--marks", str(marks), "-o", str(tmp_path / "g")])
    assert rc == 1
    assert "E_NAME_CLASH" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_gen_bad_model_stem_exits_1(tmp_path, capsys):
    # the stem names the C functions and the VHDL package: `foo-bar_reset`
    # and `foo-bar_iface` are no identifiers
    model = tmp_path / "foo-bar.model"
    model.write_text("class A { statemachine { initial S; state S {} } } instance x: A;")
    rc = main(["gen", str(model), "-o", str(tmp_path / "g")])
    assert rc == 1
    assert "E_TARGET_NAME" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_gen_case_clash_exits_1(tmp_path, capsys):
    # x and X would both be `#define SWI_X`, even with every class in SW
    model = tmp_path / "case.model"
    model.write_text(
        "class A { statemachine { initial S; state S {} } }"
        "class B { statemachine { initial S; state S {} } }"
        "instance x: A; instance X: B;"
    )
    rc = main(["gen", str(model), "-o", str(tmp_path / "g")])
    assert rc == 1
    assert "E_NAME_CLASH" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_gen_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["gen", PP, "--marks", PP_MARKS, "-o", str(blocker / "sub")])
    assert rc == 4


def test_checkgen_untouched_passes(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    assert main(["gen", PP, "--marks", PP_MARKS, "-o", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["checkgen", str(out_dir)]) == 0
    assert "consistent" in capsys.readouterr().out


def test_checkgen_tamper_exits_3(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    assert main(["gen", PP, "--marks", PP_MARKS, "-o", str(out_dir)]) == 0
    header = out_dir / "pingpong_sw.h"
    header.write_text(
        header.read_text().replace("#define SIG_PONG_HIT 0", "#define SIG_PONG_HIT 3")
    )
    capsys.readouterr()
    assert main(["checkgen", str(out_dir)]) == 3
    assert "divergence SIG_PONG_HIT" in capsys.readouterr().out


def test_checkgen_missing_manifest_exits_4(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    assert main(["gen", PP, "--marks", PP_MARKS, "-o", str(out_dir)]) == 0
    (out_dir / "pingpong_interface.json").unlink()
    assert main(["checkgen", str(out_dir)]) == 4


def test_checkgen_missing_generated_file_exits_4(tmp_path):
    out_dir = tmp_path / "gen"
    assert main(["gen", PP, "--marks", PP_MARKS, "-o", str(out_dir)]) == 0
    (out_dir / "pingpong_hw.vhd").unlink()
    assert main(["checkgen", str(out_dir)]) == 4


@pytest.mark.parametrize(
    "command,role",
    [
        ("validate", "model"),
        ("run", "scenario"),
        ("partition", "marks"),
        ("cosim", "model"),
        ("gen", "marks"),
    ],
)
def test_undecodable_input_is_input_error(tmp_path, capsys, command, role):
    sources = {"model": PP, "marks": PP_MARKS, "scenario": PP_SCN}
    bad = tmp_path / f"bad.{role}"
    bad.write_bytes(Path(sources[role]).read_bytes()[:12] + b"\xff")
    sources[role] = str(bad)
    argv = {
        "validate": ["validate", sources["model"]],
        "run": ["run", sources["model"], "--scenario", sources["scenario"]],
        "partition": ["partition", sources["model"], "--marks", sources["marks"]],
        "cosim": ["cosim", sources["model"], "--marks", sources["marks"],
                  "--scenario", sources["scenario"]],
        "gen": ["gen", sources["model"], "--marks", sources["marks"],
                "-o", str(tmp_path / "gen")],
    }[command]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{bad}: byte offset 12: not UTF-8 (invalid start byte)\n"


def test_checkgen_undecodable_generated_file_exits_1(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    assert main(["gen", PP, "--marks", PP_MARKS, "-o", str(out_dir)]) == 0
    header = out_dir / "pingpong_sw.h"
    header.write_bytes(b"\xfe" + header.read_bytes())
    capsys.readouterr()
    assert main(["checkgen", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"{header}: byte offset 0: not UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize(
    "tamper,message",
    [
        (lambda t: t[: len(t) // 2], "E_MANIFEST: malformed JSON: "),
        (lambda t: t.replace('"direction"', '"directon"'), "E_MANIFEST: missing key 'direction'"),
        (lambda t: t.replace('"id": 0', '"id": "0"'), "E_MANIFEST: 'id' must be int, found str"),
        (lambda t: t.replace('"id": 0', '"id": x'), "E_MANIFEST: malformed JSON: "),
        (lambda t: t.replace('"bit_offset": 32', '"bit_offset": 33'),
         "E_MANIFEST: sink.Stash.ok: at bit 33, not 32\n"),
        (lambda t: t.replace('"width_bits": 1', '"width_bits": 8'),
         "E_MANIFEST: sink.Stash: payload_total_bits 33, not 40\n"),
        (lambda t: t.replace('"width_bits": 32', '"width_bits": -32'),
         "E_MANIFEST: sink.Stash.v: no type is -32 bits wide\n"),
        (lambda t: t.replace('"sw_to_hw"', '"sideways"'),
         "E_MANIFEST: sink.Stash: unknown direction 'sideways'\n"),
    ],
    ids=["truncated", "missing_key", "string_for_int", "bare_word", "moved_offset",
         "changed_width", "negative_width", "unknown_direction"],
)
def test_checkgen_malformed_manifest_exits_3(tmp_path, capsys, tamper, message):
    # `widths` under its marks: one signal, sink.Stash(v: u32, ok: bool)
    out_dir = tmp_path / "gen"
    model, marks = model_path("widths"), marks_path("widths_sink_hw")
    assert main(["gen", str(model), "--marks", str(marks), "-o", str(out_dir)]) == 0
    manifest = out_dir / "widths_interface.json"
    manifest.write_text(tamper(manifest.read_text()))
    capsys.readouterr()
    assert main(["checkgen", str(out_dir)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(message) and out.err.count("\n") == 1


@pytest.mark.parametrize(
    "data,where",
    [(b"class A {\r#", "1:11"), (b"class A {\r\n  #", "2:3")],
    ids=["lone_cr", "crlf"],
)
def test_location_counts_carriage_returns_as_the_library_does(tmp_path, capsys, data, where):
    bad = tmp_path / "cr.model"
    bad.write_bytes(data)
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == f"{bad}:{where}: expected a token, found '#'\n"
    with pytest.raises(ParseError) as exc:
        parse_model(data.decode(), str(bad))
    assert str(exc.value.loc) == f"{bad}:{where}"


_NESTED = {
    "parens": (lambda n: "(" * n + "x" + ")" * n, "("),
    "unary": (lambda n: "-" * n + "x", "-"),
    "chain": (lambda n: " + ".join(["x"] * (n + 1)), "+"),  # n operators
}


@pytest.mark.parametrize("command", ["validate", "run", "gen"])
@pytest.mark.parametrize("depth", [MAX_EXPR_DEPTH, MAX_EXPR_DEPTH + 1, 10_000])
@pytest.mark.parametrize("shape", list(_NESTED))
def test_expression_depth_is_bounded(tmp_path, capsys, shape, depth, command):
    build, symbol = _NESTED[shape]
    expr = build(depth)
    text = (
        "class A { attr x: u8; signal go(); statemachine { initial S;"
        f" state S {{ on go -> S {{ x = {expr}; }} }} }} }} instance a: A;"
    )
    model = tmp_path / "deep.model"
    model.write_text(text)
    scn = tmp_path / "deep.scn"
    scn.write_text("at 0 send a.go();\n")
    extra = {"validate": [], "run": ["--scenario", str(scn)], "gen": ["-o", str(tmp_path / "out")]}
    rc = main([command, str(model), *extra[command]])
    err = capsys.readouterr().err
    if depth <= MAX_EXPR_DEPTH:
        assert (rc, err) == (0, "")
        return
    # reported at the construct that goes one level too deep
    at = -1
    for _ in range(MAX_EXPR_DEPTH + 1):
        at = expr.index(symbol, at + 1)
    column = text.index(expr) + at + 1
    assert rc == 1
    assert err == (
        f"{model}:1:{column}: expected expression nested at most {MAX_EXPR_DEPTH} deep,"
        f" found '{symbol}'\n"
    )


def _nested_ifs(depth: int, body: str) -> str:
    for _ in range(depth):
        body = f"if (x == 0) {{ {body} }} else {{ x = 1; }}"
    return body


@pytest.mark.parametrize("command", ["validate", "run", "gen"])
@pytest.mark.parametrize("depth", [MAX_STMT_DEPTH, MAX_STMT_DEPTH + 1, 10_000])
def test_statement_depth_is_bounded(tmp_path, capsys, depth, command):
    # the deepest expression inside the deepest block
    expr = "x"
    for _ in range(MAX_EXPR_DEPTH):
        expr = f"x + ({expr})"
    body = _nested_ifs(depth, f"x = {expr};")
    text = (
        "class A { attr x: u8; signal go(); statemachine { initial S;"
        f" state S {{ on go -> S {{ {body} }} }} }} }} instance a: A;"
    )
    model = tmp_path / "deep.model"
    model.write_text(text)
    scn = tmp_path / "deep.scn"
    scn.write_text("at 0 send a.go();\n")
    extra = {"validate": [], "run": ["--scenario", str(scn)], "gen": ["-o", str(tmp_path / "out")]}
    rc = main([command, str(model), *extra[command]])
    err = capsys.readouterr().err
    if depth <= MAX_STMT_DEPTH:
        assert (rc, err) == (0, "")
        return
    # reported at the `if` that opens one level too many
    at = -1
    for _ in range(MAX_STMT_DEPTH + 1):
        at = text.index("if (", at + 1)
    assert rc == 1
    assert err == (
        f"{model}:1:{at + 1}: expected statement nested at most {MAX_STMT_DEPTH} deep,"
        " found 'if'\n"
    )
