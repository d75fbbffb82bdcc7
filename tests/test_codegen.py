"""Manifest derivation, C/VHDL emission, interface cross-checking."""

import json
import re
import shutil
import subprocess

import pytest
from conftest import (
    C_RINGS,
    CORPUS_MARKS,
    CORPUS_MODELS,
    CORPUS_PAIRS,
    GOLDEN,
    load_marks,
    load_model,
    load_ring,
    load_scenario,
)

from comodel import codegen, executor, frontend, ir
from comodel.cli import main
from comodel.codegen import (
    CodegenError,
    EmitPlan,
    build_manifest,
    check_interfaces,
    emit,
    emit_c,
    emit_vhdl,
    manifest_from_json,
    manifest_to_json,
    mangle,
)
from comodel.frontend import parse_model, parse_scenario
from comodel.partition import HW, SW, Partition, all_partitions, derive_partition

ALARM = """
class Driver { signal Go(); statemachine { initial I;
  state I { on Go -> I { send alarm.Raise(5); send pong.Hit(); } } } }
class Alarm { signal Raise(level: u8); statemachine { initial I;
  state I { on Raise -> I { } } } }
class Pong { signal Hit(); statemachine { initial I;
  state I { on Hit -> I { } } } }
instance driver: Driver;
instance alarm: Alarm;
instance pong: Pong;
"""


# 65535 * 65535 overflows int, to which both u16 operands promote in C
NARROW_MUL = """
class Mul { attr a: u16 = 65535; attr b: u16 = 65535; attr c: u16; attr w: u32;
  signal Go(); statemachine { initial I;
  state I { on Go -> I { c = a * b; w = w * w; } } } }
instance mul: Mul;
"""

# the emitter branches the corpus never reaches: `!` in C and VHDL, VHDL
# `-`, a u32 literal beyond VHDL's integer range, and a class with no
# transitions in each domain
UNARY = """
class Soft { attr f: bool; signal Go(); statemachine { initial I;
  state I { on Go -> I { f = !f; } } } }
class Hard { attr f: bool; attr n: u8 = 1; attr w: u32; signal Go(); statemachine { initial I;
  state I { on Go -> I { f = !f; n = -n; w = 4294967295; } } } }
class IdleS { statemachine { initial I; state I { } } }
class IdleH { statemachine { initial I; state I { } } }
instance soft: Soft;
instance hard: Hard;
instance idles: IdleS;
instance idleh: IdleH;
"""
UNARY_DOMAINS = {"Soft": SW, "Hard": HW, "IdleS": SW, "IdleH": HW}

# two attributes whose names differ only in case: accepted in SW only
CASE_ATTRS = """
class K { attr a: u8; attr A: u8 = 1; signal Go(); statemachine { initial I;
  state I { on Go -> I { a = A; } } } }
instance k: K;
"""

INLINE_MODELS = {"narrow_mul": NARROW_MUL, "unary": UNARY, "case_attrs": CASE_ATTRS}


def pingpong_hw(model):
    return Partition(domain={"Ping": SW, "Pong": HW})


# --- manifest ---


def test_pingpong_manifest(pingpong):
    m = build_manifest(EmitPlan(pingpong, pingpong_hw(pingpong), "model"))
    assert len(m.signals) == 1
    s = m.signals[0]
    assert (s.id, s.receiver_class, s.signal, s.direction) == (0, "Pong", "Hit", "sw_to_hw")
    assert s.payload == [] and s.payload_total_bits == 0
    assert re.fullmatch(r"[0-9a-f]{16}", m.model_hash)


def test_all_sw_manifest_empty(pingpong):
    m = build_manifest(EmitPlan(pingpong, Partition(domain={"Ping": SW, "Pong": SW}), "model"))
    assert m.signals == []


def test_manifest_id_assignment_ascending():
    model = parse_model(ALARM)
    p = Partition(domain={"Driver": SW, "Alarm": HW, "Pong": HW})
    m = build_manifest(EmitPlan(model, p, "model"))
    assert [(s.id, s.receiver_class, s.signal) for s in m.signals] == [
        (0, "Alarm", "Raise"),
        (1, "Pong", "Hit"),
    ]
    raise_sig = m.signals[0]
    assert [(f.name, f.width_bits, f.bit_offset) for f in raise_sig.payload] == [
        ("level", 8, 0)
    ]
    assert raise_sig.payload_total_bits == 8


def test_manifest_payload_packing_multi_param():
    model = load_model("widths")
    p = Partition(domain={"Gadget": SW, "Sink": HW})
    m = build_manifest(EmitPlan(model, p, "model"))
    stash = m.signals[0]
    assert stash.signal == "Stash"
    assert [(f.name, f.width_bits, f.bit_offset) for f in stash.payload] == [
        ("v", 32, 0),
        ("ok", 1, 32),
    ]
    assert stash.payload_total_bits == 33


def test_manifest_hash_tracks_partition(pingpong):
    a = build_manifest(EmitPlan(pingpong, Partition(domain={"Ping": SW, "Pong": SW}), "model"))
    b = build_manifest(EmitPlan(pingpong, pingpong_hw(pingpong), "model"))
    assert a.model_hash != b.model_hash


def test_manifest_json_round_trip(pingpong):
    m = build_manifest(EmitPlan(pingpong, pingpong_hw(pingpong), "model"))
    assert manifest_from_json(manifest_to_json(m)) == m


def test_manifest_json_is_canonical(pingpong):
    m = build_manifest(EmitPlan(pingpong, pingpong_hw(pingpong), "model"))
    assert manifest_to_json(m) == manifest_to_json(manifest_from_json(manifest_to_json(m)))


@pytest.mark.parametrize(
    "source,hw",
    [
        pytest.param(
            "class A_B { signal C(); statemachine { initial I; state I { on C -> I {} } } }"
            "class A { signal B_C(); statemachine { initial I; state I { on B_C -> I {} } } }"
            "class D { signal Go(); statemachine { initial I;"
            " state I { on Go -> I { send x.C(); send y.B_C(); } } } }"
            "instance x: A_B; instance y: A; instance d: D;",
            {"A_B", "A"},
            id="mangled-signal",
        ),
        # both would be `#define SWI_X` in C
        pytest.param(
            "class A { statemachine { initial S; state S {} } }"
            "class B { statemachine { initial S; state S {} } }"
            "instance x: A; instance X: B;",
            set(),
            id="instance-case",
        ),
        # `A_ST_S` twice in C; `EV_A_GO` twice and entities `A` and `a` in VHDL
        pytest.param(
            "class A { signal Go(); statemachine { initial S; state S { on Go -> S {} } } }"
            "class a { signal Go(); statemachine { initial S; state S { on Go -> S {} } } }"
            "instance x: A; instance y: a;",
            {"A", "a"},
            id="class-case",
        ),
        # both print the C enumerator `A_ST_ST_X`, in different classes
        pytest.param(
            "class A_ST { statemachine { initial X; state X {} } }"
            "class A { statemachine { initial ST_X; state ST_X {} } }"
            "instance x: A_ST; instance y: A;",
            set(),
            id="cross-scope-enumerator",
        ),
        # both print the VHDL package constant `EV_A_B_C`, neither on the boundary
        pytest.param(
            "class A_B { signal C(); statemachine { initial I; state I { on C -> I {} } } }"
            "class A { signal B_C(); statemachine { initial I; state I { on B_C -> I {} } } }"
            "instance x: A_B; instance y: A;",
            {"A_B", "A"},
            id="event-constant",
        ),
        # `sw_dispatch`, `event_slot_t` and `uint8_t` are the runtime's and <stdint.h>'s
        *(
            pytest.param(
                f"class {name} {{ statemachine {{ initial S; state S {{}} }} }} instance x: {name};",
                set(),
                id=f"runtime-{name}",
            )
            for name in ("sw", "event_slot", "uint8")
        ),
        # `r_a` and `r_A` are one VHDL name; in SW the class compiles
        # (`test_generated_c_compiles`), as C member names are case-sensitive
        pytest.param(CASE_ATTRS, {"K"}, id="attribute-case-hw"),
    ],
)
def test_name_clash_detected(source, hw):
    model = parse_model(source)
    p = Partition(domain={c.name: HW if c.name in hw else SW for c in model.classes})
    with pytest.raises(CodegenError) as exc:
        emit(model, p)
    assert exc.value.code == "E_NAME_CLASH"


def _one_class(cls="K", attr="a", state="I", signal="Go", instance="k") -> str:
    """A one-class model that prints each of its names into both targets."""
    return (
        f"class {cls} {{ attr {attr}: u8 = 1; signal {signal}(p: u8); statemachine {{"
        f" initial {state}; state {state} {{ on {signal} -> {state} {{ {attr} = $p;"
        f" send {instance}.{signal}({attr}); }} }} }} }} instance {instance}: {cls};"
    )


@pytest.mark.parametrize(
    "source,hw",
    [
        pytest.param(_one_class(attr="int"), set(), id="c-keyword-attribute"),
        pytest.param(_one_class(cls="begin"), {"begin"}, id="vhdl-reserved-entity"),
        pytest.param(_one_class(attr="_x"), {"K"}, id="vhdl-double-underscore"),
        pytest.param(_one_class(cls="end_"), {"end_"}, id="vhdl-trailing-underscore"),
    ],
)
def test_target_name_rejected(source, hw):
    model = parse_model(source)
    p = Partition(domain={c.name: HW if c.name in hw else SW for c in model.classes})
    with pytest.raises(CodegenError) as exc:
        emit(model, p)
    assert exc.value.code == "E_TARGET_NAME"


# every model name holds `zq`; Zqsoft (SW) and Zqhard (HW) each send locally
# and across the boundary, with a payload, and Zqhard multiplies (`resize`)
SEED_PROBE = """
class Zqsoft { attr zqn: u8 = 1; signal Zqgo(zqp: u8); statemachine { initial Zqs;
  state Zqs { on Zqgo -> Zqs { zqn = $zqp;
    if (zqn < 3) { send zqi1.Zqgo(zqn + 1); } send zqi2.Zqput(zqn); } } } }
class Zqhard { attr zqw: u8; signal Zqput(zqv: u8); statemachine { initial Zqs;
  state Zqs { on Zqput -> Zqs { zqw = $zqv * zqw;
    if (zqw < 3) { send zqi2.Zqput(0); } send zqi1.Zqgo($zqv); } } } }
instance zqi1: Zqsoft;
instance zqi2: Zqhard;
"""


def _fixed_names(text: str, comment: str, literal: str) -> set[str]:
    """The identifiers of `text`, outside comments and literals, that no model
    name spells."""
    text = re.sub(literal, " ", re.sub(comment, " ", text))
    return {n for n in re.findall(r"(?<!\w)[A-Za-z_]\w*", text) if "zq" not in n.lower()}


def test_seed_tables_hold_every_name_of_the_fixed_text():
    # both directions: a name the fixed text prints that no table holds, and a
    # table entry that no text prints any more, each fail
    out = emit(parse_model(SEED_PROBE), Partition(domain={"Zqsoft": SW, "Zqhard": HW}), name="zqm")
    c = out.c_source + out.c_header
    for used in ("put_bits(", "get_bits(", "sargs", "zqm_inject(SWI_ZQI1", "zqm_bus_send("):
        assert used in c
    # Zqhard's two send slots: the local one, then the boundary one
    for used in ("send_valid(0) <= '1';", "send_valid(1) <= '1';", "send_args(7 downto 0) <="):
        assert used in out.vhdl_source
    c_names = _fixed_names(c, r"/\*.*?\*/", r'"[^"]*"|<stdint\.h>') - codegen._C_KEYWORDS
    # the <stdint.h> names are kept by hand, and the text prints only some of them
    stdint = codegen._STDINT_TYPES | codegen._STDINT_MACROS
    assert c_names - stdint == codegen._C_DECLARED - stdint
    vhdl_names = {n.lower() for n in _fixed_names(out.vhdl_source, r"--[^\n]*", r"'[01]'")}
    # the package functions' own parameters, and the attribute `u'length`
    vhdl_words = {"u", "b", "length"}
    # `std` is the library every design unit sees without naming it
    assert vhdl_names - codegen._VHDL_RESERVED - vhdl_words == (
        codegen._VHDL_ENTITY_RESERVED - codegen._VHDL_RESERVED
    ) | (codegen._VHDL_LIBRARY - {"std"})


@pytest.mark.parametrize("emitter", [emit_c, emit_vhdl])
@pytest.mark.parametrize("receiver,signal", [("pong", "hit"), ("Pong", "Hit_BITS")])
def test_emitters_reject_a_clashing_foreign_manifest(pingpong, emitter, receiver, signal):
    # a manifest read from disk never went through build_manifest's check:
    # Pong.Hit mangles to SIG_PONG_HIT and SIG_PONG_HIT_BITS, and the added
    # signal repeats one of those names
    p = pingpong_hw(pingpong)
    obj = json.loads(manifest_to_json(build_manifest(EmitPlan(pingpong, p, "pingpong"))))
    obj["signals"].append(
        {"id": 1, "receiver_class": receiver, "signal": signal, "direction": "sw_to_hw",
         "payload": [], "payload_total_bits": 0}
    )
    manifest = manifest_from_json(json.dumps(obj))
    with pytest.raises(CodegenError) as exc:
        emitter(EmitPlan(pingpong, p, "pingpong"), manifest)
    assert exc.value.code == "E_NAME_CLASH"


# --- C emission ---


def test_c_header_macros(pingpong):
    p = pingpong_hw(pingpong)
    plan = EmitPlan(pingpong, p, "pingpong")
    manifest = build_manifest(plan)
    _, header = emit_c(plan, manifest)
    defines = re.findall(r"#define (SIG_\w+) (\d+)", header)
    assert defines == [("SIG_PONG_HIT", "0"), ("SIG_PONG_HIT_BITS", "0")]


def test_c_source_contains_only_sw_dispatch(pingpong):
    p = pingpong_hw(pingpong)
    plan = EmitPlan(pingpong, p, "pingpong")
    manifest = build_manifest(plan)
    source, _ = emit_c(plan, manifest)
    assert "Ping_dispatch" in source
    assert "Pong_dispatch" not in source
    assert "pingpong_bus_send(SIG_PONG_HIT" in source


def test_c_all_hw_only_glue(pingpong):
    p = Partition(domain={"Ping": HW, "Pong": HW})
    plan = EmitPlan(pingpong, p, "pingpong")
    manifest = build_manifest(plan)
    source, header = emit_c(plan, manifest)
    assert "_dispatch" not in source.replace("sw_dispatch", "")
    assert "pingpong_bus_deliver" in source
    assert "pingpong_inject" in source


def test_c_emission_deterministic(pingpong):
    p = pingpong_hw(pingpong)
    plan = EmitPlan(pingpong, p, "x")
    manifest = build_manifest(plan)
    assert emit_c(plan, manifest) == emit_c(plan, manifest)


# --- VHDL emission ---


def test_vhdl_constants_and_entity(pingpong):
    p = pingpong_hw(pingpong)
    plan = EmitPlan(pingpong, p, "pingpong")
    manifest = build_manifest(plan)
    vhdl = emit_vhdl(plan, manifest)
    assert "constant SIG_PONG_HIT : natural := 0;" in vhdl
    assert "constant SIG_PONG_HIT_BITS : natural := 0;" in vhdl
    assert "entity Pong is" in vhdl
    assert "entity Ping is" not in vhdl


def test_vhdl_all_sw_no_entities(pingpong):
    p = Partition(domain={"Ping": SW, "Pong": SW})
    plan = EmitPlan(pingpong, p, "pingpong")
    manifest = build_manifest(plan)
    vhdl = emit_vhdl(plan, manifest)
    assert "entity" not in vhdl
    assert "constant SIG_" not in vhdl


def test_vhdl_payload_field_slice():
    model = parse_model(ALARM)
    p = Partition(domain={"Driver": HW, "Alarm": SW, "Pong": SW})
    plan = EmitPlan(model, p, "alarm")
    manifest = build_manifest(plan)
    vhdl = emit_vhdl(plan, manifest)
    # Alarm.Raise(level: u8) payload: level occupies bits 7 downto 0
    assert "send_args(7 downto 0)" in vhdl
    assert "constant SIG_ALARM_RAISE_BITS : natural := 8;" in vhdl


def test_vhdl_wrapping_arithmetic_forms():
    model = load_model("widths")
    p = Partition(domain={"Gadget": HW, "Sink": SW})
    plan = EmitPlan(model, p, "widths")
    manifest = build_manifest(plan)
    vhdl = emit_vhdl(plan, manifest)
    assert "resize(" in vhdl  # multiplication truncates back to width
    assert "unsigned(ev_args(" in vhdl  # parameter field access


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_vhdl_reset_loads_each_attribute_default(name):
    model = load_model(name)
    classes = ir.ensure_valid(model).classes.values()
    for p in all_partitions(model):
        vhdl = emit(model, p, name=name).vhdl_source
        # each entity's reset branch: from `if rst = '1' then` to its `else`
        branches = re.findall(r"if rst = '1' then\n(.*?)\n +else\n", vhdl, re.S)
        hw = [cls for cls in classes if p.domain[cls.name] == HW]
        assert len(branches) == len(hw)
        for cls, branch in zip(hw, branches):
            assert dict(re.findall(r"(r_\w+) <= (.+);", branch)) == {
                f"r_{a.name}": f"to_unsigned({int(a.default)}, {ir.WIDTHS[a.type]})"
                for a in cls.attributes
            }, (name, cls.name)


def test_vhdl_emission_deterministic(pingpong):
    p = pingpong_hw(pingpong)
    plan = EmitPlan(pingpong, p, "x")
    manifest = build_manifest(plan)
    assert emit_vhdl(plan, manifest) == emit_vhdl(plan, manifest)


# --- check_interfaces ---


def test_check_interfaces_fresh_outputs_pass(pingpong):
    out = emit(pingpong, pingpong_hw(pingpong), name="pingpong")
    assert check_interfaces(out.c_header, out.vhdl_source, out.manifest).ok


def test_check_interfaces_detects_id_tamper(pingpong):
    out = emit(pingpong, pingpong_hw(pingpong), name="pingpong")
    tampered = out.c_header.replace("#define SIG_PONG_HIT 0", "#define SIG_PONG_HIT 1")
    report = check_interfaces(tampered, out.vhdl_source, out.manifest)
    assert not report.ok
    assert any("SIG_PONG_HIT" in p and "1 != 0" in p for p in report.problems)


def test_check_interfaces_detects_missing_constant(pingpong):
    out = emit(pingpong, pingpong_hw(pingpong), name="pingpong")
    stripped = "\n".join(
        line for line in out.vhdl_source.splitlines()
        if "constant SIG_PONG_HIT :" not in line
    )
    report = check_interfaces(out.c_header, stripped, out.manifest)
    assert not report.ok
    assert any("missing SIG_PONG_HIT" in p for p in report.problems)


def test_check_interfaces_detects_extra_macro(pingpong):
    out = emit(pingpong, pingpong_hw(pingpong), name="pingpong")
    extra = out.c_header + "\n#define SIG_GHOST_BOO 7\n"
    report = check_interfaces(extra, out.vhdl_source, out.manifest)
    assert not report.ok
    assert any("unexpected SIG_GHOST_BOO" in p for p in report.problems)


def test_c_narrow_product_widens_before_multiplying():
    out = emit(parse_model(NARROW_MUL), Partition(domain={"Mul": SW}), name="mul")
    assert "self->c = (uint16_t)((uint32_t)self->a * self->b);" in out.c_source
    assert "self->w = (uint32_t)(self->w * self->w);" in out.c_source


def test_unary_forms_big_literal_and_idle_classes():
    out = emit(parse_model(UNARY), Partition(domain=dict(UNARY_DOMAINS)), name="unary")
    assert "self->f = (uint8_t)(!self->f);" in out.c_source
    assert (
        "static void IdleS_dispatch(IdleS_t *self, uint32_t ev,\n"
        "        const uint32_t *args) {\n"
        "    (void)args;\n    (void)self;\n    (void)ev;\n}\n"
    ) in out.c_source
    assert "v_f := (not v_f);" in out.vhdl_source
    assert "v_n := (to_unsigned(0, 8) - v_n);" in out.vhdl_source
    assert "v_w := unsigned'(x\"FFFFFFFF\");" in out.vhdl_source
    idle = out.vhdl_source[out.vhdl_source.index("entity IdleH is"):]
    assert "case state is\n" + " " * 24 + "when ST_I =>\n" + " " * 28 + "null;\n" in idle


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_emit_matches_golden_files(name):
    r"""The four files `comodel gen` writes for each corpus model under its
    committed marks, byte for byte. After an intended change to the
    emitted text, regenerate them from the repository root with

        for m in chain pingpong pipeline race widths; do
          PYTHONPATH=src python3 -m comodel.cli gen corpus/$m.model \\
            --marks corpus/${m}_*.marks -o corpus/golden/gen/$m
        done
    """
    model = load_model(name)
    out = emit(model, derive_partition(model, load_marks(CORPUS_MARKS[name])), name=name)
    gen = GOLDEN / "gen" / name
    assert out.c_source == (gen / f"{name}_sw.c").read_text()
    assert out.c_header == (gen / f"{name}_sw.h").read_text()
    assert out.vhdl_source == (gen / f"{name}_hw.vhd").read_text()
    assert manifest_to_json(out.manifest) == (gen / f"{name}_interface.json").read_text()


# --- coverage across partitions ---


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_every_class_in_exactly_one_target(name):
    model = load_model(name)
    for p in all_partitions(model):
        out = emit(model, p, name=name)
        for cls in model.classes:
            in_c = f"static void {cls.name}_dispatch" in out.c_source
            in_vhdl = f"entity {cls.name} is" in out.vhdl_source
            assert in_c != in_vhdl, (cls.name, p.domain)


# --- optional: compile the generated C ---


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize(
    "name,domain_map",
    [
        ("pingpong", {"Ping": SW, "Pong": HW}),
        ("pingpong", {"Ping": HW, "Pong": SW}),
        ("widths", {"Gadget": SW, "Sink": HW}),
        ("widths", {"Gadget": HW, "Sink": SW}),
        ("chain", {"Bouncer": SW, "Mirror": HW}),
        ("narrow_mul", {"Mul": SW}),
        ("unary", UNARY_DOMAINS),
        ("case_attrs", {"K": SW}),
    ],
)
def test_generated_c_compiles(tmp_path, name, domain_map):
    model = parse_model(INLINE_MODELS[name]) if name in INLINE_MODELS else load_model(name)
    out = emit(model, Partition(domain=dict(domain_map)), name=name)
    (tmp_path / f"{name}_sw.c").write_text(out.c_source)
    (tmp_path / f"{name}_sw.h").write_text(out.c_header)
    result = subprocess.run(
        ["cc", "-std=c99", "-Wall", "-Wextra", "-c", f"{name}_sw.c"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "", result.stderr


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_every_corpus_partition_compiles_warning_free(tmp_path):
    sources = []
    for name in CORPUS_MODELS:
        model = load_model(name)
        for k, p in enumerate(all_partitions(model)):
            out = emit(model, p, name=name)
            d = tmp_path / f"{name}_{k}"
            d.mkdir()
            (d / f"{name}_sw.c").write_text(out.c_source)
            (d / f"{name}_sw.h").write_text(out.c_header)
            sources.append(str(d / f"{name}_sw.c"))
    result = subprocess.run(
        ["cc", "-std=c99", "-Wall", "-Wextra", "-fsyntax-only", *sources],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "", result.stderr


# Names near the generated C namespace: every C99 keyword, every <stdint.h>
# typedef stem, every name of the fixed runtime text and the stems that print
# one (`sw` -> `sw_dispatch`, `id` -> `inst_id`), and some VHDL reserved
# words. Names the model language keeps for itself cannot reach codegen.
ADVERSARIAL_NAMES = [
    name
    for name in (
        """auto break case char const continue default do double else enum extern float
        for goto if inline int long register restrict return short signed sizeof static
        struct switch typedef union unsigned void volatile while _Bool _Complex _Imaginary
        """.split()
        + [f"{u}int{k}{n}" for u in ("", "u") for k in ("", "_least", "_fast") for n in (8, 16, 32, 64)]
        + ["intptr", "uintptr", "intmax", "uintmax"]
        + """event_slot event_queue queues queue_push queue queue_head queue_count put_bits
        get_bits sw_dispatch sw id QUEUE_CAP MAX_ARGS SW_INSTANCE_COUNT begin end entity
        process architecture""".split()
    )
    if name not in frontend.KEYWORDS
]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_adversarial_names_are_rejected_or_compile(tmp_path, capsys):
    sources = []
    for role in ("cls", "attr", "state", "signal", "instance"):
        for name in ADVERSARIAL_NAMES:
            d = tmp_path / f"{role}-{name}"
            d.mkdir()
            (d / "adv.model").write_text(_one_class(**{role: name}))
            rc = main(["gen", str(d / "adv.model"), "-o", str(d)])
            err = capsys.readouterr().err
            if rc == 0:
                sources.append(str(d / "adv_sw.c"))
            else:
                assert rc == 1 and err.startswith(("E_NAME_CLASH", "E_TARGET_NAME")), (role, err)
    # cc runs one compiler process per file: two drivers halve the wall time
    drivers = [
        subprocess.Popen(
            ["cc", "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", *sources[k::2]],
            stderr=subprocess.PIPE,
            text=True,
        )
        for k in range(2)
    ]
    for driver in drivers:
        _, err = driver.communicate()
        assert driver.returncode == 0 and err == "", err


def _harness(name: str, model: ir.Model, scenario: ir.Scenario) -> str:
    """A `main` for the all-SW C half that replays `scenario` as `executor.run`
    does: the `at N` group is injected before step N, and when a step finds
    the queue empty with groups left, the next group is injected. Before each
    step that dispatches it prints the head slot's `inst` and `ev` on one
    line; at the end it prints the step count and then every
    `inst_<name>.<attr>`, one per line."""
    class_of = ir.ensure_valid(model).instance_class
    injs = sorted(scenario.injections, key=lambda inj: inj.at)  # stable: file order in a group
    rows = [
        f"    {{{inj.at}ul, SWI_{inj.instance.upper()},"
        f" {class_of[inj.instance].name.upper()}_EV_{inj.signal.upper()}, {len(inj.args)}u,"
        f" {{{', '.join(f'{int(a)}u' for a in inj.args) or '0u'}}}}},"
        for inj in injs
    ]
    prints = [
        f'    printf("%lu\\n", (unsigned long)inst_{inst}.{a.name});'
        for inst, cls in class_of.items()
        for a in cls.attributes
    ]
    return "\n".join([
        f'#include "{name}_sw.c"',
        "#include <stdio.h>",
        f"void {name}_bus_send(uint32_t sig_id, const uint8_t *payload, uint32_t nbits) {{",
        "    (void)sig_id; (void)payload; (void)nbits;",
        "}",
        "static const struct {",
        "    unsigned long at; uint32_t inst, ev, nargs, args[MAX_ARGS];",
        "} injs[] = {", *rows, "};",
        f"static const unsigned long n = {len(injs)}ul;",
        "static unsigned long k = 0;",
        "static void inject_group(void) {",
        "    unsigned long at = injs[k].at;",
        "    for (; k < n && injs[k].at == at; k++) {",
        f"        {name}_inject(injs[k].inst, injs[k].ev, injs[k].args, injs[k].nargs);",
        "    }",
        "}",
        "int main(void) {",
        "    unsigned long steps = 0;",
        f"    {name}_reset();",
        "    for (;;) {",
        "        if (k < n && injs[k].at == steps) {",
        "            inject_group();",
        "        }",
        "        if (queue_count > 0u) {",
        '            printf("%lu %lu\\n", (unsigned long)queue[queue_head].inst,',
        "                   (unsigned long)queue[queue_head].ev);",
        "        }",
        f"        if ({name}_step()) {{",
        "            steps++;",
        "        } else if (k < n) {",
        "            inject_group();",
        "        } else {",
        "            break;",
        "        }",
        "    }",
        '    printf("%lu\\n", steps);',
        *prints,
        "    return 0;",
        "}",
        "",
    ])


# models the corpus lacks, as (model, scenario) text: `flip` applies `!` to a
# bool attribute in an assignment and in an `if`, taking 8 steps
C_MODELS = {
    ("flip", "flip_go"): ("""
class Flip { attr lit: bool = true; attr n: u8; signal Go(); statemachine { initial S;
  state S { on Go -> S { lit = !lit; if (!lit) { n = n + 1; } else { n = n + 10; }
    if (n < 40) { send f.Go(); } } } } }
instance f: Flip;
""", "at 0 send f.Go();\n"),
}


def _ubsan_run(tmp_path, name: str, out, main_text: str) -> str:
    """Build `main_text` (which includes `<name>_sw.c`) with UBSan, run it, and
    return its stdout; the build and the run must be silent on stderr."""
    (tmp_path / f"{name}_sw.c").write_text(out.c_source)
    (tmp_path / f"{name}_sw.h").write_text(out.c_header)
    (tmp_path / "harness.c").write_text(main_text)
    build = subprocess.run(
        ["cc", "-std=c99", "-Wall", "-Wextra", "-fsanitize=undefined",
         "-fno-sanitize-recover=all", "harness.c", "-o", "harness"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert build.returncode == 0 and build.stderr == "", build.stderr
    result = subprocess.run([str(tmp_path / "harness")], capture_output=True, text=True)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    return result.stdout


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("model_name,scn_name", CORPUS_PAIRS + list(C_RINGS) + list(C_MODELS))
def test_generated_c_runs_like_the_interpreter(tmp_path, model_name, scn_name):
    if (model_name, scn_name) in C_RINGS:
        model, scenario = load_ring(model_name, scn_name)
    elif (model_name, scn_name) in C_MODELS:
        model_text, scn_text = C_MODELS[model_name, scn_name]
        model, scenario = parse_model(model_text), parse_scenario(scn_text)
    else:
        model, scenario = load_model(model_name), load_scenario(scn_name)
    trace = executor.run(model, scenario)
    assert trace.outcome.kind == executor.QUIESCENT
    out = emit(model, derive_partition(model, ir.MarkSet()), name=model_name)
    harness = _harness(model_name, model, scenario)
    lines = _ubsan_run(tmp_path, model_name, out, harness).splitlines()
    class_of = ir.ensure_valid(model).instance_class
    # all SW: the C instance ids are the instances in document order
    swi = {inst: k for k, inst in enumerate(class_of)}
    dispatched = [
        (swi[ev.envelope.receiver],
         [s.name for s in class_of[ev.envelope.receiver].signals].index(ev.envelope.signal))
        for ev in trace.events
    ]
    assert [tuple(map(int, line.split())) for line in lines if " " in line] == dispatched
    attrs = [int(trace.final.attrs[inst][a.name]) for inst, cls in class_of.items()
             for a in cls.attributes]
    assert [int(line) for line in lines if " " not in line] == [len(trace.events), *attrs]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_out_of_range_instance_id_is_dropped(tmp_path, pingpong):
    out = emit(pingpong, Partition(domain={"Ping": SW, "Pong": SW}), name="pingpong")
    assert _ubsan_run(tmp_path, "pingpong", out, "\n".join([
        '#include "pingpong_sw.c"',
        "void pingpong_bus_send(uint32_t sig_id, const uint8_t *payload, uint32_t nbits) {",
        "    (void)sig_id; (void)payload; (void)nbits;",
        "}",
        "int main(void) {",
        "    pingpong_reset();",
        "    pingpong_inject(SW_INSTANCE_COUNT + 3u, PING_EV_HIT, 0, 0u);",
        "    while (pingpong_step()) {",
        "    }",
        "    return 0;",
        "}",
        "",
    ])) == ""


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_bus_delivery_to_another_class_is_dropped(tmp_path):
    # event ids are per class (`ALPHA_EV_KICK` and `RECORDER_EV_PUT` are both 0), so
    # `Put` delivered to `a` must not run `a`'s `Kick`, which would send `rec.Put(1)`
    model = load_model("race")
    out = emit(model, derive_partition(model, load_marks("race_beta_hw")), name="race")

    def deliver_and_step(inst: str) -> list[str]:
        return [f"    race_bus_deliver({inst}, SIG_RECORDER_PUT, payload);",
                "    for (steps = 0; race_step(); steps++) {", "    }",
                '    printf("%lu %lu\\n", steps, (unsigned long)inst_rec.last);']

    assert _ubsan_run(tmp_path, "race", out, "\n".join([
        '#include "race_sw.c"',
        "#include <stdio.h>",
        "void race_bus_send(uint32_t sig_id, const uint8_t *payload, uint32_t nbits) {",
        "    (void)sig_id; (void)payload; (void)nbits;",
        "}",
        "int main(void) {",
        "    const uint8_t payload[1] = {2u};",
        "    unsigned long steps;",
        "    race_reset();",
        *deliver_and_step("SWI_A"),
        *deliver_and_step("SWI_REC"),
        "    return 0;",
        "}",
        "",
    ])) == "0 0\n1 2\n"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_platform_injects_through_the_header_alone(tmp_path, pingpong):
    out = emit(pingpong, pingpong_hw(pingpong), name="pingpong")
    (tmp_path / "pingpong_sw.h").write_text(out.c_header)
    (tmp_path / "platform.c").write_text("\n".join([
        '#include "pingpong_sw.h"',
        "void platform_hit(void) {",
        "    pingpong_inject(SWI_PING, PING_EV_HIT, 0, 0u);",
        "}",
        "",
    ]))
    result = subprocess.run(
        ["cc", "-std=c99", "-Wall", "-Wextra", "-Werror", "-c", "platform.c"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert result.returncode == 0 and result.stderr == "", result.stderr
