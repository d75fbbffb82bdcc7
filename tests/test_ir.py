"""Static validation and element path resolution."""

import copy

import pytest
from conftest import CORPUS_MODELS, load_model

from comodel import ir
from comodel.executor import run
from comodel.frontend import parse_model, parse_scenario

MINIMAL = """
class A {
  attr x: u8 = 1;
  attr f: bool = false;
  signal S(p: u8);
  signal T();
  statemachine {
    initial I;
    state I {
      on S -> I { x = x + $p; }
      on T -> I { send a.S(2); }
    }
  }
}
instance a: A;
"""


def codes(report: ir.ValidationReport) -> list[str]:
    return [d.code for d in report.diagnostics]


def test_pingpong_validates_clean(pingpong):
    report = ir.validate(pingpong)
    assert report.ok
    assert report.diagnostics == []


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_corpus_models_validate(name):
    assert ir.validate(load_model(name)).ok


def test_duplicate_class_single_diagnostic():
    text = """
    class Ping { statemachine { initial I; state I { } } }
    class Ping { statemachine { initial I; state I { } } }
    """
    report = ir.validate(parse_model(text))
    assert codes(report) == ["E_DUP_CLASS"]
    assert report.diagnostics[0].path == "Ping"


def test_undeclared_signal_in_transition():
    text = """
    class A { statemachine { initial W; state W { on Foo -> W { } } } }
    """
    report = ir.validate(parse_model(text))
    assert codes(report) == ["E_UNKNOWN_SIGNAL"]
    assert report.diagnostics[0].path == "A.Foo"


BAD_MODELS = [
    # (snippet, expected code, expected path)
    ("class A { statemachine { initial Nope; state I {} } }",
     "E_UNKNOWN_STATE", "A.Nope"),
    ("class A { signal S(); statemachine { initial I; state I { on S -> Gone {} } } }",
     "E_UNKNOWN_STATE", "A.Gone"),
    ("class A { signal S(); statemachine { initial I;"
     " state I { on S -> I {} on S -> I {} } } }",
     "E_DUP_TRANSITION", "A.S"),
    ("class A { attr x: u8 = 256; statemachine { initial I; state I {} } }",
     "E_BAD_DEFAULT", "A.x"),
    ("class A { attr f: bool = 2; statemachine { initial I; state I {} } }",
     "E_BAD_DEFAULT", "A.f"),
    ("class A { attr x: u8 = true; statemachine { initial I; state I {} } }",
     "E_BAD_DEFAULT", "A.x"),
    ("class A { signal S(); statemachine { initial I; state I { on S -> I"
     " { nope = 1; } } } }",
     "E_UNKNOWN_ATTR", "A.nope"),
    ("class A { attr x: u8 = 0; signal S(); statemachine { initial I; state I"
     " { on S -> I { x = $ghost; } } } }",
     "E_UNKNOWN_PARAM", "A.ghost"),
    ("class A { signal S(); statemachine { initial I; state I { on S -> I"
     " { send nobody.S(); } } } } instance a: A;",
     "E_UNKNOWN_INSTANCE", "nobody"),
    ("class A { signal S(p: u8); statemachine { initial I; state I { on S -> I"
     " { send a.S(); } } } } instance a: A;",
     "E_ARITY", "A.S"),
    ("class A { attr x: u8 = 0; attr y: u16 = 0; signal S(); statemachine {"
     " initial I; state I { on S -> I { x = x + y; } } } }",
     "E_TYPE_MISMATCH", "A.y"),
    ("class A { attr x: u8 = 0; signal S(); statemachine { initial I; state I"
     " { on S -> I { x = x && 1; } } } }",
     "E_TYPE_MISMATCH", "A.x"),
    ("class A { statemachine { initial I; state I {} } }"
     " instance a: A; instance a: A;",
     "E_DUP_INSTANCE", "a"),
    ("instance a: Ghost;", "E_UNKNOWN_CLASS", "Ghost"),
    ("class A { attr x: u8; attr x: u8; statemachine { initial I; state I {} } }",
     "E_DUP_ATTR", "A.x"),
    ("class A { signal S(); signal S(); statemachine { initial I; state I {} } }",
     "E_DUP_SIGNAL", "A.S"),
    ("class A { statemachine { initial I; state I {} state I {} } }",
     "E_DUP_STATE", "A.I"),
    ("class A { signal S(p: u8, p: u8); statemachine { initial I; state I {} } }",
     "E_DUP_PARAM", "A.S"),
    ("class A { attr x: u8 = 0; }", "E_NO_STATEMACHINE", "A"),
]


@pytest.mark.parametrize("text,code,path", BAD_MODELS)
def test_invalid_models(text, code, path):
    report = ir.validate(parse_model(text))
    assert not report.ok
    match = [d for d in report.diagnostics if d.code == code]
    assert match, f"missing {code} in {codes(report)}"
    assert match[0].path == path


def test_not_yields_bool():
    report = ir.validate(parse_model(
        "class A { attr a: u8; attr b: bool; signal S(); statemachine { initial I;"
        " state I { on S -> I { a = !b; } } } }"
    ))
    assert [(d.code, d.path, d.message) for d in report.diagnostics] == [
        ("E_TYPE_MISMATCH", "A", "! yields bool, expected u8")
    ]


def test_bad_sends_check_their_arguments():
    # A send that does not resolve, or resolves with the wrong arity,
    # still checks its arguments, untyped: 300 would not fit S's u8. A
    # send to an instance of an unknown class checks nothing; the
    # instance declaration reports the class.
    text = """
    class A {
      attr x: u8 = 0;
      signal S(p: u8);
      signal T();
      statemachine { initial I; state I { on T -> I {
        send nobody.S(zz);
        send a.Nope(zz + 1);
        send a.S(300, zz);
        send g.S(zz);
        send a.S(true);
        send a.S($p);
      } } }
    }
    instance a: A;
    instance g: Ghost;
    """
    report = ir.validate(parse_model(text))
    assert [(d.code, d.path) for d in report.diagnostics] == [
        ("E_UNKNOWN_INSTANCE", "nobody"),
        ("E_UNKNOWN_ATTR", "A.zz"),
        ("E_UNKNOWN_SIGNAL", "A.Nope"),
        ("E_UNKNOWN_ATTR", "A.zz"),
        ("E_ARITY", "A.S"),
        ("E_UNKNOWN_ATTR", "A.zz"),
        ("E_TYPE_MISMATCH", "A"),
        ("E_UNKNOWN_PARAM", "A.p"),
        ("E_UNKNOWN_CLASS", "Ghost"),
    ]


def test_literal_out_of_range_in_expression():
    text = """
    class A { attr x: u8 = 0; signal S(); statemachine { initial I;
      state I { on S -> I { x = 300; } } } }
    """
    report = ir.validate(parse_model(text))
    assert codes(report) == ["E_TYPE_MISMATCH"]


LITERAL_CMP = """
class A {{ attr small: u8 = 255; attr hit: u8; signal S();
  statemachine {{ initial I; state I {{ on S -> I {{ if ({cond}) {{ hit = 1; }} }} }} }} }}
instance a: A;
"""


@pytest.mark.parametrize(
    "cond,ty",
    [
        ("-1 == small", "u8"),  # -1 wraps to 255 at u8
        ("1 + 254 == small", "u8"),
        ("1 < 2", "u32"),  # no side pins a type
    ],
)
def test_literal_side_takes_the_other_side_type(cond, ty):
    model = parse_model(LITERAL_CMP.format(cond=cond))
    assert ir.validate(model).ok
    cmp = model.classes[0].machine.states[0].transitions[0].actions[0].cond
    assert (cmp.left.ty, cmp.right.ty) == (ty, ty)
    trace = run(model, parse_scenario("at 0 send a.S();"))
    assert trace.final.attrs["a"]["hit"] == 1


def test_literal_compared_with_a_narrow_side_must_fit():
    report = ir.validate(parse_model(LITERAL_CMP.format(cond="300 < small")))
    assert [(d.code, d.message) for d in report.diagnostics] == [
        ("E_TYPE_MISMATCH", "literal 300 does not fit u8")
    ]


def test_bool_arithmetic_is_width_one():
    # bool is the 1-bit unsigned type; same-type arithmetic wraps mod 2
    text = """
    class A { attr f: bool = false; attr g: bool = true; signal S();
      statemachine { initial I; state I { on S -> I { f = f + g; } } } }
    """
    assert ir.validate(parse_model(text)).ok


def test_validate_idempotent_and_pure():
    model = parse_model(MINIMAL)
    twin = copy.deepcopy(model)
    first = ir.validate(model).render()
    second = ir.validate(model).render()
    assert first == second == ir.validate(twin).render()


def test_validate_annotates_expression_types():
    model = parse_model(MINIMAL)
    ir.validate(model)
    tr = model.classes[0].machine.states[0].transitions[0]
    assign = tr.actions[0]
    assert assign.value.ty == "u8"
    assert assign.value.left.ty == "u8"
    assert assign.value.right.ty == "u8"


def test_diagnostic_paths_resolve_or_name_the_bad_token():
    for text, code, path in BAD_MODELS:
        model = parse_model(text)
        for d in ir.validate(model).diagnostics:
            resolved = ir.resolve(model, d.path)
            if resolved is None:
                # unresolvable paths must end in the offending token
                assert d.path.split(".")[-1] in d.message or d.code.startswith("E_DUP") \
                    or d.code.startswith("E_UNKNOWN")


def test_ensure_valid_raises_on_errors():
    bad = parse_model("instance a: Ghost;")
    with pytest.raises(ir.InvalidModelError):
        ir.ensure_valid(bad)


# --- resolve ---


def test_resolve_class(pingpong):
    assert isinstance(ir.resolve(pingpong, "Pong"), ir.ClassDef)


def test_resolve_signal(pingpong):
    node = ir.resolve(pingpong, "Pong.Hit")
    assert isinstance(node, ir.SignalDef)
    assert node.name == "Hit"


def test_resolve_attribute(pingpong):
    node = ir.resolve(pingpong, "Ping.hits")
    assert isinstance(node, ir.AttributeDef)


def test_resolve_instance(pingpong):
    node = ir.resolve(pingpong, "ping")
    assert isinstance(node, ir.InstanceDecl)


@pytest.mark.parametrize("path", ["Nope", "Ping.nope", "Ping.Waiting", "Ping.Hit.x", ""])
def test_resolve_not_found(pingpong, path):
    assert ir.resolve(pingpong, path) is None
