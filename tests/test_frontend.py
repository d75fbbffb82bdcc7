"""Parsing, printing and error locations for the three DSLs."""

import sys

import pytest
from conftest import CORPUS, CORPUS_MODELS, CORPUS_PAIRS, load_model, load_ringgen, load_scenario

from comodel import frontend, ir
from comodel.frontend import (
    ParseError,
    parse_marks,
    parse_model,
    parse_scenario,
    print_marks,
    print_model,
    print_scenario,
)


def test_empty_model():
    model = parse_model("")
    assert model.classes == [] and model.instances == []


def test_pingpong_structure(pingpong):
    assert [c.name for c in pingpong.classes] == ["Ping", "Pong"]
    assert [(i.name, i.class_name) for i in pingpong.instances] == [
        ("ping", "Ping"),
        ("pong", "Pong"),
    ]
    waiting = pingpong.classes[0].machine.states[0]
    assert waiting.name == "Waiting"
    assert len(waiting.transitions) == 1
    assert len(waiting.transitions[0].actions) == 2


def test_class_without_name_fails_at_line_one():
    with pytest.raises(ParseError) as exc:
        parse_model("class {")
    assert exc.value.loc.line == 1
    assert "name" in exc.value.expected or "identifier" in exc.value.expected


@pytest.mark.parametrize(
    "text",
    [
        "class A { attr x u8; statemachine { initial I; state I {} } }",
        "class A { statemachine { initial I; state I { on S -> {} } } }",
        "instance a A;",
        "class A { statemachine { state I {} } }",
        "mystery;",
    ],
)
def test_model_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_model(text)


def test_two_statemachines_rejected():
    with pytest.raises(ParseError) as exc:
        parse_model(
            "class A { statemachine { initial I; state I {} }"
            " statemachine { initial J; state J {} } }"
        )
    assert "one statemachine" in exc.value.expected


def test_keywords_are_reserved():
    with pytest.raises(ParseError):
        parse_model("class send { statemachine { initial I; state I {} } }")


def test_parse_determinism():
    text = (CORPUS / "widths.model").read_text()
    assert parse_model(text) == parse_model(text)


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_model_round_trip(name):
    model = load_model(name)
    assert parse_model(print_model(model)) == model


@pytest.mark.parametrize("_, name", CORPUS_PAIRS)
def test_scenario_round_trip(_, name):
    scenario = load_scenario(name)
    assert parse_scenario(print_scenario(scenario)) == scenario


def test_boolean_literals_round_trip():
    model = parse_model(
        "class A { attr f: bool; signal S(g: bool); statemachine { initial I; state I {"
        " on S -> I { f = true; if (f == false) { send a.S(true); } else { f = !false; } } } } }"
        " instance a: A;"
    )
    text = print_model(model)
    assert "f = true;" in text and "(f == false)" in text and "send a.S(true);" in text
    assert parse_model(text) == model


def test_marks_round_trip():
    marks = parse_marks("mark isHardware on Pong; mark weight = 3 on Ping.Hit;")
    assert parse_marks(print_marks(marks)) == marks


# --- marks ---


def test_mark_value_defaults_true():
    marks = parse_marks("mark isHardware on Pong;")
    assert marks.marks == [ir.Mark("isHardware", True, "Pong")]


def test_empty_marks():
    assert parse_marks("").marks == []


def test_duplicate_mark_rejected():
    with pytest.raises(ParseError) as exc:
        parse_marks("mark isHardware on Pong; mark isHardware on Pong;")
    assert exc.value.code == "E_DUP_MARK"


def test_same_key_different_paths_ok():
    marks = parse_marks("mark isHardware on Pong; mark isHardware on Ping;")
    assert len(marks.marks) == 2


def test_mark_values():
    marks = parse_marks("mark a = false on X; mark b = 7 on X.y;")
    assert marks.marks[0].value is False
    assert marks.marks[1].value == 7
    assert marks.marks[1].path == "X.y"


# --- scenarios ---


def test_scenario_injection():
    s = parse_scenario("at 0 send ping.Hit();")
    assert s.injections == [ir.Injection(0, "ping", "Hit", [])]
    assert not s.confluent


def test_scenario_expectation():
    s = parse_scenario("expect pong.hits == 1;")
    assert s.expectations == [ir.Expectation("pong", "hits", 1)]


def test_scenario_negative_step_rejected():
    with pytest.raises(ParseError):
        parse_scenario("at -1 send ping.Hit();")


def test_scenario_args_and_confluent():
    s = parse_scenario("at 2 send g.Load(true, 250, 1000, 5); confluent;")
    assert s.injections[0].args == [True, 250, 1000, 5]
    assert s.confluent


# --- error location fidelity ---


def _corrupt(text: str, value: str, offset: int) -> str:
    return text[:offset] + "?" + text[offset + len(value):]


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


@pytest.mark.parametrize(
    "fname,parser",
    [
        ("pingpong.model", parse_model),
        ("pingpong_pong_hw.marks", parse_marks),
        ("pingpong_hit.scn", parse_scenario),
    ],
)
def test_single_token_corruption_located(fname, parser):
    text = (CORPUS / fname).read_text()
    tokens = frontend._scan(text)[:-1]  # drop eof
    for value, offset in tokens:
        corrupted = _corrupt(text, value, offset)
        with pytest.raises(ParseError) as exc:
            parser(corrupted)
        loc = exc.value.loc
        # never past the corrupted token
        assert (loc.line, loc.column) <= _line_col(text, offset)


# --- lexical errors: a character no token rule matches ---


@pytest.mark.parametrize(
    "parser,text,message",
    [
        (parse_model, "é", "<model>:1:1: expected ASCII identifier, found 'é'"),
        (parse_model, "abé", "<model>:1:1: expected ASCII identifier, found 'abé'"),
        (parse_model, "x abé1_y z", "<model>:1:3: expected ASCII identifier, found 'abé1_y'"),
        (parse_model, "1é", "<model>:1:2: expected ASCII identifier, found 'é'"),
        (parse_model, "a\u0301", "<model>:1:2: expected a token, found '\u0301'"),
        (parse_model, "#", "<model>:1:1: expected a token, found '#'"),
        (parse_model, "\x00", "<model>:1:1: expected a token, found '\\x00'"),
        (parse_model, "½", "<model>:1:1: expected a token, found '½'"),
        (parse_model, "class A {\n\t#", "<model>:2:2: expected a token, found '#'"),
        (parse_model, "class A {\r\n  #", "<model>:2:3: expected a token, found '#'"),
        (
            parse_model,
            "class A {\t\r\n\t}\r\n x",
            "<model>:3:2: expected 'class' or 'instance', found 'x'",
        ),
        (
            parse_model,
            "class A { // c",
            "<model>:1:11: expected 'attr', 'signal', 'statemachine' or '}', found end of input",
        ),
        (
            parse_model,
            "class A { // c\n",
            "<model>:2:1: expected 'attr', 'signal', 'statemachine' or '}', found end of input",
        ),
        # integer literals are ASCII digits: a lexical error wins over the
        # syntax error that follows it, and no digit is read as a number
        (parse_model, "attr x: u8 = ²;", "<model>:1:14: expected a token, found '²'"),
        (
            parse_model,
            "class A { attr x: u8 = ²; }",
            "<model>:1:24: expected a token, found '²'",
        ),
        (parse_model, "٣", "<model>:1:1: expected a token, found '٣'"),
        (parse_model, "ab²", "<model>:1:1: expected ASCII identifier, found 'ab²'"),
        (parse_scenario, "at 0 send a.B(²);", "<scenario>:1:15: expected a token, found '²'"),
        (parse_scenario, "at ٣ send a.B();", "<scenario>:1:4: expected a token, found '٣'"),
        (parse_marks, "mark k = 1٣ on A;", "<marks>:1:11: expected a token, found '٣'"),
    ],
)
def test_lexical_error_texts(parser, text, message):
    with pytest.raises(ParseError) as exc:
        parser(text)
    assert str(exc.value) == message
    assert exc.value.code is None


# a lexical error anywhere wins over an earlier syntax error, duplicate
# mark, depth error or integer too long for `int`, although the text is
# checked only on error
_DEEP = (
    "class A { attr x: u8; signal go(); statemachine { initial S; state S {"
    f" on go -> S {{ x = {'-' * (frontend.MAX_EXPR_DEPTH + 1)}x; }} }} }} }}\n// é\n"
)
# 0 where `int` reads any number of digits
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "parser,text,bad,first,message",
    [
        (parse_model, "class class ", "é", "class name",
         "<model>:1:13: expected ASCII identifier, found 'é'"),
        (parse_marks, "mark k on A;\nmark k on A; ", "½", "distinct (key, path) pair",
         "<marks>:2:14: expected a token, found '½'"),
        (parse_model, _DEEP, "é", f"expression nested at most {frontend.MAX_EXPR_DEPTH} deep",
         "<model>:3:1: expected ASCII identifier, found 'é'"),
        pytest.param(
            parse_model, f"class A {{ attr x: u32 = {'7' * (_INT_DIGITS + 1)}; }} ", "é",
            f"integer of at most {_INT_DIGITS} digits",
            f"<model>:1:{_INT_DIGITS + 30}: expected ASCII identifier, found 'é'",
            marks=pytest.mark.skipif(not _INT_DIGITS, reason="int reads any number of digits"),
        ),
    ],
    ids=["syntax", "duplicate_mark", "depth", "long_integer"],
)
def test_lexical_error_wins_over_an_earlier_error(parser, text, bad, first, message):
    with pytest.raises(ParseError) as exc:
        parser(text)
    assert exc.value.expected == first
    with pytest.raises(ParseError) as exc:
        parser(text + bad)
    assert str(exc.value) == message
    assert exc.value.code is None


def _ring_texts() -> list[str]:
    ringgen = load_ringgen()
    ring = ringgen.generate(ringgen.RingSpec(instances=4, tokens=2, ttl=5, body="heavy"), 7)
    return [ring.model_text, ring.marks_text, ring.scenario_text]


@pytest.mark.parametrize("tail", ["", "\n", "  \t", " // c", "\n// c", "\n// c\n"])
def test_token_stream_is_the_located_scan(tail):
    texts = [p.read_text() for p in sorted(CORPUS.glob("*.*"))] + _ring_texts()
    for text in texts:
        text = text.rstrip("\n") + tail
        tokens = frontend._tokenize(text)
        assert tokens == [value for value, _ in frontend._scan(text)]
        assert tokens[-1] == "" and tokens.count("") == 1


# --- expression depth ---

D = frontend.MAX_EXPR_DEPTH


def _nest(n: int, wrap) -> str:
    e = "x"
    for _ in range(n):
        e = wrap(e)
    return e


@pytest.mark.parametrize(
    "expr",
    [
        _nest(D, lambda e: f"({e})"),
        _nest(D, lambda e: f"-{e}"),
        " + ".join(["x"] * (D + 1)),
        _nest(D, lambda e: f"x + ({e})"),
        _nest(D, lambda e: f"-({e})"),
        "(" * D + " * ".join(["x"] * (D + 1)) + ")" * D,
    ],
    ids=["parens", "unary", "chain", "right_nested", "negated_parens", "parenthesized_chain"],
)
def test_deepest_expressions_reprint_and_reparse(expr):
    # the printer parenthesizes every inner operator, so parentheses are
    # bounded apart from operators and the printed form stays in bounds
    model = parse_model(
        "class A { attr x: u8; signal go(); statemachine { initial S;"
        f" state S {{ on go -> S {{ x = {expr}; }} }} }} }}"
    )
    assert ir.validate(model).ok
    assert parse_model(print_model(model)) == model


def test_deepest_statements_reprint_and_reparse():
    body = f"x = {_nest(D, lambda e: f'x + ({e})')};"
    for _ in range(frontend.MAX_STMT_DEPTH):
        body = f"if (x == 0) {{ {body} }} else {{ x = 1; }}"
    model = parse_model(
        "class A { attr x: u8; signal go(); statemachine { initial S;"
        f" state S {{ on go -> S {{ {body} }} }} }} }}"
    )
    assert ir.validate(model).ok
    assert parse_model(print_model(model)) == model


@pytest.mark.parametrize(
    "expr,found",
    [
        (_nest(D + 1, lambda e: f"x + ({e})"), "'+'"),
        # a negation and a product per level: the 65th negation is 129 deep
        (_nest(D // 2 + 1, lambda e: f"-(x * {e})"), "'-'"),
        # x + -x is 2 deep, so the D-th `+` of this chain is D + 1 deep
        ("x" + " + -x" * D, "'+'"),
    ],
    ids=["right_nested", "mixed", "chain_of_negations"],
)
def test_one_operator_too_deep_is_a_parse_error(expr, found):
    with pytest.raises(ParseError) as exc:
        parse_model(f"class A {{ statemachine {{ initial S; state S {{ on go -> S {{ x = {expr}; }} }}")
    assert exc.value.expected == f"expression nested at most {D} deep"
    assert exc.value.found == found
