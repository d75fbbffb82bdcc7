"""Every mapping rule covers every binary operator, and binding follows
the documented precedence.

`PRECEDENCE` is the table the README documents, written out here so the
tests check the parser and the rules against it rather than against
themselves.
"""

import pytest

from comodel import codegen, executor, ir
from comodel.frontend import parse_model, print_model

# loosest first; every level is left-associative
PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6,
}
LOGIC = {"||", "&&"}
COMPARISON = {"==", "!=", "<", "<=", ">", ">="}


def _node(op: str) -> ir.Binary:
    """A typed `a op b`, as validate annotates it."""
    operand = "bool" if op in LOGIC else "u8"
    result = "u8" if op in ("+", "-", "*") else "bool"
    return ir.Binary(op, ir.AttrRef("a", operand), ir.AttrRef("b", operand), result)


def test_every_rule_covers_every_binary_operator():
    c_texts, v_texts = set(), set()
    for op in PRECEDENCE:
        assert op in executor._OPS
        c_texts.add(codegen._c_expr(_node(op), {}))
        v_texts.add(codegen._v_expr(_node(op), {}))
    # no operator is printed as another one
    assert len(c_texts) == len(v_texts) == len(PRECEDENCE)


def test_operator_table_is_the_documented_one():
    assert {op: b.prec for op, b in ir.BINARY_OPS.items()} == PRECEDENCE
    for op, b in ir.BINARY_OPS.items():
        want = ir.LOGIC if op in LOGIC else ir.COMPARISON if op in COMPARISON else ir.ARITHMETIC
        assert b.kind == want


def _model(expr: str) -> str:
    return (
        "class K { attr a: u8; attr b: u8; attr c: u8; signal go();"
        f" statemachine {{ initial S; state S {{ on go -> S {{ a = {expr}; }} }} }} }}"
    )


@pytest.mark.parametrize("op1", list(PRECEDENCE))
def test_operator_pairs_bind_by_precedence(op1):
    a, b, c = (ir.AttrRef(n) for n in "abc")
    for op2 in PRECEDENCE:
        model = parse_model(_model(f"a {op1} b {op2} c"))
        if PRECEDENCE[op1] >= PRECEDENCE[op2]:
            want = ir.Binary(op2, ir.Binary(op1, a, b), c)
        else:
            want = ir.Binary(op1, a, ir.Binary(op2, b, c))
        assert model.classes[0].machine.states[0].transitions[0].actions[0].value == want
        assert parse_model(print_model(model)) == model


def test_left_associativity_over_a_mixed_chain():
    # one level at a time: a - b + c * d * e < f
    a, b, c, d, e, f = (ir.AttrRef(n) for n in "abcdef")
    model = parse_model(_model("a - b + c * d * e < f"))
    product = ir.Binary("*", ir.Binary("*", c, d), e)
    want = ir.Binary("<", ir.Binary("+", ir.Binary("-", a, b), product), f)
    assert model.classes[0].machine.states[0].transitions[0].actions[0].value == want
