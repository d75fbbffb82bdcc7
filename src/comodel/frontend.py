"""Parsers for the three textual inputs: model, marks and scenario files.

All three DSLs share one lexer, one regular expression built from one
table (`_LEXICON`): it skips whitespace and `//` comments, then matches an
ASCII integer `[0-9]+`, an ASCII identifier `[A-Za-z_][A-Za-z0-9_]*` or a
symbol, longest first. A token is its text; its kind comes from its first
character. A character no rule matches is a lexical error, and it wins
over any syntax error. Keywords are reserved, never identifiers.

Model grammar (statements end in `;`, blocks use `{ }`):

    model         := item* ;
    item          := class_def | instance_decl ;
    class_def     := "class" IDENT "{" class_item* "}" ;
    class_item    := attr_def | signal_def | sm_def ;
    attr_def      := "attr" IDENT ":" type ("=" literal)? ";" ;
    signal_def    := "signal" IDENT "(" (param ("," param)*)? ")" ";" ;
    param         := IDENT ":" type ;
    type          := "bool" | "u8" | "u16" | "u32" ;
    sm_def        := "statemachine" "{" "initial" IDENT ";" state_def* "}" ;
    state_def     := "state" IDENT "{" transition* "}" ;
    transition    := "on" IDENT "->" IDENT "{" stmt* "}" ;
    stmt          := IDENT "=" expr ";"
                   | "send" IDENT "." IDENT "(" (expr ("," expr)*)? ")" ";"
                   | "if" "(" expr ")" "{" stmt* "}" ("else" "{" stmt* "}")? ;
    instance_decl := "instance" IDENT ":" IDENT ";" ;

Binary operators bind by the precedences in `ir.BINARY_OPS`, each level
left-associative, and unary `!` and `-` bind tighter. An expression nests
at most `MAX_EXPR_DEPTH` operators deep (a chain of k binary operators is
k deep) and, counted apart so that printed models parse again, at most
`MAX_EXPR_DEPTH` parentheses deep. A statement sits inside at most
`MAX_STMT_DEPTH` nested `if` statements. Signal parameters are written
`$name` to keep them apart from attributes.

Marks:     mark_stmt := "mark" IDENT ("=" literal)? "on" path ";" ;
Scenario:  directive := "at" INT "send" IDENT "." IDENT "(" literals ")" ";"
                      | "expect" IDENT "." IDENT "==" literal ";"
                      | "confluent" ";" ;

Parsing is a pure function of the input text; the first syntax error
wins and is reported with an exact source location. Token offsets, lines
and columns, and the check for a character no rule matches, are computed
only when an error is raised.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from . import ir

_T = TypeVar("_T")

TYPE_NAMES = tuple(ir.WIDTHS)

# Deeper expressions and statements are a ParseError: every later layer
# walks both recursively, and a deepest expression inside the deepest
# block fits all of them on the stack, the parser using the most.
MAX_EXPR_DEPTH = 128
MAX_STMT_DEPTH = 64

KEYWORDS = frozenset(
    [
        "class",
        "instance",
        "attr",
        "signal",
        "statemachine",
        "initial",
        "state",
        "on",
        "send",
        "if",
        "else",
        "true",
        "false",
        *TYPE_NAMES,
    ]
)


@dataclass
class SourceLoc:
    file: str
    line: int  # 1-based
    column: int  # 1-based

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(Exception):
    """First syntax error in an input, with its exact location.

    `code` is None for plain syntax errors; structural parse-level rules
    (currently only duplicate marks) carry their own code.
    """

    def __init__(self, loc: SourceLoc, expected: str, found: str, code: str | None = None):
        super().__init__(f"{loc}: expected {expected}, found {found}")
        self.loc = loc
        self.expected = expected
        self.found = found
        self.code = code


# the token alphabet, read by the lexer and by the parser's kind checks
_DIGITS = "0123456789"
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
_SYMBOLS = "-{}();:,.=<>+*!$"
# a token's first character gives its kind; `""`, the end of input, is in neither
_INT_START = frozenset(_DIGITS)
_IDENT_START = frozenset(_LETTERS)
# the characters that are a token alone; any other one-character token is bad
_CHAR_TOKENS = frozenset(_DIGITS + _LETTERS + _SYMBOLS)

# whitespace and comments, skipped before each token
_SKIP = r"(?:[ \t\r\n]+|//[^\n]*)*"
_LEXICON = (
    rf"[{_DIGITS}]+",  # integer
    rf"[{_LETTERS}][{_LETTERS}{_DIGITS}]*",  # identifier
    # symbol: two-character symbols first, so that `->` is not read as `-` `>`
    rf"->|==|!=|<=|>=|&&|\|\||[{re.escape(_SYMBOLS)}]",
    r".",  # one bad character
    r"\Z",  # the end of input
)
# after the skip, one group: a token, one bad character or the end of input
_TOKEN_RE = re.compile(f"{_SKIP}({'|'.join(_LEXICON)})", re.DOTALL)


def _tokenize(text: str) -> list[str]:
    """The tokens of `text`, each its own text, ending in one `""`; a bad
    character is a token that no parser check accepts."""
    tokens = _TOKEN_RE.findall(text)
    if tokens[-2:] == ["", ""]:  # after a trailing skip `\Z` matches a second time
        tokens.pop()
    return tokens


def _scan(text: str) -> list[tuple[str, int]]:
    """`_tokenize` with each token's offset; built only for errors."""
    scan = [(m.group(1), m.start(1)) for m in _TOKEN_RE.finditer(text)]
    return scan[: scan.index(("", len(text))) + 1]


def _locate(text: str, filename: str, offset: int) -> SourceLoc:
    """The line and column of a character offset, built only for errors."""
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceLoc(filename, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _lex_error(text: str, filename: str, scan: list[tuple[str, int]], i: int) -> ParseError:
    """The error for the bad character `scan[i]`. A word that holds a
    non-ASCII letter or digit is reported whole, at its start, also when it
    starts with ASCII characters; any other character is reported alone."""
    c, offset = scan[i]
    start = offset
    if c.isalnum() and i:
        value, at = scan[i - 1]
        if value[0] in _IDENT_START and at + len(value) == offset:
            start = at
    if not (text[start].isalpha() or text[start] == "_"):
        return ParseError(_locate(text, filename, offset), "a token", repr(c))
    end = offset
    while end < len(text) and (text[end].isalnum() or text[end] == "_"):
        end += 1
    return ParseError(_locate(text, filename, start), "ASCII identifier", repr(text[start:end]))


class _Parser:
    """Recursive descent over the tokens of one text. A token is its text;
    its kind comes from its first character: an ASCII digit starts an
    integer, an ASCII letter or `_` an identifier, and `""` is the end of
    input. Symbols are tested by value. Offsets and the check for a bad
    character are computed only when an error is raised (`fail`), and a
    bad character still wins over any syntax error: every token is accepted
    by a value or kind check, and none accepts a bad character."""

    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tokens = _tokenize(text)
        self.pos = 0

    def fail(self, expected: str, found: str | None = None, code: str | None = None) -> ParseError:
        """The error at token `pos` (`found` defaults to it), unless the
        text holds a bad character: the first one wins, wherever it stands."""
        text, filename = self.text, self.filename
        scan = _scan(text)
        for i, (value, _) in enumerate(scan):
            if len(value) == 1 and value not in _CHAR_TOKENS:
                return _lex_error(text, filename, scan, i)
        value, offset = scan[self.pos]
        if not value:
            found = found or "end of input"
            # a final comment keeps the end-of-input column; every `/` is in a comment
            comment = text.find("//", text.rfind("\n") + 1)
            offset = offset if comment < 0 else comment
        return ParseError(_locate(text, filename, offset), expected, found or repr(value), code)

    def advance(self) -> str:
        value = self.tokens[self.pos]
        self.pos += 1
        return value

    def at(self, value: str) -> bool:
        return self.tokens[self.pos] == value

    def expect(self, value: str) -> None:
        if self.tokens[self.pos] != value:
            raise self.fail(f"'{value}'")
        self.pos += 1

    def expect_ident(self, what: str = "identifier") -> str:
        value = self.tokens[self.pos]
        if value[:1] not in _IDENT_START or value in KEYWORDS:
            raise self.fail(what)
        self.pos += 1
        return value

    def expect_int(self, what: str = "integer") -> int:
        if self.tokens[self.pos][:1] not in _INT_START:
            raise self.fail(what)
        return self.expect_literal()

    def expect_literal(self) -> bool | int:
        value = self.tokens[self.pos]
        if value[:1] in _INT_START:
            try:
                literal = int(value)
            except ValueError:  # more digits than `sys.get_int_max_str_digits()`
                limit = sys.get_int_max_str_digits()
                raise self.fail(f"integer of at most {limit} digits") from None
            self.pos += 1
            return literal
        if value == "true" or value == "false":
            self.pos += 1
            return value == "true"
        raise self.fail("literal")

    def expect_type(self) -> str:
        if self.tokens[self.pos] in TYPE_NAMES:
            return self.advance()
        raise self.fail("type (bool, u8, u16 or u32)")

    def paren_list(self, item: Callable[[], _T]) -> list[_T]:
        """`"(" (item ("," item)*)? ")"`"""
        self.expect("(")
        items: list[_T] = []
        if not self.at(")"):
            items.append(item())
            while self.at(","):
                self.advance()
                items.append(item())
        self.expect(")")
        return items


# ---------------------------------------------------------------------------
# Model parser
# ---------------------------------------------------------------------------


class _ModelParser(_Parser):
    def parse(self) -> ir.Model:
        model = ir.Model()
        while not self.at(""):
            if self.at("class"):
                model.classes.append(self.class_def())
            elif self.at("instance"):
                model.instances.append(self.instance_decl())
            else:
                raise self.fail("'class' or 'instance'")
        return model

    def class_def(self) -> ir.ClassDef:
        self.expect("class")
        name = self.expect_ident("class name")
        cls = ir.ClassDef(name)
        self.expect("{")
        machines = 0
        while not self.at("}"):
            if self.at("attr"):
                cls.attributes.append(self.attr_def())
            elif self.at("signal"):
                cls.signals.append(self.signal_def())
            elif self.at("statemachine"):
                if machines:
                    raise self.fail("at most one statemachine per class")
                machines += 1
                cls.machine = self.sm_def()
            else:
                raise self.fail("'attr', 'signal', 'statemachine' or '}'")
        self.expect("}")
        return cls

    def instance_decl(self) -> ir.InstanceDecl:
        self.expect("instance")
        name = self.expect_ident("instance name")
        self.expect(":")
        class_name = self.expect_ident("class name")
        self.expect(";")
        return ir.InstanceDecl(name, class_name)

    def attr_def(self) -> ir.AttributeDef:
        self.expect("attr")
        name = self.expect_ident("attribute name")
        self.expect(":")
        ty = self.expect_type()
        default: bool | int = False if ty == "bool" else 0
        if self.at("="):
            self.advance()
            default = self.expect_literal()
        self.expect(";")
        return ir.AttributeDef(name, ty, default)

    def signal_def(self) -> ir.SignalDef:
        self.expect("signal")
        name = self.expect_ident("signal name")
        params = self.paren_list(self.param)
        self.expect(";")
        return ir.SignalDef(name, params)

    def param(self) -> ir.SignalParam:
        name = self.expect_ident("parameter name")
        self.expect(":")
        return ir.SignalParam(name, self.expect_type())

    def sm_def(self) -> ir.StateMachineDef:
        self.expect("statemachine")
        self.expect("{")
        self.expect("initial")
        initial = self.expect_ident("initial state name")
        self.expect(";")
        machine = ir.StateMachineDef(initial)
        while self.at("state"):
            machine.states.append(self.state_def())
        self.expect("}")
        return machine

    def state_def(self) -> ir.StateDef:
        self.expect("state")
        name = self.expect_ident("state name")
        state = ir.StateDef(name)
        self.expect("{")
        while self.at("on"):
            state.transitions.append(self.transition())
        self.expect("}")
        return state

    def transition(self) -> ir.TransitionDef:
        self.expect("on")
        signal = self.expect_ident("signal name")
        self.expect("->")
        target = self.expect_ident("target state name")
        tr = ir.TransitionDef(signal, target)
        self.expect("{")
        while not self.at("}"):
            tr.actions.append(self.stmt())
        self.expect("}")
        return tr

    def stmt(self) -> ir.Stmt:
        if self.at("send"):
            self.advance()
            instance = self.expect_ident("instance name")
            self.expect(".")
            signal = self.expect_ident("signal name")
            args = self.paren_list(self.expr)
            self.expect(";")
            return ir.Send(instance, signal, args)
        if self.at("if"):
            if self.ifs == MAX_STMT_DEPTH:
                raise self.fail(f"statement nested at most {MAX_STMT_DEPTH} deep")
            self.advance()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            self.ifs += 1
            then = self.block()
            orelse: list[ir.Stmt] = []
            if self.at("else"):
                self.advance()
                orelse = self.block()
            self.ifs -= 1
            return ir.If(cond, then, orelse)
        attr = self.expect_ident("statement")
        self.expect("=")
        value = self.expr()
        self.expect(";")
        return ir.Assign(attr, value)

    def block(self) -> list[ir.Stmt]:
        self.expect("{")
        stmts: list[ir.Stmt] = []
        while not self.at("}"):
            stmts.append(self.stmt())
        self.expect("}")
        return stmts

    # `if` statements and parentheses open, and the operator depth of the
    # last expression parsed
    ifs = parens = height = 0

    def check_depth(self, depth: int) -> None:
        if depth > MAX_EXPR_DEPTH:
            raise self.fail(f"expression nested at most {MAX_EXPR_DEPTH} deep")

    def expr(self, depth: int = 0, min_prec: int = 1) -> ir.Expr:
        """Precedence climbing over `ir.BINARY_OPS`; `depth` counts the
        operators open around the expression."""
        left = self.unary_expr(depth)
        height = self.height
        while (op := ir.BINARY_OPS.get(self.tokens[self.pos])) and op.prec >= min_prec:
            self.check_depth(depth + height + 1)
            symbol = self.advance()
            right = self.expr(depth + 1, op.prec + 1)
            height = max(height, self.height) + 1
            left = ir.Binary(symbol, left, right)
        self.height = height
        return left

    def unary_expr(self, depth: int) -> ir.Expr:
        if self.at("!") or self.at("-"):
            self.check_depth(depth + 1)
            op = self.advance()
            operand = self.unary_expr(depth + 1)
            self.height += 1
            return ir.Unary(op, operand)
        return self.primary(depth)

    def primary(self, depth: int) -> ir.Expr:
        self.height = 0
        value = self.tokens[self.pos]
        if value[:1] in _INT_START or value == "true" or value == "false":
            literal = self.expect_literal()
            return ir.BoolLit(literal) if isinstance(literal, bool) else ir.IntLit(literal)
        if self.at("$"):
            self.advance()
            return ir.ParamRef(self.expect_ident("parameter name"))
        if self.at("("):
            self.check_depth(self.parens + 1)
            self.advance()
            self.parens += 1
            e = self.expr(depth)
            self.parens -= 1
            self.expect(")")
            return e
        if value[:1] in _IDENT_START and value not in KEYWORDS:
            self.pos += 1
            return ir.AttrRef(value)
        raise self.fail("expression")


def parse_model(text: str, filename: str = "<model>") -> ir.Model:
    parser = _ModelParser(text, filename)
    return parser.parse()


# ---------------------------------------------------------------------------
# Marks parser
# ---------------------------------------------------------------------------


def parse_marks(text: str, filename: str = "<marks>") -> ir.MarkSet:
    p = _Parser(text, filename)
    marks = ir.MarkSet()
    seen: set[tuple[str, str]] = set()
    while not p.at(""):
        start = p.pos
        p.expect("mark")
        key = p.expect_ident("mark key")
        value: bool | int = True
        if p.at("="):
            p.advance()
            value = p.expect_literal()
        p.expect("on")
        parts = [p.expect_ident("element path")]
        while p.at("."):
            p.advance()
            parts.append(p.expect_ident("path segment"))
        p.expect(";")
        path = ".".join(parts)
        if (key, path) in seen:
            p.pos = start
            found = f"duplicate mark {key} on {path}"
            raise p.fail("distinct (key, path) pair", found, "E_DUP_MARK")
        seen.add((key, path))
        marks.marks.append(ir.Mark(key, value, path))
    return marks


# ---------------------------------------------------------------------------
# Scenario parser
# ---------------------------------------------------------------------------


def parse_scenario(text: str, filename: str = "<scenario>") -> ir.Scenario:
    p = _Parser(text, filename)
    scenario = ir.Scenario()
    while not p.at(""):
        if p.at("at"):
            p.advance()
            at = p.expect_int("nonnegative step number")
            p.expect("send")
            instance = p.expect_ident("instance name")
            p.expect(".")
            signal = p.expect_ident("signal name")
            args = p.paren_list(p.expect_literal)
            p.expect(";")
            scenario.injections.append(ir.Injection(at, instance, signal, args))
        elif p.at("expect"):
            p.advance()
            instance = p.expect_ident("instance name")
            p.expect(".")
            attr = p.expect_ident("attribute name")
            p.expect("==")
            value = p.expect_literal()
            p.expect(";")
            scenario.expectations.append(ir.Expectation(instance, attr, value))
        elif p.at("confluent"):
            p.advance()
            p.expect(";")
            scenario.confluent = True
        else:
            raise p.fail("'at', 'expect' or 'confluent'")
    return scenario


# ---------------------------------------------------------------------------
# Canonical printers
#
# The printed form reparses to an equal IR value and is the hashing basis
# for generated-output manifests, so formatting here is deliberately
# rigid: two-space indentation, one statement per line, explicit
# defaults, fully parenthesized subexpressions.
# ---------------------------------------------------------------------------


def _print_literal(v: bool | int) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _print_expr(e: ir.Expr, top: bool = False) -> str:
    if isinstance(e, ir.IntLit):
        return str(e.value)
    if isinstance(e, ir.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, ir.AttrRef):
        return e.name
    if isinstance(e, ir.ParamRef):
        return f"${e.name}"
    if isinstance(e, ir.Unary):
        inner = f"{e.op}{_print_expr(e.operand)}"
        return inner if top else f"({inner})"
    if isinstance(e, ir.Binary):
        inner = f"{_print_expr(e.left)} {e.op} {_print_expr(e.right)}"
        return inner if top else f"({inner})"
    raise TypeError(f"unexpected expression node {e!r}")


def _print_stmts(stmts: list[ir.Stmt], indent: str, out: list[str]) -> None:
    for s in stmts:
        if isinstance(s, ir.Assign):
            out.append(f"{indent}{s.attr} = {_print_expr(s.value, top=True)};")
        elif isinstance(s, ir.Send):
            args = ", ".join(_print_expr(a, top=True) for a in s.args)
            out.append(f"{indent}send {s.instance}.{s.signal}({args});")
        elif isinstance(s, ir.If):
            out.append(f"{indent}if ({_print_expr(s.cond, top=True)}) {{")
            _print_stmts(s.then, indent + "  ", out)
            if s.orelse:
                out.append(f"{indent}}} else {{")
                _print_stmts(s.orelse, indent + "  ", out)
            out.append(f"{indent}}}")


def print_model(model: ir.Model) -> str:
    """Render a model in canonical form (reparses to an equal Model)."""
    out: list[str] = []
    for cls in model.classes:
        out.append(f"class {cls.name} {{")
        for a in cls.attributes:
            out.append(f"  attr {a.name}: {a.type} = {_print_literal(a.default)};")
        for s in cls.signals:
            params = ", ".join(f"{p.name}: {p.type}" for p in s.params)
            out.append(f"  signal {s.name}({params});")
        out.append("  statemachine {")
        out.append(f"    initial {cls.machine.initial};")
        for st in cls.machine.states:
            out.append(f"    state {st.name} {{")
            for tr in st.transitions:
                out.append(f"      on {tr.signal} -> {tr.target} {{")
                _print_stmts(tr.actions, "        ", out)
                out.append("      }")
            out.append("    }")
        out.append("  }")
        out.append("}")
    for inst in model.instances:
        out.append(f"instance {inst.name}: {inst.class_name};")
    return "\n".join(out) + ("\n" if out else "")


def print_marks(marks: ir.MarkSet) -> str:
    lines = [
        f"mark {m.key} = {_print_literal(m.value)} on {m.path};" for m in marks.marks
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def print_scenario(scenario: ir.Scenario) -> str:
    lines: list[str] = []
    for inj in scenario.injections:
        args = ", ".join(_print_literal(a) for a in inj.args)
        lines.append(f"at {inj.at} send {inj.instance}.{inj.signal}({args});")
    for exp in scenario.expectations:
        lines.append(f"expect {exp.instance}.{exp.attr} == {_print_literal(exp.value)};")
    if scenario.confluent:
        lines.append("confluent;")
    return "\n".join(lines) + ("\n" if lines else "")
