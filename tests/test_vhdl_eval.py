"""The printed VHDL, evaluated one clock edge at a time against the interpreter.

No VHDL simulator is installed, so `Entity` evaluates the subset that the HW
mapping rule prints: the package's `natural` constants and, per entity, its
ports, registers and variables and the one clocked process of `if`, `case`,
`null`, `:=` and `<=` over `unsigned` values with numeric_std's widths
(`+ -` keep the wider operand's, `*` adds them), `resize`, `to_unsigned`,
hex literals and the package's `to_u1` and `to_bool`. One `edge` is one
rising clock edge: variables change at once and keep their values between
edges, and signals commit after the process has run. A width mismatch, an
index outside a vector, a read of anything no edge has driven and any text
outside the subset raise, as a simulator would stop.

Each HW entity of every corpus partition is run from reset, then on every
(state, signal) of its class with the defaults and seeded valuations of its
attributes and args, and compared with `executor.execute_rtc_step`: the next
state, every register, and the valid send slots in ascending order against
the step's sends. Slot k is the k-th send statement of the class in document
order, found by this file's own walk over the IR.
"""

import itertools
import operator
import random
import re

import pytest
from conftest import CORPUS_MODELS, load_model

from comodel import executor, ir
from comodel.codegen import emit
from comodel.frontend import parse_model
from comodel.partition import HW, SW, Partition, all_partitions


class Vec(tuple):
    """A std_logic_vector or unsigned value: its bits, '0', '1' or None when
    undriven, bit 0 first."""


def _vec(value, width) -> Vec:
    if type(value) is not int or type(width) is not int or not 0 <= value < 1 << width:
        raise ValueError(f"{value!r} does not fit {width!r} bits")
    return Vec(format(value, f"0{width}b")[::-1])


def _num(v) -> int:
    if not isinstance(v, Vec):
        raise TypeError(f"{v!r} is not a vector")
    return int("".join(reversed(v)), 2)


def _boolean(v) -> bool:
    if type(v) is not bool:
        raise TypeError(f"{v!r} is not a boolean")
    return v


def _arith(fn, width):
    def apply(a, b):
        w = width(len(_same(a)), len(_same(b)))
        return _vec(fn(_num(a), _num(b)) % (1 << w), w)
    return apply


def _relation(test):
    def apply(a, b):
        if isinstance(a, Vec) and isinstance(b, Vec):
            return test(_num(a), _num(b))
        if isinstance(a, Vec) or isinstance(b, Vec) or type(a) is not type(b):
            raise TypeError(f"cannot compare {a!r} with {b!r}")
        return test(a, b)
    return apply


def _logic(fn):
    def apply(a, b):
        if len(_same(a)) != len(_same(b)):
            raise TypeError(f"logic of {len(a)} and {len(b)} bits")
        return Vec(str(fn(int(x), int(y))) for x, y in zip(a, b))
    return apply


def _same(v):
    _num(v)
    return v


OPS = {
    "+": _arith(operator.add, max), "-": _arith(operator.sub, max),
    "*": _arith(operator.mul, operator.add),
    "and": _logic(operator.and_), "or": _logic(operator.or_),
    "=": _relation(operator.eq), "/=": _relation(operator.ne), "<": _relation(operator.lt),
    "<=": _relation(operator.le), ">": _relation(operator.gt), ">=": _relation(operator.ge),
}
FUNCS = {
    "to_unsigned": _vec,
    "resize": lambda v, w: _vec(_num(v) % (1 << w), w),
    "to_u1": lambda b: _vec(int(_boolean(b)), 1),
    "to_bool": lambda u: _num(u) != 0,
    "unsigned": _same,
    "std_logic_vector": _same,
    "rising_edge": lambda clk: clk == "1",
}


def _not(v):
    return Vec("1" if b == "0" else "0" for b in _same(v))


class Entity:
    """One printed entity, every signal undriven until the first `edge`."""

    def __init__(self, text: str, constants: dict[str, int]):
        self.constants = constants
        self.literals = set(re.search(r"type state_t is \((.*?)\);", text)[1].split(", "))
        self.width: dict[str, int] = {}  # the vectors' widths
        self.kind: dict[str, str] = {}  # in, out, signal or variable
        for kind, name, mode, high in re.findall(
                r"^ *(variable |signal )?(\w+) : (in |out )?(?:std_logic|state_t|natural range 0"
                r" to \d+|(?:std_logic_vector|unsigned)\((\d+) downto 0\));?$", text, re.M):
            self.kind[name] = (kind or mode).strip()
            if high:
                self.width[name] = int(high) + 1
        self.values: dict[str, object] = dict.fromkeys(self.kind)
        body = re.search(r"process \(clk\)\n(?: *variable .*\n)* *begin\n(.*end) process", text, re.S)
        self.toks = re.findall(r"""x"[0-9a-f]+"|'[01]'|\w+|:=|<=|=>|/=|>=|\S""", body[1])
        self.i = 0
        self.body = self.stmts("end")
        assert self.toks[self.i:] == ["end"], self.toks[self.i:]

    # -- parsing: each statement and expression becomes a closure --

    def peek(self) -> str:
        return self.toks[self.i]

    def take(self, expected: str | None = None) -> str:
        tok = self.toks[self.i]
        if expected is not None and tok != expected:
            raise SyntaxError(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def stmts(self, *ends: str) -> list:
        out = []
        while self.peek() not in ends:
            out.append(self.stmt())
        return out

    def stmt(self):
        tok = self.take()
        if tok == "null":
            self.take(";")
            return lambda: None
        if tok == "if":
            cond = self.expr()
            self.take("then")
            then, orelse = self.stmts("else", "end"), []
            if self.take() == "else":
                orelse = self.stmts("end")
                self.take("end")
            self.take("if"), self.take(";")
            return lambda: self.run(then if _boolean(cond()) else orelse)
        if tok == "case":
            return self.case()
        select = self.select(tok) if self.peek() == "(" else None
        op = self.take()
        value = self.expr()
        self.take(";")
        if self.kind[tok] not in {":=": ("variable",), "<=": ("signal", "out")}.get(op, ()):
            raise SyntaxError(f"{tok} {op}")
        if op == ":=":
            return lambda: self.values.__setitem__(tok, self.store(tok, select, value()))
        return lambda: self.pending.append((tok, select, value()))

    def case(self):
        subject, arms = self.expr(), []
        self.take("is")
        while self.take() == "when":
            choice = self.take() if self.peek() == "others" else self.expr()
            self.take("=>")
            arms.append((choice, self.stmts("when", "end")))
        self.take("case"), self.take(";")

        def run_case():
            value = subject()
            for choice, body in arms:
                if choice == "others" or choice() == value:
                    return self.run(body)
            raise ValueError(f"no choice for {value!r}")
        return run_case

    def select(self, name: str):
        """`(i)` or `(h downto l)` after `name`: a function of (low, high, slice?)."""
        self.take("(")
        hi = lo = self.expr()
        if self.peek() == "downto":
            self.take()
            lo = self.expr()
        self.take(")")

        def bounds():
            low, high = lo(), hi()
            if not 0 <= low <= high < self.width[name]:
                raise IndexError(f"{name}({high} downto {low})")
            return low, high, lo is not hi
        return bounds

    def binary(self, operand, ops):
        left = operand()
        while self.peek() in ops:
            fn, right = OPS[self.take()], operand()
            left = (lambda fn, l, r: lambda: fn(l(), r()))(fn, left, right)
        return left

    def expr(self):
        return self.binary(self.relation, ("and", "or"))

    def relation(self):
        return self.binary(self.simple, ("=", "/=", "<", "<=", ">", ">="))

    def simple(self):
        return self.binary(lambda: self.binary(self.factor, ("*",)), ("+", "-"))

    def factor(self):
        tok = self.take()
        if tok == "not":
            inner = self.factor()
            return lambda: _not(inner())
        if tok == "(" and self.peek() == "others":
            self.take(), self.take("=>")
            bit = self.take()[1]
            self.take(")")
            return lambda: ("others", bit)
        if tok == "(":
            inner = self.expr()
            self.take(")")
            return inner
        if tok.isdigit():
            return lambda: int(tok)
        if tok[0] == "'":
            return lambda: tok[1]
        if self.peek() == "'":  # unsigned'(x"..")
            self.take(), self.take("(")
            digits = self.take()[2:-1]
            self.take(")")
            return lambda: _vec(int(digits, 16), 4 * len(digits))
        if tok in FUNCS:
            self.take("(")
            args = [self.expr()]
            while self.peek() == ",":
                self.take()
                args.append(self.expr())
            self.take(")")
            return lambda: FUNCS[tok](*[a() for a in args])
        select = self.select(tok) if self.peek() == "(" else None
        return lambda: self.read(tok, select)

    # -- evaluation --

    def run(self, stmts: list) -> None:
        for s in stmts:
            s()

    def read(self, name: str, select=None):
        if name in self.constants:
            return self.constants[name]
        if name in self.literals:
            return name
        value = self.values[name]
        if value is None or (isinstance(value, Vec) and None in value):
            raise ValueError(f"read of undriven {name}")
        if select is None:
            return value
        low, high, is_slice = select()
        return Vec(value[low:high + 1]) if is_slice else value[low]

    def store(self, name: str, select, value):
        """`name`'s value after `value` is written to all of it or to `select`."""
        if type(value) is tuple:  # (others => bit)
            value = Vec(value[1] * self.width[name])
        if select is None:
            if name in self.width and not (isinstance(value, Vec)
                                           and len(value) == self.width[name]):
                raise TypeError(f"{name} <= {value!r}: width")
            if name == "state" and value not in self.literals:
                raise TypeError(f"state <= {value!r}")
            return value
        low, high, is_slice = select()
        if (not isinstance(value, Vec) or len(value) != high - low + 1 if is_slice
                else value not in ("0", "1")):
            raise TypeError(f"{name}({high} downto {low}) <= {value!r}")
        old = self.values[name] or (None,) * self.width[name]
        return Vec(old[:low] + tuple(value) + old[high + 1:])

    def edge(self, **inputs) -> None:
        """One rising edge of `clk`, with `inputs` on the in ports and the
        ports not given undriven."""
        for name in ("rst", "ev_valid", "ev_id", "ev_args"):
            self.values[name] = inputs.get(name)
        self.values["clk"] = "1"
        self.pending: list = []
        self.run(self.body)
        for name, select, value in self.pending:
            self.values[name] = self.store(name, select, value)


def _design(vhdl: str) -> tuple[dict[str, int], dict[str, str]]:
    """The package's constants, and each entity's text by name (lower case)."""
    text = re.sub(r"--[^\n]*", "", vhdl.lower())
    constants = {n: int(v) for n, v in re.findall(r"constant (\w+) : natural := (\d+);", text)}
    entities = re.findall(r"\nentity (\w+) is\n(.*?end architecture rtl;)", text, re.S)
    return constants, dict(entities)


def _slots(checked: ir.Checked, cls: ir.ClassDef) -> list[tuple[str, str, list[tuple[int, int]]]]:
    """Each send statement of `cls` in document order, as (instance, signal,
    [(low bit, width)] of its args in the slots' packed `send_args`)."""
    slots, base = [], 0

    def walk(stmts: list[ir.Stmt]) -> None:
        nonlocal base
        for s in stmts:
            if isinstance(s, ir.Send):
                recv = checked.instance_class[s.instance].name
                widths = [ir.WIDTHS[p.type] for p in checked.signals[recv, s.signal].params]
                lows = list(itertools.accumulate([base] + widths))
                slots.append((s.instance, s.signal, list(zip(lows, widths))))
                base = lows[-1]
            elif isinstance(s, ir.If):
                walk(s.then)
                walk(s.orelse)

    for st in cls.machine.states:
        for tr in st.transitions:
            walk(tr.actions)
    return slots


def _literals(node) -> set[int]:
    """The integer literals of an IR node."""
    if isinstance(node, ir.IntLit):
        return {node.value}
    if isinstance(node, list):
        return set().union(*map(_literals, node))
    fields = getattr(node, "__dataclass_fields__", {})
    return set().union(*(_literals(getattr(node, f)) for f in fields))


def _draw(width: int, near: list[int], rng: random.Random) -> int:
    """Half the time 0, 1, all ones or a value next to a literal, so that
    comparisons flip; else any value of `width` bits."""
    if rng.random() < 0.5:
        return rng.choice([0, 1, -1, *near]) & ((1 << width) - 1)
    return rng.getrandbits(width)


class Harness:
    """One HW class: its entity, evaluated, and the interpreter beside it."""

    def __init__(self, model: ir.Model, vhdl: str, cls_name: str):
        self.checked = ir.ensure_valid(model)
        self.machine = executor.Machine(model)
        self.cls = self.checked.classes[cls_name]
        self.inst = next(i for i, c in self.checked.instance_class.items() if c is self.cls)
        self.slots = _slots(self.checked, self.cls)
        self.constants, entities = _design(vhdl)
        self.ent = Entity(entities[cls_name.lower()], self.constants)
        self.regs = {a.name: (f"r_{a.name.lower()}", ir.WIDTHS[a.type]) for a in self.cls.attributes}

    def vhdl_step(self, state: str, signal: str, attrs: dict[str, int], args: tuple[int, ...]):
        """(next state, registers, sends) after one edge on `signal`."""
        ent = self.ent
        ent.values["state"] = f"st_{state.lower()}"
        for a, (reg, width) in self.regs.items():
            ent.values[reg] = _vec(attrs[a], width)
        params = self.checked.signals[self.cls.name, signal].params
        offsets = itertools.accumulate([0] + [ir.WIDTHS[p.type] for p in params])
        bits = sum(v << off for v, off in zip(args, offsets))
        ev_id = self.constants[f"ev_{self.cls.name.lower()}_{signal.lower()}"]
        ent.edge(rst="0", ev_valid="1", ev_id=ev_id, ev_args=_vec(bits, ent.width["ev_args"]))
        valid, packed = ent.read("send_valid"), ent.read("send_args")
        sends = [(self.slots[k][0], self.slots[k][1],
                  tuple(_num(Vec(packed[low:low + w])) for low, w in self.slots[k][2]))
                 for k, bit in enumerate(valid) if bit == "1"]
        return ent.read("state"), self.registers(), sends

    def registers(self) -> dict[str, int]:
        return {a: _num(self.ent.read(reg)) for a, (reg, _) in self.regs.items()}

    def interpreter_step(self, state: str, signal: str, attrs: dict[str, int], args):
        """The same triple from `execute_rtc_step`, which leaves an unhandled
        pair unchanged (lenient)."""
        sys_state = self.machine.initial_state()
        sys_state.states[self.inst] = state
        sys_state.attrs[self.inst] = dict(attrs)
        sent: list[executor.SignalEnvelope] = []
        envelope = executor.SignalEnvelope(0, executor.ENV_SENDER, self.inst, signal, args)
        event = executor.execute_rtc_step(self.machine, sys_state, envelope, sent.append,
                                          executor.LENIENT)
        return (f"st_{event.to_state.lower()}", sys_state.attrs[self.inst],
                [(e.receiver, e.signal, e.args) for e in sent])


def _hw_partitions() -> list:
    cases = []
    for name in CORPUS_MODELS:
        for p in all_partitions(load_model(name)):
            hw = [cls for cls, d in p.domain.items() if d == HW]
            if hw:
                cases.append(pytest.param(name, p, id=f"{name}-{'+'.join(hw)}"))
    return cases


@pytest.mark.parametrize("name,partition", _hw_partitions())
def test_every_hw_entity_steps_like_the_interpreter(name, partition):
    model = load_model(name)
    vhdl = emit(model, partition, name=name).vhdl_source
    for cls in ir.ensure_valid(model).classes.values():
        if partition.domain[cls.name] != HW:
            continue
        h = Harness(model, vhdl, cls.name)
        h.ent.edge(rst="1")  # the other inputs are undriven and must not be read
        for port, kind in h.ent.kind.items():
            if kind in ("out", "signal"):
                h.ent.read(port)  # raises when undriven
        assert h.ent.read("state") == f"st_{cls.machine.initial.lower()}"
        assert h.registers() == {a.name: int(a.default) for a in cls.attributes}
        h.ent.edge(rst="0", ev_valid="0")
        assert h.ent.read("send_valid") == _vec(0, h.ent.width["send_valid"])

        near = sorted({v + d for v in _literals(cls.machine) for d in (-1, 0, 1)})
        for st, sig in itertools.product(cls.machine.states, cls.signals):
            rng = random.Random(f"{cls.name}.{st.name}.{sig.name}")
            widths = [ir.WIDTHS[p.type] for p in sig.params]
            for k in range(9):  # the defaults, then 8 drawn valuations
                attrs = {a.name: _draw(ir.WIDTHS[a.type], near, rng) if k else int(a.default)
                         for a in cls.attributes}
                args = tuple(_draw(w, near, rng) if k else 0 for w in widths)
                assert h.vhdl_step(st.name, sig.name, attrs, args) == h.interpreter_step(
                    st.name, sig.name, attrs, args), (cls.name, st.name, sig.name, attrs, args)


TWO_GOTS = """
class Twice { signal Go(); statemachine { initial S;
  state S { on Go -> S { send s.Got(1); send s.Got(2); } } } }
class Sink { attr last: u8; signal Got(v: u8); statemachine { initial S;
  state S { on Got -> S { last = $v; } } } }
instance t: Twice; instance s: Sink;
"""


@pytest.mark.parametrize("source,domain,cls,signal,attrs,sends", [
    pytest.param(None, {"Bouncer": HW, "Mirror": HW}, "Bouncer", "Poke", {"n": 0},
                 [("mirror", "Echo", ()), ("me", "Poke", ())], id="chain-Bouncer+Mirror"),
    pytest.param(TWO_GOTS, {"Twice": HW, "Sink": SW}, "Twice", "Go", {},
                 [("s", "Got", (1,)), ("s", "Got", (2,))], id="two-gots"),
])
def test_two_sends_leave_on_one_edge(source, domain, cls, signal, attrs, sends):
    model = parse_model(source) if source else load_model("chain")
    h = Harness(model, emit(model, Partition(domain=domain)).vhdl_source, cls)
    h.ent.edge(rst="1")
    state = h.cls.machine.initial
    assert h.vhdl_step(state, signal, attrs, ())[2] == sends
    assert h.interpreter_step(state, signal, attrs, ())[2] == sends
