"""Core model representation and static validation.

The model is a tree of plain dataclasses built by the frontend parser:
classes with attributes, signals and exactly one state machine each, plus
a static population of named instances. State machines communicate only
by sending signals to instances; every transition's action block is a
loop-free sequence of assignments, sends and if/else over fixed-width
unsigned arithmetic, so each dispatch runs to completion in a statically
bounded number of statements.

`validate` performs every static check required before a model may be
executed or translated. As a side effect it annotates each expression
node with its resolved scalar type (the `ty` field), which the executor
and both code generators rely on for width-exact wrapping arithmetic.
When the report is ok it also records the validator's symbol tables on
the model as a `Checked` value (`Model.checked`), and clears them
otherwise. Every later layer (`run`, `cosim`, the partitioner and both
code generators) reads that one index through `ensure_valid`, which
validates only a model that carries none. A model is therefore validated
once and then trusted: IR values are treated as immutable once
validation has run, mutating them afterwards is unsupported (the record
and the transitions the executor compiled from it would go stale), and
they can be shared freely across threads. A scenario is likewise checked
once per `Checked` record and then trusted (`Scenario.checked`).

Marks, scenarios and the diagnostic report types also live here so the
parser, the partitioner and the executor share one vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

# Scalar types are unsigned with a fixed bit width; bool is the 1-bit case.
WIDTHS: dict[str, int] = {"bool": 1, "u8": 8, "u16": 16, "u32": 32}


# Binary operator classes: logic takes and yields bool, a comparison takes
# two operands of one type and yields bool, arithmetic wraps at its type.
LOGIC, COMPARISON, ARITHMETIC = "logic", "comparison", "arithmetic"


class BinaryOp(NamedTuple):
    prec: int  # binding power: a higher one binds tighter
    kind: str  # LOGIC, COMPARISON or ARITHMETIC


# The one definition of the binary operators, loosest first: the parser
# climbs these precedences (each level left-associative), the validator
# types by the class, and every mapping rule evaluates or prints each key.
BINARY_OPS: dict[str, BinaryOp] = {
    "||": BinaryOp(1, LOGIC),
    "&&": BinaryOp(2, LOGIC),
    "==": BinaryOp(3, COMPARISON), "!=": BinaryOp(3, COMPARISON),
    "<": BinaryOp(4, COMPARISON), "<=": BinaryOp(4, COMPARISON),
    ">": BinaryOp(4, COMPARISON), ">=": BinaryOp(4, COMPARISON),
    "+": BinaryOp(5, ARITHMETIC), "-": BinaryOp(5, ARITHMETIC),
    "*": BinaryOp(6, ARITHMETIC),
}


def mask_of(ty: str) -> int:
    """All-ones mask for a scalar type; arithmetic wraps modulo 2^width."""
    return (1 << WIDTHS[ty]) - 1


# ---------------------------------------------------------------------------
# Expressions
#
# `ty` is filled in by validate(); None means "not yet checked".
# ---------------------------------------------------------------------------


@dataclass
class IntLit:
    value: int
    ty: str | None = field(default=None, compare=False)


@dataclass
class BoolLit:
    value: bool
    ty: str | None = field(default="bool", compare=False)


@dataclass
class AttrRef:
    """Reference to an attribute of the executing instance."""

    name: str
    ty: str | None = field(default=None, compare=False)


@dataclass
class ParamRef:
    """Reference to a parameter of the triggering signal (written `$name`)."""

    name: str
    ty: str | None = field(default=None, compare=False)


@dataclass
class Unary:
    op: str  # "!" (bool) or "-" (wrapping negate)
    operand: "Expr"
    ty: str | None = field(default=None, compare=False)


@dataclass
class Binary:
    op: str  # a key of BINARY_OPS
    left: "Expr"
    right: "Expr"
    ty: str | None = field(default=None, compare=False)


Expr = IntLit | BoolLit | AttrRef | ParamRef | Unary | Binary


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Assign:
    attr: str
    value: Expr


@dataclass
class Send:
    """Send a signal to a named instance; routing is static."""

    instance: str
    signal: str
    args: list[Expr]


@dataclass
class If:
    cond: Expr
    then: list["Stmt"]
    orelse: list["Stmt"]


Stmt = Assign | Send | If


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class AttributeDef:
    """Attribute with a declared type and an explicit default.

    The parser normalizes an omitted default to zero/false, so `default`
    is always a concrete literal (bool for `bool`, int otherwise).
    """

    name: str
    type: str
    default: bool | int


@dataclass
class SignalParam:
    name: str
    type: str


@dataclass
class SignalDef:
    name: str
    params: list[SignalParam] = field(default_factory=list)


@dataclass
class TransitionDef:
    signal: str
    target: str
    actions: list[Stmt] = field(default_factory=list)


@dataclass
class StateDef:
    name: str
    transitions: list[TransitionDef] = field(default_factory=list)


@dataclass
class StateMachineDef:
    initial: str
    states: list[StateDef] = field(default_factory=list)


@dataclass
class ClassDef:
    name: str
    attributes: list[AttributeDef] = field(default_factory=list)
    signals: list[SignalDef] = field(default_factory=list)
    machine: StateMachineDef = field(default_factory=lambda: StateMachineDef(""))


@dataclass
class InstanceDecl:
    name: str
    class_name: str


@dataclass
class Model:
    classes: list[ClassDef] = field(default_factory=list)
    instances: list[InstanceDecl] = field(default_factory=list)
    # set by validate(); not part of the model's value
    checked: Checked | None = field(default=None, init=False, compare=False, repr=False)

    def class_by_name(self, name: str) -> ClassDef | None:
        for c in self.classes:
            if c.name == name:
                return c
        return None

    def instance_by_name(self, name: str) -> InstanceDecl | None:
        for i in self.instances:
            if i.name == name:
                return i
        return None


# ---------------------------------------------------------------------------
# Marks and scenarios
# ---------------------------------------------------------------------------


@dataclass
class Mark:
    """Sticky-note annotation: (key, value) attached to an element path.

    Marks live outside the model file and never modify it; an omitted
    value parses as boolean true.
    """

    key: str
    value: bool | int
    path: str  # dot-separated element path, e.g. "Pong" or "Ping.Hit"


@dataclass
class MarkSet:
    marks: list[Mark] = field(default_factory=list)


@dataclass
class Injection:
    at: int  # dispatch step before which this signal is enqueued
    instance: str
    signal: str
    args: list[bool | int] = field(default_factory=list)


@dataclass
class Expectation:
    instance: str
    attr: str
    value: bool | int


@dataclass
class Scenario:
    """A formal test case: external signal injections plus end-state checks.

    `confluent` marks scenarios whose final attribute valuation is
    independent of legal scheduling order; only those assert final-state
    equality across schedulers and partitions.

    `checked` holds the `Checked` record the executor last checked the
    scenario against, with its injection groups: a run against that same
    record trusts them, any other record is checked afresh, and a failed
    check stores nothing. Mutating a scenario after a run is unsupported.
    """

    injections: list[Injection] = field(default_factory=list)
    expectations: list[Expectation] = field(default_factory=list)
    confluent: bool = False
    # set by the executor's check; not part of the scenario's value
    checked: tuple[Checked, list] | None = field(
        default=None, init=False, compare=False, repr=False
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

ERROR = "ERROR"
WARNING = "WARNING"


@dataclass
class Diagnostic:
    severity: str  # ERROR or WARNING
    code: str
    path: str
    message: str

    def render(self) -> str:
        return f"{self.severity} {self.code} {self.path}: {self.message}"


@dataclass
class ValidationReport:
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)


@dataclass(frozen=True)
class Checked:
    """The symbol tables of a model that validated clean.

    Each maps a name to the IR node that defines it: `classes` by class
    name, `instance_class` by instance name (document order), `signals`
    by (class, signal) and `transitions` by (class, state, signal).
    `sends` holds one (sender class, receiver instance, signal) triple
    per send statement of every transition, in document order.
    `compiled` is the executor's cache of transitions compiled into
    Python functions, under the same keys; it starts empty and is filled
    as transitions first fire. Transitions of one shape share one code
    object, held by the executor, and differ only in the defaults that
    bind their model values.
    """

    classes: dict[str, ClassDef]
    instance_class: dict[str, ClassDef]
    signals: dict[tuple[str, str], SignalDef]
    transitions: dict[tuple[str, str, str], TransitionDef]
    sends: tuple[tuple[str, str, str], ...]
    compiled: dict[tuple[str, str, str], object] = field(
        default_factory=dict, compare=False, repr=False
    )


class InvalidModelError(Exception):
    """Raised when an operation requiring a valid model receives one that
    fails validation."""

    def __init__(self, report: ValidationReport):
        super().__init__(report.render())
        self.report = report


# ---------------------------------------------------------------------------
# Element path resolution
# ---------------------------------------------------------------------------


def resolve(model: Model, path: str):
    """Resolve a dot-separated element path against a model.

    One-part paths name a class or, failing that, an instance (classes
    shadow same-named instances). Two-part paths name an attribute or,
    failing that, a signal of the named class. Anything else, including
    state names, is not resolvable. Returns the IR node or None.
    """
    parts = path.split(".") if path else []
    if not parts or any(not p for p in parts):
        return None
    if len(parts) == 1:
        return model.class_by_name(parts[0]) or model.instance_by_name(parts[0])
    if len(parts) == 2:
        cls = model.class_by_name(parts[0])
        if cls is None:
            return None
        for a in cls.attributes:
            if a.name == parts[1]:
                return a
        for s in cls.signals:
            if s.name == parts[1]:
                return s
        return None
    return None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def literal_fits(value: bool | int, ty: str) -> bool:
    """True when a literal fits `ty`: a bool literal fits only bool, and an
    int literal fits any type it is in range for (bool being the 1-bit case)."""
    if isinstance(value, bool):
        return ty == "bool"
    return 0 <= value <= mask_of(ty)


def _is_polymorphic(e: Expr) -> bool:
    """True when the expression's type is not pinned bottom-up.

    Bare integer literals adapt to the surrounding context; anything
    rooted only in such literals (through negate and arithmetic) stays
    adaptable until an expected type arrives.
    """
    if isinstance(e, IntLit):
        return True
    if isinstance(e, Unary) and e.op == "-":
        return _is_polymorphic(e.operand)
    if isinstance(e, Binary) and e.op in BINARY_OPS and BINARY_OPS[e.op].kind == ARITHMETIC:
        return _is_polymorphic(e.left) and _is_polymorphic(e.right)
    return False


class _Validator:
    def __init__(self, model: Model):
        self.model = model
        self.out: list[Diagnostic] = []
        # First-occurrence symbol tables; duplicates are reported but the
        # first definition stays authoritative for resolution. A clean
        # report turns them into the model's Checked record.
        self.classes: dict[str, ClassDef] = {}
        self.instances: dict[str, InstanceDecl] = {}
        self.signals: dict[tuple[str, str], SignalDef] = {}
        self.transitions: dict[tuple[str, str, str], TransitionDef] = {}
        self.sends: list[tuple[str, str, str]] = []
        for c in model.classes:
            self.classes.setdefault(c.name, c)
        for i in model.instances:
            self.instances.setdefault(i.name, i)
        for c in self.classes.values():
            for s in c.signals:
                self.signals.setdefault((c.name, s.name), s)

    def error(self, code: str, path: str, message: str) -> None:
        self.out.append(Diagnostic(ERROR, code, path, message))

    def run(self) -> ValidationReport:
        seen_classes: set[str] = set()
        for cls in self.model.classes:
            if cls.name in seen_classes:
                self.error("E_DUP_CLASS", cls.name, "duplicate class name")
            else:
                seen_classes.add(cls.name)
                self.check_class(cls)
        seen_instances: set[str] = set()
        for inst in self.model.instances:
            if inst.name in seen_instances:
                self.error("E_DUP_INSTANCE", inst.name, "duplicate instance name")
                continue
            seen_instances.add(inst.name)
            if inst.class_name not in self.classes:
                self.error(
                    "E_UNKNOWN_CLASS",
                    inst.class_name,
                    f"instance {inst.name} names unknown class {inst.class_name}",
                )
        return ValidationReport(self.out)

    def checked(self) -> Checked:
        instance_class = {n: self.classes[i.class_name] for n, i in self.instances.items()}
        sends = tuple(self.sends)
        return Checked(self.classes, instance_class, self.signals, self.transitions, sends)

    def check_class(self, cls: ClassDef) -> None:
        attrs: dict[str, AttributeDef] = {}
        for a in cls.attributes:
            if a.name in attrs:
                self.error("E_DUP_ATTR", f"{cls.name}.{a.name}", "duplicate attribute name")
                continue
            attrs[a.name] = a
            if not literal_fits(a.default, a.type):
                self.error(
                    "E_BAD_DEFAULT",
                    f"{cls.name}.{a.name}",
                    f"default {a.default} does not fit {a.type}",
                )
        seen_signals: set[str] = set()
        for s in cls.signals:
            if s.name in seen_signals:
                self.error("E_DUP_SIGNAL", f"{cls.name}.{s.name}", "duplicate signal name")
                continue
            seen_signals.add(s.name)
            seen_params: set[str] = set()
            for p in s.params:
                if p.name in seen_params:
                    self.error(
                        "E_DUP_PARAM",
                        f"{cls.name}.{s.name}",
                        f"duplicate parameter name {p.name}",
                    )
                seen_params.add(p.name)
        self.check_machine(cls, attrs)

    def check_machine(self, cls: ClassDef, attrs: dict[str, AttributeDef]) -> None:
        m = cls.machine
        if not m.initial and not m.states:
            # parser default for a class body with no statemachine block
            self.error("E_NO_STATEMACHINE", cls.name, "class has no state machine")
            return
        state_names = {st.name for st in m.states}
        if m.initial not in state_names:
            self.error(
                "E_UNKNOWN_STATE",
                f"{cls.name}.{m.initial}",
                f"initial state {m.initial} is not declared",
            )
        seen_states: set[str] = set()
        for st in m.states:
            if st.name in seen_states:
                self.error("E_DUP_STATE", f"{cls.name}.{st.name}", "duplicate state name")
                continue
            seen_states.add(st.name)
            seen_signals: set[str] = set()
            for tr in st.transitions:
                sig = self.signals.get((cls.name, tr.signal))
                if sig is None:
                    self.error(
                        "E_UNKNOWN_SIGNAL",
                        f"{cls.name}.{tr.signal}",
                        f"state {st.name} handles undeclared signal {tr.signal}",
                    )
                    continue
                if tr.signal in seen_signals:
                    self.error(
                        "E_DUP_TRANSITION",
                        f"{cls.name}.{tr.signal}",
                        f"state {st.name} has two transitions on {tr.signal}",
                    )
                    continue
                seen_signals.add(tr.signal)
                self.transitions[(cls.name, st.name, tr.signal)] = tr
                if tr.target not in state_names:
                    self.error(
                        "E_UNKNOWN_STATE",
                        f"{cls.name}.{tr.target}",
                        f"transition target {tr.target} is not declared",
                    )
                params = {p.name: p for p in sig.params}
                for stmt in tr.actions:
                    self.check_stmt(cls, attrs, params, stmt)

    def check_stmt(
        self,
        cls: ClassDef,
        attrs: dict[str, AttributeDef],
        params: dict[str, SignalParam],
        stmt: Stmt,
    ) -> None:
        if isinstance(stmt, Assign):
            target = attrs.get(stmt.attr)
            if target is None:
                self.error(
                    "E_UNKNOWN_ATTR",
                    f"{cls.name}.{stmt.attr}",
                    f"assignment to unknown attribute {stmt.attr}",
                )
                self.check_expr(cls, attrs, params, stmt.value, None)
                return
            self.check_expr(cls, attrs, params, stmt.value, target.type)
        elif isinstance(stmt, Send):
            types: list[str | None] = [None] * len(stmt.args)
            inst = self.instances.get(stmt.instance)
            if inst is None:
                self.error(
                    "E_UNKNOWN_INSTANCE",
                    stmt.instance,
                    f"send targets unknown instance {stmt.instance}",
                )
            else:
                recv_cls = self.classes.get(inst.class_name)
                if recv_cls is None:
                    # instance with an unknown class is reported at the
                    # instance declaration; nothing further to check here
                    return
                path = f"{recv_cls.name}.{stmt.signal}"
                sig = self.signals.get((recv_cls.name, stmt.signal))
                if sig is None:
                    self.error(
                        "E_UNKNOWN_SIGNAL",
                        path,
                        f"send of undeclared signal {stmt.signal} to {stmt.instance}",
                    )
                elif len(stmt.args) != len(sig.params):
                    self.error(
                        "E_ARITY",
                        path,
                        f"signal {stmt.signal} takes {len(sig.params)} argument(s),"
                        f" got {len(stmt.args)}",
                    )
                else:
                    types = [p.type for p in sig.params]
                    self.sends.append((cls.name, stmt.instance, stmt.signal))
            for a, t in zip(stmt.args, types):
                self.check_expr(cls, attrs, params, a, t)
        elif isinstance(stmt, If):
            self.check_expr(cls, attrs, params, stmt.cond, "bool")
            for s in stmt.then:
                self.check_stmt(cls, attrs, params, s)
            for s in stmt.orelse:
                self.check_stmt(cls, attrs, params, s)

    def check_expr(
        self,
        cls: ClassDef,
        attrs: dict[str, AttributeDef],
        params: dict[str, SignalParam],
        e: Expr,
        expected: str | None,
    ) -> str | None:
        """Type-check `e`, annotate `e.ty`, and return the resolved type.

        Bare integer literals adopt the expected type when they fit, and
        default to u32 in unconstrained positions. Everything else must
        match the expected type exactly; operands of one binary operator
        must share a type.
        """
        ctx = f"{cls.name}"

        def mismatch(msg: str, path: str | None = None) -> None:
            self.error("E_TYPE_MISMATCH", path or ctx, msg)

        if isinstance(e, IntLit):
            t = expected or "u32"
            if e.value > mask_of(t):
                mismatch(f"literal {e.value} does not fit {t}")
                e.ty = t
                return None
            e.ty = t
            return t
        if isinstance(e, BoolLit):
            if expected not in (None, "bool"):
                mismatch(f"boolean literal where {expected} expected")
                return None
            e.ty = "bool"
            return "bool"
        if isinstance(e, (AttrRef, ParamRef)):
            if isinstance(e, AttrRef):
                code, what, decl = "E_UNKNOWN_ATTR", f"attribute {e.name}", attrs.get(e.name)
            else:
                code, what, decl = "E_UNKNOWN_PARAM", f"parameter ${e.name}", params.get(e.name)
            path = f"{cls.name}.{e.name}"
            if decl is None:
                self.error(code, path, f"unknown {what}")
                return None
            e.ty = decl.type
            if expected is not None and decl.type != expected:
                mismatch(f"{what} has type {decl.type}, expected {expected}", path)
                return None
            return decl.type
        if isinstance(e, Unary):
            if e.op == "!":
                self.check_expr(cls, attrs, params, e.operand, "bool")
                e.ty = "bool"
                if expected not in (None, "bool"):
                    mismatch(f"! yields bool, expected {expected}")
                    return None
                return "bool"
            t = self.check_expr(cls, attrs, params, e.operand, expected)
            e.ty = t
            return t
        if isinstance(e, Binary):
            return self.check_binary(cls, attrs, params, e, expected)
        raise TypeError(f"unexpected expression node {e!r}")

    def check_binary(
        self,
        cls: ClassDef,
        attrs: dict[str, AttributeDef],
        params: dict[str, SignalParam],
        e: Binary,
        expected: str | None,
    ) -> str | None:
        check = lambda x, exp: self.check_expr(cls, attrs, params, x, exp)
        op = BINARY_OPS.get(e.op)
        if op is None:
            raise ValueError(f"unexpected binary operator {e.op}")

        # Arithmetic and comparisons require one shared operand type;
        # a concrete side pins the type for a literal-only side.
        def operand_types(exp: str | None) -> str | None:
            if exp is not None:
                lt = check(e.left, exp)
                rt = check(e.right, exp)
                return exp if lt == rt == exp else None
            if not _is_polymorphic(e.left):
                lt = check(e.left, None)
                rt = check(e.right, lt)
                return lt if lt is not None and rt == lt else None
            if not _is_polymorphic(e.right):
                rt = check(e.right, None)
                lt = check(e.left, rt)
                return rt if rt is not None and lt == rt else None
            lt = check(e.left, "u32")
            rt = check(e.right, "u32")
            return "u32" if lt == rt == "u32" else None

        if op.kind == ARITHMETIC:
            t = operand_types(expected)
            e.ty = t if t is not None else (expected or "u32")
            return t
        if op.kind == LOGIC:
            check(e.left, "bool")
            check(e.right, "bool")
        else:
            operand_types(None)
        e.ty = "bool"
        if expected not in (None, "bool"):
            self.error("E_TYPE_MISMATCH", cls.name, f"{e.op} yields bool, expected {expected}")
            return None
        return "bool"


def validate(model: Model) -> ValidationReport:
    """Statically check a model and annotate expression types.

    Every violated invariant is reported with a stable diagnostic code;
    nothing is thrown. Diagnostics come out in document order (classes
    first, then instance declarations), so the report is deterministic
    for a given model value. Sets `model.checked` to the symbol tables
    when the report is ok, and to None otherwise.
    """
    validator = _Validator(model)
    report = validator.run()
    model.checked = validator.checked() if report.ok else None
    return report


def ensure_valid(model: Model) -> Checked:
    """Return the model's Checked record, validating it only if it has none.

    Raises InvalidModelError if validation reports errors. Operations
    that require a valid model (execution, partitioning, code generation)
    call this instead of validating again; it also guarantees expression
    type annotations are present. The record is trusted as it stands:
    mutating the IR after validation is unsupported, and that covers the
    transitions compiled from it too.
    """
    if model.checked is None:
        report = validate(model)
        if not report.ok:
            raise InvalidModelError(report)
    return model.checked
