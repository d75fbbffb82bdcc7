"""Reference interpreter: run-to-completion execution of validated models.

Execution semantics
-------------------
Every in-flight signal is a `SignalEnvelope` carrying a globally unique,
strictly increasing sequence number allocated at send time. One dispatch
step is atomic: dequeue one envelope, execute the matching transition's
actions in order (sends allocate fresh sequence numbers in statement
order), then enter the target state. No other instance's data changes
during a step.

Scenario injections with `at N` are enqueued, in file order, before
dispatch step N; injections that fall beyond quiescence are enqueued
when the system goes quiescent, which resumes the run. A scenario is
checked once per validated model and kept on the scenario, so `run`,
`cosim` and every seed of a campaign share one check.

`run` and `partition.cosim` share one dispatch loop, which holds these
rules, the step limit and the outcome once. The loop knows islands,
each a list of instances served in turn, and not the HW and SW domains:
`cosim` turns its partition into two islands, and `run` is the
one-island case. Each island keeps one FIFO of its pending envelopes in
the order they reached it, whatever their receiver, the structure of the
generated C's one event FIFO; a receiver's envelopes keep their order in
it. A step's number is its index in the trace. The golden traces remain
the independent oracle for that loop.

The scheduler only picks *which* pending envelope of an island
dispatches next:

* ``global-fifo`` - the head of the island's FIFO, the envelope that
  reached the island first (the deterministic reference order). In
  `run` every envelope reaches the one island in seq order, so this is
  seq order; in `cosim` a bus delivery is served after the envelopes
  that reached its island before it, as the generated C's one FIFO
  serves it;
* ``random`` - a uniformly chosen receiver with a pending envelope
  under a seeded RNG, drawn over the island's instance order, then that
  receiver's first envelope in the FIFO, which is its oldest.
  Per-receiver FIFO order is never violated, so causality holds for
  every seed. A draw scans the island's pending envelopes and its
  instances.

Arithmetic wraps modulo 2^width of the expression's resolved type, so
software and hardware translations of the same action are bit-equal.

Each transition is compiled into one Python function the first time it
fires. It is printed as the source of `f(a, p, writes, sends, k0, k1,
...)` in three-address form, one line `tN = (x OP y) & kM` per operator
node, and a parameter is read from the envelope's args `p` by position.
Every value the model supplies (a literal, a width mask, an attribute
name, a receiver, a signal, the target state) is a parameter `kI` whose
default is that value, so no model text enters the source. The source
depends only on the transition's shape: its statements, operators and
operand kinds, and the positions of the parameters it reads. One bounded
cache maps source to code object, so transitions of one shape share one
code object and differ only in their defaults; a new shape costs one
`compile`. The functions get no builtins as globals and read no global
name. The compiled transitions are cached on the model's `ir.Checked`
record, so `run`, `cosim` and repeated runs of one validated model share
them, and a new validation starts from an empty cache. The golden
traces, and a test that checks the functions against a tree-walking
reference evaluator, are the oracle for that compiler.

A step's trace record keeps only what the step did: its envelope, its
states, its attribute writes as a tuple of (attr, value) pairs and its
sent seqs, which are always contiguous, as a `range`. Its step number
is its index in the trace, and what a cosim line adds is derived from
the trace's maps when it renders. The collector never tracks a
`range`; it untracks each pair the first time it passes over it, and
the tuple on a later pass, so a long trace costs it little.

Traces serialize to JSON Lines (one object per event, then one summary
object); that rendering is byte-deterministic and is the golden-file
contract used by the equivalence and repartitioning checks. Boolean
values appear as 0/1 in traces. One renderer writes run and cosim traces
alike: it formats each event line from one template rather than through
`json.dumps`. That is exact only because every number it writes (seq,
step, args, write values, sent seqs, bus rounds) is a Python `int`,
never a `bool`: steps and bus rounds are counts, literals, defaults and
scenario arguments go through `int()`, and every operator node of a
compiled expression masks its result with an `int`.
"""

from __future__ import annotations

import functools
import json
import random
from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from types import CodeType, FunctionType

from . import ir

ENV_SENDER = "$env"

GLOBAL_FIFO = "global-fifo"
RANDOM = "random"

STRICT = "strict"
LENIENT = "lenient"

QUIESCENT = "quiescent"
STEP_LIMIT = "step-limit"
RUNTIME_ERROR = "runtime-error"


class ScenarioError(Exception):
    """A scenario references names the model does not define (E_SCENARIO_REF)."""

    code = "E_SCENARIO_REF"


@dataclass
class ExecConfig:
    scheduler: str = GLOBAL_FIFO
    seed: int = 0
    mode: str = STRICT
    max_steps: int = 10000

    def __post_init__(self) -> None:
        if self.scheduler not in (GLOBAL_FIFO, RANDOM):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.mode not in (STRICT, LENIENT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(slots=True)
class SignalEnvelope:
    seq: int
    sender: str  # instance name, or $env for scenario injections
    receiver: str
    signal: str
    args: tuple[int, ...]


@dataclass
class SystemState:
    """Mutable execution state: instance states and attribute valuations,
    the pending envelopes, and the next sequence number. `pending` holds
    one FIFO per island of the dispatch loop, each in the order its
    envelopes reached it: one in `run`, SW then HW in `cosim`. The number
    of steps run is the length of the trace's events."""

    states: dict[str, str]
    attrs: dict[str, dict[str, int]]
    pending: list[deque[SignalEnvelope]] = field(default_factory=list)
    next_seq: int = 0


@dataclass(slots=True)
class TraceEvent:
    """One dispatch step. Its step number is its index in `Trace.events`."""

    envelope: SignalEnvelope
    from_state: str
    to_state: str
    writes: tuple[tuple[str, int], ...]
    sent: range  # the seqs of the envelopes the step sent, always contiguous
    dropped: bool = False


@dataclass
class Outcome:
    kind: str  # quiescent | step-limit | runtime-error
    detail: str | None = None  # what a runtime error was; no other kind has one

    def render(self) -> str:
        if self.kind == RUNTIME_ERROR:
            return f"runtime-error({self.detail})"
        return self.kind


@dataclass
class ExpectationResult:
    path: str
    expected: int
    actual: int
    passed: bool


@dataclass
class Trace:
    events: list[TraceEvent]
    final: SystemState
    outcome: Outcome
    expectations: list[ExpectationResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.outcome.kind == QUIESCENT and all(e.passed for e in self.expectations)


# ---------------------------------------------------------------------------
# Static dispatch tables
# ---------------------------------------------------------------------------


class Machine:
    """A valid model's dispatch tables, shared by run() and cosim().

    The tables are the model's `ir.Checked` record, read through
    `ir.ensure_valid`, so a model that was validated is not validated
    again and one that never was is validated here. `instance_class`
    maps each instance to its class, in document order, and
    `checked.transitions` maps (class, state, signal) to the transition.
    `compiled` maps the same keys to the transitions compiled so far; it
    lives on the `ir.Checked` record, so every run and cosim of one
    validated model shares it.
    """

    def __init__(self, model: ir.Model):
        self.checked = ir.ensure_valid(model)
        self.instance_class = self.checked.instance_class
        self.compiled = self.checked.compiled

    def initial_state(self) -> SystemState:
        states = {}
        attrs = {}
        for name, cls in self.instance_class.items():
            states[name] = cls.machine.initial
            attrs[name] = {a.name: int(a.default) for a in cls.attributes}
        return SystemState(states=states, attrs=attrs)


# ---------------------------------------------------------------------------
# Transitions printed as Python functions
# ---------------------------------------------------------------------------

# The Python spelling of each binary operator. Every expression node
# prints as one line `tN = (x OP y) & kM`, with `kM` the mask of its
# resolved type: `-y` is `(-y) & kM` and `!y` is `(1 - y) & kM`. Bool-typed
# values are always 0 or 1, so `!`, `&&` and `||` are arithmetic or
# bitwise on them, and a comparison's bool masked by 1 becomes the int
# 0/1. Evaluation never fails or has effects, so `&&` and `||` need not
# short-circuit.
_OPS = {
    "+": "+", "-": "-", "*": "*",
    "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "&&": "&", "||": "|",
}

# The globals of every generated function: it reads no global name, and
# no builtin is within its reach.
_GLOBALS: dict = {"__builtins__": {}}


class _Printer:
    """Prints one function in three-address form, in source that depends
    only on the shape (see the module docstring).

    Each model value becomes the next parameter `kI` and its default. The
    only other names are `a`, the instance's attribute dict, `p`, the
    envelope's args, read as `p[i]` with `params` mapping a parameter to
    its position, `writes`, `sends` and the temps `tN`. Statements nest
    one space per `if`, and no expression nests, so the deepest model
    (`frontend.MAX_STMT_DEPTH` and `MAX_EXPR_DEPTH`) stays within the
    Python parser's indent and parenthesis limits.
    """

    def __init__(self, params: dict[str, int]):
        self.params = params
        self.lines: list[str] = []
        self.consts: list[object] = []
        self.temps = 0

    def const(self, value: object) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def temp(self, pad: str, value: str) -> str:
        t = f"t{self.temps}"
        self.temps += 1
        self.lines.append(f"{pad}{t} = {value}")
        return t

    def expr(self, e: ir.Expr, pad: str) -> str:
        """The text of `e`'s value: a leaf read, or the temp that holds it
        after the lines printed for its nodes."""
        if isinstance(e, (ir.IntLit, ir.BoolLit)):
            return self.const(int(e.value))
        if isinstance(e, ir.AttrRef):
            return f"a[{self.const(e.name)}]"
        if isinstance(e, ir.ParamRef):
            return f"p[{self.params[e.name]}]"
        if isinstance(e, ir.Unary):
            y = self.expr(e.operand, pad)
            value = f"-{y}" if e.op == "-" else f"1 - {y}"
        elif isinstance(e, ir.Binary):
            x = self.expr(e.left, pad)
            value = f"{x} {_OPS[e.op]} {self.expr(e.right, pad)}"
        else:
            raise TypeError(f"unexpected expression node {e!r}")
        return self.temp(pad, f"({value}) & {self.const(ir.mask_of(e.ty))}")

    def block(self, stmts: list[ir.Stmt], pad: str) -> None:
        """Print `stmts` in order. An assignment stores its value and
        appends `(attr, value)` to `writes`; a send appends `(receiver,
        signal, args)` to `sends`."""
        for s in stmts:
            if isinstance(s, ir.Assign):
                v = self.expr(s.value, pad)
                if not v.isidentifier():  # an attribute or parameter read
                    v = self.temp(pad, v)
                k = self.const(s.attr)
                self.lines += [f"{pad}a[{k}] = {v}", f"{pad}writes.append(({k}, {v}))"]
            elif isinstance(s, ir.Send):
                args = "".join(f"{self.expr(x, pad)}, " for x in s.args)
                receiver, signal = self.const(s.instance), self.const(s.signal)
                self.lines.append(f"{pad}sends.append(({receiver}, {signal}, ({args})))")
            elif isinstance(s, ir.If):
                self.lines.append(f"{pad}if {self.expr(s.cond, pad)}:")
                self.block(s.then, pad + " ")
                if s.orelse:
                    self.lines.append(f"{pad}else:")
                    self.block(s.orelse, pad + " ")
            else:
                raise TypeError(f"unexpected statement {s!r}")
        if not stmts:
            self.lines.append(f"{pad}pass")

    def function(self, args: str):
        """The function `f(args)` of the lines printed, with every `kI`
        bound to its value."""
        ks = "".join(f", k{i}" for i in range(len(self.consts)))
        source = "\n".join([f"def f({args}{ks}):", *self.lines])
        return FunctionType(_code(source), _GLOBALS, "f", tuple(self.consts))


@functools.lru_cache(maxsize=512)
def _code(source: str) -> CodeType:
    """The code object of the one function `source` defines. Sources are
    shapes, so transitions of one shape share one code object."""
    module = compile(source, "<comodel transition>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _compile_transition(tr: ir.TransitionDef, sig: ir.SignalDef):
    """The function `f(attrs, args, writes, sends) -> target state` of a
    transition triggered by `sig`, whose args it reads by position."""
    printer = _Printer({p.name: i for i, p in enumerate(sig.params)})
    printer.block(tr.actions, " ")
    printer.lines.append(f" return {printer.const(tr.target)}")
    return printer.function("a, p, writes, sends")


def execute_rtc_step(
    machine: Machine,
    state: SystemState,
    envelope: SignalEnvelope,
    deliver,
    mode: str,
) -> TraceEvent | None:
    """Run one atomic dispatch step for `envelope`.

    `deliver(env)` routes each envelope the actions send (queue or bus),
    in statement order. Returns the trace event, or None when the signal
    is unhandled in strict mode (the caller turns that into a
    runtime-error outcome). Only the receiving instance's attributes are
    touched. The transition is compiled the first time it fires. The
    event holds the writes as a tuple and the sent seqs as a `range`.
    """
    inst = envelope.receiver
    cur = state.states[inst]
    key = (machine.instance_class[inst].name, cur, envelope.signal)
    transition = machine.compiled.get(key)
    if transition is None:
        tr = machine.checked.transitions.get(key)
        if tr is None:
            if mode == STRICT:
                return None
            return TraceEvent(envelope, cur, cur, (), range(0), True)
        sig = machine.checked.signals[key[0], key[2]]
        transition = machine.compiled[key] = _compile_transition(tr, sig)

    writes: list[tuple[str, int]] = []
    sends: list[tuple[str, str, tuple[int, ...]]] = []
    target = transition(state.attrs[inst], envelope.args, writes, sends)
    # no action reads a queue, so delivering after the body is the same
    # as delivering at each send
    first = seq = state.next_seq
    for receiver, signal, args in sends:
        deliver(SignalEnvelope(seq, inst, receiver, signal, args))
        seq += 1
    state.next_seq = seq
    state.states[inst] = target
    return TraceEvent(envelope, cur, target, tuple(writes), range(first, seq))


# ---------------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------------


def _injections(
    checked: ir.Checked, scenario: ir.Scenario
) -> list[tuple[int, list[tuple[str, str, tuple[int, ...]]]]]:
    """The injections grouped by `at`, as `(at, group)` pairs in ascending
    `at` order, each group in file order as `(instance, signal, int
    args)`; callers must not mutate them. They are stored on the scenario
    with `checked` and returned without a walk while `checked` is the
    record. Raises ScenarioError, storing nothing, at the first reference
    that does not resolve or value that does not fit its type."""
    if scenario.checked is not None and scenario.checked[0] is checked:
        return scenario.checked[1]

    def fail(msg: str) -> None:
        raise ScenarioError(f"E_SCENARIO_REF: {msg}")

    groups: dict[int, list[tuple[str, str, tuple[int, ...]]]] = {}
    for inj in scenario.injections:
        cls = checked.instance_class.get(inj.instance)
        if cls is None:
            fail(f"injection targets unknown instance {inj.instance}")
        sig = checked.signals.get((cls.name, inj.signal))
        if sig is None:
            fail(f"instance {inj.instance} has no signal {inj.signal}")
        if len(inj.args) != len(sig.params):
            fail(
                f"{inj.instance}.{inj.signal} takes {len(sig.params)} argument(s),"
                f" got {len(inj.args)}"
            )
        for a, p in zip(inj.args, sig.params):
            if not ir.literal_fits(a, p.type):
                if isinstance(a, bool):
                    fail(f"boolean argument for {p.type} parameter {p.name}")
                fail(f"argument {a} does not fit parameter {p.name}: {p.type}")
        args = tuple(int(a) for a in inj.args)
        groups.setdefault(inj.at, []).append((inj.instance, inj.signal, args))
    for exp in scenario.expectations:
        cls = checked.instance_class.get(exp.instance)
        if cls is None:
            fail(f"expectation references unknown instance {exp.instance}")
        attr = next((a for a in cls.attributes if a.name == exp.attr), None)
        if attr is None:
            fail(f"instance {exp.instance} has no attribute {exp.attr}")
        if not ir.literal_fits(exp.value, attr.type):
            if isinstance(exp.value, bool):
                fail(f"boolean expectation for {attr.type} attribute {exp.attr}")
            fail(f"expectation {exp.value} does not fit attribute {exp.attr}: {attr.type}")
    scenario.checked = checked, sorted(groups.items())
    return scenario.checked[1]


def check_expectations(state: SystemState, scenario: ir.Scenario) -> list[ExpectationResult]:
    results = []
    for exp in scenario.expectations:
        actual = state.attrs[exp.instance][exp.attr]  # the scenario check resolved it
        expected = int(exp.value)
        results.append(
            ExpectationResult(
                path=f"{exp.instance}.{exp.attr}",
                expected=expected,
                actual=actual,
                passed=actual == expected,
            )
        )
    return results


# ---------------------------------------------------------------------------
# The dispatch loop
# ---------------------------------------------------------------------------


def _dispatch(
    machine: Machine,
    scenario: ir.Scenario,
    config: ExecConfig,
    islands: list[list[str]] | None = None,
    latency: int = 0,
) -> tuple[Trace, dict[int, int]]:
    """The one dispatch loop, shared by `run` and `partition.cosim`.

    `islands` lists each island's instance names in round order; None
    means one island holding every instance (the `run` case). Each
    island's pending envelopes are one deque in `state.pending`, in the
    order they reached it. A round gives every island, even an empty one,
    its turn for at most one step, then a bus tick. A send to another
    island rides the bus and reaches its island once `latency` rounds
    have passed since its enqueue round. Every step builds the same
    `TraceEvent`, whatever its island, and a step's number is the count
    of events before it. Returns the trace and the bus map `seq ->
    enqueue round` of the envelopes that rode the bus.
    """
    groups = deque(_injections(machine.checked, scenario))  # a copy: popped as injected
    state = machine.initial_state()
    rng = random.Random(config.seed) if config.scheduler == RANDOM else None
    # latency is constant, so due rounds never decrease along the bus and
    # the due envelopes sit at its left
    bus: deque[SignalEnvelope] = deque()
    bus_rounds: dict[int, int] = {}
    round_no = 0

    names_of = islands or [list(machine.instance_class)]
    state.pending = [deque() for _ in names_of]
    queue_of = {name: queue for queue, names in zip(state.pending, names_of) for name in names}

    def draw(queue: deque[SignalEnvelope], names: list[str]) -> SignalEnvelope:
        """Remove and return the first envelope in `queue` of a receiver
        drawn uniformly, in `names` order, from those with one pending."""
        waiting = {env.receiver for env in queue}
        nonempty = [name for name in names if name in waiting]
        receiver = nonempty[rng.randrange(len(nonempty))]
        i = next(i for i, env in enumerate(queue) if env.receiver == receiver)
        env = queue[i]
        del queue[i]
        return env

    def make_deliver(local: deque[SignalEnvelope], names: list[str]):
        if len(names) == len(queue_of):  # every receiver is local
            return local.append

        def deliver(env: SignalEnvelope) -> None:
            if queue_of[env.receiver] is local:
                local.append(env)
            else:
                bus.append(env)
                bus_rounds[env.seq] = round_no
        return deliver

    turns = [
        (queue, queue.popleft if rng is None else functools.partial(draw, queue, names),
         make_deliver(queue, names))
        for queue, names in zip(state.pending, names_of)
    ]

    def inject_next() -> None:
        for instance, signal, args in groups.popleft()[1]:
            queue_of[instance].append(
                SignalEnvelope(state.next_seq, ENV_SENDER, instance, signal, args))
            state.next_seq += 1

    events: list[TraceEvent] = []
    outcome: Outcome | None = None
    while outcome is None:
        while bus and bus_rounds[bus[0].seq] + latency <= round_no:
            env = bus.popleft()
            queue_of[env.receiver].append(env)
        steps_before = len(events)
        for queue, pop, deliver in turns:
            # the injections `at N` are enqueued, in file order, before step N
            if groups and groups[0][0] == len(events):
                inject_next()
            if not queue:
                continue
            if len(events) >= config.max_steps:
                outcome = Outcome(STEP_LIMIT)
                break
            env = pop()
            ev = execute_rtc_step(machine, state, env, deliver, config.mode)
            if ev is None:
                outcome = Outcome(
                    RUNTIME_ERROR,
                    f"E_UNHANDLED {env.receiver}.{env.signal} in state"
                    f" {state.states[env.receiver]} at step {len(events)}",
                )
                break
            events.append(ev)
        else:
            if len(events) == steps_before and not bus:  # every queue is empty
                if not groups:
                    outcome = Outcome(QUIESCENT)
                    break
                inject_next()  # injections beyond quiescence resume the run
                continue
            round_no += 1

    expectations = check_expectations(state, scenario) if outcome.kind == QUIESCENT else []
    return Trace(events, state, outcome, expectations), bus_rounds


def run(model: ir.Model, scenario: ir.Scenario, config: ExecConfig | None = None) -> Trace:
    """Execute a scenario against a validated model and return the trace.

    This is the one-island case of the dispatch loop. Dynamic failures
    (unhandled signal in strict mode, step limit) are reported in the
    trace outcome; unresolvable scenario references raise ScenarioError
    before any step runs.
    """
    return _dispatch(Machine(model), scenario, config or ExecConfig())[0]


# ---------------------------------------------------------------------------
# Trace checks
# ---------------------------------------------------------------------------


def check_causality(trace: Trace) -> bool:
    """True iff every dispatched envelope was sent at a strictly earlier
    step (scenario injections are causal by construction)."""
    sent_at: dict[int, int] = {}
    for step, ev in enumerate(trace.events):
        for seq in ev.sent:
            sent_at[seq] = step
    for step, ev in enumerate(trace.events):
        if ev.envelope.sender == ENV_SENDER:
            continue
        origin = sent_at.get(ev.envelope.seq)
        if origin is None or origin >= step:
            return False
    return True


def check_pair_fifo(trace: Trace) -> bool:
    """True iff per (sender, receiver) pair envelopes dispatch in
    ascending sequence order."""
    last: dict[tuple[str, str], int] = {}
    for ev in trace.events:
        key = (ev.envelope.sender, ev.envelope.receiver)
        if key in last and ev.envelope.seq <= last[key]:
            return False
        last[key] = ev.envelope.seq
    return True


# ---------------------------------------------------------------------------
# Serialization (the golden-file contract)
# ---------------------------------------------------------------------------


# The keys of an event line, in rendering order; `event_dict` and the
# line template of `_render_trace` are both built from this tuple.
EVENT_KEYS = ("step", "seq", "sender", "receiver", "signal", "args", "from", "to", "writes",
              "sent", "dropped")
# what a cosim line adds before its closing brace, read from the maps of
# `partition.PartitionedTrace`
COSIM_KEYS = ("domain", "bus_enqueue_step", "bus_deliver_step")


def event_dict(ev: TraceEvent, step: int) -> dict:
    """The structural view of the line of `ev`, the trace's event number
    `step`: `json.dumps` of it is the line."""
    env = ev.envelope
    return dict(zip(EVENT_KEYS, (
        step, env.seq, env.sender, env.receiver, env.signal, list(env.args),
        ev.from_state, ev.to_state, [[name, value] for name, value in ev.writes],
        list(ev.sent), ev.dropped,
    )))


def summary_dict(trace: Trace) -> dict:
    return {
        "outcome": trace.outcome.render(),
        "final": {
            name: {"state": trace.final.states[name], "attrs": dict(trace.final.attrs[name])}
            for name in trace.final.states
        },
        "expectations": [
            {"path": e.path, "expected": e.expected, "actual": e.actual, "pass": e.passed}
            for e in trace.expectations
        ],
    }


class _Quoted(dict):
    """Each name's JSON string literal, encoded the first time it is read."""

    def __missing__(self, name: str) -> str:
        quoted = self[name] = encode_basestring_ascii(name)
        return quoted


def _render_trace(
    trace: Trace,
    domain_of: dict[str, str] | None = None,
    bus: dict[int, int] | None = None,
    latency: int = 0,
) -> str:
    """The JSON Lines text of a run trace, or of a cosim trace when
    `domain_of` is given, whose lines end in the `COSIM_KEYS`.

    An event's step is its index. A cosim line's domain is its
    receiver's in `domain_of`; an envelope that rode the bus has its
    enqueue round in `bus`, and its deliver round is `latency` later.
    Every event line is one `%` of a template built from the keys, and
    reads exactly as `json.dumps` of `event_dict` (plus the cosim keys)
    would write it. Names are quoted by json's own ASCII encoder, once
    per name per call. Numbers, and the int lists `args` and `sent`,
    render through `%s`, which for an `int` is json's own rendering; the
    module docstring says why every such value is an `int`. The summary
    is one `json.dumps`.
    """
    keys = EVENT_KEYS if domain_of is None else EVENT_KEYS + COSIM_KEYS
    line = "{" + ", ".join(f'"{key}": %s' for key in keys) + "}"
    quoted = _Quoted()
    lines = []
    for step, ev in enumerate(trace.events):
        env = ev.envelope
        values = (
            step, env.seq, quoted[env.sender], quoted[env.receiver], quoted[env.signal],
            list(env.args), quoted[ev.from_state], quoted[ev.to_state],
            "[" + ", ".join([f"[{quoted[name]}, {value}]" for name, value in ev.writes]) + "]",
            list(ev.sent), "true" if ev.dropped else "false",
        )
        if domain_of is not None:
            enqueued = bus.get(env.seq)
            values += (quoted[domain_of[env.receiver]],) + (
                ("null", "null") if enqueued is None else (enqueued, enqueued + latency)
            )
        lines.append(line % values)
    lines.append(json.dumps(summary_dict(trace)))
    return "\n".join(lines) + "\n"


def serialize_trace(trace: Trace) -> str:
    """JSON Lines rendering: one object per event, then a summary object.

    Key order is fixed; integers are decimal; booleans in attribute and
    argument positions are 0/1. Identical traces serialize to identical
    bytes.
    """
    return _render_trace(trace)
