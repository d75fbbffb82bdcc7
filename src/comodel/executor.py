"""Reference interpreter: run-to-completion execution of validated models.

Execution semantics
-------------------
Every in-flight signal is a `SignalEnvelope` carrying a globally unique,
strictly increasing sequence number allocated at send time. Each
instance owns a FIFO queue. One dispatch step is atomic: dequeue one
envelope, execute the matching transition's actions in order (sends
allocate fresh sequence numbers in statement order), then enter the
target state. No other instance's data changes during a step.

Scenario injections with `at N` are enqueued, in file order, before
dispatch step N; injections that fall beyond quiescence are enqueued
when the system goes quiescent, which resumes the run.

`run` and `partition.cosim` share one dispatch loop, which holds these
rules, the step limit and the outcome once. `run` is its one-island
case, in which every send goes straight to its receiver's queue. The
golden traces remain the independent oracle for that loop.

The scheduler only picks *which* nonempty queue dispatches next:

* ``global-fifo`` - the nonempty queue whose head has the smallest
  sequence number (the deterministic reference order). In `run` every
  envelope is enqueued in seq order, so this is the global minimum;
* ``random`` - a uniformly chosen nonempty receiver under a seeded RNG,
  then that receiver's oldest envelope. Per-receiver FIFO order is never
  violated, so causality holds for every seed.

Arithmetic wraps modulo 2^width of the expression's resolved type, so
software and hardware translations of the same action are bit-equal.

Each transition is compiled into one closure the first time it fires.
Its expressions become nested closures, each with its operator and the
width mask of its resolved type bound when it is built; a parameter is
read from the envelope's args by position. The compiled transitions are
cached on the model's `ir.Checked` record, so `run`, `cosim` and
repeated runs of one validated model share them, and a new validation
starts from an empty cache. The golden traces, and a test that checks
the closures against a tree-walking reference evaluator, are the oracle
for that compiler.

Traces serialize to JSON Lines (one object per event, then one summary
object); that rendering is byte-deterministic and is the golden-file
contract used by the equivalence and repartitioning checks. Boolean
values appear as 0/1 in traces. One renderer writes run and cosim traces
alike: it formats each event line from one template rather than through
`json.dumps`. That is exact only because every number the executor
stores in an envelope or an event (seq, step, args, write values, sent
seqs, bus steps) is a Python `int`, never a `bool`: literals, defaults
and scenario arguments go through `int()`, and every operator node of a
compiled expression masks its result with an `int`.
"""

from __future__ import annotations

import heapq
import json
import operator
import random
from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from types import FunctionType

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


@dataclass(frozen=True, slots=True)
class SignalEnvelope:
    seq: int
    sender: str  # instance name, or $env for scenario injections
    receiver: str
    signal: str
    args: tuple[int, ...]


@dataclass
class SystemState:
    """Mutable execution state: instance states and attribute valuations,
    pending per-instance queues, and the send/dispatch counters."""

    states: dict[str, str]
    attrs: dict[str, dict[str, int]]
    pending: dict[str, deque[SignalEnvelope]]
    next_seq: int = 0
    dispatch_count: int = 0

    def quiescent(self) -> bool:
        return not any(self.pending.values())


@dataclass(slots=True)
class TraceEvent:
    step: int
    envelope: SignalEnvelope
    from_state: str
    to_state: str
    writes: list[tuple[str, int]]
    sent: list[int]
    dropped: bool = False


@dataclass
class Outcome:
    kind: str  # quiescent | step-limit | runtime-error
    detail: str | None = None

    def render(self) -> str:
        if self.kind == RUNTIME_ERROR:
            return f"runtime-error({self.detail})"
        return self.kind


@dataclass
class ExpectationResult:
    path: str
    expected: int
    actual: int | None
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
    maps each instance to its class and `transitions` maps (class,
    state, signal) to the transition; `instance_order` lists the
    instances in document order. `compiled` maps the same keys to the
    transitions compiled so far; it lives on the `ir.Checked` record, so
    every run and cosim of one validated model shares it.
    """

    def __init__(self, model: ir.Model):
        self.checked = ir.ensure_valid(model)
        self.instance_class = self.checked.instance_class
        self.instance_order = list(self.instance_class)
        self.transitions = self.checked.transitions
        self.compiled = self.checked.compiled

    def initial_state(self) -> SystemState:
        states = {}
        attrs = {}
        pending = {}
        for name in self.instance_order:
            cls = self.instance_class[name]
            states[name] = cls.machine.initial
            attrs[name] = {a.name: int(a.default) for a in cls.attributes}
            pending[name] = deque()
        return SystemState(states=states, attrs=attrs, pending=pending)


def init(model: ir.Model) -> SystemState:
    """Initial system state: every instance at its machine's initial
    state with attributes at declared defaults and empty queues."""
    return Machine(model).initial_state()


# ---------------------------------------------------------------------------
# Transitions compiled into closures
# ---------------------------------------------------------------------------

# Every expression node evaluates to `op(x, y) & mask`, with `op` and the
# mask of its resolved type bound when its closure is built: `-y` is
# `0 - y` and `!y` is `1 - y`. Bool-typed values are always 0 or 1, so
# `!`, `&&` and `||` are arithmetic or bitwise on them, and a comparison's
# bool masked by 1 becomes the int 0/1. Evaluation never fails or has
# effects, so `&&` and `||` need not short-circuit.
_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "&&": operator.and_, "||": operator.or_,
}

# Operand kinds. A leaf (literal, attribute, parameter) is read inline by
# its parent's closure; any other operand is a closure the parent calls.
_LIT, _ATTR, _PARAM, _FN = range(4)

# Node templates by operand kinds. A node's closure is its template with
# the parameters after `a`, the instance's attribute dict, and `p`, the
# envelope's args, bound by `_bind`.
_NODE = {
    (_LIT, _LIT): lambda a, p, op, m, x, y: op(x, y) & m,
    (_LIT, _ATTR): lambda a, p, op, m, x, y: op(x, a[y]) & m,
    (_LIT, _PARAM): lambda a, p, op, m, x, y: op(x, p[y]) & m,
    (_LIT, _FN): lambda a, p, op, m, x, y: op(x, y(a, p)) & m,
    (_ATTR, _LIT): lambda a, p, op, m, x, y: op(a[x], y) & m,
    (_ATTR, _ATTR): lambda a, p, op, m, x, y: op(a[x], a[y]) & m,
    (_ATTR, _PARAM): lambda a, p, op, m, x, y: op(a[x], p[y]) & m,
    (_ATTR, _FN): lambda a, p, op, m, x, y: op(a[x], y(a, p)) & m,
    (_PARAM, _LIT): lambda a, p, op, m, x, y: op(p[x], y) & m,
    (_PARAM, _ATTR): lambda a, p, op, m, x, y: op(p[x], a[y]) & m,
    (_PARAM, _PARAM): lambda a, p, op, m, x, y: op(p[x], p[y]) & m,
    (_PARAM, _FN): lambda a, p, op, m, x, y: op(p[x], y(a, p)) & m,
    (_FN, _LIT): lambda a, p, op, m, x, y: op(x(a, p), y) & m,
    (_FN, _ATTR): lambda a, p, op, m, x, y: op(x(a, p), a[y]) & m,
    (_FN, _PARAM): lambda a, p, op, m, x, y: op(x(a, p), p[y]) & m,
    (_FN, _FN): lambda a, p, op, m, x, y: op(x(a, p), y(a, p)) & m,
}
_LEAF = {
    _LIT: lambda a, p, x: x,
    _ATTR: lambda a, p, x: a[x],
    _PARAM: lambda a, p, x: p[x],
}


def _bind(template, *values):
    """A copy of `template` whose trailing parameters default to `values`.

    Defaults are smaller than closure cells and faster to read, and the
    node closures are the bulk of a compiled model.
    """
    return FunctionType(template.__code__, template.__globals__, template.__name__, values)


def _operand(e: ir.Expr, params: dict[str, int]) -> tuple[int, object]:
    """`(kind, x)`: a leaf's value, attribute name or parameter index, or
    the closure of any other node. `params` maps a parameter to its index."""
    if isinstance(e, (ir.IntLit, ir.BoolLit)):
        return _LIT, int(e.value)
    if isinstance(e, ir.AttrRef):
        return _ATTR, e.name
    if isinstance(e, ir.ParamRef):
        return _PARAM, params[e.name]
    mask = ir.mask_of(e.ty)
    if isinstance(e, ir.Unary):
        rk, y = _operand(e.operand, params)
        return _FN, _bind(_NODE[_LIT, rk], operator.sub, mask, int(e.op == "!"), y)
    if isinstance(e, ir.Binary):
        lk, x = _operand(e.left, params)
        rk, y = _operand(e.right, params)
        return _FN, _bind(_NODE[lk, rk], _OPS[e.op], mask, x, y)
    raise TypeError(f"unexpected expression node {e!r}")


def _compile_expr(e: ir.Expr, params: dict[str, int]):
    """The closure `f(attrs, args) -> int` of a type-annotated expression."""
    kind, x = _operand(e, params)
    return x if kind == _FN else _bind(_LEAF[kind], x)


def _noop(a, p, writes, sends):
    return None


def _compile_block(stmts: list[ir.Stmt], params: dict[str, int], result=None):
    """The closure `f(attrs, args, writes, sends)` that runs `stmts` in
    order and returns `result`.

    An assignment stores its value and appends `(attr, value)` to
    `writes`; a send appends `(receiver, signal, args)` to `sends`.
    """
    body = tuple(_compile_stmt(s, params) for s in stmts)
    if not body and result is None:
        return _noop
    if len(body) == 1 and result is None:
        return body[0]

    def block(a, p, writes, sends):
        for stmt in body:
            stmt(a, p, writes, sends)
        return result

    return block


def _compile_stmt(s: ir.Stmt, params: dict[str, int]):
    if isinstance(s, ir.Assign):
        name, value = s.attr, _compile_expr(s.value, params)

        def assign(a, p, writes, sends):
            v = a[name] = value(a, p)
            writes.append((name, v))

        return assign
    if isinstance(s, ir.Send):
        receiver, signal = s.instance, s.signal
        args = [_compile_expr(x, params) for x in s.args]
        if len(args) == 1:
            arg = args[0]

            def send(a, p, writes, sends):
                sends.append((receiver, signal, (arg(a, p),)))
        else:

            def send(a, p, writes, sends):
                sends.append((receiver, signal, tuple([f(a, p) for f in args])))

        return send
    if isinstance(s, ir.If):
        cond = _compile_expr(s.cond, params)
        then = _compile_block(s.then, params)
        orelse = _compile_block(s.orelse, params)

        def branch(a, p, writes, sends):
            (then if cond(a, p) else orelse)(a, p, writes, sends)

        return branch
    raise TypeError(f"unexpected statement {s!r}")


def _compile_transition(tr: ir.TransitionDef, sig: ir.SignalDef):
    """The closure `f(attrs, args, writes, sends) -> target state` of a
    transition triggered by `sig`, whose args it reads by position."""
    params = {p.name: i for i, p in enumerate(sig.params)}
    return _compile_block(tr.actions, params, tr.target)


def execute_rtc_step(
    machine: Machine,
    state: SystemState,
    envelope: SignalEnvelope,
    deliver,
    step_index: int,
    mode: str,
    event: type[TraceEvent] = TraceEvent,
) -> TraceEvent | None:
    """Run one atomic dispatch step for `envelope`.

    `deliver(env)` routes each envelope the actions send (queue or bus),
    in statement order. Returns the trace event, built as an `event` (a
    `TraceEvent` subclass for cosim), or None when the signal is
    unhandled in strict mode (the caller turns that into a runtime-error
    outcome). Only the receiving instance's attributes are touched. The
    transition is compiled the first time it fires.
    """
    inst = envelope.receiver
    cur = state.states[inst]
    key = (machine.instance_class[inst].name, cur, envelope.signal)
    transition = machine.compiled.get(key)
    if transition is None:
        tr = machine.transitions.get(key)
        if tr is None:
            if mode == STRICT:
                return None
            return event(step_index, envelope, cur, cur, [], [], True)
        sig = machine.checked.signals[key[0], key[2]]
        transition = machine.compiled[key] = _compile_transition(tr, sig)

    writes: list[tuple[str, int]] = []
    sends: list[tuple[str, str, tuple[int, ...]]] = []
    target = transition(state.attrs[inst], envelope.args, writes, sends)
    # no action reads a queue, so delivering after the body is the same
    # as delivering at each send
    sent: list[int] = []
    for receiver, signal, args in sends:
        seq = state.next_seq
        deliver(SignalEnvelope(seq, inst, receiver, signal, args))
        sent.append(seq)
        state.next_seq = seq + 1
    state.states[inst] = target
    return event(step_index, envelope, cur, target, writes, sent)


# ---------------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------------


def _injections(
    checked: ir.Checked, scenario: ir.Scenario
) -> dict[int, list[tuple[str, str, tuple[int, ...]]]]:
    """Group the injections by `at`, each group in file order as `(instance,
    signal, int args)`. Raises ScenarioError at the first scenario
    reference that does not resolve."""

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
        if not any(a.name == exp.attr for a in cls.attributes):
            fail(f"instance {exp.instance} has no attribute {exp.attr}")
    return groups


def check_expectations(state: SystemState, scenario: ir.Scenario) -> list[ExpectationResult]:
    results = []
    for exp in scenario.expectations:
        actual = state.attrs[exp.instance].get(exp.attr)
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


class Island:
    """The scheduler over some instances' queues in `state.pending`, which
    stay the state of record; `count` is their number of pending envelopes.

    Under global-fifo, `heap` holds one `(head seq, instance)` entry per
    nonempty queue. It is keyed on queue heads, not on every envelope: in
    cosim a bus delivery can arrive behind a younger envelope already
    queued for its receiver, and it still waits its turn in that queue.
    The random scheduler draws over the nonempty receivers in `names`
    order. The queues start empty.
    """

    def __init__(self, state: SystemState, names: list[str], rng: random.Random | None):
        self.pending = state.pending
        self.names = names
        self.rng = rng
        self.heap: list[tuple[int, str]] = []
        self.count = 0

    def push(self, env: SignalEnvelope) -> None:
        q = self.pending[env.receiver]
        if not q and self.rng is None:
            heapq.heappush(self.heap, (env.seq, env.receiver))
        q.append(env)
        self.count += 1

    def pop(self) -> SignalEnvelope:
        """Dequeue the next envelope to dispatch; `count` must be nonzero."""
        self.count -= 1
        if self.rng is not None:
            nonempty = [name for name in self.names if self.pending[name]]
            return self.pending[nonempty[self.rng.randrange(len(nonempty))]].popleft()
        name = self.heap[0][1]
        q = self.pending[name]
        env = q.popleft()
        if q:
            heapq.heapreplace(self.heap, (q[0].seq, name))
        else:
            heapq.heappop(self.heap)
        return env


def _dispatch(
    machine: Machine,
    scenario: ir.Scenario,
    config: ExecConfig,
    domain_of: dict[str, str] | None = None,
    domains: tuple[str | None, ...] = (None,),
    latency: int = 0,
    event: type[TraceEvent] = TraceEvent,
) -> tuple[Trace, dict[int, tuple[int, int]]]:
    """The one dispatch loop, shared by `run` and `partition.cosim`.

    `domains` names the islands in round order, and `domain_of` maps
    every instance to one of them. With `domain_of` None, every instance
    sits on the one island `domains[0]` (the `run` case). A send to
    another island rides the bus and becomes deliverable `latency`
    rounds later. A round runs at most one step per island, then a bus
    tick. Each step builds its trace record as an `event`. On an island
    with a domain, that is a `partition.CosimEvent`, and the loop sets
    its `domain` and, for an envelope that rode the bus, its
    `bus_enqueue_step` and `bus_deliver_step`. Returns the trace and the
    bus `seq -> (enqueue, deliver)` rounds.
    """
    groups = _injections(machine.checked, scenario)
    state = machine.initial_state()
    rng = random.Random(config.seed) if config.scheduler == RANDOM else None
    pending_ats = sorted(groups)
    # (deliver round, envelope); latency is constant, so deliver rounds
    # never decrease along the deque and the due entries sit at its left
    bus: deque[tuple[int, SignalEnvelope]] = deque()
    bus_steps: dict[int, tuple[int, int]] = {}
    round_no = 0

    if domain_of is None:
        domain_of = dict.fromkeys(machine.instance_order, domains[0])
    by_domain = {
        d: Island(state, [n for n in machine.instance_order if domain_of[n] == d], rng)
        for d in domains
    }

    def enqueue(env: SignalEnvelope) -> None:
        by_domain[domain_of[env.receiver]].push(env)

    def make_deliver(sender_domain: str | None):
        local = by_domain[sender_domain]
        if len(local.names) == len(domain_of):  # every receiver is local
            return local.push

        def deliver(env: SignalEnvelope) -> None:
            if domain_of[env.receiver] == sender_domain:
                local.push(env)
            else:
                bus.append((round_no + latency, env))
                bus_steps[env.seq] = (round_no, round_no + latency)
        return deliver

    islands = [(d, by_domain[d], make_deliver(d)) for d in domains]

    def inject_next() -> None:
        for instance, signal, args in groups[pending_ats.pop(0)]:
            enqueue(SignalEnvelope(state.next_seq, ENV_SENDER, instance, signal, args))
            state.next_seq += 1

    events: list[TraceEvent] = []
    outcome: Outcome | None = None
    while outcome is None:
        while bus and bus[0][0] <= round_no:
            enqueue(bus.popleft()[1])
        steps_before = state.dispatch_count
        for domain, island, deliver in islands:
            # the injections `at N` are enqueued, in file order, before step N
            if pending_ats and pending_ats[0] == state.dispatch_count:
                inject_next()
            if not island.count:
                continue
            if state.dispatch_count >= config.max_steps:
                outcome = Outcome(STEP_LIMIT, "E_STEP_LIMIT")
                break
            env = island.pop()
            ev = execute_rtc_step(
                machine, state, env, deliver, state.dispatch_count, config.mode, event
            )
            if ev is None:
                outcome = Outcome(
                    RUNTIME_ERROR,
                    f"E_UNHANDLED {env.receiver}.{env.signal} in state"
                    f" {state.states[env.receiver]} at step {state.dispatch_count}",
                )
                break
            if domain is not None:
                ev.domain = domain
                if env.seq in bus_steps:
                    ev.bus_enqueue_step, ev.bus_deliver_step = bus_steps[env.seq]
            events.append(ev)
            state.dispatch_count += 1
        else:
            if state.dispatch_count == steps_before and not bus:  # every queue is empty
                if not pending_ats:
                    outcome = Outcome(QUIESCENT)
                    break
                inject_next()  # injections beyond quiescence resume the run
                continue
            round_no += 1

    expectations: list[ExpectationResult] = []
    if outcome.kind == QUIESCENT:
        expectations = check_expectations(state, scenario)
        failed = sum(1 for e in expectations if not e.passed)
        if failed:
            outcome = Outcome(QUIESCENT, f"{failed} expectation(s) failed")
    return Trace(events, state, outcome, expectations), bus_steps


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
    for ev in trace.events:
        for seq in ev.sent:
            sent_at[seq] = ev.step
    for ev in trace.events:
        if ev.envelope.sender == ENV_SENDER:
            continue
        origin = sent_at.get(ev.envelope.seq)
        if origin is None or origin >= ev.step:
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
# what a cosim line adds before its closing brace, set by the dispatch loop
COSIM_KEYS = ("domain", "bus_enqueue_step", "bus_deliver_step")


def event_dict(ev: TraceEvent) -> dict:
    """The structural view of one event line: `json.dumps` of it is the line."""
    env = ev.envelope
    return dict(zip(EVENT_KEYS, (
        ev.step, env.seq, env.sender, env.receiver, env.signal, list(env.args),
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


def _render_trace(trace: Trace, cosim: bool) -> str:
    """The JSON Lines text of a run trace, or of a cosim trace when
    `cosim`, whose lines end in the `COSIM_KEYS`.

    Every event line is one `%` of a template built from the keys, and
    reads exactly as `json.dumps` of `event_dict` (plus the cosim keys)
    would write it. Names are quoted by json's own ASCII encoder, once
    per name per call. Numbers, and the int lists `args` and `sent`,
    render through `%s`, which for an `int` is json's own rendering; the
    module docstring says why every such value is an `int`. The summary
    is one `json.dumps`.
    """
    keys = EVENT_KEYS + COSIM_KEYS if cosim else EVENT_KEYS
    line = "{" + ", ".join(f'"{key}": %s' for key in keys) + "}"
    quoted = _Quoted()
    lines = []
    for ev in trace.events:
        env = ev.envelope
        values = (
            ev.step, env.seq, quoted[env.sender], quoted[env.receiver], quoted[env.signal],
            list(env.args), quoted[ev.from_state], quoted[ev.to_state],
            "[" + ", ".join([f"[{quoted[name]}, {value}]" for name, value in ev.writes]) + "]",
            ev.sent, "true" if ev.dropped else "false",
        )
        if cosim:
            enqueued, delivered = ev.bus_enqueue_step, ev.bus_deliver_step
            values += (
                quoted[ev.domain],
                "null" if enqueued is None else enqueued,
                "null" if delivered is None else delivered,
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
    return _render_trace(trace, cosim=False)
