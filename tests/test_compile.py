"""Transitions compiled into closures: equal to a tree-walking reference,
and built once per validated model."""

import itertools

import pytest
from conftest import CORPUS_MARKS, CORPUS_PAIRS, load_marks, load_model, load_scenario

from comodel import executor, ir
from comodel.executor import RANDOM, ExecConfig, run
from comodel.frontend import parse_model
from comodel.partition import cosim, derive_partition

# --- the reference: the tree-walking evaluator the closures replaced ---


def _eval(e: ir.Expr, attrs: dict[str, int], params: dict[str, int]) -> int:
    if isinstance(e, ir.IntLit):
        return e.value
    if isinstance(e, ir.BoolLit):
        return int(e.value)
    if isinstance(e, ir.AttrRef):
        return attrs[e.name]
    if isinstance(e, ir.ParamRef):
        return params[e.name]
    if isinstance(e, ir.Unary):
        v = _eval(e.operand, attrs, params)
        if e.op == "!":
            return int(not v)
        return (-v) & ir.mask_of(e.ty)  # wrapping negate
    if isinstance(e, ir.Binary):
        op = e.op
        if op == "&&":
            return int(bool(_eval(e.left, attrs, params)) and bool(_eval(e.right, attrs, params)))
        if op == "||":
            return int(bool(_eval(e.left, attrs, params)) or bool(_eval(e.right, attrs, params)))
        l = _eval(e.left, attrs, params)
        r = _eval(e.right, attrs, params)
        if op == "+":
            return (l + r) & ir.mask_of(e.ty)
        if op == "-":
            return (l - r) & ir.mask_of(e.ty)
        if op == "*":
            return (l * r) & ir.mask_of(e.ty)
        if op == "==":
            return int(l == r)
        if op == "!=":
            return int(l != r)
        if op == "<":
            return int(l < r)
        if op == "<=":
            return int(l <= r)
        if op == ">":
            return int(l > r)
        if op == ">=":
            return int(l >= r)
    raise TypeError(f"unexpected expression node {e!r}")


def _run_block(stmts, attrs, params, writes, sends) -> None:
    for s in stmts:
        if isinstance(s, ir.Assign):
            v = _eval(s.value, attrs, params)
            attrs[s.attr] = v
            writes.append((s.attr, v))
        elif isinstance(s, ir.Send):
            sends.append((s.instance, s.signal, tuple(_eval(a, attrs, params) for a in s.args)))
        elif isinstance(s, ir.If):
            cond = _eval(s.cond, attrs, params)
            _run_block(s.then if cond else s.orelse, attrs, params, writes, sends)


# --- every operator, width and operand shape against the reference ---

ARITH = ["+", "-", "*"]
COMPARE = ["==", "!=", "<", "<=", ">", ">="]
LOGIC = ["&&", "||"]
TYPES = ["u8", "u16", "u32", "bool"]


def _edges(ty: str) -> list[int]:
    top = ir.mask_of(ty)
    return sorted({0, 1, top - 1, top})


def _operand(shape: str, name: str, value: int, ty: str) -> ir.Expr:
    """`value` read as an attribute, a parameter, a literal, or through
    a nested node (a double negation), so every closure shape runs."""
    if shape == "attr":
        return ir.AttrRef(name, ty)
    if shape == "param":
        return ir.ParamRef(name, ty)
    if shape == "lit":
        return ir.BoolLit(bool(value)) if ty == "bool" else ir.IntLit(value, ty)
    return ir.Unary("-", ir.Unary("-", ir.AttrRef(name, ty), ty), ty)


SHAPES = ["attr", "param", "lit", "nested"]
# the triggering signal: parameter x at position 0 of the args, y at 1
SIG = ir.SignalDef("S", [ir.SignalParam("x", "u32"), ir.SignalParam("y", "u32")])


def _check(e: ir.Expr, x: int, y: int) -> None:
    """Compile the transition `r = e` and read `e`'s value back from `r`."""
    attrs = {"x": x, "y": y}
    want = _eval(e, attrs, {"x": x, "y": y})
    tr = ir.TransitionDef("S", "T", [ir.Assign("r", e)])
    executor._compile_transition(tr, SIG)(attrs, (x, y), [], [])
    got = attrs["r"]
    assert (got, type(got)) == (want, int), (e, x, y)


@pytest.mark.parametrize(
    "op,ty",
    [(op, ty) for op in ARITH + COMPARE for ty in TYPES] + [(op, "bool") for op in LOGIC],
)
def test_binary_matches_reference(op, ty):
    result_ty = ty if op in ARITH else "bool"
    for x, y in itertools.product(_edges(ty), repeat=2):
        for ls, rs in itertools.product(SHAPES, repeat=2):
            e = ir.Binary(op, _operand(ls, "x", x, ty), _operand(rs, "y", y, ty), result_ty)
            _check(e, x, y)


@pytest.mark.parametrize("op,ty", [("-", ty) for ty in TYPES] + [("!", "bool")])
def test_unary_matches_reference(op, ty):
    for x in _edges(ty):
        for shape in SHAPES:
            _check(ir.Unary(op, _operand(shape, "x", x, ty), ty), x, 0)


@pytest.mark.parametrize("shape", ["attr", "param", "lit"])
def test_lone_leaf_matches_reference(shape):
    for x in _edges("u32"):
        _check(_operand(shape, "x", x, "u32"), x, 0)


# --- statements: nested if, empty else, send arguments ---

BOX = """
class Box {
  attr n: u8 = 0;
  attr w: u16 = 0;
  attr big: u32 = 0;
  attr f: bool = false;
  signal Go(a: u8, b: u16, c: u32, g: bool);
  signal Put(x: u8, y: u32, z: bool);
  signal Tick();
  signal Poke(v: u32);
  statemachine {
    initial S;
    state S {
      on Go -> T {
        if ($a > n) {
          n = $a + 1;
          if ($g || f) { w = $b * 2; } else { }
          if (!$g) { } else { big = $c - big; send box.Put(n, big + $c, $g && f); }
        } else {
          if (w == $b) { f = !f; }
          send box.Put(255, 0 - $c, true);
          send box.Tick();
        }
        send box.Poke(big * $c);
        send box.Put($a - 1, -$c, $a == 0);
        f = $g;
      }
    }
    state T { on Put -> S { n = $x; big = $y; f = $z; } on Tick -> T { } on Poke -> T { big = $v; } }
  }
}
instance box: Box;
"""


@pytest.mark.parametrize("signal", ["Go", "Put", "Tick", "Poke"])
def test_transition_matches_reference(signal):
    key = ("Box", "S" if signal == "Go" else "T", signal)
    model = parse_model(BOX)
    assert ir.validate(model).ok
    tr = model.checked.transitions[key]
    sig = model.checked.signals[key[0], key[2]]
    compiled = executor._compile_transition(tr, sig)
    domains = [_edges(p.type) for p in sig.params]
    starts = [
        {"n": n, "w": w, "big": big, "f": f}
        for n, w, big, f in itertools.product((0, 7, 255), (0, 65535), (0, 2**32 - 1), (0, 1))
    ]
    for args in itertools.product(*domains):
        for start in starts:
            want_attrs, want_writes, want_sends = dict(start), [], []
            _run_block(tr.actions, want_attrs, dict(zip([p.name for p in sig.params], args)),
                       want_writes, want_sends)
            attrs, writes, sends = dict(start), [], []
            assert compiled(attrs, args, writes, sends) == tr.target
            assert (attrs, writes, sends) == (want_attrs, want_writes, want_sends)
            assert all(type(v) is int for _, v in writes)
            assert all(type(v) is int for _, _, a in sends for v in a)


# --- built once per validated model ---


@pytest.fixture
def builds(monkeypatch):
    """The transitions compiled, counted through the module attribute."""
    calls = []
    real = executor._compile_transition

    def counting(tr, sig):
        calls.append(tr)
        return real(tr, sig)

    monkeypatch.setattr(executor, "_compile_transition", counting)
    return calls


def _fired(checked: ir.Checked, traces) -> set[tuple[str, str, str]]:
    return {
        (checked.instance_class[ev.envelope.receiver].name, ev.from_state, ev.envelope.signal)
        for trace in traces
        for ev in trace.events
        if not ev.dropped
    }


@pytest.mark.parametrize("name,scn", CORPUS_PAIRS)
def test_each_fired_transition_is_built_once(builds, name, scn):
    model = load_model(name)
    assert ir.validate(model).ok
    scenario = load_scenario(scn)
    p = derive_partition(model, load_marks(CORPUS_MARKS[name]))
    traces = [run(model, scenario), cosim(model, p, scenario, latency=2)]
    traces += [run(model, scenario, ExecConfig(scheduler=RANDOM, seed=s)) for s in range(20)]
    checked = model.checked
    fired = _fired(checked, traces)
    assert fired and set(checked.compiled) == fired
    assert sorted(map(id, builds)) == sorted(id(checked.transitions[k]) for k in fired)

    # a new validation is a new record, with an empty cache
    assert ir.validate(model).ok
    assert model.checked is not checked and model.checked.compiled == {}
    run(model, scenario)
    assert len(builds) == len(fired) + len(model.checked.compiled)
