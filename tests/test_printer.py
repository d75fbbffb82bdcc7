"""Transitions printed as Python functions: model names never reach the
printed text, deep models stay within the Python parser's limits, one
shape is printed once per process and builds one code object, and trace
records leave the collector."""

import gc
import itertools

import pytest
from conftest import (
    CORPUS_MARKS,
    CORPUS_MODELS,
    CORPUS_PAIRS,
    load_marks,
    load_model,
    load_ringgen,
    load_scenario,
    model_path,
)
from test_compile import _run_block

from comodel import executor, frontend, ir
from comodel.executor import SENT, WRITES, ExecConfig, run
from comodel.frontend import MAX_EXPR_DEPTH, MAX_STMT_DEPTH, parse_model
from comodel.partition import cosim, derive_partition


def _validated(text: str) -> ir.Checked:
    model = parse_model(text)
    assert ir.validate(model).ok
    return model.checked


def _compiled(checked: ir.Checked):
    """Every transition of the model, compiled, by its key."""
    return {
        key: executor._compile_transition(tr, checked.signals[key[0], key[2]])
        for key, tr in checked.transitions.items()
    }


def _values(ty: str) -> list[int]:
    top = ir.mask_of(ty)
    return sorted(v for v in {0, 1, 9, 62, 63, top - 1, top} if v <= top)


def _check_against_reference(checked: ir.Checked, starts: list[dict]) -> None:
    for key, compiled in _compiled(checked).items():
        tr = checked.transitions[key]
        params = checked.signals[key[0], key[2]].params
        for args in itertools.product(*(_values(p.type) for p in params)):
            for start in starts:
                want_attrs, want_writes, want_sends = dict(start), [], []
                _run_block(tr.actions, want_attrs, {p.name: v for p, v in zip(params, args)},
                           want_writes, want_sends)
                attrs, writes, sends = dict(start), [], []
                assert compiled(attrs, args, writes, sends) == tr.target
                assert (attrs, writes, sends) == (want_attrs, want_writes, want_sends)


# --- names of the printed function, Python keywords and builtins as model names ---

CLASH = """
class lambda {
  attr a: u8 = 1;
  attr p: u16 = 2;
  attr k0: u16 = 3;
  attr t0: bool = true;
  attr None: u8 = 4;
  attr writes: u8 = 0;
  signal sends(v: u8, a: u16);
  statemachine {
    initial def;
    state def {
      on sends -> return {
        a = a + $v;
        k0 = k0 * p + $a;
        if (t0 && None > $v) { writes = None - 1; None = a; } else { t0 = !t0; }
        send f.sends(a, p);
        send f.sends(None, $a - p);
      }
    }
    state return { on sends -> def { p = $a; writes = a; t0 = None == writes; } }
  }
}
instance f: lambda;
"""


def test_names_that_clash_with_the_printed_code():
    checked = _validated(CLASH)
    starts = [
        {"a": a, "p": p, "k0": k0, "t0": t0, "None": none, "writes": 0}
        for a, p, k0, t0, none in itertools.product(
            (0, 255), (0, 65535), (0, 65535), (0, 1), (0, 9, 255)
        )
    ]
    _check_against_reference(checked, starts)


# --- CPython's parser: 200 nested parentheses and 100 indent levels ---


def _deep_model(depth: int) -> str:
    """`MAX_STMT_DEPTH` nested `if`s; the innermost condition is `depth`
    operators deep (`depth - 1` negations over one comparison)."""
    cond = "!" * (depth - 1) + "(n == $v)"
    body = f"if ({cond}) {{ n = n + $v; send d.Go(n); }} else {{ n = 0 - n; }}"
    for i in reversed(range(MAX_STMT_DEPTH - 1)):
        body = f"if ($v != {i}) {{ {body} n = n * 3; }} else {{ n = n + {i}; }}"
    return (
        "class D { attr n: u8 = 0; signal Go(v: u8); statemachine { initial S;"
        f" state S {{ on Go -> S {{ {body} }} }} }} }} instance d: D;"
    )


def test_deepest_model_compiles_and_matches_reference():
    with pytest.raises(frontend.ParseError):
        parse_model(_deep_model(MAX_EXPR_DEPTH + 1))
    checked = _validated(_deep_model(MAX_EXPR_DEPTH))
    starts = [{"n": n} for n in (0, 1, 62, 63, 255)]
    _check_against_reference(checked, starts)


# --- shape-only code: no model text, no global, one code object per shape ---


def _assert_shape_only(fn) -> None:
    code = fn.__code__
    assert set(code.co_names) <= {"append"}
    assert not [c for c in code.co_consts if isinstance(c, str)]
    assert fn.__globals__ == {"__builtins__": {}}


@pytest.mark.parametrize("text", [CLASH, _deep_model(MAX_EXPR_DEPTH)], ids=["clash", "deep"])
def test_printed_code_holds_no_model_text(text):
    for fn in _compiled(_validated(text)).values():
        _assert_shape_only(fn)


@pytest.mark.parametrize("name", CORPUS_MODELS)
def test_corpus_code_holds_no_model_text(name):
    model = load_model(name)
    assert ir.validate(model).ok
    compiled = _compiled(model.checked)
    assert compiled
    for fn in compiled.values():
        _assert_shape_only(fn)


def _ring(body: str) -> str:
    ringgen = load_ringgen()
    spec = ringgen.RingSpec(instances=8, tokens=2, ttl=5, body=body)
    return ringgen.generate(spec, 3).model_text


@pytest.mark.parametrize("body", ["light", "heavy"])
def test_ring_transitions_share_one_code_object(body):
    compiled = _compiled(_validated(_ring(body)))
    assert len(compiled) == 16
    assert len({id(fn.__code__) for fn in compiled.values()}) == 1


# --- the shape key: a shape is printed once per process ---


def _prints() -> int:
    """The functions printed so far: the misses of the shape cache."""
    return executor._code.cache_info().misses


def _starts(checked: ir.Checked) -> list[dict]:
    """Every attribute of the model at each of a few values of its type."""
    types = {a.name: a.type for cls in checked.classes.values() for a in cls.attributes}
    return [{name: min(v, ir.mask_of(ty)) for name, ty in types.items()}
            for v in (0, 1, 62, 2**32 - 1)]


SOURCES = {
    "clash": CLASH,
    "deep": _deep_model(MAX_EXPR_DEPTH),
    **{name: model_path(name).read_text() for name in CORPUS_MODELS},
    "ring-light": _ring("light"),
    "ring-heavy": _ring("heavy"),
}


@pytest.mark.parametrize("name", list(SOURCES))
def test_second_validation_prints_nothing_and_matches_reference(name):
    # the first set may print new shapes; the second, from a fresh parse
    # and validation, is built from cache hits alone
    _compiled(_validated(SOURCES[name]))
    prints = _prints()
    checked = _validated(SOURCES[name])
    _check_against_reference(checked, _starts(checked))
    assert _prints() == prints


def _key(actions: list[ir.Stmt]) -> tuple:
    sig = ir.SignalDef("S", [ir.SignalParam("x", "u8"), ir.SignalParam("y", "u8")])
    return executor._shape(ir.TransitionDef("S", "T", actions), sig)[0]


def test_shape_keys_tell_apart_what_prints_apart():
    n, m = ir.AttrRef("n", "u8"), ir.AttrRef("m", "u8")
    cond = ir.Binary("<", n, m, "bool")
    go = ir.Assign("n", m)
    # a unary and a binary `-` over the same operands in the same order
    assert _key([ir.Send("d", "Go", [n, ir.Unary("-", m, "u8")])]) != _key(
        [ir.Send("d", "Go", [ir.Binary("-", n, m, "u8")])])
    # an empty then-block before an else, and no else
    assert _key([ir.If(cond, [], [go])]) != _key([ir.If(cond, [go], [])])
    # a statement in the else-block, and the same statement after the if
    assert _key([ir.If(cond, [go], [go])]) != _key([ir.If(cond, [go], []), go])
    # the parameter at position 0, and the one at position 1
    assert _key([ir.Assign("n", ir.ParamRef("x", "u8"))]) != _key(
        [ir.Assign("n", ir.ParamRef("y", "u8"))])


def test_an_empty_else_is_no_else():
    # both parse to the same IR, so they print the same source under one key
    texts = [
        "class C { attr n: u8 = 0; signal S(); statemachine { initial I;"
        f" state I {{ on S -> I {{ if (n < 3) {{ n = 1; }}{orelse} }} }} }} }} instance c: C;"
        for orelse in ("", " else { }")
    ]
    keys = [executor._shape(tr, checked.signals[k[0], k[2]])[0]
            for checked in map(_validated, texts) for k, tr in checked.transitions.items()]
    assert len(keys) == 2 and keys[0] == keys[1]


# --- trace records the collector does not keep ---


@pytest.mark.parametrize("name,scn", CORPUS_PAIRS)
def test_trace_records_leave_the_collector(name, scn):
    model, scenario = load_model(name), load_scenario(scn)
    p = derive_partition(model, load_marks(CORPUS_MARKS[name]))
    traces = [run(model, scenario), cosim(model, p, scenario, latency=2)]
    # cut off at the first step, so that envelopes stay pending
    cut = ExecConfig(max_steps=1)
    traces += [run(model, scenario, cut), cosim(model, p, scenario, cut, latency=2)]
    events = [ev for trace in traces for ev in trace.events]
    pending = [env for trace in traces for queue in trace.final.pending for env in queue]
    assert events and (pending or len(traces[0].events) == 1)  # a step sent something
    # an exact tuple is untracked once its items are: the first pass
    # untracks the (attr, value) pairs and the args, the second a
    # `writes` tuple holding them, the third the record holding that
    for _ in range(3):
        gc.collect()
    for ev in events:
        assert type(ev) is tuple and type(ev[WRITES]) is tuple and type(ev[SENT]) is range
        assert not gc.is_tracked(ev)
    for env in pending:
        assert type(env) is tuple and not gc.is_tracked(env)
