"""Transitions printed as Python functions: model names never reach the
printed text, deep models stay within the Python parser's limits, one
shape builds one code object, and trace records leave the collector."""

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
)
from test_compile import _run_block

from comodel import executor, frontend, ir
from comodel.executor import run
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


@pytest.mark.parametrize("body", ["light", "heavy"])
def test_ring_transitions_share_one_code_object(body):
    ringgen = load_ringgen()
    ring = ringgen.generate(ringgen.RingSpec(instances=8, tokens=2, ttl=5, body=body), 3)
    compiled = _compiled(_validated(ring.model_text))
    assert len(compiled) == 16
    assert len({id(fn.__code__) for fn in compiled.values()}) == 1


# --- trace records the collector does not keep ---


@pytest.mark.parametrize("name,scn", CORPUS_PAIRS)
def test_trace_records_leave_the_collector(name, scn):
    model, scenario = load_model(name), load_scenario(scn)
    p = derive_partition(model, load_marks(CORPUS_MARKS[name]))
    events = [*run(model, scenario).events, *cosim(model, p, scenario, latency=2).events]
    assert events
    # a tuple is untracked once its items are: the first pass untracks
    # the (attr, value) pairs, the second the `writes` tuple holding them
    gc.collect()
    gc.collect()
    for ev in events:
        assert type(ev.writes) is tuple and type(ev.sent) is range
        assert not gc.is_tracked(ev.writes) and not gc.is_tracked(ev.sent)
