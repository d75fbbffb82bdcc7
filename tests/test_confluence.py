"""Decide each scenario's `confluent` flag instead of trusting it.

Under every scheduler, partition and latency, each step dispatches the
oldest pending envelope of some (sender, receiver) pair: the bus is one
FIFO with one latency, and every island serves envelopes in the order
they reach it. So a search in which the head of any nonempty pair channel
may be dispatched next reaches every final valuation that `run`, under
either scheduler, and `cosim`, under every partition and latency, can
reach. The injections `at N` enter, in file order, before step N, or as
soon as nothing is pending.

`explore` is that search, depth first, over `executor.execute_rtc_step`
on copied states. The pending envelopes of an island or of the bus are
some of those of a state it reaches, so its largest count of pending
envelopes bounds every island's backlog, such as the C half's FIFO. It
memoises each state on the instance states, the attributes, the pair
channels, the injections made, and the step count while injections
remain (after the last one, the count no longer changes what can
happen).
"""

import itertools
import re

import pytest
from conftest import CORPUS_PAIRS, INLINE, load_model, load_scenario

from comodel import executor
from comodel.codegen import EmitPlan, emit_c
from comodel.frontend import parse_model, parse_scenario
from comodel.partition import SW, all_partitions, cosim

CASES = [pytest.param(m, s, id=s) for m, s in CORPUS_PAIRS] + [
    pytest.param(name, name, id=name) for name in INLINE
]


def _load(model_name: str, scn_name: str):
    if model_name in INLINE:
        model_text, scn_text = INLINE[model_name]
        return parse_model(model_text), parse_scenario(scn_text)
    return load_model(model_name), load_scenario(scn_name)


def _valuation(attrs: dict[str, dict[str, int]]) -> tuple:
    return tuple((inst, tuple(values.items())) for inst, values in attrs.items())


def explore(model, scenario) -> tuple[set[tuple], bool, int]:
    """The final valuations of every schedule, whether some schedule hits an
    unhandled signal (a strict-mode runtime error, no final), and the
    largest number of pending envelopes in any state, injections included."""
    machine = executor.Machine(model)
    by_at = sorted(scenario.injections, key=lambda inj: inj.at)  # stable: file order
    groups = [(at, [(inj.instance, inj.signal, tuple(int(a) for a in inj.args)) for inj in g])
              for at, g in itertools.groupby(by_at, lambda inj: inj.at)]
    init = machine.initial_state()
    # (instance states, attributes, pair -> pending (signal, args)s, steps, groups injected)
    stack = [(init.states, init.attrs, {}, 0, 0)]
    seen, finals, unhandled, backlog = set(), set(), False, 0
    while stack:
        states, attrs, channels, steps, g = stack.pop()
        while g < len(groups) and (groups[g][0] == steps or not channels):
            channels = dict(channels)
            for inst, signal, args in groups[g][1]:
                pair = (executor.ENV_SENDER, inst)
                channels[pair] = channels.get(pair, ()) + ((signal, args),)
            g += 1
        backlog = max(backlog, sum(map(len, channels.values())))
        key = (tuple(states.values()), _valuation(attrs), frozenset(channels.items()), g,
               steps if g < len(groups) else None)
        if key in seen:
            continue
        seen.add(key)
        if not channels:
            finals.add(key[1])
            continue
        for (sender, receiver), queue in channels.items():
            rest = {pair: q for pair, q in channels.items() if pair != (sender, receiver)}
            if len(queue) > 1:
                rest[sender, receiver] = queue[1:]

            def deliver(env, rest=rest):
                _, sender, receiver, signal, args = env
                rest[sender, receiver] = rest.get((sender, receiver), ()) + ((signal, args),)

            state = executor.SystemState(dict(states), {**attrs, receiver: dict(attrs[receiver])})
            env = (0, sender, receiver, *queue[0])
            if executor.execute_rtc_step(machine, state, env, deliver, executor.STRICT) is None:
                unhandled = True
                continue
            stack.append((state.states, state.attrs, rest, steps + 1, g))
    return finals, unhandled, backlog


@pytest.mark.parametrize("model_name,scn_name", CASES)
def test_confluent_flag_is_one_reachable_final_valuation(model_name, scn_name):
    model, scenario = _load(model_name, scn_name)
    finals, unhandled, _ = explore(model, scenario)
    assert not unhandled
    assert scenario.confluent == (len(finals) == 1), finals


@pytest.mark.parametrize("model_name,scn_name", CASES)
def test_every_cosim_and_random_run_final_is_explored(model_name, scn_name):
    model, scenario = _load(model_name, scn_name)
    finals, _, _ = explore(model, scenario)
    traces = [cosim(model, p, scenario, latency=latency)
              for p in all_partitions(model) for latency in (1, 2, 3)]
    traces += [executor.run(model, scenario, executor.ExecConfig(scheduler=executor.RANDOM,
                                                                  seed=seed))
               for seed in range(10)]
    for trace in traces:
        assert trace.outcome.kind == executor.QUIESCENT
        assert _valuation(trace.final.attrs) in finals


@pytest.mark.parametrize("model_name,scn_name", CASES)
def test_every_backlog_fits_the_c_fifo(model_name, scn_name):
    # the C half drops an event that finds its FIFO full; only its rule is
    # printed, as `late_put`'s class `Loop` has no VHDL name
    model, scenario = _load(model_name, scn_name)
    _, _, backlog = explore(model, scenario)
    for p in all_partitions(model):
        if SW in p.domain.values():
            source, _ = emit_c(EmitPlan(model, p, "model"))
            (cap,) = re.findall(r"#define QUEUE_CAP (\d+)u", source)
            assert backlog <= int(cap), p.domain
