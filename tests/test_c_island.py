"""The compiled C half as the SW island of a co-simulation.

`partition.cosim` runs both islands in the interpreter. Here the SW island
is the generated C half, built with a shim into a shared object and driven
through `ctypes`; the HW island is one deque, served in the order its
envelopes reach it, and the interpreter's `execute_rtc_step`. One loop
mirrors the round of `executor._dispatch`: the due bus deliveries arrive,
then the SW island and then the HW island each get the due injection
group and at most one step, then the bus ticks. A SW->HW send leaves the
C half through `<model>_bus_send` and is unpacked per the manifest; a
HW->SW send is packed per the manifest and handed to
`<model>_bus_deliver`. So the C half's FIFO order, `put_bits`, `get_bits`
and the manifest's payload layouts all run, and the dispatch order, the
step count, every final attribute and every bus crossing must equal
`cosim`'s.
"""

import ctypes
import itertools
import shutil
import subprocess
from collections import deque

import pytest
from conftest import CORPUS_MODELS, CORPUS_PAIRS, INLINE, load_model, load_scenario

from comodel import executor, ir
from comodel.codegen import ManifestSignal, emit
from comodel.frontend import parse_model, parse_scenario
from comodel.partition import HW, SW, Partition, all_partitions, cosim

pytestmark = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")

# the platform's outbound transport: (sig id, payload, payload bits)
BUS_SEND = ctypes.CFUNCTYPE(None, ctypes.c_uint32, ctypes.POINTER(ctypes.c_uint8), ctypes.c_uint32)


def _mixed_partitions() -> list:
    """(model, HW classes) of every mixed partition of the corpus models,
    and of each `INLINE` model with `Kick` in HW."""
    cases = []
    for name in CORPUS_MODELS:
        for p in all_partitions(load_model(name)):
            hw = tuple(cls for cls, d in p.domain.items() if d == HW)
            if hw and len(hw) < len(p.domain):
                cases.append(pytest.param(name, hw, id=f"{name}-{'+'.join(hw)}"))
    return cases + [pytest.param(name, ("Kick",), id=f"{name}-Kick") for name in INLINE]


def _shim(name: str, attrs: list[tuple[str, str]]) -> str:
    """Includes `<name>_sw.c`; routes `<name>_bus_send` to a callback the
    caller sets, and reads the FIFO's count and head slot and, through
    `shim_attr_<k>`, the k-th of the SW `attrs` (instance, attribute)."""
    return "\n".join([
        f'#include "{name}_sw.c"',
        "static void (*bus_send)(uint32_t, const uint8_t *, uint32_t);",
        "void shim_set_bus_send(void (*f)(uint32_t, const uint8_t *, uint32_t)) {",
        "    bus_send = f;",
        "}",
        f"void {name}_bus_send(uint32_t sig_id, const uint8_t *payload, uint32_t nbits) {{",
        "    bus_send(sig_id, payload, nbits);",
        "}",
        "uint32_t shim_queue_count(void) { return queue_count; }",
        "uint32_t shim_head_inst(void) { return queue[queue_head].inst; }",
        "uint32_t shim_head_ev(void) { return queue[queue_head].ev; }",
        *(f"uint32_t shim_attr_{k}(void) {{ return inst_{inst}.{attr}; }}"
          for k, (inst, attr) in enumerate(attrs)),
        "",
    ])


def _pack(s: ManifestSignal, args: tuple[int, ...]) -> int:
    return sum(a << f.bit_offset for a, f in zip(args, s.payload))


def _c_island(lib, name: str, machine: executor.Machine, out, domain: dict[str, str],
              scenario: ir.Scenario, latency: int):
    """Co-simulate the C half `lib` as the SW island and the interpreter as
    the HW island. Returns the dispatched (receiver, signal) pairs, the
    final attributes and the bus crossings as (sig id, payload bits), in
    the order they were sent."""
    class_of = machine.instance_class
    sw = [inst for inst, cls in class_of.items() if domain[cls.name] == SW]
    swi = {inst: k for k, inst in enumerate(sw)}
    by_id = {s.id: s for s in out.manifest.signals}
    by_key = {(s.receiver_class, s.signal): s for s in out.manifest.signals}
    # the outbound wire carries no instance id: each SW->HW receiver class has one
    receiver_of = {}
    for s in out.manifest.signals:
        if domain[s.receiver_class] == HW:
            (receiver_of[s.id],) = [i for i, c in class_of.items() if c.name == s.receiver_class]
    state = machine.initial_state()
    hw: deque[executor.SignalEnvelope] = deque()  # the HW island, in arrival order
    inject = getattr(lib, f"{name}_inject")
    bus_deliver = getattr(lib, f"{name}_bus_deliver")
    step = getattr(lib, f"{name}_step")

    sent: list[tuple[int, int]] = []  # the SW step's bus sends, read after it

    def on_bus_send(sig_id, payload, nbits):
        sent.append((sig_id, int.from_bytes(bytes(payload[:(nbits + 7) // 8]), "little")))

    callback = BUS_SEND(on_bus_send)  # kept alive while the C half may call it
    lib.shim_set_bus_send(callback)
    getattr(lib, f"{name}_reset")()

    bus: deque = deque()  # (enqueue round, deliver function, its arguments)
    crossings, dispatched = [], []
    round_no = 0

    def hw_deliver(env: executor.SignalEnvelope) -> None:
        if env.receiver not in swi:
            hw.append(env)
            return
        s = by_key[class_of[env.receiver].name, env.signal]
        bits = _pack(s, env.args)
        crossings.append((s.id, bits))
        nbytes = max(1, (s.payload_total_bits + 7) // 8)
        payload = (ctypes.c_uint8 * nbytes).from_buffer_copy(bits.to_bytes(nbytes, "little"))
        bus.append((round_no, bus_deliver, (swi[env.receiver], s.id, payload)))

    def inject_group(group) -> None:
        for inj in group:
            args = tuple(int(a) for a in inj.args)
            if inj.instance in swi:
                signals = [s.name for s in class_of[inj.instance].signals]
                inject(swi[inj.instance], signals.index(inj.signal),
                       (ctypes.c_uint32 * max(1, len(args)))(*args), len(args))
            else:
                hw.append(executor.SignalEnvelope(
                    state.next_seq, executor.ENV_SENDER, inj.instance, inj.signal, args))
            state.next_seq += 1

    by_at = sorted(scenario.injections, key=lambda inj: inj.at)  # stable: file order
    groups = deque((at, list(g)) for at, g in itertools.groupby(by_at, lambda inj: inj.at))
    while True:
        while bus and bus[0][0] + latency <= round_no:
            _, deliver, args = bus.popleft()
            deliver(*args)
        steps_before = len(dispatched)
        for on_sw in (True, False):
            if groups and groups[0][0] == len(dispatched):
                inject_group(groups.popleft()[1])
            if on_sw and lib.shim_queue_count():
                sender = sw[lib.shim_head_inst()]
                signal = class_of[sender].signals[lib.shim_head_ev()].name
                dispatched.append((sender, signal))
                assert step() == 1
                for sig_id, bits in sent:
                    s = by_id[sig_id]
                    crossings.append((sig_id, bits))
                    args = tuple((bits >> f.bit_offset) & ((1 << f.width_bits) - 1)
                                 for f in s.payload)
                    env = executor.SignalEnvelope(
                        state.next_seq, sender, receiver_of[sig_id], s.signal, args)
                    state.next_seq += 1
                    bus.append((round_no, hw.append, (env,)))
                sent.clear()
            elif not on_sw and hw:
                env = hw.popleft()
                dispatched.append((env.receiver, env.signal))
                assert executor.execute_rtc_step(
                    machine, state, env, hw_deliver, executor.STRICT) is not None
        assert len(dispatched) <= executor.ExecConfig().max_steps
        if len(dispatched) == steps_before and not bus:
            if not groups:
                break
            inject_group(groups.popleft()[1])
            continue
        round_no += 1

    attrs = {inst: dict(values) for inst, values in state.attrs.items() if inst not in swi}
    k = itertools.count()
    for inst in sw:
        attrs[inst] = {a.name: getattr(lib, f"shim_attr_{next(k)}")()
                       for a in class_of[inst].attributes}
    return dispatched, attrs, crossings


@pytest.mark.parametrize("name,hw", _mixed_partitions())
def test_c_half_runs_as_the_sw_island(tmp_path, name, hw):
    if name in INLINE:
        model = parse_model(INLINE[name][0])
        scenarios = {name: parse_scenario(INLINE[name][1])}
    else:
        model = load_model(name)
        scenarios = {scn: load_scenario(scn) for m, scn in CORPUS_PAIRS if m == name}
    domain = {cls.name: HW if cls.name in hw else SW for cls in model.classes}
    p = Partition(domain=domain)
    out = emit(model, p, name=name)
    machine = executor.Machine(model)
    sw_attrs = [(inst, a.name) for inst, cls in machine.instance_class.items()
                if domain[cls.name] == SW for a in cls.attributes]
    (tmp_path / f"{name}_sw.c").write_text(out.c_source)
    (tmp_path / f"{name}_sw.h").write_text(out.c_header)
    (tmp_path / "shim.c").write_text(_shim(name, sw_attrs))
    build = subprocess.run(
        ["cc", "-std=c99", "-Wall", "-Wextra", "-shared", "-fPIC", "shim.c", "-o", "shim.so"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert build.returncode == 0 and build.stderr == "", build.stderr
    lib = ctypes.CDLL(str(tmp_path / "shim.so"))
    for fn in ("shim_queue_count", "shim_head_inst", "shim_head_ev"):
        getattr(lib, fn).restype = ctypes.c_uint32
    for k in range(len(sw_attrs)):
        getattr(lib, f"shim_attr_{k}").restype = ctypes.c_uint32
    getattr(lib, f"{name}_step").restype = ctypes.c_int

    by_key = {(s.receiver_class, s.signal): s for s in out.manifest.signals}
    mismatches = []
    for (scn, scenario), latency in itertools.product(scenarios.items(), (1, 2, 3)):
        trace = cosim(model, p, scenario, latency=latency)
        assert trace.outcome.kind == executor.QUIESCENT
        crossings = []
        for ev in sorted(trace.events, key=lambda ev: ev.envelope.seq):
            if ev.envelope.seq in trace.bus:
                s = by_key[machine.instance_class[ev.envelope.receiver].name, ev.envelope.signal]
                crossings.append((s.id, _pack(s, ev.envelope.args)))
        want = {
            "dispatch order": [(ev.envelope.receiver, ev.envelope.signal) for ev in trace.events],
            "final attributes": trace.final.attrs,
            "bus crossings": crossings,
        }
        got = dict(zip(want, _c_island(lib, name, machine, out, domain, scenario, latency)))
        # the step count is the length of the dispatch order
        mismatches += [(scn, latency, key, got[key], want[key]) for key in want
                       if got[key] != want[key]]
    assert mismatches == []
