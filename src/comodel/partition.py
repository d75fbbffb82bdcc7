"""Hardware/software partitioning and partitioned co-simulation.

A partition assigns every class to the HW or SW domain. It is derived
entirely from marks: classes default to SW and flip to HW under a
boolean `isHardware` mark on the class path. Marks never touch the model
file, so repartitioning is only ever a marks-file edit.

The boundary is the set of (receiver instance, signal) pairs that some
class sends to, where the receiver's class is in the other domain. The
sender rule is on classes: a send in a class with no instances still
counts. The generated interface consists of exactly these pairs.

`cosim` runs the dispatch loop of `executor.run` with two islands, SW
and HW, where `run` has one; the partition only decides which island an
instance sits on. `cosim` is the one place that turns domains into
islands, and the loop itself never sees a domain name. Intra-domain
sends enqueue directly; cross-boundary sends travel through a FIFO bus
and arrive `latency` bus ticks later (one tick per dispatch round, fixed
round order: SW step, HW step, bus tick). Sequence numbers stay global, so every executor trace check
applies unchanged to the merged trace, and the golden traces remain the
independent oracle for the shared loop. Its events are the records
`run` builds; the merged trace keeps each instance's domain, each bus
envelope's enqueue round and the latency once, and a rendered line
derives its domain and bus rounds from them.
Under global-fifo each island serves envelopes in the order they reach
it, which in `run` is seq order. A bus delivery reaches its island when
it comes off the bus, so it is served after every envelope already
pending there, whatever its receiver, as the generated C's one event
FIFO serves it.

`equivalence_check` grades a partitioned run against the reference run:

* L1 - per (sender, receiver) pair, the dispatched (signal, args)
  sequences are identical (always required);
* L2 - causality holds in the partitioned trace (always required);
* L3 - final attribute valuations are equal (required only for
  confluent scenarios, informative otherwise, because order-sensitive
  models may legitimately diverge under different interleavings).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import executor, ir
from .executor import ExecConfig, Machine, Trace

HW = "HW"
SW = "SW"

SW_TO_HW = "sw_to_hw"
HW_TO_SW = "hw_to_sw"

MARK_IS_HARDWARE = "isHardware"


class MarkError(Exception):
    """A mark cannot be applied to the model (bad path, granularity or type)."""

    def __init__(self, code: str, path: str, message: str):
        super().__init__(f"{code} {path}: {message}")
        self.code = code
        self.path = path


@dataclass
class Partition:
    """Total map from class name to domain, plus non-fatal mark warnings."""

    domain: dict[str, str]
    warnings: list[ir.Diagnostic] = field(default_factory=list)


@dataclass
class BoundarySignal:
    receiver: str  # an instance
    signal: str
    direction: str  # sw_to_hw | hw_to_sw


def derive_partition(model: ir.Model, marks: ir.MarkSet) -> Partition:
    """Apply marks to a validated model.

    Classes default to SW; `isHardware` (true) on a class path flips it
    to HW, and an explicit false is legal and keeps it SW. Unknown mark
    keys are ignored with a W_UNKNOWN_MARK warning so foreign marks
    stay non-intrusive. Bad paths, non-class granularity and non-boolean
    values raise MarkError.
    """
    domain = dict.fromkeys(ir.ensure_valid(model).classes, SW)
    warnings: list[ir.Diagnostic] = []
    for m in marks.marks:
        if m.key != MARK_IS_HARDWARE:
            warnings.append(
                ir.Diagnostic(
                    ir.WARNING,
                    "W_UNKNOWN_MARK",
                    m.path,
                    f"ignoring unknown mark key {m.key}",
                )
            )
            continue
        if m.path not in domain:  # its keys are exactly the class names
            if ir.resolve(model, m.path) is None:
                raise MarkError("E_MARK_PATH", m.path, "mark path does not resolve")
            raise MarkError(
                "E_MARK_GRANULARITY",
                m.path,
                f"{MARK_IS_HARDWARE} applies to classes only",
            )
        if not isinstance(m.value, bool):
            raise MarkError(
                "E_MARK_TYPE", m.path, f"{MARK_IS_HARDWARE} takes a boolean value"
            )
        domain[m.path] = HW if m.value else SW
    return Partition(domain=domain, warnings=warnings)


def boundary(model: ir.Model, partition: Partition) -> list[BoundarySignal]:
    """Boundary signals, sorted ascending by (receiver instance, signal).

    A (receiver, signal) pair is on the boundary when some class sends
    the signal to the receiver instance and the receiver's class is in
    the other domain, which also gives the direction. The sender rule is
    on classes, read from the validated model's `sends`: a sender class
    with no instances still puts its pair on the boundary.
    """
    checked = ir.ensure_valid(model)
    domain, instance_class = partition.domain, checked.instance_class
    crossing = {}
    for sender, receiver, signal in checked.sends:
        to = domain[instance_class[receiver].name]
        if domain[sender] != to:
            crossing[receiver, signal] = SW_TO_HW if to == HW else HW_TO_SW
    return [BoundarySignal(r, s, crossing[r, s]) for r, s in sorted(crossing)]


# ---------------------------------------------------------------------------
# Co-simulation
# ---------------------------------------------------------------------------


@dataclass
class PartitionedTrace(Trace):
    """The merged trace plus what its events do not store: each
    instance's domain, the enqueue round of every envelope that rode the
    bus (`bus`, by seq), and the bus latency."""

    domain_of: dict[str, str] = field(default_factory=dict)
    bus: dict[int, int] = field(default_factory=dict)
    latency: int = 1

    @property
    def bus_crossings(self) -> int:
        return len(self.bus)


def cosim(
    model: ir.Model,
    partition: Partition,
    scenario: ir.Scenario,
    config: ExecConfig | None = None,
    latency: int = 1,
) -> PartitionedTrace:
    """Co-simulate the partitioned system and return the merged trace.

    The SW instances and then the HW instances, each in document order,
    are the two islands of the dispatch loop, so each round runs at most
    one SW step, then at most one HW step, then a bus tick; an empty
    island keeps its turn. A cross-boundary envelope enqueued during
    round R becomes deliverable in round R + latency; intra-domain sends
    and scenario injections bypass the bus entirely. The instance ->
    domain map stays on the trace for its renderer. Degenerate
    partitions (all-SW, all-HW) reproduce the reference trace
    event-for-event.
    """
    if latency < 1:
        raise ValueError("latency must be >= 1")
    machine = Machine(model)
    domain_of = {n: partition.domain[c.name] for n, c in machine.instance_class.items()}
    islands = [[n for n, d in domain_of.items() if d == domain] for domain in (SW, HW)]
    trace, bus = executor._dispatch(machine, scenario, config or ExecConfig(), islands, latency)
    return PartitionedTrace(
        trace.events, trace.final, trace.outcome, trace.expectations, domain_of, bus, latency
    )


def serialize_partitioned_trace(trace: PartitionedTrace) -> str:
    """Executor JSON Lines format; each event line ends in its receiver's
    domain and its bus enqueue and deliver rounds (`executor.COSIM_KEYS`,
    null for intra-domain envelopes), derived from the trace's maps."""
    return executor._render_trace(trace, trace.domain_of, trace.bus, trace.latency)


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------


@dataclass
class LevelResult:
    level: str
    required: bool
    passed: bool
    detail: str | None = None


@dataclass
class EquivalenceReport:
    levels: list[LevelResult]

    @property
    def ok(self) -> bool:
        return all(l.passed for l in self.levels if l.required)

    def render(self) -> str:
        parts = []
        for l in self.levels:
            word = "pass" if l.passed else "fail"
            if not l.required:
                word += " (informative)"
            parts.append(f"{l.level} {word}")
        return " ".join(parts)


def _pair_streams(trace: Trace) -> dict[tuple[str, str], list[tuple[str, tuple[int, ...]]]]:
    streams: dict[tuple[str, str], list[tuple[str, tuple[int, ...]]]] = {}
    for ev in trace.events:
        key = (ev.envelope.sender, ev.envelope.receiver)
        streams.setdefault(key, []).append((ev.envelope.signal, ev.envelope.args))
    return streams


def equivalence_check(
    reference: Trace, partitioned: Trace, confluent: bool
) -> EquivalenceReport:
    """Grade a partitioned trace against the reference trace (L1/L2/L3)."""
    ref_streams = _pair_streams(reference)
    part_streams = _pair_streams(partitioned)
    l1_detail = None
    for key in sorted(set(ref_streams) | set(part_streams)):
        a = ref_streams.get(key, [])
        b = part_streams.get(key, [])
        if a != b:
            i = next(
                (i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b))
            )
            got = b[i] if i < len(b) else "nothing"
            want = a[i] if i < len(a) else "nothing"
            l1_detail = f"pair {key[0]}->{key[1]} diverges at index {i}: {want} vs {got}"
            break
    l2_ok = executor.check_causality(partitioned)
    ref_attrs = reference.final.attrs
    part_attrs = partitioned.final.attrs
    l3_detail = None
    if ref_attrs != part_attrs:
        for inst in ref_attrs:
            if ref_attrs[inst] != part_attrs.get(inst):
                l3_detail = (
                    f"{inst}: {ref_attrs[inst]} vs {part_attrs.get(inst)}"
                )
                break
    return EquivalenceReport(
        levels=[
            LevelResult("L1", True, l1_detail is None, l1_detail),
            LevelResult("L2", True, l2_ok, None if l2_ok else "causality violated"),
            LevelResult("L3", confluent, l3_detail is None, l3_detail),
        ]
    )


def all_partitions(model: ir.Model) -> list[Partition]:
    """Every 2^k domain assignment of the model's classes, in a stable
    order (used by the repartition sweeps)."""
    names = [c.name for c in model.classes]
    result = []
    for combo in itertools.product((SW, HW), repeat=len(names)):
        result.append(Partition(domain=dict(zip(names, combo))))
    return result


def marks_for_partition(partition: Partition) -> ir.MarkSet:
    """Render a partition as an explicit marks file (HW classes marked
    true, SW classes marked false), for sweeps that must repartition by
    marks alone."""
    marks = [
        ir.Mark(MARK_IS_HARDWARE, partition.domain[name] == HW, name)
        for name in partition.domain
    ]
    return ir.MarkSet(marks=marks)
