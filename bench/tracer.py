"""Benchmark-side tracing of comodel's public functions.

`Tracer.install` replaces module attributes such as
``comodel.executor.execute_rtc_step`` and ``comodel.ir.validate`` (and
``executor.Machine.__init__``) with wrappers that record one span per
call. Because comodel calls these through module attributes, its
internal calls are recorded too: ``ir.ensure_valid`` calling
``validate``, ``executor.run`` calling ``execute_rtc_step``, and so on.
`uninstall` puts the originals back. An untraced run never installs.

A span is ``[name, start_ns, end_ns, parent, job, amount]``: `parent` is
the index of the enclosing span (or None), `job` the benchmark job the
call ran in (or None), and `amount` an exact size taken from the call's
argument or result (bytes parsed, bytes serialised, steps, crossings).
Spans stay in memory; `write` dumps them as JSON Lines at the end.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

from comodel import cli, codegen, executor, frontend, ir, partition

def _emit_bytes(_args, out) -> int:
    return len(out.c_source) + len(out.c_header) + len(out.vhdl_source)


# (module, attribute, amount taken from (args, result) or None)
TARGETS = [
    (frontend, "parse_model", lambda a, r: len(a[0].encode("utf-8"))),
    (frontend, "parse_scenario", None),
    (frontend, "parse_marks", None),
    (frontend, "print_model", None),
    (ir, "validate", None),
    (executor, "run", lambda a, r: len(r.events)),
    (executor, "execute_rtc_step", None),
    (executor, "serialize_trace", lambda a, r: len(r.encode("utf-8"))),
    (executor, "check_causality", None),
    (executor, "check_pair_fifo", None),
    (partition, "derive_partition", None),
    (partition, "boundary", None),
    (partition, "cosim", lambda a, r: (len(r.events), r.bus_crossings)),
    (partition, "equivalence_check", None),
    (partition, "serialize_partitioned_trace", None),
    (codegen, "build_manifest", None),
    (codegen, "emit_c", None),
    (codegen, "emit_vhdl", None),
    (codegen, "emit", _emit_bytes),
    (codegen, "manifest_to_json", None),
    (codegen, "check_interfaces", None),
    (cli, "main", None),
]


def _span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


SPAN_NAMES = [_span_name(module, attr) for module, attr, _ in TARGETS] + ["executor.Machine"]
MODULES = tuple(dict.fromkeys(name.split(".", 1)[0] for name in SPAN_NAMES))


class Tracer:
    """Spans of the wrapped calls, plus the job ids the benchmark hands out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.jobs = 0  # jobs begun so far
        self._job: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def job(self):
        """Tag the spans recorded inside the block with a fresh job id."""
        self._job = self.jobs
        self.jobs += 1
        try:
            yield
        finally:
            self._job = None

    def _wrap(self, name: str, fn, amount):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else None, self._job, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if amount is not None:
                span[5] = amount(args, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, amount in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(_span_name(module, attr), fn, amount))
        init = executor.Machine.__init__
        self._saved.append((executor.Machine, "__init__", init))
        executor.Machine.__init__ = self._wrap("executor.Machine", init, None)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        """Dump the spans as JSON Lines: name, start_ns, end_ns, parent, job, amount."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span))
                f.write("\n")


def layer_metrics(spans: list[list], first: int, end: int, jobs: int) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[first:end]`` (one pass).

    ``<fn>.s`` is busy time, ``<fn>.self_s`` busy time minus child spans;
    ``<module>.s`` counts only spans with no ancestor in the same module,
    so nested calls inside one module are not counted twice. `jobs` is the
    number of benchmark jobs the pass ran.
    """
    calls: dict[str, int] = {}
    busy: dict[str, int] = {}
    child: dict[str, int] = {}
    amount: dict[str, list] = {}
    mod_busy = dict.fromkeys(MODULES, 0)
    mod_self = dict.fromkeys(MODULES, 0)
    validate_in_jobs = 0
    for i in range(first, end):
        name, start, stop, parent, job, amt = spans[i]
        dur = stop - start
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0) + dur
        if amt is not None:
            amount.setdefault(name, []).append(amt)
        if name == "ir.validate" and job is not None:
            validate_in_jobs += 1
        if parent is not None:
            pname = spans[parent][0]
            child[pname] = child.get(pname, 0) + dur
        module = name.split(".", 1)[0]
        anc = parent
        while anc is not None and spans[anc][0].split(".", 1)[0] != module:
            anc = spans[anc][3]
        if anc is None:
            mod_busy[module] += dur

    for name in busy:
        mod_self[name.split(".", 1)[0]] += busy[name] - child.get(name, 0)

    def s(name: str) -> float:
        return busy.get(name, 0) / 1e9

    def self_s(name: str) -> float:
        return (busy.get(name, 0) - child.get(name, 0)) / 1e9

    run_steps = sum(amount.get("executor.run", []))
    cosim = amount.get("partition.cosim", [])
    cosim_steps = sum(a[0] for a in cosim)
    crossings = sum(a[1] for a in cosim)
    parsed = sum(amount.get("frontend.parse_model", []))

    m: dict[str, float] = {}
    for module in MODULES:
        m[f"{module}.s"] = mod_busy[module] / 1e9
        m[f"{module}.self_s"] = mod_self[module] / 1e9
    for name in SPAN_NAMES:
        m[f"{name}.s"] = s(name)
    for name in (
        "frontend.parse_model", "ir.validate", "executor.Machine",
        "executor.execute_rtc_step", "partition.boundary", "cli.main",
    ):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["frontend.parse_model.kb_per_s"] = parsed / 1e3 / s("frontend.parse_model")
    m["ir.validate.calls_per_job"] = validate_in_jobs / jobs
    m["executor.run.self_s"] = self_s("executor.run")
    m["executor.run.self_us_per_step"] = self_s("executor.run") * 1e6 / run_steps
    m["executor.serialize_trace.mb"] = sum(amount.get("executor.serialize_trace", [])) / 1e6
    m["partition.cosim.self_s"] = self_s("partition.cosim")
    m["partition.cosim.self_us_per_step"] = self_s("partition.cosim") * 1e6 / cosim_steps
    m["partition.cosim.bus_crossings"] = crossings
    m["partition.cosim.bus_share"] = crossings / cosim_steps
    m["codegen.emit.kb"] = sum(amount.get("codegen.emit", [])) / 1e3
    return m


# Counts that must repeat exactly between passes and runs at one seed.
EXACT_COUNTS = (
    "ir.validate.calls_per_job",
    "executor.execute_rtc_step.calls",
    "partition.cosim.bus_crossings",
    "executor.serialize_trace.mb",
    "codegen.emit.kb",
)
