"""comodel benchmark: one workload per process, checked, with metrics as JSON.

Run from the repository root:

    python3 bench/run.py --workload ring-wide --seed 1 --seconds 30 --trace 0

The process imports comodel from ``src/``, builds its inputs from
``--seed`` and warms up (set-up), then runs passes of the workload until
``--seconds`` have passed. Every output is checked against a known
answer; wrong verdicts are counted, never fatal.

``--trace 0`` reports the end-to-end metrics, measured with nothing
installed. ``--trace 1`` runs untraced passes for a third of the time,
then installs the tracer's wrappers and reports per-layer metrics from
the traced passes, plus the tracing overhead. The traced run also checks
that the exact counts repeat between its passes and between runs at the
same seed (kept under ``.bench_out/``, keyed by a hash of the sources).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a table of every metric with
its unit comes before it. Metric names and units come from
``BENCHMARK.json``, and the run fails unless it computed exactly those.
Set-up time is the median over this process and SETUP_PROBES fresh
processes started one after the other with ``--setup-only``.
"""

import time

_T0 = time.perf_counter()  # set-up starts here, before comodel is imported

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
TRACE_UNTRACED_SHARE = 1 / 3
CHILD_TIMEOUT_S = 120


def _environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python {platform.python_version()} ({platform.python_implementation()}),"
            f" nproc {os.cpu_count()}, cpu {cpu}")


def _code_hash() -> str:
    """Hash of comodel's and the benchmark's sources, which fix the exact counts."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "comodel").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _setup_probes(args) -> list[float]:
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def _passes(workload, gate, tracer, seconds: float, minimum: int):
    """Run passes until `seconds` have passed and at least `minimum` ran.

    Returns one (wall_s, stats, first_span, jobs_before) tuple per pass.
    """
    from workloads import PassStats

    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < minimum or time.perf_counter() < deadline:
        stats = PassStats()
        first, jobs = len(tracer.spans), tracer.jobs
        gc.collect()  # every pass starts from one collector state and does the same collections
        t = time.perf_counter()
        workload.run_pass(gate, stats, tracer)
        results.append((time.perf_counter() - t, stats, first, jobs))
    return results


def _slow_quartile(values, higher_is_better: bool = False) -> float:
    """The quartile of per-pass values on the slow side.

    The host alternates between its usual speed and bursts about 1.4x
    faster that last seconds; the share of bursts in a run moves a median
    by up to a fifth between runs, while the slow-side quartile stays on
    the usual speed.
    """
    q1, _, q3 = statistics.quantiles(list(values), n=4, method="inclusive")
    return q1 if higher_is_better else q3


def _end_to_end(passes, setup: list[float]) -> tuple[dict, dict]:
    stats = [st for _, st, _, _ in passes]
    jobs_ms = [ms for st in stats for ms in st.jobs_ms]
    metrics = {
        "wall_s": _slow_quartile(w for w, _, _, _ in passes),
        "run_steps_per_s": _slow_quartile((st.run_steps / st.run_s for st in stats), True),
        "cosim_steps_per_s": _slow_quartile((st.cosim_steps / st.cosim_s for st in stats), True),
        "compile_s": _slow_quartile(st.compile_s for st in stats),
        "job_p50_ms": _slow_quartile(statistics.median(st.jobs_ms) for st in stats),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"passes": len(passes), "job_samples": len(jobs_ms)}
    # p99 only where at least ten samples lie beyond it
    if len(jobs_ms) >= 1000:
        extra["job_p99_ms"] = statistics.quantiles(jobs_ms, n=100)[98]
    return metrics, extra


def _check_repeat(name: str, seed: int, per_pass: list[dict], expected: dict, gate) -> None:
    from tracer import EXACT_COUNTS

    counts = {k: per_pass[0][k] for k in EXACT_COUNTS}
    with gate.op("exact-repeat counts"):
        for m in per_pass[1:]:
            gate.expect(all(m[k] == counts[k] for k in EXACT_COUNTS),
                        f"counts differ between passes: {counts} vs "
                        f"{ {k: m[k] for k in EXACT_COUNTS} }")
        for k, v in expected.items():
            gate.expect(per_pass[0][k] == v, f"{k} = {per_pass[0][k]}, oracle {v}")
        path = OUT / f"counts-{name}-{seed}-{_code_hash()}.json"
        OUT.mkdir(exist_ok=True)
        if path.exists():
            previous = json.loads(path.read_text(encoding="utf-8"))
            gate.expect(previous == counts, f"counts differ from an earlier run: {previous}")
        else:
            path.write_text(json.dumps(counts), encoding="utf-8")


def _traced(args, workload, gate) -> tuple[dict, dict]:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    untraced = _passes(workload, gate, tracer, args.seconds * TRACE_UNTRACED_SHARE, 1)
    tracer.install()
    try:
        traced = _passes(workload, gate, tracer, args.seconds * (1 - TRACE_UNTRACED_SHARE),
                         MIN_TRACED_PASSES)
    finally:
        tracer.uninstall()
    bounds = [(first, jobs) for _, _, first, jobs in traced] + [(len(tracer.spans), tracer.jobs)]
    per_pass = [
        layer_metrics(tracer.spans, bounds[i][0], bounds[i + 1][0], bounds[i + 1][1] - bounds[i][1])
        for i in range(len(traced))
    ]
    _check_repeat(args.workload, args.seed, per_pass, workload.expected_counts(), gate)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(w for w, _, _, _ in traced)
                                   - statistics.median(w for w, _, _, _ in untraced))
    spans_path = OUT / f"spans-{args.workload}.jsonl"
    tracer.write(spans_path)
    extra = {"untraced_passes": len(untraced), "traced_passes": len(traced),
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("ring-wide", "ring-narrow", "corpus-sweep"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {\"setup_s\": ...} and exit (used for set-up probes)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "comodel" / "__init__.py").is_file():
        print(f"error: comodel sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "corpus-sweep" and not (ROOT / "corpus").is_dir():
        print(f"error: corpus not found under {ROOT}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    declared = json.loads(spec_path.read_text(encoding="utf-8"))[
        "per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports comodel

    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, ROOT, args.seed, tmp)
        workload.warm_up()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        gate = workloads.Gate()
        if args.trace:
            metrics, extra = _traced(args, workload, gate)
        else:
            setup = [setup_s] + _setup_probes(args)
            passes = _passes(workload, gate, workloads.Tracer(), args.seconds, MIN_PASSES)
            metrics, extra = _end_to_end(passes, setup)
            extra["error_rate"] = gate.failed / gate.attempted
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for text in gate.notes:
        print(f"check failed: {text}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are not both computed"
              " and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"# comodel benchmark: workload {args.workload}, seed {args.seed},"
          f" {args.seconds:g} s, trace {args.trace}")
    print(f"# {_environment()}")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:>16.6g} {unit}")
    for name, value in extra.items():
        print(f"# {name} = {value}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
