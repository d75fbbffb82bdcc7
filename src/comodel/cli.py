"""Command-line driver: validate, run, partition, cosim, gen, checkgen.

Exit codes are part of the contract and machine-parsable:
0 ok, 1 validation/parse error, 2 runtime/scenario error, 3 equivalence
or interface-check failure, 4 usage error. Human-readable results go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import codegen, executor, frontend, ir
from . import partition as part

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; we pin 4
        raise _UsageError(message)


def _read(path: str) -> str:
    # newline="" keeps a lone \r as written, so a location reported here
    # is the one `frontend` reports for the same text
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise _InputError(f"{path}: byte offset {e.start}: not UTF-8 ({e.reason})") from e


def _parse(parse, path: str):
    """Parse the file at `path`; its first syntax error is an input error."""
    text = _read(path)
    try:
        return parse(text, path)
    except frontend.ParseError as e:
        raise _InputError(str(e)) from e


def _load_model(path: str) -> ir.Model:
    model = _parse(frontend.parse_model, path)
    report = ir.validate(model)
    if not report.ok:
        raise _InputError(report.render())
    return model


def _load_marks(path: str | None) -> ir.MarkSet:
    return ir.MarkSet() if path is None else _parse(frontend.parse_marks, path)


def _load_partition(model: ir.Model, marks_path: str | None) -> part.Partition:
    try:
        p = part.derive_partition(model, _load_marks(marks_path))
    except part.MarkError as e:
        raise _InputError(str(e)) from e
    for d in p.warnings:
        print(d.render(), file=sys.stderr)
    return p


def _load_scenario(path: str) -> ir.Scenario:
    return _parse(frontend.parse_scenario, path)


def _exec_config(args) -> executor.ExecConfig:
    scheduler = executor.GLOBAL_FIFO if args.scheduler == "fifo" else executor.RANDOM
    try:
        return executor.ExecConfig(
            scheduler=scheduler, seed=args.seed, mode=args.mode, max_steps=args.max_steps
        )
    except ValueError as e:
        raise _UsageError(str(e)) from e


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e}") from e


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    _load_model(args.model)
    return EXIT_OK


def cmd_run(args) -> int:
    model = _load_model(args.model)
    scenario = _load_scenario(args.scenario)
    config = _exec_config(args)
    try:
        trace = executor.run(model, scenario, config)
    except executor.ScenarioError as e:
        print(str(e), file=sys.stderr)
        return EXIT_RUNTIME
    if args.trace:
        _write_text(args.trace, executor.serialize_trace(trace))
    passed = sum(1 for e in trace.expectations if e.passed)
    print(
        f"outcome={trace.outcome.render()} steps={len(trace.events)}"
        f" expectations={passed}/{len(trace.expectations)}"
    )
    for e in trace.expectations:
        if not e.passed:
            print(f"expectation failed: {e.path} == {e.expected}, got {e.actual}",
                  file=sys.stderr)
    return EXIT_OK if trace.passed else EXIT_RUNTIME


def cmd_partition(args) -> int:
    model = _load_model(args.model)
    p = _load_partition(model, args.marks)
    for cls in model.classes:
        print(f"{cls.name} {p.domain[cls.name]}")
    for bs in part.boundary(model, p):
        print(f"{bs.receiver}.{bs.signal} {bs.direction}")
    return EXIT_OK


def cmd_cosim(args) -> int:
    model = _load_model(args.model)
    p = _load_partition(model, args.marks)
    scenario = _load_scenario(args.scenario)
    if args.latency < 1:
        raise _UsageError("latency must be >= 1")
    config = executor.ExecConfig()
    try:
        reference = executor.run(model, scenario, config)
        partitioned = part.cosim(model, p, scenario, config, latency=args.latency)
    except executor.ScenarioError as e:
        print(str(e), file=sys.stderr)
        return EXIT_RUNTIME
    for trace, label in ((reference, "reference"), (partitioned, "partitioned")):
        if trace.outcome.kind != executor.QUIESCENT:
            print(f"{label} run: {trace.outcome.render()}", file=sys.stderr)
            return EXIT_RUNTIME
    if args.trace:
        _write_text(args.trace, part.serialize_partitioned_trace(partitioned))
    report = part.equivalence_check(reference, partitioned, scenario.confluent)
    print(report.render())
    for level in report.levels:
        if not level.passed and level.detail:
            print(f"{level.level}: {level.detail}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_CHECK


def _gen_paths(out_dir: Path, stem: str) -> dict[str, Path]:
    return {
        "c_source": out_dir / f"{stem}_sw.c",
        "c_header": out_dir / f"{stem}_sw.h",
        "vhdl_source": out_dir / f"{stem}_hw.vhd",
        "manifest": out_dir / f"{stem}_interface.json",
    }


def cmd_gen(args) -> int:
    model = _load_model(args.model)
    p = _load_partition(model, args.marks)
    stem = Path(args.model).stem
    try:
        out = codegen.emit(model, p, name=stem)
    except codegen.CodegenError as e:
        print(str(e), file=sys.stderr)
        return EXIT_INPUT
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _UsageError(f"cannot create {out_dir}: {e}") from e
    paths = _gen_paths(out_dir, stem)
    _write_text(str(paths["c_source"]), out.c_source)
    _write_text(str(paths["c_header"]), out.c_header)
    _write_text(str(paths["vhdl_source"]), out.vhdl_source)
    _write_text(str(paths["manifest"]), codegen.manifest_to_json(out.manifest))
    report = codegen.check_interfaces(out.c_header, out.vhdl_source, out.manifest)
    if not report.ok:
        print(report.render(), file=sys.stderr)
        return EXIT_CHECK
    for key in ("c_source", "c_header", "vhdl_source", "manifest"):
        print(str(paths[key]))
    return EXIT_OK


def cmd_checkgen(args) -> int:
    out_dir = Path(args.out_dir)
    if not out_dir.is_dir():
        raise _UsageError(f"not a directory: {out_dir}")
    manifests = sorted(out_dir.glob("*_interface.json"))
    if len(manifests) != 1:
        raise _UsageError(
            f"expected exactly one *_interface.json in {out_dir},"
            f" found {len(manifests)}"
        )
    stem = manifests[0].name[: -len("_interface.json")]
    paths = _gen_paths(out_dir, stem)
    for key in ("c_source", "c_header", "vhdl_source"):
        if not paths[key].is_file():
            raise _UsageError(f"missing generated file {paths[key]}")
    try:
        manifest = codegen.manifest_from_json(_read(str(paths["manifest"])))
    except codegen.CodegenError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CHECK
    report = codegen.check_interfaces(
        _read(str(paths["c_header"])), _read(str(paths["vhdl_source"])), manifest
    )
    print(report.render())
    return EXIT_OK if report.ok else EXIT_CHECK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="comodel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and statically check a model")
    p.add_argument("model")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="execute a scenario against a model")
    p.add_argument("model")
    p.add_argument("--scenario", required=True)
    p.add_argument("--scheduler", choices=("fifo", "random"), default="fifo")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    p.add_argument("--max-steps", type=int, default=10000)
    p.add_argument("--trace", help="write the JSON Lines trace here")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("partition", help="show the partition and boundary for marks")
    p.add_argument("model")
    p.add_argument("--marks")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("cosim", help="co-simulate a partitioned model and compare")
    p.add_argument("model")
    p.add_argument("--marks")
    p.add_argument("--scenario", required=True)
    p.add_argument("--latency", type=int, default=1)
    p.add_argument("--trace", help="write the partitioned JSON Lines trace here")
    p.set_defaults(fn=cmd_cosim)

    p = sub.add_parser("gen", help="generate C and VHDL halves plus the manifest")
    p.add_argument("model")
    p.add_argument("--marks")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("checkgen", help="re-check generated files against the manifest")
    p.add_argument("out_dir")
    p.set_defaults(fn=cmd_checkgen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _InputError as e:
        print(str(e), file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
