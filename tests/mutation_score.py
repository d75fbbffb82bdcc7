"""Mutation score of the printers: which tests fail when a mapping rule is wrong.

Each mutant is a one-line change of `src/comodel`, given as (file, old text,
new text); the old text must occur exactly once, which tier-1 checks
(`tests/test_mutation_anchors.py`, skipped in the mutants' runs, as each
mutant removes its own anchor). The script copies the tree to a temporary
directory once, so every mutant sees one version of it, even if the tree is
edited while the script runs. For each mutant it copies that
snapshot, applies the mutant there, runs tier-1 and prints the failing tests,
split into *semantic* tests (they run the interpreter, the compiled C half
or the evaluated VHDL and compare what happens) and *text* tests (they
compare bytes or substrings). A mutant that only text tests catch is a rule
that no test checks by its behaviour.

Run it with the names of the mutants to apply, or none for all of them;
each costs one tier-1 run:

    python3 tests/mutation_score.py [name ...]

The script's name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import fnmatch
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODEGEN = "src/comodel/codegen.py"
ANCHORS = "tests/test_mutation_anchors.py"
COPY_IGNORE = shutil.ignore_patterns(
    ".git", ".bench_out", ".hypothesis", ".pytest_cache", "__pycache__"
)

MUTANTS = {
    "c-narrow-product": (
        CODEGEN,
        'return f"({C_TYPES[e.ty]})((uint32_t){l} * {r})"',
        'return f"({C_TYPES[e.ty]})({l} * {r})"',
    ),
    "c-put-bits-next-bit": (
        CODEGEN,
        "buf[bit / 8u] |= (uint8_t)(1u << (bit % 8u));",
        "buf[bit / 8u] |= (uint8_t)(1u << ((bit + 1u) % 8u));",
    ),
    "c-get-bits-bit-later": (
        CODEGEN,
        "if ((buf[bit / 8u] >> (bit % 8u)) & 1u) {",
        "if ((buf[bit / 8u] >> ((bit + 1u) % 8u)) & 1u) {",
    ),
    "c-not-as-complement": (
        CODEGEN, 'return f"(uint8_t)(!{inner})"', 'return f"(uint8_t)(~{inner})"',
    ),
    # a bus delivery to any instance but the first of its SW class is dropped
    "c-deliver-guard-one-instance": (
        CODEGEN, "' && '.join(guards[s.receiver_class])",
        "' && '.join(guards[s.receiver_class][:1])",
    ),
    "vhdl-product-without-resize": (
        CODEGEN, 'return f"resize({l} * {r}, {ir.WIDTHS[e.ty]})"', 'return f"({l} * {r})"',
    ),
    "vhdl-less-as-less-equal": (
        CODEGEN, '"!=": "/="}', '"!=": "/=", "<": "<="}',
    ),
    "vhdl-param-slice-bit-high": (
        CODEGEN,
        "unsigned(ev_args({f.bit_offset + f.width_bits - 1} downto {f.bit_offset}))",
        "unsigned(ev_args({f.bit_offset + f.width_bits} downto {f.bit_offset + 1}))",
    ),
    "vhdl-reset-loads-zero": (
        CODEGEN, "<= to_unsigned({int(a.default)}, {n});", "<= to_unsigned(0, {n});",
    ),
    # the one-port bug class: every send of a step drives one output
    "vhdl-one-send-slot": (
        CODEGEN, """out.append(f"{pad}send_valid({k}) <= '1';")""",
        """out.append(f"{pad}send_valid(0) <= '1';")""",
    ),
    # the control: a wrong interpreter rule, which semantic tests must catch
    "control-interpreter-less-as-less-equal": (
        "src/comodel/executor.py", '"<": "<",', '"<": "<=",',
    ),
}

# Tests that check behaviour: each runs the interpreter, the compiled C half or
# the evaluated VHDL and compares what happens with an oracle. Every other test
# compares text.
SEMANTIC = [
    "tests/test_executor.py::*",
    "tests/test_partition.py::*",
    "tests/test_compile.py::*",
    "tests/test_c_island.py::*",
    "tests/test_vhdl_eval.py::*",
    "tests/test_printer.py::*",
    "tests/test_trace_render.py::*",
    "tests/test_acceptance.py::test_criterion_[1234679]_*",
    "tests/test_cli.py::test_run_*",
    "tests/test_cli.py::test_cosim_*",
    "tests/test_codegen.py::test_generated_c_runs_like_the_interpreter*",
    "tests/test_codegen.py::test_out_of_range_instance_id_is_dropped",
    "tests/test_codegen.py::test_bus_delivery_to_another_class_is_dropped",
]


def mutate(tree: Path, path: str, old: str, new: str) -> None:
    file = tree / path
    text = file.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: the mutant's text occurs {text.count(old)} times: {old!r}")
    file.write_text(text.replace(old, new))


def failing_tests(tree: Path) -> list[str]:
    """Run tier-1 in `tree`; return the failing and erroring test ids."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", f"--ignore={ANCHORS}"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.M)


def by_function(tests: list[str]) -> str:
    """`name (count)` per test function, parametrizations folded."""
    counts = Counter(t.split("[")[0].split("::")[-1] for t in tests)
    return ", ".join(f"{name} ({n})" if n > 1 else name for name, n in counts.items()) or "none"


def main(names: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "snapshot"
        shutil.copytree(ROOT, snapshot, ignore=COPY_IGNORE)
        for name in names or MUTANTS:
            tree = Path(tmp) / "tree"
            shutil.copytree(snapshot, tree)
            mutate(tree, *MUTANTS[name])
            failed = failing_tests(tree)
            shutil.rmtree(tree)
            semantic = [t for t in failed if any(fnmatch.fnmatch(t, p) for p in SEMANTIC)]
            text = [t for t in failed if t not in semantic]
            print(f"| {name} | {by_function(semantic)} | {by_function(text)} |", flush=True)


if __name__ == "__main__":
    print("| mutant | semantic tests that fail | text tests that fail |")
    print("|---|---|---|")
    main(sys.argv[1:])
