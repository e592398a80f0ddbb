"""Seeded mutation analysis of one `rht` module against named test files.

    python3 tools/mutants.py growth tests/test_growth.py --sample 5 --seed 1 \
        --report mutants-growth.json

Four operators, each applied to one site of src/rht/<module>.py at a time:
a comparison flipped to its negation (< to >=, == to !=, in to not in, is
to is not), + and - swapped (binary or augmented), an integer constant
plus one, and a `not` dropped.  A seeded sample of the module's mutants is
taken (all of them with --sample 0).  The sources and tests are copied to
a temporary project once; each mutant is written into that copy, never
into the worktree, and the named test files run against it with `pytest
-x` under a time limit.  A mutant is killed when the tests fail, survived
when they pass, and timed out when they outrun the limit.  The unmutated
copy must pass first, and its time is the baseline: the limit is three
times the baseline unless --timeout sets it in seconds, so a slow kill and
an endless loop part at a known multiple of an honest run.  The JSON
report lists module, line, operator and outcome of every mutant, with the
counts, the baseline, the limit and their ratio.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what a test may read besides the package and the tests themselves
PROJECT_FILES = ("pyproject.toml", "README.md")
PROJECT_DIRS = ("src", "tests", "perfbench")
COMPARE_FLIP = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
ADD_SUB = {ast.Add: ast.Sub, ast.Sub: ast.Add}
OPERATORS = ("compare-flip", "add-sub", "int-plus-one", "drop-not")
# the default time limit per mutant, in units of the unmutated run
TIMEOUT_RATIO = 3


@dataclass(frozen=True, order=True)
class Mutant:
    """Bytes start:end of the module's source replaced; ordered by position."""

    start: int
    end: int
    operator: str
    replacement: bytes
    line: int

    def apply(self, source: bytes) -> bytes:
        return source[: self.start] + self.replacement + source[self.end :]


def _replacements(node: ast.AST, text_of) -> list[tuple[str, str]]:
    """(operator, replacement text) of each mutant of one node; compare and
    binary mutants are parenthesised, so they keep their precedence."""
    if isinstance(node, ast.Compare):
        out = []
        for i, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[i] = COMPARE_FLIP[type(op)]()
            out.append(("compare-flip", f"({ast.unparse(ast.Compare(node.left, ops, node.comparators))})"))
        return out
    if isinstance(node, ast.BinOp) and type(node.op) in ADD_SUB:
        return [("add-sub", f"({ast.unparse(ast.BinOp(node.left, ADD_SUB[type(node.op)](), node.right))})")]
    if isinstance(node, ast.AugAssign) and type(node.op) in ADD_SUB:
        return [("add-sub", ast.unparse(ast.AugAssign(node.target, ADD_SUB[type(node.op)](), node.value)))]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [("int-plus-one", str(node.value + 1))]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [("drop-not", f"({text_of(node.operand)})")]
    return []


def mutants(source: bytes) -> list[Mutant]:
    """Every mutant of a module's source, in source order.  Nodes inside
    f-strings are skipped: their positions do not locate their text."""
    tree = ast.parse(source)
    starts = [0, 0]  # byte offset of each 1-based line
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node: ast.AST) -> tuple[int, int]:
        return starts[node.lineno] + node.col_offset, starts[node.end_lineno] + node.end_col_offset

    def text_of(node: ast.AST) -> str:
        a, b = span(node)
        return source[a:b].decode()

    skipped = {id(n) for s in ast.walk(tree) if isinstance(s, ast.JoinedStr) for n in ast.walk(s)}
    return sorted(
        Mutant(*span(node), operator, text.encode(), node.lineno)
        for node in ast.walk(tree)
        if id(node) not in skipped
        for operator, text in _replacements(node, text_of)
    )


def _copy_project(dest: Path):
    ignore = shutil.ignore_patterns("__pycache__", "out", ".hypothesis", ".pytest_cache")
    for name in PROJECT_DIRS:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in PROJECT_FILES:
        if (ROOT / name).is_file():
            shutil.copy2(ROOT / name, dest / name)


def _run_tests(project: Path, tests: list[str], timeout: float | None) -> tuple[str, float]:
    """Run the tests in the project copy, with no limit when timeout is
    None: "passed", "failed" or "timed_out", and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(project / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=project, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed_out", time.perf_counter() - t0
    return ("passed" if code == 0 else "failed"), time.perf_counter() - t0


def run(module: str, tests: list[str], sample: int, seed: int, timeout: float | None) -> dict:
    """Sample the module's mutants with the seed and run each against the
    tests, each under `timeout` seconds, or TIMEOUT_RATIO times the
    unmutated run when it is None; the report as a JSON-ready dict."""
    rel = Path("src", "rht", f"{module}.py")
    source = (ROOT / rel).read_bytes()
    every = mutants(source)
    chosen = every if sample <= 0 or sample >= len(every) else sorted(random.Random(seed).sample(every, sample))
    results = []
    with tempfile.TemporaryDirectory(prefix="rht-mutants-") as tmp:
        project = Path(tmp)
        _copy_project(project)
        target = project / rel
        status, baseline = _run_tests(project, tests, timeout)
        if status != "passed":
            raise RuntimeError(f"the tests do not pass on the unmutated copy ({status})")
        limit = TIMEOUT_RATIO * baseline if timeout is None else timeout
        for m in chosen:
            target.write_bytes(m.apply(source))
            status, seconds = _run_tests(project, tests, limit)
            target.write_bytes(source)
            outcome = {"passed": "survived", "failed": "killed"}.get(status, status)
            results.append({
                "module": module,
                "line": m.line,
                "operator": m.operator,
                "mutant": m.replacement.decode(),
                "outcome": outcome,
                "seconds": round(seconds, 2),
            })
    counts = {k: sum(r["outcome"] == k for r in results) for k in ("killed", "survived", "timed_out")}
    return {
        "module": module,
        "tests": list(tests),
        "seed": seed,
        "baseline_s": round(baseline, 2),
        "timeout_s": round(limit, 2),
        "timeout_ratio": round(limit / baseline, 2),
        "candidates": len(every),
        "sampled": len(chosen),
        "counts": counts,
        "mutants": results,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="module of src/rht, without .py")
    ap.add_argument("tests", nargs="+", help="test files, relative to the repository root")
    ap.add_argument("--sample", type=int, default=30, help="mutants to sample; 0 runs them all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--timeout", type=float, help=f"seconds per mutant; {TIMEOUT_RATIO}x the unmutated run by default")
    ap.add_argument("--report", type=Path, required=True, help="path of the JSON report")
    args = ap.parse_args(argv)
    report = run(args.module, args.tests, args.sample, args.seed, args.timeout)
    args.report.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    c = report["counts"]
    print(
        f"{args.module}: {c['killed']} killed, {c['survived']} survived, "
        f"{c['timed_out']} timed out of {report['sampled']} ({report['candidates']} candidates)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
