"""The mutation harness `tools/mutants.py`: its operators, and one run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
TOOL = ROOT_DIR / "tools" / "mutants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its annotations through sys.modules
    sys.modules["mutants"] = module
    spec.loader.exec_module(module)
    return module


mutants = load_tool()


def test_each_operator_rewrites_one_site():
    source = b'def f(a, b):\n    if not a < b:\n        b += 2\n    return a - b, f"{a + 1}"\n'
    got = [
        (m.line, m.operator, m.apply(source).decode().splitlines()[m.line - 1].strip())
        for m in mutants.mutants(source)
    ]
    # the f-string's a + 1 is not a site
    assert got == [
        (2, "drop-not", "if (a < b):"),
        (2, "compare-flip", "if not (a >= b):"),
        (3, "add-sub", "b -= 2"),
        (3, "int-plus-one", "b += 3"),
        (4, "add-sub", 'return (a + b), f"{a + 1}"'),
    ]


def test_a_run_on_growth_reports_every_mutant_and_leaves_the_worktree(tmp_path):
    target = ROOT_DIR / "src" / "rht" / "growth.py"
    before = target.read_bytes()
    report_path = tmp_path / "report.json"
    cmd = [sys.executable, str(TOOL), "growth", "tests/test_growth.py", "--sample", "0", "--seed", "1"]
    subprocess.run([*cmd, "--report", str(report_path)], cwd=ROOT_DIR, check=True, capture_output=True)
    assert target.read_bytes() == before
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert (report["module"], report["tests"], report["seed"]) == ("growth", ["tests/test_growth.py"], 1)
    # with no --timeout, each mutant gets three times the unmutated run
    assert report["baseline_s"] > 0
    assert report["timeout_ratio"] == mutants.TIMEOUT_RATIO == 3
    assert abs(report["timeout_s"] - 3 * report["baseline_s"]) <= 0.02
    assert report["sampled"] == report["candidates"] == len(report["mutants"]) == sum(report["counts"].values())
    lines = before.decode().splitlines()
    for m in report["mutants"]:
        assert m["module"] == "growth"
        assert m["operator"] in mutants.OPERATORS
        assert 1 <= m["line"] <= len(lines)
    # growth's own tests kill each of its mutants
    assert [m["outcome"] for m in report["mutants"]] == ["killed"] * report["candidates"]
