"""Tests of the benchmark harness at smoke size.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, FamilyActions, WitnessSearch, golden_cases  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workload_names_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace:
        record = json.loads((HERE / "out" / f"trace-{workload}-3.json").read_text())
        assert record["env"]["seed"] == 3
        assert record["spans"]
        for span in record["spans"]:
            assert set(span) == {"id", "name", "job", "parent", "start", "end"}
            assert span["end"] >= span["start"]
    else:
        assert "fail_ratio" in proc.stdout


def test_same_seed_same_inputs():
    for cls in WORKLOADS.values():
        a = cls(random.Random(7), smoke=True).job_list()
        b = cls(random.Random(7), smoke=True).job_list()
        assert a == b


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("family-actions", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    outer, inner = tr.spans
    assert inner["parent"] == outer["id"]
    times = tr.self_times()
    assert times["inner"] == pytest.approx(inner["end"] - inner["start"])
    assert times["outer"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    )


def test_checks_reject_wrong_outputs():
    from tracer import NO_TRACE

    cli = WORKLOADS["cli-corpus"](random.Random(1), smoke=True)
    case = cli.cases[0]
    assert cli.check(case, (case[2], case[3])) == []
    assert cli.check(case, (case[2], case[3] + b" "))

    fam = FamilyActions(random.Random(1), smoke=True)
    (_, inp), *_ = fam.job_list()
    out = fam.run(inp, NO_TRACE)
    assert fam.check(inp, out) == []
    wrong = dict(inp, weights=dict(inp["weights"], u0=inp["weights"]["u0"] + 1))
    assert fam.check(wrong, out)

    wit = WitnessSearch(random.Random(1), smoke=True)
    (_, text), *_ = wit.job_list()
    out = wit.run(text, NO_TRACE)
    assert wit.check(text, out) == []
    report = out["report"]
    trimmed = type(report)(False, None, report.witness_rows[1:], report.system)
    assert wit.check(text, dict(out, report=trimmed))


def test_smoke_goldens_cover_every_subcommand():
    commands = {argv[0] for _, argv, _, _ in golden_cases()}
    assert {argv[0] for _, argv, _, _ in golden_cases(smoke=True)} == commands
