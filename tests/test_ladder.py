"""The scaled ladder `tools/ladder.py`: the repository timed against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
TOOL = ROOT_DIR / "tools" / "ladder.py"


def test_a_tree_against_itself_reports_every_rung_with_equal_outputs(tmp_path):
    report_path = tmp_path / "ladder.json"
    cmd = [sys.executable, str(TOOL), "--parent", str(ROOT_DIR), "--change", str(ROOT_DIR)]
    subprocess.run([*cmd, "--truncations", "8", "--families", "2", "--joins", "8", "--parses", "8", "--repeats", "1", "--report", str(report_path)], check=True, capture_output=True)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["repeats"] == 1
    assert [r["rung"] for r in report["rungs"]] == [
        "build_formal_model/h-s2ws4/8",
        "verify_formal_result/h-s2ws4/8",
        "cohomology/su4-t",
        "cohomology/su5-t",
        "find_weights/witness-join/8/infeasible-first",
        "find_weights/witness-join/8/formal-first",
        "parse/formal-h-s2ws4/8",
        "family-actions/s2xs3^2",
        "certificates/s2xs3^2",
    ]
    for rung in report["rungs"]:
        assert rung["same_output"]
        assert len(rung["ratios"]) == 1
        assert rung["parent_median_s"] > 0 and rung["change_median_s"] > 0
