"""Command-line behavior: exit codes, flags, error paths, golden replays."""

import ast
import importlib
import importlib.metadata
import importlib.util
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

import rht.cli
from rht.cli import build_parser, main

TESTS_DIR = pathlib.Path(__file__).resolve().parent
ROOT_DIR = TESTS_DIR.parent
SRC_DIR = ROOT_DIR / "src"
DATA_DIR = TESTS_DIR / "data"
GOLDEN_DIR = TESTS_DIR / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN_DIR / "regen.py")
golden_regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_regen)


def corpus(filename: str) -> str:
    return golden_regen.corpus_path(filename)


# ----------------------------------------------------------------- goldens


@pytest.mark.parametrize(
    "filename,argv,expected_exit",
    golden_regen.build_cases(),
    ids=lambda v: v if isinstance(v, str) and v.endswith(".json") else None,
)
def test_golden_byte_for_byte(filename, argv, expected_exit):
    # the stored file came from an earlier process, so byte equality here
    # is also a cross-run determinism check
    # PYTHONPATH names this checkout, so an installed rht cannot stand in
    proc = subprocess.run(
        [sys.executable, "-m", "rht", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True,
        check=False,
    )
    assert proc.returncode == expected_exit, proc.stderr.decode()
    assert proc.stdout == (GOLDEN_DIR / filename).read_bytes()


def test_benchmark_patch_points_exist_on_the_cli():
    # perfbench/run.py wraps each CLI_SPANS name on rht.cli with a timing
    # span; read the table with ast so the harness is neither imported nor run
    tree = ast.parse((ROOT_DIR / "perfbench" / "run.py").read_text(encoding="utf-8"))
    spans = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CLI_SPANS" for t in node.targets)
    ]
    assert len(spans) == 1 and spans[0]
    assert sorted(name for name in spans[0] if not hasattr(rht.cli, name)) == []


def test_benchmark_imports_from_rht_resolve():
    # the benchmark harness imports names from rht, also inside functions;
    # a name deleted from rht must fail here and not only at measurement time
    missing = []
    for filename in ("run.py", "workloads.py"):
        tree = ast.parse((ROOT_DIR / "perfbench" / filename).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rht":
                module = importlib.import_module(node.module)
                missing += [
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "rht":
                        importlib.import_module(alias.name)
    assert missing == []


def test_sources_parse_at_the_declared_python_floor():
    # the tests run on one interpreter; parse every module with the grammar
    # of the oldest Python that pyproject.toml accepts
    pyproject = (ROOT_DIR / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    sources = sorted((SRC_DIR / "rht").rglob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


def test_sources_import_only_the_standard_library():
    # pyproject.toml declares no runtime dependency; relative imports stay
    # inside the package, so every absolute one must be rht or stdlib
    allowed = set(sys.stdlib_module_names) | {"rht", "__future__"}
    foreign = []
    for path in sorted((SRC_DIR / "rht").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert foreign == []


def test_console_script_is_installed(tmp_path):
    # Checks the declared `rht` script from the checkout, without an install:
    # build the metadata with the installed setuptools in a copy (egg_info
    # needs no `wheel`, unlike any pip install with setuptools < 70.1), then
    # run the entry point as a console-script launcher would.
    pytest.importorskip("setuptools")
    project = tmp_path / "project"
    project.mkdir()
    shutil.copy2(ROOT_DIR / "pyproject.toml", project)
    shutil.copytree(
        SRC_DIR, project / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    meta = tmp_path / "meta"
    meta.mkdir()
    build = subprocess.run(
        [
            sys.executable,
            "-c",
            "import setuptools; setuptools.setup()",
            "egg_info",
            "--egg-base",
            str(meta),
        ],
        cwd=project,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert build.returncode == 0, build.stderr
    # only the fresh metadata: an installed rht must not mask a fault here
    scripts = [
        ep
        for dist in importlib.metadata.distributions(path=[str(meta)])
        for ep in dist.entry_points.select(group="console_scripts", name="rht")
    ]
    assert len(scripts) == 1, "console script missing"
    (ep,) = scripts
    launcher = (
        "import importlib, sys\n"
        f"sys.exit(importlib.import_module({ep.module!r}).{ep.attr}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "--help"],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"weights" in proc.stdout


# ------------------------------------------------------------- check/weights


def test_check_valid_presentation(capsys):
    assert main(["check", corpus("s2.json")]) == 0
    assert "s2: valid" in capsys.readouterr().out


def test_check_reports_validation_failures(capsys):
    code = main(["check", str(DATA_DIR / "degree-one-generator.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "INVALID" in out
    assert "degree" in out


def test_huge_exponent_is_checked_without_expanding_it(tmp_path, capsys):
    # d(y) = x^(10^12): one JSON integer must not become 10^12 list entries
    doc = {
        "name": "huge",
        "truncation_degree": 6,
        "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}],
        "differential": {"y": [{"coeff": "1", "monomial": [["x", 10**12]]}]},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["check", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 1
    assert "homogeneity(y): d(y) is not homogeneous of degree 4" in out
    assert elapsed < 0.5


def test_missing_file_is_an_input_error(capsys):
    assert main(["check", str(DATA_DIR / "no-such-file.json")]) == 2
    assert capsys.readouterr().err.strip()


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{\n")
    assert main(["weights", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_weights_auto_text_output(capsys):
    assert main(["weights", corpus("s2.json")]) == 0
    assert capsys.readouterr().out.strip() == "feasible: x:1 y:2"


def test_weights_infeasible_exits_one_with_witness(capsys):
    code = main(["weights", corpus("infeasible-synthetic.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "infeasible" in out
    assert "d(q): a^3" in out


def test_weights_from_assignment_file(capsys):
    code = main(
        [
            "weights",
            corpus("s2xs3.json"),
            "--weights",
            str(DATA_DIR / "s2xs3-stage-weights.json"),
            "--json",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc == {"feasible": True, "weights": {"u": 3, "x": 2, "y": 4}, "violations": []}


def test_weights_from_report_file(capsys):
    # a previously written JSON report round-trips as an input assignment
    code = main(
        [
            "cohomology",
            corpus("s2xs3.json"),
            "--weights",
            str(GOLDEN_DIR / "weights-s2xs3.json"),
            "--json",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["weights"]["assignment"] == {"u": 1, "x": 1, "y": 2}


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"x": true, "y": 2}', "weight of 'x' must be a positive integer"),
        ('{"x": 1, "y": 2, "zz": 7}', "unknown generators ['zz']"),
        ('{"weights": {"x": 1, "y": 2, "zz": 7}}', "unknown generators ['zz']"),
        ('{"x": 1.5, "y": 3}', "non-integer weights for ['x']"),
        ('{"x": 1,', "invalid JSON at line 1, column 9: Expecting property name enclosed in double quotes"),
    ],
    ids=["boolean", "unknown-name", "unknown-name-in-report", "float", "bad-json"],
)
def test_malformed_weight_file_is_an_input_error(tmp_path, capsys, text, message):
    f = tmp_path / "w.json"
    f.write_text(text)
    assert main(["weights", corpus("s2.json"), "--weights", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {f}: {message}\n"


def test_invalid_weight_file_rejected(tmp_path, capsys):
    f = tmp_path / "w.json"
    f.write_text('{"x": 1, "y": 3}\n')
    code = main(["weights", corpus("s2.json"), "--weights", str(f)])
    out = capsys.readouterr().out
    assert code == 1
    assert "invalid" in out
    assert "d(y)" in out


# --------------------------------------------------------------- cohomology


def test_cohomology_default_range_is_formal_dimension_plus_two(capsys):
    assert main(["cohomology", corpus("s2.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified_through"] == 4
    assert doc["betti"] == [1, 0, 1, 0, 0]


def test_cohomology_max_degree_cap(capsys):
    assert main(["cohomology", corpus("s2.json"), "--max-degree", "5", "--json"]) == 0
    capsys.readouterr()
    assert main(["cohomology", corpus("s2.json"), "--max-degree", "6", "--json"]) == 2
    assert "certified" in capsys.readouterr().err


def test_cohomology_without_weights_still_reports_betti(capsys):
    code = main(["cohomology", corpus("infeasible-synthetic.json"), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["weights"] is None
    assert doc["action"] is None
    assert doc["betti"] == [1, 0, 1, 1, 0, 2, 0, 0]


def test_cohomology_with_a_family_still_reports_the_weight_split(capsys):
    # --family picks the action; the split comes from the solved weights
    argv = ["cohomology", corpus("s2xs3.json"), "--family", corpus("s2xs3-conjugated-family.json")]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "weights: x:1 y:2 u:1" in lines
    assert "weights: infeasible" not in lines
    assert "H^5: w2:1" in lines
    assert "action H^5: [['t^2']]" in lines
    assert main([*argv, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weights"]["assignment"] == {"u": 1, "x": 1, "y": 2}
    assert doc["weights"]["betti_by_weight"]["3"] == {"1": 1}
    assert doc["action"]["5"] == [["t^2"]]


# ------------------------------------------------------------------- family


def test_family_eval_away_from_zero_is_invertible(capsys):
    code = main(["family", corpus("s2xs3.json"), "--eval", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["invertible"] is True
    assert doc["images"]["y"] == "4*y"


def test_family_eval_at_zero_reports_but_succeeds(capsys):
    code = main(["family", corpus("s2xs3.json"), "--eval", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "NOT invertible" in out


def test_family_failing_verification_exits_one(capsys):
    code = main(
        [
            "family",
            corpus("s2.json"),
            "--family",
            str(DATA_DIR / "s2-bad-family.json"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILS" in out
    assert "chain" in out



def _family_file(tmp_path, images: dict) -> str:
    doc = {
        name: [{"coeff": coeff, "monomial": [[target, 1]]}]
        for name, (coeff, target) in images.items()
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_family_image_of_the_wrong_degree_exits_one(tmp_path, capsys):
    family = _family_file(tmp_path, {"x": ("t", "y"), "y": ("t^2", "y")})
    code = main(["family", corpus("s2.json"), "--family", family])
    err = capsys.readouterr().err
    assert code == 1
    assert "image of x must be homogeneous of degree 2" in err


def test_family_eval_at_a_pole_is_an_input_error(tmp_path, capsys):
    # a verified family with negative powers of t has no value at t = 0
    family = _family_file(tmp_path, {"x": ("t^-1", "x"), "y": ("t^-2", "y")})
    code = main(["family", corpus("s2.json"), "--family", family, "--eval", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: t^-1 at t = 0" in err

def test_family_conjugation_changes_the_images(capsys):
    assert main(["family", corpus("s2xs3.json"), "--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    code = main(
        [
            "family",
            corpus("s2xs3.json"),
            "--conjugate-by",
            corpus("s2xs3-shear-automorphism.json"),
            "--json",
        ]
    )
    conj = json.loads(capsys.readouterr().out)
    assert code == 0
    assert conj["verified"] is True
    assert conj["images"] != plain["images"]


# ---------------------------------------------------------------------- act


def test_act_dual_is_the_transpose(capsys):
    fam = corpus("s2xs3-conjugated-family.json")
    assert main(["act", corpus("s2xs3.json"), "--family", fam, "--json"]) == 0
    co = json.loads(capsys.readouterr().out)
    assert (
        main(["act", corpus("s2xs3.json"), "--family", fam, "--dual", "--json"]) == 0
    )
    ho = json.loads(capsys.readouterr().out)
    assert ho["variance"] == "homology"
    for deg, rep in co["degrees"].items():
        m = rep["matrix"]
        expected = [list(col) for col in zip(*m)] if m else []
        assert ho["degrees"][deg]["matrix"] == expected


def test_act_needs_feasible_weights(capsys):
    assert main(["act", corpus("infeasible-synthetic.json"), "--json"]) == 1
    assert capsys.readouterr().err.strip()


# ------------------------------------------------------------- formal-model


def test_formal_model_deeper_truncation_adds_the_killer(capsys):
    code = main(
        ["formal-model", corpus("h-cp2.json"), "--max-degree", "7", "--json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    names = [g["name"] for g in doc["model"]["generators"]]
    assert names == ["x", "z5_0"]
    assert doc["stages"] == {"x": 0, "z5_0": 1}
    assert doc["weights"] == {"x": 2, "z5_0": 6}


def test_formal_model_help_names_max_degree_the_truncation(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["formal-model", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "truncation degree of the built model; certifies through N-1" in text
    assert "top degree to report" not in text


def test_formal_model_rejects_a_presentation_file(capsys):
    assert main(["formal-model", corpus("s2.json"), "--json"]) == 2
    assert "error" in capsys.readouterr().err


def test_formal_model_rejects_products_that_are_not_a_list(tmp_path, capsys):
    doc = json.loads(pathlib.Path(corpus("h-cp2.json")).read_text(encoding="utf-8"))
    doc["products"] = 5
    bad = tmp_path / "bad-products.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["formal-model", str(bad), "--json"]) == 2
    assert "error: products: expected a list" in capsys.readouterr().err


# ------------------------------------------------------------ growth / flex


def test_growth_text_output(capsys):
    assert main(["growth", corpus("s2xs3.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r = 3/2"
    assert lines[1] == "dil = 2/3"
    assert lines[2].startswith("note: conditional")


def test_flex_text_output(capsys):
    assert main(["flex", corpus("s2xs3.json")]) == 0
    assert (
        capsys.readouterr().out.strip()
        == "s2xs3: top-degree action t^2 in degree 5"
    )


def test_growth_needs_a_formal_dimension(capsys):
    assert main(["growth", corpus("infeasible-synthetic.json")]) == 1
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("command", ["flex", "growth"])
@pytest.mark.parametrize(
    "declared,expected_exit,message",
    [
        # s2xs3 has b_3 = b_5 = 1, b_4 = b_7 = 0, and truncation 8
        (3, 1, "declares formal dimension 3, but H^5 has dimension 1"),
        (4, 1, "top cohomology of s2xs3 has dimension 0, not 1"),
        (7, 1, "top cohomology of s2xs3 has dimension 0, not 1"),
        (8, 2, "degree 8 is not certified"),
        (None, 2, "declares no formal dimension"),
    ],
    ids=["D3", "D4", "D7", "D8", "none"],
)
def test_a_declared_formal_dimension_the_cohomology_contradicts_is_refused(
    tmp_path, capsys, command, declared, expected_exit, message
):
    doc = json.loads(pathlib.Path(corpus("s2xs3.json")).read_text())
    del doc["formal_dimension"]
    if declared is not None:
        doc["formal_dimension"] = declared
    path = tmp_path / "s2xs3.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == expected_exit
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


# ------------------------------------------------------------------ plumbing


def test_output_flag_writes_the_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["weights", corpus("s2.json"), "--json", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == (GOLDEN_DIR / "weights-s2.json").read_bytes()


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 2
