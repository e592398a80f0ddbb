"""Command-line behavior: exit codes, flags, error paths, golden replays."""

import ast
import contextlib
import copy
import hashlib
import importlib
import importlib.metadata
import importlib.util
import json
import os
import io
import pathlib
import random
import re
import shutil
import signal
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


def test_benchmark_spans_fire_on_the_calls_the_cli_makes(monkeypatch, capsys):
    # the benchmark wraps names on rht.cli; a layer imported inside a
    # subcommand would bypass the wrapper and lose its span without error
    calls = {}
    for name in ("cohomology", "build_formal_model", "growth_report"):
        def counting(*args, _name=name, _call=getattr(rht.cli, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(rht.cli, name, counting)
    assert main(["cohomology", corpus("s2.json"), "--json"]) == 0
    assert main(["formal-model", corpus("h-s2.json"), "--json"]) == 0
    assert main(["growth", corpus("s2xs3.json"), "--json"]) == 0
    capsys.readouterr()
    assert calls == {"cohomology": 1, "build_formal_model": 1, "growth_report": 1}


_LAYERS = {"rht.cohomology", "rht.families", "rht.formal", "rht.growth"}
# run `python -m rht ARGV...`, then print the modules it loaded
_LOADED_PROBE = """
import json, runpy, sys
sys.argv[0] = "rht"
code = None
try:
    runpy.run_module("rht", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def _loaded_modules(*argv: str) -> tuple[int, set[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True,
        text=True,
        check=True,
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


# one command line per subcommand, its exit code, and the layers it must not load
_LOAD_CASES = [
    (["check", "s2.json"], 0, _LAYERS),
    (["weights", "cp3.json", "--json"], 0, _LAYERS),
    (["weights", "infeasible-synthetic.json", "--json"], 1, _LAYERS),
    (["cohomology", "infeasible-synthetic.json", "--json"], 0, _LAYERS - {"rht.cohomology"}),
    (["cohomology", "s2xs3.json", "--json"], 0, {"rht.formal", "rht.growth"}),
    (["family", "s2xs3.json", "--json"], 0, _LAYERS - {"rht.families"}),
    (["act", "s2xs3.json", "--json"], 0, {"rht.formal", "rht.growth"}),
    (["formal-model", "h-s2.json", "--json"], 0, {"rht.families", "rht.growth"}),
    (["growth", "s2xs3.json", "--json"], 0, {"rht.families", "rht.formal"}),
    (["flex", "s2xs3.json", "--json"], 0, {"rht.formal", "rht.growth"}),
]


@pytest.mark.parametrize(
    "argv,exit_code,absent", _LOAD_CASES, ids=[" ".join(argv[:2]) for argv, _, _ in _LOAD_CASES]
)
def test_each_subcommand_loads_only_its_layers(argv, exit_code, absent):
    code, loaded = _loaded_modules(argv[0], corpus(argv[1]), *argv[2:])
    assert code == exit_code
    assert loaded & absent == set()


# stdlib modules that cost every process start-up time; dataclasses pulls
# in inspect, and inspect ast, dis, tokenize and linecache
_STARTUP_HEAVY = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "filename,argv,expected_exit",
    golden_regen.build_cases(),
    ids=lambda v: v if isinstance(v, str) and v.endswith(".json") else None,
)
def test_no_command_loads_the_dataclasses_machinery(filename, argv, expected_exit):
    code, loaded = _loaded_modules(*argv)
    assert code == expected_exit
    assert loaded & _STARTUP_HEAVY == set()


def test_importing_the_cli_loads_no_dataclasses_machinery():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, rht.cli; print(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert set(json.loads(proc.stdout)) & _STARTUP_HEAVY == set()


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, rht; print(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert [m for m in json.loads(proc.stdout) if m.startswith("rht")] == ["rht"]


def test_sources_parse_at_the_declared_python_floor():
    # the tests run on one interpreter; parse every module with the grammar
    # of the oldest Python that pyproject.toml accepts
    pyproject = (ROOT_DIR / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    sources = sorted((SRC_DIR / "rht").rglob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


def _absolute_imports():
    """(file name, top-level package) of every absolute import under src/rht."""
    for path in sorted((SRC_DIR / "rht").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.module.split(".")[0]
            elif isinstance(node, ast.Import):
                yield from ((path.name, alias.name.split(".")[0]) for alias in node.names)


def test_sources_import_only_the_standard_library():
    # pyproject.toml declares no runtime dependency; relative imports stay
    # inside the package, so every absolute one must be rht or stdlib
    allowed = set(sys.stdlib_module_names) | {"rht", "__future__"}
    assert [f"{name}: {pkg}" for name, pkg in _absolute_imports() if pkg not in allowed] == []


def test_sources_do_not_import_dataclasses():
    assert [name for name, pkg in _absolute_imports() if pkg == "dataclasses"] == []


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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{f}"],
        ["formal-model", "{f}"],
        ["family", corpus("s2xs3.json"), "--family", "{f}"],
        ["family", corpus("s2xs3.json"), "--conjugate-by", "{f}"],
        ["weights", corpus("s2.json"), "--weights", "{f}"],
    ],
    ids=["presentation", "table", "family", "automorphism", "weights"],
)
def test_invalid_json_error_names_the_file(tmp_path, capsys, argv):
    f = tmp_path / "bad.json"
    for text, message in (
        ('{"name": "x",', "invalid JSON at line 1, column 14: Expecting property name enclosed in double quotes"),
        # deeper than the decoder's recursion limit
        ("[" * 200_000, "invalid JSON: nested too deeply"),
    ):
        f.write_text(text)
        assert main([str(f) if a == "{f}" else a for a in argv]) == 2
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


def _huge_power_family(tmp_path, power: int) -> str:
    # x -> t^power x, y -> t^(2 power) y, u -> u: a verified family of s2xs3
    return _family_file(tmp_path, {"x": (f"t^{power}", "x"), "y": (f"t^{2 * power}", "y"), "u": ("1", "u")})


def test_family_eval_refuses_a_power_of_t_too_large_to_print(tmp_path):
    # 3^(2 10^9) has about 9.5 10^8 digits: computing it used to run on
    # past 20 s, and at t^(10^6) str() failed with CPython's own message
    family = _huge_power_family(tmp_path, 10**9)
    argv = [sys.executable, "-m", "rht", "family", corpus("s2xs3.json"), "--family", family]
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    verified = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=10)
    assert verified.returncode == 0, verified.stderr
    for t0, power in (("3", 2 * 10**9), ("-1/2", 2 * 10**9)):
        proc = subprocess.run([*argv, f"--eval={t0}"], env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        limit = sys.get_int_max_str_digits()
        assert proc.stderr == f"error: t^{power} in the image of y has more than {limit} digits at t = {t0}\n"


def test_family_eval_bounds_the_coefficient_times_the_power_of_t(tmp_path):
    # y -> t^2 y + c (t - t^2) u with c of 4,000 digits: at t = 10^200 the
    # term c t^2 has 4,400 digits though t^2 has only 401; it used to exit 2
    # with CPython's own "Exceeds the limit" message
    c = "7" * 4000
    doc = {
        "x": [{"coeff": "t", "monomial": [["x", 1]]}],
        "y": [{"coeff": "t^2", "monomial": [["y", 1]]}, {"coeff": f"{c}*t - {c}*t^2", "monomial": [["u", 1]]}],
        "u": [{"coeff": "t", "monomial": [["u", 1]]}],
    }
    family = tmp_path / "family.json"
    family.write_text(json.dumps(doc), encoding="utf-8")
    argv = [sys.executable, "-m", "rht", "family", corpus("s2xs3.json"), "--family", str(family)]
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    t0 = "1" + "0" * 200
    proc = subprocess.run([*argv, f"--eval={t0}"], env=env, capture_output=True, text=True, timeout=10)
    limit = sys.get_int_max_str_digits()
    assert (proc.returncode, proc.stderr) == (
        2, f"error: a 4000-digit coefficient times t^2 in the image of y has more than {limit} digits at t = {t0}\n"
    )
    # at t = 10^50 every term fits, and the coefficient of u is c (t0 - t0^2)
    proc = subprocess.run([*argv, "--eval=" + "1" + "0" * 50, "--json"], env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["images"]["y"] == f"{10**100}*y - {int(c) * (10**100 - 10**50)}*u"


@pytest.mark.parametrize("t0", ["0", "1", "-1"])
def test_family_eval_never_refuses_zero_or_a_unit(tmp_path, capsys, t0):
    family = _huge_power_family(tmp_path, 10**9)
    assert main(["family", corpus("s2xs3.json"), "--family", family, f"--eval={t0}", "--json"]) == 0
    images = json.loads(capsys.readouterr().out)["images"]
    # (-1)^(10^9) = 1: both powers are even
    assert images == {"x": "0", "y": "0", "u": "u"} if t0 == "0" else {"x": "x", "y": "y", "u": "u"}


def test_family_eval_below_the_digit_limit_still_evaluates(tmp_path, capsys):
    family = _huge_power_family(tmp_path, 1000)
    assert main(["family", corpus("s2xs3.json"), "--family", family, "--eval", "10", "--json"]) == 0
    images = json.loads(capsys.readouterr().out)["images"]
    assert images["x"] == f"{10**1000}*x" and images["u"] == "u"


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


# ------------------------------------------------------------- text output


# sha256 of stdout and the exit code for each command line of the text
# rendering: every golden command line without --json, then the text-only
# cases no golden covers; "{f}" names a weight file holding {"x": 1, "y": 1}
_TEXT_CASES = [
    *[(f, [a for a in argv if a != "--json"]) for f, argv, _ in golden_regen.build_cases()],
    ("family-eval-0", ["family", corpus("s2xs3.json"), "--eval", "0"]),
    ("family-eval-2", ["family", corpus("s2xs3.json"), "--eval", "2"]),
    ("act-dual", ["act", corpus("s2xs3.json"), "--dual"]),
    ("cohomology-max-degree-4", ["cohomology", corpus("s2xs3.json"), "--max-degree", "4"]),
    ("cohomology-infeasible", ["cohomology", corpus("infeasible-synthetic.json")]),
    ("weights-file-valid", ["weights", corpus("s2xs3.json"), "--weights", str(DATA_DIR / "s2xs3-stage-weights.json")]),
    ("weights-file-invalid", ["weights", corpus("s2.json"), "--weights", "{f}"]),
    ("check-invalid", ["check", str(DATA_DIR / "degree-one-generator.json")]),
    ("formal-model-max-degree-7", ["formal-model", corpus("h-cp2.json"), "--max-degree", "7"]),
]
_TEXT_PINS = {
    "weights-s2.json": (0, "46c209e2fc9de55c41ec365a0eb6ed5f0fc1c2e0f34a0c4165a55a8a14a11235"),
    "weights-s3.json": (0, "c002ec8027c78b96366877dbde38d3733ba2114c5af701992e9ec9397ca935c7"),
    "weights-s4.json": (0, "46c209e2fc9de55c41ec365a0eb6ed5f0fc1c2e0f34a0c4165a55a8a14a11235"),
    "weights-s5.json": (0, "c002ec8027c78b96366877dbde38d3733ba2114c5af701992e9ec9397ca935c7"),
    "weights-s6.json": (0, "46c209e2fc9de55c41ec365a0eb6ed5f0fc1c2e0f34a0c4165a55a8a14a11235"),
    "weights-s7.json": (0, "c002ec8027c78b96366877dbde38d3733ba2114c5af701992e9ec9397ca935c7"),
    "weights-cp2.json": (0, "02876a5fd8042961177490e8278cddeb3d8e1553cf13e460a3be0992719d4167"),
    "weights-cp3.json": (0, "3a6e6a266e917fa2d79607f992696ad5111bde4b83d656317f057c0bc08c3201"),
    "weights-cp4.json": (0, "3a06d4a8ed31bcf09d909c910a83a099fea9c6f396badff10a711e420a4631a7"),
    "weights-s2xs3.json": (0, "105e5772f2b0a91bf327c669c5a5561c6ed8b4783f72bb8c9cb82c00ab863f15"),
    "weights-s2-wedge-s4.json": (0, "c81911f68faf0babcb077a0fd30bd7c59c19be0d052672dde13cf0a90c61e7c4"),
    "weights-infeasible-synthetic.json": (1, "a4f3c88865814166bc6a512162dc8529e72eeec69852d441bf3359483db63739"),
    "cohomology-s2.json": (0, "58dca50de0dbdec1c82612663d1e527d07d75087677b52aba919cbad069f989a"),
    "cohomology-cp2.json": (0, "bb9646676852dd9db5afa29d96caf341131678e2c409b4690a855434cdce4022"),
    "cohomology-s2xs3.json": (0, "5f8a5ed78a8b10fc67ab8f1babd3ba51678fd77f6ab167a3f0a9f5350385a61d"),
    "cohomology-s2-wedge-s4.json": (0, "612ae2903b0362bd7a6519f5ff4aaf5907f03c0f90d4f6f5c4862823bc850bc8"),
    "cohomology-infeasible-synthetic.json": (0, "25b9a4ee46c6a459a8642f9aabdc1699dc48e2b398bc06c387f01e731a81fc4f"),
    "formal-model-h-s2.json": (0, "e080503e1a1e049d4065b8df197827f843a28d741802c6d372d6a1e92c59a3ab"),
    "formal-model-h-cp2.json": (0, "216738936ba3291fab6060d097650b803767de5e3ae09c8f28f41add697f4e72"),
    "formal-model-h-cp3.json": (0, "0ff6f24206869676b1ae668d021944c9a3fc2bc0ff6bf7a9c7a47c4fc518ce83"),
    "formal-model-h-s2ws4.json": (0, "988c2e7b2a39afc0e81dcbe18a83538e7e06f0986c9184b87b1948c3b10ed0b5"),
    "growth-s2xs3.json": (0, "bb0abc29854b598d0612a7f5376cbacbbc76ae2bc2b5ebb3696b40e5d9412f23"),
    "growth-cp3.json": (0, "004dd2d503a67bd702fe5d3f4b9625af54b45d0200fe3086071c580d5d5c8635"),
    "family-s2xs3-diagonal.json": (0, "29ec30f3295538188e4943e1c0d8e52a03f7a04d5c8d0e0d4a5723562ed1fe18"),
    "family-s2xs3-conjugated.json": (0, "dd7d39b17310ebd6cec2016e0d54d5ec1791fc19f04460ace7cf11b41bb730ad"),
    "act-s2xs3-conjugated.json": (0, "d2efcc5eecebaee2991730ebe2eb69e00bc60d98d45801471167f4693c3701fa"),
    "flex-s2xs3-diagonal.json": (0, "9335d4e2d107d4860250ee72301ec06028a0a7ba188e80b148023590b8c5c3e8"),
    "flex-s2xs3-stage.json": (0, "5548abc515488f53808b0653d3024d3e133605820f10afe17aaebb46e035e5dd"),
    "family-eval-0": (0, "8264a4d44c42cc8d65cf95ce8ab700f9e258e25fb701802ca6323ab4838cfc87"),
    "family-eval-2": (0, "26cce2229bd698dd9f7c9e6588950884efa1cd277590d586f42d0e61370a3ffb"),
    "act-dual": (0, "d2efcc5eecebaee2991730ebe2eb69e00bc60d98d45801471167f4693c3701fa"),
    "cohomology-max-degree-4": (0, "53b5326dfd658fe854919fc046d479968f04f229f5e737f8a30dff0390d62ab2"),
    "cohomology-infeasible": (0, "25b9a4ee46c6a459a8642f9aabdc1699dc48e2b398bc06c387f01e731a81fc4f"),
    "weights-file-valid": (0, "32ae8ed2185a5b8833e0e7853d4b39fd4405773751d13464895e876b7d9838ce"),
    "weights-file-invalid": (1, "fd00db23b5b7782ac3e816eeeb01c8f255bb8b23b464f04cd85d4ed6e81cc36e"),
    "check-invalid": (1, "2e98cfef32ee00352c459c62a2d8d9eaad88177ee3d751b8b07d2b5dbb12eae8"),
    "formal-model-max-degree-7": (0, "3fbad7f6125ca3d9b2ed584505106bb0b4d826104747ba1fb99cb894fd85811b"),
}


@pytest.mark.parametrize("name,argv", _TEXT_CASES, ids=[name for name, _ in _TEXT_CASES])
def test_text_output_is_pinned(tmp_path, capsys, name, argv):
    f = tmp_path / "w.json"
    f.write_text('{"x": 1, "y": 1}')
    code = main([str(f) if a == "{f}" else a for a in argv])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _TEXT_PINS[name]


@pytest.mark.parametrize(
    "argv",
    [["cohomology", corpus("s2xs3.json")], ["act", corpus("s2xs3.json"), "--json"]],
    ids=["text", "json"],
)
def test_output_flag_writes_what_stdout_shows(tmp_path, capsys, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "report"
    assert main([*argv, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode()


def test_only_main_writes_the_output():
    # each subcommand returns its report; main alone renders and writes it
    tree = ast.parse((SRC_DIR / "rht" / "cli.py").read_text(encoding="utf-8"))
    writes = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_cmd_"):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("_emit", "print"):
                writes.append(f"{fn.name}: {node.func.id}()")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in ("stdout", "stderr")
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            ):
                writes.append(f"{fn.name}: sys.{node.attr}")
    assert writes == []


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


# -------------------------------------------------------------- fuzz guard


class _CaseTimeout(BaseException):
    """Raised by the alarm.  `cli.main` catches no BaseException, so an
    input that outruns the limit is reported, not turned into exit 2 as
    `TimeoutError`, an `OSError`, would be."""


# (corpus file, argv with "{f}" for its mutated copy)
FUZZ_TARGETS = [
    *[(name, [command, "{f}"])
      for name in ("s2.json", "s3.json", "cp2.json", "s2xs3.json", "s2-wedge-s4.json", "infeasible-synthetic.json")
      for command in ("check", "weights", "cohomology", "growth", "flex")],
    ("s2xs3-diagonal-family.json", ["act", corpus("s2xs3.json"), "--family", "{f}"]),
    ("s2xs3-conjugated-family.json", ["family", corpus("s2xs3.json"), "--family", "{f}"]),
    ("s2xs3-shear-automorphism.json",
     ["family", corpus("s2xs3.json"), "--family", corpus("s2xs3-diagonal-family.json"), "--conjugate-by", "{f}"]),
    *[(name, ["formal-model", "{f}"]) for name in ("h-s2.json", "h-cp2.json", "h-s2ws4.json")],
]
# sha256 of every fuzz case's number, exit code and stderr: a refusal whose
# message, path or exit code changes changes it
FUZZ_DIGEST = "7daf66e55d5932e1e4a650fd14e0d60c45e03c76d6aead2a49ee5023f6320b3f"
FUZZ_LEAVES = [0, 1, -1, 2, 9, 1.5, "", "x", "1/0", "2/3", "t^-1", None, True, [], {}]


def _mutated(text, rng):
    """Random edits of a JSON document, one half the time and two or three
    otherwise, each at a random slot: the value replaced by a FUZZ_LEAVES
    entry, an integer moved by one, the slot deleted, or a list item
    doubled; then, one time in ten, the text cut short or one character
    dropped."""
    doc = json.loads(text)
    for _ in range(rng.choice((1, 1, 2, 3))):
        slots = []

        def walk(node):
            items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
            for key, value in items:
                slots.append((node, key))
                walk(value)

        walk(doc)
        if not slots:
            break
        node, key = rng.choice(slots)
        op = rng.randrange(4)
        if op == 0:
            node[key] = copy.deepcopy(rng.choice(FUZZ_LEAVES))
        elif op == 1 and isinstance(node[key], int):
            node[key] += rng.choice((-1, 1))
        elif op == 3 and isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
        else:
            del node[key]
    text = json.dumps(doc)
    if text and rng.random() < 0.1:
        i = rng.randrange(len(text))
        text = text[:i] + (text[i + 1:] if rng.random() < 0.5 else "")
    return text


@pytest.fixture(scope="module")
def fuzz_cases(tmp_path_factory):
    """300 seeded mutants of corpus files through cli.main, each under a 5 s
    alarm: (case, command, corpus file, mutated text, exit code or the
    exception raised, stderr with the cases' directory written as <tmp>)."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    rng = random.Random(30)

    def alarm(signum, frame):
        raise _CaseTimeout()

    cases = []
    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        for case in range(300):
            name, argv = rng.choice(FUZZ_TARGETS)
            path = tmp_path / f"case{case}.json"
            path.write_text(_mutated(pathlib.Path(corpus(name)).read_text(), rng))
            out, err = io.StringIO(), io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, 5)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([str(path) if a == "{f}" else a for a in argv])
            except (Exception, SystemExit, _CaseTimeout) as exc:
                code = exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            cases.append((case, argv[0], name, path.read_text(), code, err.getvalue().replace(str(tmp_path), "<tmp>")))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return cases


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_mutated_corpus_files_exit_0_1_or_2_without_a_traceback(fuzz_cases):
    # a traceback or a time-out is a failure
    failures = [
        (case, command, name, text[:300], repr(code))
        for case, command, name, text, code, err in fuzz_cases
        if code not in (0, 1, 2) or "Traceback" in err
    ]
    assert failures == []


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_fuzz_guard_exit_codes_and_messages_are_frozen(fuzz_cases):
    # every refusal of the 300 fuzz cases keeps its exit code and its stderr,
    # message and path, byte for byte
    digest = hashlib.sha256()
    for case, _, _, _, code, err in fuzz_cases:
        digest.update(f"{case} {code!r}\n{err}\n".encode())
    assert digest.hexdigest() == FUZZ_DIGEST
