"""The package's public names: lazily loaded, and the same in any import order."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import rht
from rht.corpus import load_presentation

ROOT_DIR = pathlib.Path(__file__).resolve().parent.parent
SRC_DIR = ROOT_DIR / "src"


def _quick_start() -> str:
    readme = (ROOT_DIR / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _printing(block: str) -> str:
    """The block with each top-level expression statement's repr printed."""
    tree = ast.parse(block)
    for i, node in enumerate(tree.body):
        if isinstance(node, ast.Expr):
            call = ast.parse("print(repr(_))").body[0]
            call.value.args[0].args[0] = node.value
            tree.body[i] = call
    return ast.unparse(ast.fix_missing_locations(tree))


def test_readme_quick_start_prints_its_documented_values_in_any_import_order():
    block = _quick_start()
    outputs = []
    for prelude in ("", "import rht.cohomology\n"):
        proc = subprocess.run(
            [sys.executable, "-c", prelude + _printing(block)],
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert outputs[0] == outputs[1]
    # every expression's value is the one its comment documents
    assert len(outputs[0]) == sum(isinstance(n, ast.Expr) for n in ast.parse(block).body) > 0
    for value in outputs[0]:
        assert f"# {value}" in block, value


def test_cohomology_is_the_module_and_calls_the_function():
    # the submodule shares its name with its function; whichever the import
    # order, rht.cohomology is the module, and calling it calls the function
    code = (
        "import json, rht\n"
        "from rht import cohomology as first\n"
        "import rht.cohomology as c\n"
        "from rht.corpus import load_presentation\n"
        "p = load_presentation('s2')\n"
        "print(json.dumps([first is c is rht.cohomology, c.CochainComplex.__name__,\n"
        "                  first(p).betti_list(), c.cohomology(p).betti_list()]))\n"
    )
    for prelude in ("", "import rht.cohomology\n", "from rht.cohomology import cohomology\n"):
        proc = subprocess.run(
            [sys.executable, "-c", prelude + code],
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
            capture_output=True,
            text=True,
            check=True,
        )
        betti = [1, 0, 1, 0, 0, 0]
        assert json.loads(proc.stdout) == [True, "CochainComplex", betti, betti], prelude


def test_loading_a_corpus_presentation_loads_no_weight_or_family_layer():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys\n"
            "from rht.corpus import load_presentation\n"
            "load_presentation('s2xs3')\n"
            "print(json.dumps(sorted(sys.modules)))\n",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(json.loads(proc.stdout))
    assert "rht.model" in loaded
    assert loaded & {"rht.families", "rht.weights", "rht.qlinalg"} == set()


def test_every_public_name_resolves():
    assert rht.__all__ == sorted(set(rht.__all__))
    missing = [name for name in rht.__all__ if getattr(rht, name, None) is None]
    assert missing == []
    assert set(rht.__all__) <= set(dir(rht))


def test_version_is_the_declared_one():
    pyproject = (ROOT_DIR / "pyproject.toml").read_text(encoding="utf-8")
    assert rht.__version__ == re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1)


def test_a_patch_on_the_cohomology_module_is_seen_by_its_functions(monkeypatch):
    calls = []

    def recording(p, _call=rht.cohomology.complex_for):
        calls.append(p.name)
        return _call(p)

    monkeypatch.setattr("rht.cohomology.complex_for", recording)
    p = load_presentation("s2xs3")
    w = rht.find_weights(p).assignment
    assert rht.cohomology.weight_decomposition(p, w).dimensions[5] == {2: 1}
    assert rht.weight_decomposition is rht.cohomology.weight_decomposition
    assert calls == ["s2xs3"]
