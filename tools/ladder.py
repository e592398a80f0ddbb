"""The scaled ladder: two source trees of `rht` timed against each other in
one process.

    python3 tools/ladder.py --parent ../rht-parent --change . \
        --truncations 16-23 --families 4-5 --repeats 7 --report ladder.json

Each tree's `src/rht` is loaded under its own package name, so both live
in one interpreter and meet the same caches, allocator and clock.  The
rungs are `build_formal_model` and `verify_formal_result` on the table
`h-s2ws4` at each truncation, `cohomology` of the pure models of the
flag manifolds SU(4)/T and SU(5)/T, and the family-actions computation
on S^2 x (S^3)^k for each k: a sheared diagonal family conjugated, its
actions on cohomology and homology in every degree, and their
diagonalisation certificates.  Each repeat times every rung once
per side, the side that goes first alternating, each call on inputs made
afresh and untimed (a presentation caches its complex).  The report gives
each rung's median seconds per side, the change/parent ratio of every
pair and their median, and whether the two sides' serialized outputs are
identical.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def load_package(tree: Path, name: str):
    """`tree`/src/rht imported as the package `name`, its submodules with it."""
    init = tree / "src" / "rht" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    subs = ("algebra", "cohomology", "families", "formal", "model", "weights")
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in subs}


def flag_document(rht, n: int) -> str:
    """The pure model of SU(n)/T, serialized: x_1 .. x_(n-1) in degree 2,
    x_n = -(x_1 + ... + x_(n-1)), and y_i in degree 2i - 1 for 2 <= i <= n
    with d y_i the elementary symmetric polynomial e_i(x_1, ..., x_n);
    formal dimension n(n - 1), truncated two above it."""
    algebra, model = rht["algebra"], rht["model"]
    names = [(f"x{i}", 2) for i in range(1, n)] + [(f"y{i}", 2 * i - 1) for i in range(2, n + 1)]
    gens = [algebra.Generator(gid, name, degree) for gid, (name, degree) in enumerate(names)]
    alg = algebra.FreeGCA(gens)
    xs = [alg.gen(i) for i in range(n - 1)]
    e = [alg.one()] + [alg.zero()] * n
    for x in xs + [-sum(xs, alg.zero())]:
        e = [e[0]] + [e[m] + x * e[m - 1] for m in range(1, n + 1)]
    d = {n - 1 + k: x for k, x in enumerate(e[2:])}
    dim = n * (n - 1)
    return model.serialize_presentation(model.SullivanPresentation(f"flag-{n}", gens, d, dim + 2, dim))


def family_document(k: int) -> str:
    """S^2 x (S^3)^k: x in degree 2, y in degree 3 with d y = x^2, and
    u_0 .. u_(k-1) in degree 3; formal dimension 2 + 3k."""
    gens = [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}]
    gens += [{"name": f"u{i}", "degree": 3} for i in range(k)]
    return json.dumps({
        "name": f"s2xs3^{k}",
        "generators": gens,
        "differential": {"y": [{"coeff": "1", "monomial": [["x", 2]]}]},
        "truncation_degree": 3 + 3 * k,
        "formal_dimension": 2 + 3 * k,
    })


def family_inputs(rht, text: str):
    """The presentation, its diagonal family with w(x) = 1, w(y) = 2 and
    w(u_i) = 1, 2, 3, 1, 2, ..., and the shears y -> y + sum c_j u_j and
    u_i -> u_i + sum_(j > i) c_ij u_j that conjugate it, all fixed."""
    model, families, weights = rht["model"], rht["families"], rht["weights"]
    p = model.parse_presentation(text)
    alg = p.algebra
    us = [g.name for g in p.generators[2:]]
    w = {"x": 1, "y": 2, **{u: 1 + i % 3 for i, u in enumerate(us)}}
    coeffs = (-2, -1, 1, 2)
    images = {alg.by_name["y"].gid: sum((alg.gen(u).scale(coeffs[j % 4]) for j, u in enumerate(us)), alg.gen("y"))}
    for i, u in enumerate(us):
        shear = [alg.gen(v).scale(coeffs[(i + j) % 4]) for j, v in enumerate(us) if j > i]
        images[alg.by_name[u].gid] = sum(shear, alg.gen(u))
    return p, families.diagonal_family(p, weights.WeightAssignment(w)), images


def family_actions(rht, inputs):
    """Conjugate the family, then act in every degree both ways and certify."""
    cohomology, families = rht["cohomology"], rht["families"]
    p, fam, images = inputs
    conj = families.conjugate(fam, families.ModelAutomorphism(p, images))
    actions = []
    for n in range(p.truncation_degree):
        actions += [cohomology.induced_action(p, conj, n), cohomology.homology_action(p, conj, n)]
    return [(a.to_json_dict(), cohomology.diagonalization_certificate(a).to_json_dict()) for a in actions]


def rungs(rht, tree: Path, truncations: list[int], flags: str, ks: list[int]) -> dict:
    """Rung name -> (make the untimed input, the timed call, its output as text)."""
    formal, model, cohomology = rht["formal"], rht["model"], rht["cohomology"]
    table = (tree / "src" / "rht" / "corpus" / "h-s2ws4.json").read_text(encoding="utf-8")

    def model_text(res) -> str:
        weights = sorted(res.weights.weights.items())
        return json.dumps([model.serialize_presentation(res.model), weights, sorted(res.stages.items())])

    out = {}
    for n in truncations:
        out[f"build_formal_model/h-s2ws4/{n}"] = (
            lambda: model.parse_table(table), lambda t, n=n: formal.build_formal_model(t, n), model_text
        )
        out[f"verify_formal_result/h-s2ws4/{n}"] = (
            lambda n=n: formal.build_formal_model(model.parse_table(table), n),
            formal.verify_formal_result,
            json.dumps,
        )
    for key, text in json.loads(flags).items():
        out[f"cohomology/{key}"] = (
            lambda text=text: model.parse_presentation(text),
            cohomology.cohomology,
            lambda r: json.dumps(r.betti_list()),
        )
    for k in ks:
        out[f"family-actions/s2xs3^{k}"] = (
            lambda k=k: family_inputs(rht, family_document(k)),
            lambda inputs: family_actions(rht, inputs),
            json.dumps,
        )
    return out


def run(trees: dict[str, Path], truncations: list[int], repeats: int, ks: list[int]) -> dict:
    packages = {side: load_package(tree, f"rht_ladder_{side}") for side, tree in trees.items()}
    flags = json.dumps({f"su{n}-t": flag_document(packages["change"], n) for n in (4, 5)})
    ladders = {side: rungs(packages[side], trees[side], truncations, flags, ks) for side in SIDES}
    seconds = {name: {side: [] for side in SIDES} for name in ladders["parent"]}
    outputs = {name: {} for name in seconds}
    for r in range(repeats):
        for name in seconds:
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                make, call, text = ladders[side][name]
                arg = make()
                t0 = time.perf_counter()
                result = call(arg)
                seconds[name][side].append(time.perf_counter() - t0)
                if side not in outputs[name]:
                    outputs[name][side] = text(result)
    report = []
    for name, times in seconds.items():
        ratios = [c / p for p, c in zip(times["parent"], times["change"])]
        report.append({
            "rung": name,
            "parent_median_s": round(statistics.median(times["parent"]), 6),
            "change_median_s": round(statistics.median(times["change"]), 6),
            "ratios": [round(x, 4) for x in ratios],
            "median_ratio": round(statistics.median(ratios), 4),
            "same_output": outputs[name]["parent"] == outputs[name]["change"],
        })
    return {
        "parent": str(trees["parent"]),
        "change": str(trees["change"]),
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rungs": report,
    }


def truncation_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="source tree timed as the parent")
    ap.add_argument("--change", type=Path, required=True, help="source tree timed as the change")
    ap.add_argument("--truncations", type=truncation_range, default=truncation_range("16-23"),
                    help="formal-model truncations, N or LO-HI")
    ap.add_argument("--families", type=truncation_range, default=truncation_range("4-5"),
                    help="family-actions sizes k of S^2 x (S^3)^k, K or LO-HI")
    ap.add_argument("--repeats", type=int, default=7, help="pairs of calls per rung")
    ap.add_argument("--report", type=Path, required=True, help="path of the JSON report")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = run(trees, args.truncations, args.repeats, args.families)
    args.report.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for rung in report["rungs"]:
        print(
            f"{rung['rung']}: parent {rung['parent_median_s']:.4f} s, change {rung['change_median_s']:.4f} s, "
            f"ratio {rung['median_ratio']:.3f}{'' if rung['same_output'] else ', OUTPUTS DIFFER'}",
            file=sys.stderr,
        )
    return 0 if all(r["same_output"] for r in report["rungs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
