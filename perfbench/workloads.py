"""The benchmark's four workloads.

Each workload sets up once (untimed), then hands out its job list, whose
inputs are drawn from the workload's seeded generator, so the same seed
gives the same inputs.  A run repeats the list in passes.  ``run`` is the
timed part of a job; ``check``, ``counts`` and ``presentations`` read its
output afterwards, outside the timed region.  Every job parses its input
from text, so the per-presentation ``complex_for`` cache never carries from
one job to the next.

Why these four:

- ``cli-corpus`` replays the golden command lines as separate processes:
  what a CLI user waits for.  It is mostly interpreter start and import,
  so an import-time change shows here and a linear-algebra change should
  not.
- ``formal-pipeline`` puts large dense ``Fraction`` RREFs and the repeated
  span-extension loops on the critical path (formal model of ``h-s2ws4``).
- ``witness-search`` spends nearly all its time in greedy witness row
  deletion: many small Fourier-Motzkin and kernel calls.
- ``family-actions`` spends most of its time in Laurent arithmetic inside
  induced actions and characteristic polynomials; ``qlinalg`` is a minority.

Sizes are chosen so one job takes well under a second (truncation 15 for
the formal model, 12 for the witness join, four S^3 factors).  The host's
speed can change within a job, and the scaling in ``run.py`` only samples
it between jobs; longer jobs made runs with different seeds disagree by
10 to 30 %.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from rht.cohomology import (
    cohomology,
    complex_for,
    diagonalization_certificate,
    flexibility_report,
    homology_action,
    induced_action,
    weight_decomposition,
)
from rht.families import ModelAutomorphism, conjugate, diagonal_family, verify_family
from rht.formal import build_formal_model, verify_formal_result
from rht.growth import growth_report
from rht.model import parse_presentation, parse_table, serialize_presentation
from rht.weights import WeightAssignment, check_weights, find_weights
from rht.qlinalg import QMatrix, positive_integer_kernel

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


def _load_regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN_DIR / "regen.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def golden_cases(smoke: bool = False) -> list[tuple[str, list[str], int, bytes]]:
    """(golden file, argv, exit code, expected stdout) for every golden; with
    ``smoke``, only the first command line of each subcommand and flag set."""
    cases = []
    seen = set()
    for name, argv, code in _load_regen().build_cases():
        shape = (argv[0], *(a for a in argv if a.startswith("--")))
        if smoke and shape in seen:
            continue
        seen.add(shape)
        cases.append((name, argv, code, (GOLDEN_DIR / name).read_bytes()))
    return cases


def _corpus_text(filename: str) -> str:
    import rht.corpus

    return (Path(rht.corpus.__file__).resolve().parent / filename).read_text()


def largest_d_matrix(p) -> QMatrix:
    cx = complex_for(p)
    mats = [cx.d_matrix(n) for n in range(p.truncation_degree)]
    return max(mats, key=lambda m: m.rows * m.cols)


class Workload:
    name = ""
    # whether the rref probe also takes the largest d-matrix of each
    # presentation; off where the job never builds a cochain complex
    probe_d_matrix = True
    # whether a job is mostly process start-up, which sets the reference
    # task that scales its time to the host's speed (see run.py)
    spawns = False

    def __init__(self, rng, smoke: bool):
        self.rng = rng

    def job_list(self) -> list[tuple[str, object]]:
        """(job id, input) pairs; called once per run."""
        raise NotImplementedError

    def run(self, inp, tr):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def presentations(self, inp, out, tr) -> list:
        """Presentations the traced run's per-layer probes look at."""
        return []

    def counts(self, inp, out) -> dict[str, int]:
        return {}


class CliCorpus(Workload):
    """The golden command lines, each as its own ``python -m rht`` process."""

    name = "cli-corpus"
    spawns = True

    def __init__(self, rng, smoke):
        super().__init__(rng, smoke)
        self.cases = golden_cases(smoke)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env
        # presentation files the command lines read, for the probes
        self.presentation_texts: dict[str, str] = {}
        for _, argv, _, _ in self.cases:
            if argv[0] != "formal-model":
                self.presentation_texts.setdefault(argv[1], Path(argv[1]).read_text())

    def job_list(self):
        order = list(self.cases)
        self.rng.shuffle(order)
        return [(case[0], case) for case in order]

    def run(self, inp, tr):
        _, argv, _, _ = inp
        proc = subprocess.run(
            [sys.executable, "-m", "rht", *argv],
            capture_output=True,
            env=self.env,
            cwd=ROOT,
            check=False,
        )
        return proc.returncode, proc.stdout

    def check(self, inp, out):
        name, _, code, expected = inp
        got_code, got = out
        problems = []
        if got_code != code:
            problems.append(f"{name}: exit code {got_code}, golden {code}")
        if got != expected:
            problems.append(f"{name}: stdout differs from the golden")
        return problems

    def presentations(self, inp, out, tr):
        argv = inp[1]
        if argv[0] == "formal-model":
            return []
        with tr.span("model.parse"):
            return [parse_presentation(self.presentation_texts[argv[1]])]


def _relabelled_table(doc: dict, rng) -> str:
    """The table with every class renamed; the seed picks the new names."""
    names = [b["name"] for b in doc["basis"]]
    fresh = [f"c{v}" for v in rng.sample(range(1000, 10000), len(names))]
    ren = dict(zip(names, fresh))
    out = {
        "name": doc["name"],
        "unit": ren[doc["unit"]],
        "basis": [{"name": ren[b["name"]], "degree": b["degree"]} for b in doc["basis"]],
        "products": [
            {
                "left": ren[p["left"]],
                "right": ren[p["right"]],
                "value": [{"basis": ren[e["basis"]], "coeff": e["coeff"]} for e in p["value"]],
            }
            for p in doc["products"]
        ],
    }
    return json.dumps(out)


class FormalPipeline(Workload):
    """Formal model of ``h-s2ws4`` and everything the toolkit derives from it."""

    name = "formal-pipeline"

    def __init__(self, rng, smoke):
        super().__init__(rng, smoke)
        self.truncation = 12 if smoke else 15
        self.table_doc = json.loads(_corpus_text("h-s2ws4.json"))

    def job_list(self):
        return [("formal-0", _relabelled_table(self.table_doc, self.rng))]

    def run(self, text, tr):
        with tr.span("model.parse"):
            table = parse_table(text)
        with tr.span("formal.build"):
            result = build_formal_model(table, self.truncation)
        with tr.span("formal.verify"):
            issues = verify_formal_result(result)
        p = result.model
        with tr.span("weights.solve"):
            report = find_weights(p)
        with tr.span("weights.check"):
            violations = check_weights(p, report.assignment)
        with tr.span("cohomology.betti"):
            coh = cohomology(p)
        with tr.span("cohomology.weight_split"):
            split = weight_decomposition(p, report.assignment)
        with tr.span("growth.report"):
            grow = growth_report(p, report.assignment)
        return dict(
            table=table, result=result, issues=issues, report=report,
            violations=violations, coh=coh, split=split, growth=grow,
        )

    def check(self, text, out):
        problems = [f"verify_formal_result: {i}" for i in out["issues"]]
        if not out["report"].feasible:
            problems.append("formal model has no positive weights")
        problems += [f"check_weights: {v}" for v in out["violations"]]
        table, coh = out["table"], out["coh"]
        for n in range(coh.max_degree + 1):
            want = len(table.degree_basis(n))
            if coh.betti[n] != want:
                problems.append(f"degree {n}: Betti {coh.betti[n]}, table {want}")
        for n, by_w in out["split"].dimensions.items():
            if sum(by_w.values()) != coh.betti[n]:
                problems.append(f"degree {n}: weight split does not sum to the Betti number")
        return problems

    def presentations(self, text, out, tr):
        return [out["result"].model]

    def counts(self, text, out):
        return {
            "formal.generators": len(out["result"].model.generators),
            "cohomology.betti_max": max(out["coh"].betti.values()),
        }


def _prefixed(doc: dict, prefix: str):
    """Generators and differential of a presentation document, renamed."""
    gens = [{"name": prefix + g["name"], "degree": g["degree"]} for g in doc["generators"]]
    diff = {
        prefix + src: [
            {"coeff": t["coeff"], "monomial": [[prefix + g, e] for g, e in t["monomial"]]}
            for t in terms
        ]
        for src, terms in doc["differential"].items()
    }
    return gens, diff


class WitnessSearch(Workload):
    """An infeasible weight system: ``infeasible-synthetic`` joined to a
    formal model, so the witness search has many feasible rows to discard."""

    name = "witness-search"
    probe_d_matrix = False
    JOBS = 16
    INFEASIBLE_PREFIX = "i_"

    def __init__(self, rng, smoke):
        super().__init__(rng, smoke)
        self.truncation = 11 if smoke else 12
        table = parse_table(_corpus_text("h-s2ws4.json"))
        fm = build_formal_model(table, self.truncation).model
        self.formal_generators = len(fm.generators)
        self.formal_block = _prefixed(json.loads(serialize_presentation(fm)), "f_")
        self.infeasible_block = _prefixed(
            json.loads(_corpus_text("infeasible-synthetic.json")), self.INFEASIBLE_PREFIX
        )

    def _join(self, formal_first: bool) -> str:
        """The disjoint union.  The seed picks the generator order inside the
        formal block.  The infeasible block keeps its corpus order: with the
        join at truncation 14, reordering it moved one search between about
        1 s and 4 s, more than a run can average out."""
        formal_gens = list(self.formal_block[0])
        self.rng.shuffle(formal_gens)
        blocks = [self.infeasible_block[0], formal_gens]
        if formal_first:
            blocks.reverse()
        doc = {
            "name": "infeasible-join",
            "generators": blocks[0] + blocks[1],
            "differential": {**self.infeasible_block[1], **self.formal_block[1]},
            "truncation_degree": self.truncation,
        }
        return json.dumps(doc)

    def job_list(self):
        # half the jobs put each block first, so block order adds no spread
        # between seeds; the seed picks which comes first in the list
        first = self.rng.random() < 0.5
        return [(f"witness-{i}", self._join(first != (i % 2 == 1))) for i in range(self.JOBS)]

    def run(self, text, tr):
        with tr.span("model.parse"):
            p = parse_presentation(text)
        with tr.span("weights.solve"):
            report = find_weights(p)
        return dict(p=p, report=report)

    def check(self, text, out):
        report = out["report"]
        if report.feasible:
            return ["the join has positive weights; it must not"]
        # columns no witness row touches are free, so they cannot change
        # feasibility; leaving them out keeps the elimination small
        touched = [j for j in range(len(report.system.generator_names))
                   if any(r.coefficients[j] for r in report.witness_rows)]
        rows = [[r.coefficients[j] for j in touched] for r in report.witness_rows]
        problems = []
        if positive_integer_kernel(QMatrix.from_rows(rows)).feasible:
            problems.append("witness rows are feasible on their own")
        for i in range(len(rows)):
            rest = rows[:i] + rows[i + 1:]
            if rest and not positive_integer_kernel(QMatrix.from_rows(rest)).feasible:
                problems.append(f"witness stays infeasible without row {i}")
        for r in report.witness_rows:
            if not r.source.startswith(self.INFEASIBLE_PREFIX):
                problems.append(f"witness row {r.label} is outside the infeasible block")
        return problems

    def presentations(self, text, out, tr):
        return [out["p"]]

    def counts(self, text, out):
        return {
            "formal.generators": self.formal_generators,
            "weights.witness_rows": len(out["report"].witness_rows),
        }


def _term(coeff, *monomial):
    return {"coeff": str(coeff), "monomial": [[g, e] for g, e in monomial]}


class FamilyActions(Workload):
    """A conjugated diagonal family on S^2 x (S^3)^k and its actions.

    Generators: x in degree 2, y in degree 3 with d y = x^2, u_0 .. u_{k-1}
    in degree 3.  Cohomology is Q[x]/x^2 tensor an exterior algebra on the
    u_i, so the class x^a u_S scales by t^(a w(x) + sum_{i in S} w(u_i)).
    """

    name = "family-actions"
    # The job list has one job per distinct arrangement of these weights on
    # the u_i.  The arrangement sets most of a job's cost (it varies by 2x),
    # so covering all of them in every run keeps runs comparable; the seed
    # picks w(x), the shear coefficients and the job order.
    U_WEIGHTS = (1, 2, 3, 1)
    COEFFS = (-2, -1, 1, 2)

    def __init__(self, rng, smoke):
        super().__init__(rng, smoke)
        self.k = 3 if smoke else 4
        self.truncation = 2 + 3 * self.k + 1
        doc = {
            "name": f"s2xs3^{self.k}",
            "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}]
            + [{"name": f"u{i}", "degree": 3} for i in range(self.k)],
            "differential": {"y": [_term(1, ("x", 2))]},
            "truncation_degree": self.truncation,
            "formal_dimension": self.truncation - 1,
        }
        self.text = json.dumps(doc)

    def _job_input(self, uw: tuple[int, ...]):
        rng = self.rng
        wx = rng.randint(1, 3)
        w = {"x": wx, "y": 2 * wx, **{f"u{i}": uw[i] for i in range(self.k)}}
        shear_y = {f"u{j}": rng.choice(self.COEFFS) for j in range(self.k)}
        shear_u = {
            (i, j): rng.choice(self.COEFFS) for i in range(self.k) for j in range(i + 1, self.k)
        }
        return dict(weights=w, shear_y=shear_y, shear_u=shear_u)

    def job_list(self):
        arrangements = sorted(set(itertools.permutations(self.U_WEIGHTS[: self.k])))
        self.rng.shuffle(arrangements)
        return [(f"family-{i}", self._job_input(uw)) for i, uw in enumerate(arrangements)]

    def run(self, inp, tr):
        with tr.span("model.parse"):
            p = parse_presentation(self.text)
        alg = p.algebra
        with tr.span("families.diagonal"):
            fam = diagonal_family(p, WeightAssignment(inp["weights"]))
        y = alg.gen("y")
        for name, c in inp["shear_y"].items():
            y = y + alg.gen(name).scale(Fraction(c))
        images = {alg.by_name["y"].gid: y}
        for i in range(self.k):
            u = alg.gen(f"u{i}")
            for j in range(i + 1, self.k):
                u = u + alg.gen(f"u{j}").scale(Fraction(inp["shear_u"][(i, j)]))
            images[alg.by_name[f"u{i}"].gid] = u
        with tr.span("families.automorphism"):
            phi = ModelAutomorphism(p, images)
        with tr.span("families.conjugate"):
            conj = conjugate(fam, phi)
        with tr.span("families.verify"):
            violations = verify_family(conj)
        actions = []
        for n in range(p.truncation_degree):
            with tr.span("cohomology.action"):
                actions.append(induced_action(p, conj, n))
                actions.append(homology_action(p, conj, n))
        certs = []
        for act in actions:
            with tr.span("cohomology.diag"):
                certs.append(diagonalization_certificate(act))
        with tr.span("cohomology.flex"):
            flex = flexibility_report(p, conj)
        return dict(p=p, violations=violations, actions=actions, certs=certs, flex=flex)

    def expected_eigenvalues(self, w: dict, n: int) -> Counter:
        """Exponent multiset on H^n, from the weights alone."""
        out: Counter = Counter()
        for a in (0, 1):
            rest = n - 2 * a
            if rest < 0 or rest % 3:
                continue
            for subset in itertools.combinations(range(self.k), rest // 3):
                out[a * w["x"] + sum(w[f"u{i}"] for i in subset)] += 1
        return out

    def check(self, inp, out):
        w = inp["weights"]
        problems = [f"verify_family: {v}" for v in out["violations"]]
        for act, cert in zip(out["actions"], out["certs"]):
            want = self.expected_eigenvalues(w, act.degree)
            if not cert.diagonalizable:
                problems.append(f"degree {act.degree} {act.variance}: {cert.reason}")
            elif Counter(cert.eigenvalue_powers) != want:
                problems.append(
                    f"degree {act.degree} {act.variance}: eigenvalues "
                    f"{cert.eigenvalue_powers}, expected {dict(want)}"
                )
        top = w["x"] + sum(w[f"u{i}"] for i in range(self.k))
        if out["flex"].top_weight != top:
            problems.append(f"flex top weight {out['flex'].top_weight}, expected {top}")
        return problems

    def presentations(self, inp, out, tr):
        return [out["p"]]

    def counts(self, inp, out):
        return {
            "cohomology.betti_max": max(a.dimension() for a in out["actions"]),
            "scalars.action_terms": sum(
                c.term_count() for a in out["actions"] for row in a.matrix for c in row
            ),
        }


WORKLOADS = {w.name: w for w in (CliCorpus, FormalPipeline, WitnessSearch, FamilyActions)}
