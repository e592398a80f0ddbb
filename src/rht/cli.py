"""Command-line front end.

One subcommand per pipeline stage: validate a presentation, solve for
weights, compute cohomology with its weight splitting and family action,
build or check one-parameter families, build a bigraded model from a
cohomology table, and evaluate the growth and flexibility numerics.

Exit codes: 0 success, 1 domain-level negative (invalid presentation,
infeasible weights, family violations), 2 malformed input or flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import import_module
from typing import TYPE_CHECKING

from .errors import (
    AmbientMismatchError,
    DegreeRangeError,
    SchemaError,
    ToolkitError,
)
from .model import SullivanPresentation, _load_json, load_presentation, load_table
from .scalars import parse_rational
from .weights import WeightAssignment, check_weights, find_weights

if TYPE_CHECKING:
    from .families import OneParameterFamily


def _lazy(module: str, name: str):
    """`name` from `module`, imported on the first call: `rht weights` then
    never loads the cohomology, family, formal or growth layers."""
    def call(*args, **kwargs):
        return getattr(import_module(module, __package__), name)(*args, **kwargs)
    return call


# bound here, not imported inside the subcommands, so that patching a name
# on this module (as the benchmark's spans do) still wraps the call made
cohomology = _lazy(".cohomology", "cohomology")
flexibility_report = _lazy(".cohomology", "flexibility_report")
homology_action = _lazy(".cohomology", "homology_action")
induced_action = _lazy(".cohomology", "induced_action")
weight_decomposition = _lazy(".cohomology", "weight_decomposition")
conjugate = _lazy(".families", "conjugate")
diagonal_family = _lazy(".families", "diagonal_family")
evaluate = _lazy(".families", "evaluate")
family_to_dict = _lazy(".families", "family_to_dict")
load_automorphism = _lazy(".families", "load_automorphism")
load_family = _lazy(".families", "load_family")
verify_family = _lazy(".families", "verify_family")
build_formal_model = _lazy(".formal", "build_formal_model")
growth_report = _lazy(".growth", "growth_report")


class _Negative(ToolkitError):
    """Internal: a well-formed query with a negative answer (exit 1)."""


def _load_presentation(path: str) -> SullivanPresentation:
    p = load_presentation(path)
    bad = p.validate()
    if bad:
        raise _Negative("\n".join(_listed("presentation is invalid:", bad)))
    return p


def _weights_from_file(p: SullivanPresentation, path: str) -> WeightAssignment:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("weight file must hold a JSON object", path)
    # accept either a bare {name: weight} map or a solver report
    if "weights" in doc and isinstance(doc["weights"], dict):
        doc = doc["weights"]
    unknown = set(doc) - {g.name for g in p.generators}
    if unknown:
        raise SchemaError(f"unknown generators {sorted(unknown)}", path)
    bad = {k for k in doc if not isinstance(doc[k], int)}
    if bad:
        raise SchemaError(f"non-integer weights for {sorted(bad)}", path)
    try:
        return WeightAssignment(dict(doc))
    except ToolkitError as exc:
        raise SchemaError(str(exc), path) from exc


def _resolve_weights(p: SullivanPresentation, source: str) -> WeightAssignment:
    """Turn --weights auto|FILE into a checked assignment or fail."""
    if source == "auto":
        rep = find_weights(p)
        if not rep.feasible:
            witnesses = (f"witness {r.label}" for r in rep.witness_rows)
            raise _Negative("\n".join(_listed("no positive weights exist", witnesses)))
        return rep.assignment
    w = _weights_from_file(p, source)
    bad = check_weights(p, w)
    if bad:
        raise _Negative("\n".join(_listed("weight assignment is not valid:", bad)))
    return w


def _resolve_family(p: SullivanPresentation, args) -> OneParameterFamily:
    if getattr(args, "family", None):
        fam = load_family(p, args.family)
    else:
        fam = diagonal_family(p, _resolve_weights(p, args.weights))
    if getattr(args, "conjugate_by", None):
        fam = conjugate(fam, load_automorphism(p, args.conjugate_by))
    return fam


def _default_max_degree(p: SullivanPresentation) -> int:
    if p.formal_dimension is not None:
        return min(p.formal_dimension + 2, p.truncation_degree - 1)
    return p.truncation_degree - 1


def _resolve_max_degree(p: SullivanPresentation, args) -> int:
    if args.max_degree is None:
        return _default_max_degree(p)
    n = args.max_degree
    if n < 0:
        raise SchemaError("--max-degree must be nonnegative")
    if n > p.truncation_degree - 1:
        raise DegreeRangeError(
            f"degree {n} is beyond the certified range of {p.name} "
            f"(truncation {p.truncation_degree} certifies up to "
            f"{p.truncation_degree - 1})"
        )
    return n


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _listed(head: str, items) -> list[str]:
    return [head, *(f"  {item}" for item in items)]


def _weights_line(w: WeightAssignment, p: SullivanPresentation) -> str:
    return " ".join(f"{g.name}:{w[g.name]}" for g in p.generators)


# ---------------------------------------------------------------- subcommands
# each returns its exit code, its JSON document and its text lines; main
# writes the one rendering that --json selects


def _cmd_check(args) -> tuple[int, dict, list[str]]:
    p = load_presentation(args.file)
    bad = [str(v) for v in p.validate()]
    lines = _listed(f"{p.name}: " + ("INVALID" if bad else "valid"), bad)
    return (1 if bad else 0), {"name": p.name, "valid": not bad, "violations": bad}, lines


def _cmd_weights(args) -> tuple[int, dict, list[str]]:
    p = _load_presentation(args.file)
    if args.weights != "auto":
        w = _weights_from_file(p, args.weights)
        bad = [str(v) for v in check_weights(p, w)]
        doc = {
            "feasible": not bad,
            "weights": {} if bad else dict(sorted(w.weights.items())),
            "violations": bad,
        }
        lines = _listed("invalid", bad) if bad else ["feasible: " + _weights_line(w, p)]
        return (1 if bad else 0), doc, lines
    rep = find_weights(p)
    if rep.feasible:
        lines = ["feasible: " + _weights_line(rep.assignment, p)]
    else:
        lines = _listed("infeasible", (f"witness {r.label}" for r in rep.witness_rows))
    return (0 if rep.feasible else 1), rep.to_json_dict(), lines


def _cmd_cohomology(args) -> tuple[int, dict, list[str]]:
    p = _load_presentation(args.file)
    max_degree = _resolve_max_degree(p, args)
    betti = cohomology(p, max_degree).betti_list()
    lines = [f"{p.name}: Betti through degree {max_degree}"]
    lines.append("betti: " + " ".join(str(b) for b in betti))
    weights_doc = action_doc = w = None
    fam = _resolve_family(p, args) if args.family else None
    # weight splitting is reported whenever an assignment is available
    try:
        w = _resolve_weights(p, args.weights)
    except _Negative:
        if args.weights != "auto":
            raise
    if w is None:
        lines.append("weights: infeasible")
    else:
        split = sorted(weight_decomposition(p, w, max_degree).dimensions.items())
        weights_doc = {
            "assignment": dict(sorted(w.weights.items())),
            "betti_by_weight": {
                str(n): {str(wt): dim for wt, dim in sorted(by_w.items())} for n, by_w in split
            },
        }
        lines.append("weights: " + _weights_line(w, p))
        for n, by_w in split:
            lines.append(f"H^{n}: " + " ".join(f"w{wt}:{dim}" for wt, dim in sorted(by_w.items())))
        if fam is None:
            fam = diagonal_family(p, w)
    if fam is not None:
        action_doc = {
            str(n): induced_action(p, fam, n).to_json_dict()["matrix"]
            for n in range(max_degree + 1)
        }
        lines += [f"action H^{n}: {matrix}" for n, matrix in action_doc.items()]
    doc = {
        "name": p.name,
        "certified_through": max_degree,
        "betti": betti,
        "weights": weights_doc,
        "action": action_doc,
    }
    return 0, doc, lines


def _cmd_family(args) -> tuple[int, dict, list[str]]:
    p = _load_presentation(args.file)
    fam = _resolve_family(p, args)
    bad = [str(v) for v in verify_family(fam)]
    if bad:
        doc = {"name": p.name, "verified": False, "violations": bad}
        return 1, doc, _listed("family FAILS verification", bad)
    if args.eval is not None:
        t0 = parse_rational(args.eval)
        # a rational a/b has about log10 max(|a|, b) digits, so a term c t0^k
        # at most those of c plus |k| times those of t0; Python prints ints
        # of at most `limit` digits (0: any)
        limit = getattr(sys, "get_int_max_str_digits", int)()
        digits = lambda q: math.log10(max(abs(q.numerator), q.denominator))
        terms = [(digits(c) + abs(k) * digits(t0), k, c, g.name) for g in p.generators
                 for (_, k), c in fam.images[g.gid].terms.items()]
        size, k, c, name = max(terms, default=(0, 0, 1, ""))
        if limit and size >= limit:
            term = f"t^{k}" if abs(c) == 1 else f"a {int(digits(c)) + 1}-digit coefficient times t^{k}"
            raise ValueError(f"{term} in the image of {name} has more than {limit} digits at t = {t0}")
        ev = evaluate(fam, t0)
        images = {g.name: str(ev.map.images[g.gid]) for g in p.generators}
        doc = {"name": p.name, "parameter": str(t0), "invertible": ev.invertible, "images": images}
        lines = _listed(f"evaluated at t = {t0}", (f"{n} -> {img}" for n, img in images.items()))
        lines.append("invertible" if ev.invertible else "NOT invertible")
        # a well-formed evaluation is a success even when not invertible
        return 0, doc, lines
    lines = _listed(
        "family verified: identity at t=1, chain map, group law",
        (f"{g.name} -> {fam.images[g.gid]}" for g in p.generators),
    )
    return 0, {"name": p.name, "verified": True, "images": family_to_dict(fam)}, lines


def _cmd_act(args) -> tuple[int, dict, list[str]]:
    p = _load_presentation(args.file)
    max_degree = _resolve_max_degree(p, args)
    fam = _resolve_family(p, args)
    act = homology_action if args.dual else induced_action
    reports = [act(p, fam, n) for n in range(max_degree + 1)]
    doc = {
        "name": p.name,
        "variance": "homology" if args.dual else "cohomology",
        "degrees": {str(r.degree): r.to_json_dict() for r in reports},
    }
    lines = [f"{p.name}: induced action per degree"]
    for r in reports:
        if r.basis:
            rows = [[str(c) for c in row] for row in r.matrix]
            lines.append(f"degree {r.degree} on {r.basis}: {rows}")
    return 0, doc, lines


def _cmd_formal_model(args) -> tuple[int, dict, list[str]]:
    table = load_table(args.file)
    if args.max_degree is not None:
        n_trunc = args.max_degree
    else:
        n_trunc = table.max_degree() + 2
    result = build_formal_model(table, n_trunc)
    p = result.model
    lines = [f"built {p.name}: truncation {p.truncation_degree}"]
    for g in p.generators:
        dg = p.d_of(g.gid)
        tail = "closed" if dg.is_zero() else f"d -> {dg}"
        lines.append(
            f"  {g.name}: degree {g.degree}, weight {result.weights[g.name]}, "
            f"stage {result.stages[g.name]}, {tail}"
        )
    return 0, result.to_json_dict(), lines


def _cmd_growth(args) -> tuple[int, dict, list[str]]:
    p = _load_presentation(args.file)
    rep = growth_report(p, _resolve_weights(p, args.weights))
    lines = [
        f"r = {rep.growth_exponent}",
        f"dil = {rep.dil_exponent}",
        f"note: {rep.note}",
    ]
    return 0, rep.to_json_dict(), lines


def _cmd_flex(args) -> tuple[int, dict, list[str]]:
    p = _load_presentation(args.file)
    rep = flexibility_report(p, _resolve_family(p, args))
    line = f"{p.name}: top-degree action t^{rep.top_weight} in degree {rep.formal_dimension}"
    return 0, rep.to_json_dict(), [line]


# -------------------------------------------------------------------- parser


def _add_common(sub, *, weights=False, family=False, max_degree=False):
    sub.add_argument("file", help="input JSON file")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--output", metavar="FILE", help="write the report to FILE")
    if weights:
        sub.add_argument(
            "--weights",
            default="auto",
            metavar="auto|FILE",
            help="solve for weights (auto) or read an assignment from FILE",
        )
    if family:
        sub.add_argument("--family", metavar="FILE", help="one-parameter family file")
        sub.add_argument(
            "--conjugate-by",
            metavar="FILE",
            help="conjugate the family by the automorphism in FILE",
        )
    if max_degree:
        sub.add_argument(
            "--max-degree",
            type=int,
            metavar="N",
            help="top degree to report (default: formal dimension + 2, "
            "else the certified range)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rht",
        description="Exact-arithmetic toolkit for truncated Sullivan models: "
        "weights, one-parameter automorphism families, cohomology actions, "
        "bigraded model building, growth numerics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("check", help="validate a presentation file")
    _add_common(s)
    s.set_defaults(fn=_cmd_check)

    s = subs.add_parser("weights", help="find or check positive weights")
    _add_common(s, weights=True)
    s.set_defaults(fn=_cmd_weights)

    s = subs.add_parser(
        "cohomology", help="Betti numbers, weight splitting, family action"
    )
    _add_common(s, weights=True, family=True, max_degree=True)
    s.set_defaults(fn=_cmd_cohomology)

    s = subs.add_parser(
        "family", help="build, verify, conjugate, or evaluate a family"
    )
    _add_common(s, weights=True, family=True)
    s.add_argument(
        "--eval",
        metavar="T",
        help="evaluate the family at the rational parameter value T",
    )
    s.set_defaults(fn=_cmd_family)

    s = subs.add_parser("act", help="matrix of the induced action per degree")
    _add_common(s, weights=True, family=True, max_degree=True)
    s.add_argument(
        "--dual",
        action="store_true",
        help="report the homology action (transpose) instead",
    )
    s.set_defaults(fn=_cmd_act)

    s = subs.add_parser(
        "formal-model", help="build a bigraded model from a cohomology table"
    )
    _add_common(s)
    s.add_argument(
        "--max-degree",
        type=int,
        metavar="N",
        help="truncation degree of the built model; certifies through N-1; "
        "default: the table's top degree + 2",
    )
    s.set_defaults(fn=_cmd_formal_model)

    s = subs.add_parser("growth", help="growth and dilatation exponents")
    _add_common(s, weights=True)
    s.set_defaults(fn=_cmd_growth)

    s = subs.add_parser("flex", help="top-degree cohomology action weight")
    _add_common(s, weights=True, family=True)
    s.set_defaults(fn=_cmd_flex)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, doc, lines = args.fn(args)
        _emit(args, json.dumps(doc, indent=2, sort_keys=True) if args.json else "\n".join(lines))
        return code
    except _Negative as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (
        SchemaError, AmbientMismatchError, DegreeRangeError, OSError, ValueError, ZeroDivisionError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        # remaining domain errors: invalid weights, family violations,
        # singular conjugators
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
