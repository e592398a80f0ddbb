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
import sys

from .cohomology import (
    cohomology,
    flexibility_report,
    homology_action,
    induced_action,
    weight_decomposition,
)
from .errors import (
    AmbientMismatchError,
    DegreeRangeError,
    SchemaError,
    ToolkitError,
)
from .families import (
    OneParameterFamily,
    conjugate,
    diagonal_family,
    evaluate,
    family_to_dict,
    load_automorphism,
    load_family,
    verify_family,
)
from .formal import build_formal_model
from .growth import growth_report
from .model import SullivanPresentation, _loads, load_presentation, load_table
from .rationals import format_rational, parse_rational
from .weights import WeightAssignment, check_weights, find_weights


class _Negative(ToolkitError):
    """Internal: a well-formed query with a negative answer (exit 1)."""


def _load_presentation(path: str) -> SullivanPresentation:
    p = load_presentation(path)
    bad = p.validate()
    if bad:
        raise _Negative(
            "presentation is invalid:\n" + "\n".join(f"  {v}" for v in bad)
        )
    return p


def _weights_from_file(p: SullivanPresentation, path: str) -> WeightAssignment:
    with open(path, "r", encoding="utf-8") as fh:
        doc = _loads(fh.read(), path)
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
            lines = ["no positive weights exist"]
            lines += [f"  witness {r.label}" for r in rep.witness_rows]
            raise _Negative("\n".join(lines))
        return rep.assignment
    w = _weights_from_file(p, source)
    bad = check_weights(p, w)
    if bad:
        raise _Negative(
            "weight assignment is not valid:\n" + "\n".join(f"  {v}" for v in bad)
        )
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


def _emit_json(args, doc) -> None:
    _emit(args, json.dumps(doc, indent=2, sort_keys=True))


def _weights_line(w: WeightAssignment, p: SullivanPresentation) -> str:
    return " ".join(f"{g.name}:{w[g.name]}" for g in p.generators)


# ---------------------------------------------------------------- subcommands


def _cmd_check(args) -> int:
    p = load_presentation(args.file)
    bad = p.validate()
    if args.json:
        _emit_json(
            args,
            {"name": p.name, "valid": not bad, "violations": [str(v) for v in bad]},
        )
    else:
        lines = [f"{p.name}: " + ("valid" if not bad else "INVALID")]
        lines += [f"  {v}" for v in bad]
        _emit(args, "\n".join(lines))
    return 1 if bad else 0


def _cmd_weights(args) -> int:
    p = _load_presentation(args.file)
    if args.weights != "auto":
        w = _weights_from_file(p, args.weights)
        bad = check_weights(p, w)
        if args.json:
            _emit_json(
                args,
                {
                    "feasible": not bad,
                    "weights": dict(sorted(w.weights.items())) if not bad else {},
                    "violations": [str(v) for v in bad],
                },
            )
        else:
            if bad:
                _emit(args, "\n".join(["invalid"] + [f"  {v}" for v in bad]))
            else:
                _emit(args, "feasible: " + _weights_line(w, p))
        return 1 if bad else 0
    rep = find_weights(p)
    if args.json:
        _emit_json(args, rep.to_json_dict())
    elif rep.feasible:
        _emit(args, "feasible: " + _weights_line(rep.assignment, p))
    else:
        lines = ["infeasible"]
        lines += [f"  witness {r.label}" for r in rep.witness_rows]
        _emit(args, "\n".join(lines))
    return 0 if rep.feasible else 1


def _cmd_cohomology(args) -> int:
    p = _load_presentation(args.file)
    max_degree = _resolve_max_degree(p, args)
    crep = cohomology(p, max_degree)

    weights_doc = None
    action_doc = None
    w = None
    fam = None
    if args.family:
        fam = _resolve_family(p, args)
    # weight splitting is reported whenever an assignment is available
    try:
        w = _resolve_weights(p, args.weights)
    except _Negative:
        if args.weights != "auto":
            raise
    if w is not None:
        wrep = weight_decomposition(p, w, max_degree)
        weights_doc = {
            "assignment": dict(sorted(w.weights.items())),
            "betti_by_weight": wrep.to_json_dict()["betti_by_weight"],
        }
        if fam is None:
            fam = diagonal_family(p, w)
    if fam is not None:
        action_doc = {
            str(n): induced_action(p, fam, n).to_json_dict()["matrix"]
            for n in range(max_degree + 1)
        }

    if args.json:
        _emit_json(
            args,
            {
                "name": p.name,
                "certified_through": max_degree,
                "betti": crep.betti_list(),
                "weights": weights_doc,
                "action": action_doc,
            },
        )
        return 0

    lines = [f"{p.name}: Betti through degree {max_degree}"]
    lines.append("betti: " + " ".join(str(b) for b in crep.betti_list()))
    if weights_doc is not None:
        lines.append("weights: " + _weights_line(w, p))
        for key in sorted(weights_doc["betti_by_weight"], key=int):
            dims = weights_doc["betti_by_weight"][key]
            split = " ".join(f"w{wt}:{d}" for wt, d in sorted(dims.items(), key=lambda kv: int(kv[0])))
            lines.append(f"H^{key}: {split}")
    else:
        lines.append("weights: infeasible")
    if action_doc is not None:
        for key in sorted(action_doc, key=int):
            lines.append(f"action H^{key}: {action_doc[key]}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_family(args) -> int:
    p = _load_presentation(args.file)
    fam = _resolve_family(p, args)
    bad = verify_family(fam)
    if bad:
        doc_bad = [str(v) for v in bad]
        if args.json:
            _emit_json(args, {"name": p.name, "verified": False, "violations": doc_bad})
        else:
            _emit(args, "\n".join(["family FAILS verification"] + [f"  {v}" for v in doc_bad]))
        return 1

    if args.eval is not None:
        t0 = parse_rational(args.eval)
        ev = evaluate(fam, t0)
        images = {
            g.name: str(ev.map.images[g.gid]) for g in p.generators
        }
        if args.json:
            _emit_json(
                args,
                {
                    "name": p.name,
                    "parameter": format_rational(t0),
                    "invertible": ev.invertible,
                    "images": images,
                },
            )
        else:
            lines = [f"evaluated at t = {format_rational(t0)}"]
            lines += [f"  {n} -> {img}" for n, img in images.items()]
            lines.append("invertible" if ev.invertible else "NOT invertible")
            _emit(args, "\n".join(lines))
        # a well-formed evaluation is a success even when not invertible
        return 0

    if args.json:
        _emit_json(args, {"name": p.name, "verified": True, "images": family_to_dict(fam)})
    else:
        lines = ["family verified: identity at t=1, chain map, group law"]
        lines += [f"  {g.name} -> {fam.images[g.gid]}" for g in p.generators]
        _emit(args, "\n".join(lines))
    return 0


def _cmd_act(args) -> int:
    p = _load_presentation(args.file)
    max_degree = _resolve_max_degree(p, args)
    fam = _resolve_family(p, args)
    act = homology_action if args.dual else induced_action
    reports = [act(p, fam, n) for n in range(max_degree + 1)]
    if args.json:
        _emit_json(
            args,
            {
                "name": p.name,
                "variance": "homology" if args.dual else "cohomology",
                "degrees": {str(r.degree): r.to_json_dict() for r in reports},
            },
        )
    else:
        lines = [f"{p.name}: induced action per degree"]
        for r in reports:
            if not r.basis:
                continue
            rows = [[str(c) for c in row] for row in r.matrix]
            lines.append(f"degree {r.degree} on {r.basis}: {rows}")
        _emit(args, "\n".join(lines))
    return 0


def _cmd_formal_model(args) -> int:
    table = load_table(args.file)
    if args.max_degree is not None:
        n_trunc = args.max_degree
    else:
        n_trunc = table.max_degree() + 2
    result = build_formal_model(table, n_trunc)
    if args.json:
        _emit_json(args, result.to_json_dict())
    else:
        p = result.model
        lines = [f"built {p.name}: truncation {p.truncation_degree}"]
        for g in p.generators:
            w = result.weights[g.name]
            dg = p.d_of(g.gid)
            tail = "closed" if dg.is_zero() else f"d -> {dg}"
            lines.append(
                f"  {g.name}: degree {g.degree}, weight {w}, "
                f"stage {result.stages[g.name]}, {tail}"
            )
        _emit(args, "\n".join(lines))
    return 0


def _cmd_growth(args) -> int:
    p = _load_presentation(args.file)
    w = _resolve_weights(p, args.weights)
    rep = growth_report(p, w)
    if args.json:
        _emit_json(args, rep.to_json_dict())
    else:
        lines = [
            f"r = {format_rational(rep.growth_exponent)}",
            f"dil = {format_rational(rep.dil_exponent)}",
            f"note: {rep.note}",
        ]
        _emit(args, "\n".join(lines))
    return 0


def _cmd_flex(args) -> int:
    p = _load_presentation(args.file)
    fam = _resolve_family(p, args)
    rep = flexibility_report(p, fam)
    if args.json:
        _emit_json(args, rep.to_json_dict())
    else:
        _emit(
            args,
            f"{p.name}: top-degree action t^{rep.top_weight} "
            f"in degree {rep.formal_dimension}",
        )
    return 0


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
        return args.fn(args)
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
